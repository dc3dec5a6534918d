"""Regression, rate algebra, holding times, survival fits."""

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import scipy.optimize
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chi_exit import (
    Membership,
    RegularGrid,
    SdeConfig,
    benchmark_potential,
    chi_mean_holding_time,
    dominance_timescale,
    exit_path_direction,
    fit_survival_rate,
    flat_potential,
    gammas_to_rate,
    holding_probability,
    mc_hitting_membership,
    rate_from_eigenpair,
    regress,
    regress_generator_action,
    set_mean_holding_time,
)
from chi_exit.rates import RegressionResult

EPS1 = 0.007105040325860086
EPS2 = 0.0017351331593899657


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-1, max_value=1),
       st.integers(min_value=0, max_value=1000))
def test_regress_recovers_exact_line(g1, g2, salt):
    rng = np.random.default_rng(salt)
    xs = rng.uniform(0, 1, 25)
    xs[0], xs[1] = 0.0, 1.0  # guarantee spread
    ys = g1 * xs + g2
    # the LAD fit is an LP whose termination tolerance sits far above
    # the least-squares floor
    # ls and lad are the config's short names of the same two norms
    for norm, kind, atol in (("least_squares", "least_squares", 1e-8),
                             ("ls", "least_squares", 1e-8),
                             ("least_absolute", "least_absolute", 1e-6),
                             ("lad", "least_absolute", 1e-6)):
        fit = regress(xs, ys, norm)
        np.testing.assert_allclose([fit.gamma1, fit.gamma2], [g1, g2],
                                   rtol=0, atol=atol)
        assert fit.residual_norm < 25 * atol
        assert fit.n_points == 25
        assert fit.norm_kind == kind


def test_lad_ignores_one_outlier():
    xs = np.linspace(0, 1, 12)
    ys = 0.8 * xs + 0.05
    ys[4] += 3.0
    lad = regress(xs, ys, "least_absolute")
    ls = regress(xs, ys, "least_squares")
    np.testing.assert_allclose([lad.gamma1, lad.gamma2], [0.8, 0.05],
                               rtol=0, atol=1e-8)
    assert abs(ls.gamma1 - 0.8) > 0.1


def test_regress_rejects_constant_predictor():
    with pytest.raises(ValueError, match="variance"):
        regress(np.full(10, 0.3), np.linspace(0, 1, 10))


@pytest.mark.parametrize("norm", ["ls", "lad"])
@pytest.mark.parametrize("side", ["xs", "ys"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_regress_rejects_nonfinite_points(capfd, norm, side, bad):
    # a NaN reached LAPACK, which printed DLASCL lines on stderr before its
    # SVD failed to converge
    xs, ys = np.linspace(0.0, 1.0, 6), np.linspace(0.1, 0.6, 6)
    (xs if side == "xs" else ys)[2] = bad
    with pytest.raises(ValueError, match="regression needs finite xs and ys"):
        regress(xs, ys, norm)
    assert capfd.readouterr().err == ""


def test_regress_norm_names():
    xs = np.linspace(0, 1, 5)
    with pytest.raises(ValueError):
        regress(xs, xs, "l-infinity")


@pytest.mark.parametrize("norm", ["ls", "lad"])
def test_regress_rejects_bad_lengths(norm):
    with pytest.raises(ValueError, match="equal length"):
        regress(np.linspace(0, 1, 5), np.linspace(0, 1, 4), norm)
    with pytest.raises(ValueError, match="at least two points"):
        regress([0.5], [0.5], norm)


def test_lad_reports_a_solver_failure(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "linprog", lambda *a, **k:
                        SimpleNamespace(success=False, message="infeasible"))
    with pytest.raises(RuntimeError, match="LAD regression failed: "
                       "infeasible"):
        regress(np.linspace(0, 1, 5), np.linspace(0, 1, 5), "lad")


def test_gammas_to_rate_published_chain():
    fit = RegressionResult(gamma1=0.8201, gamma2=0.0900, residual_norm=0.0,
                           n_points=2500, norm_kind="least_squares")
    report = gammas_to_rate(fit, 100.0)
    alpha = -math.log(0.8201) / 100.0
    beta = alpha * 0.0900 / (0.8201 - 1.0)
    np.testing.assert_allclose(report.alpha, alpha, rtol=1e-14)
    np.testing.assert_allclose(report.beta, beta, rtol=1e-14)
    np.testing.assert_allclose(report.eps1, alpha + beta, rtol=1e-14)
    np.testing.assert_allclose(report.eps2, -beta, rtol=1e-14)
    np.testing.assert_allclose(report.alpha, 0.0020, rtol=0, atol=5e-5)
    np.testing.assert_allclose(report.beta, -0.0010, rtol=0, atol=5e-5)
    np.testing.assert_allclose(report.eps1, 0.0010, rtol=0, atol=5e-5)
    np.testing.assert_allclose(report.pi_chi,
                               0.0900 / (1.0 - 0.8201), rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=1e-4, max_value=0.05),
       st.floats(min_value=1e-5, max_value=0.04),
       st.floats(min_value=0.5, max_value=200.0))
def test_gamma_rate_round_trip(eps1, eps2, tau):
    # forward: rates -> gammas; back through the inversion, to 1e-12
    alpha, beta = eps1 + eps2, -eps2
    g1 = math.exp(-alpha * tau)
    g2 = beta * (g1 - 1.0) / alpha
    fit = RegressionResult(gamma1=g1, gamma2=g2, residual_norm=0.0,
                           n_points=10, norm_kind="least_squares")
    report = gammas_to_rate(fit, tau)
    np.testing.assert_allclose([report.eps1, report.eps2], [eps1, eps2],
                               rtol=1e-12)


def test_gammas_to_rate_no_decay():
    fit = RegressionResult(gamma1=1.02, gamma2=0.0, residual_norm=0.0,
                           n_points=10, norm_kind="least_squares")
    report = gammas_to_rate(fit, 1.0)
    assert report.note == "no decay detected"
    assert not report.meaningful
    assert math.isnan(report.eps1)


def test_gammas_to_rate_noise_dominated():
    fit = RegressionResult(gamma1=-0.2, gamma2=0.0, residual_norm=0.0,
                           n_points=10, norm_kind="least_squares")
    report = gammas_to_rate(fit, 1.0)
    assert report.note == "lag time too long / noise dominated"
    assert not report.meaningful
    assert math.isnan(report.eps1)
    # tau = inf gave eps1 = eps2 = 0 and pi_chi = nan, with no note
    for tau in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tau must be positive"):
            gammas_to_rate(RegressionResult(0.5, 0.1, 0.0, 10,
                                            "least_squares"), tau)


def test_report_tau_is_the_lag_of_its_fit():
    # report.csv's tau column: the lag of a lag fit, with or without a
    # rate, and empty for an eigenpair, which has no lag
    for g1 in (0.8, 1.02, -0.2):
        fit = RegressionResult(g1, 0.05, 0.0, 10, "least_squares")
        assert gammas_to_rate(fit, 40.0).tau == 40.0
    assert rate_from_eigenpair(0.01, 0.3).tau is None


def test_rate_from_eigenpair_frozen(report1):
    np.testing.assert_allclose(report1.eps1, EPS1, rtol=1e-9)
    np.testing.assert_allclose(report1.eps2, EPS2, rtol=1e-9)
    assert report1.meaningful
    np.testing.assert_allclose(report1.pi_chi, 0.19627817964037228,
                               rtol=1e-9)


def test_rate_from_eigenpair_validation():
    # NaN failed no comparison, and inf made eps1 = inf - inf: both gave a
    # report of NaN rates
    for eps_bar in (-0.01, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eps_bar must be positive and "
                                             "finite"):
            rate_from_eigenpair(eps_bar, 0.2)
    with pytest.raises(ValueError):
        rate_from_eigenpair(0.01, 1.2)


def test_meaningful_threshold():
    # meaningful iff eps2 < eps1, i.e. pi_chi < 1/2
    fast = rate_from_eigenpair(0.01, 0.3)
    slow = rate_from_eigenpair(0.01, 0.7)
    assert fast.meaningful and not slow.meaningful


def test_holding_probability(report1):
    val = holding_probability(report1, 0.8, 10.0)
    np.testing.assert_allclose(val, 0.8 * math.exp(-report1.eps1 * 10.0),
                               rtol=1e-14)
    bad = rate_from_eigenpair(0.01, 0.9)
    with pytest.raises(ValueError, match="meaningful"):
        holding_probability(bad, 0.8, 10.0)
    with pytest.raises(ValueError, match="t must be nonnegative"):
        holding_probability(report1, 0.8, math.nan)


def test_chi_mean_holding_time(report1):
    np.testing.assert_allclose(chi_mean_holding_time(report1, 0.22),
                               0.22 / report1.eps1, rtol=1e-14)
    for eps1 in (0.0, -0.1, math.nan):
        with pytest.raises(ValueError, match="needs eps1 > 0"):
            chi_mean_holding_time(replace(report1, eps1=eps1), 0.22)


def test_set_mean_holding_time_chain(flat_chain3):
    t = set_mean_holding_time(flat_chain3, np.array([False, True, False]))
    np.testing.assert_allclose(t, [0.0, 0.5, 0.0], rtol=0, atol=1e-14)


def test_set_mean_holding_time_validation(flat_chain3):
    with pytest.raises(ValueError):
        set_mean_holding_time(flat_chain3, np.zeros(3, dtype=bool))
    with pytest.raises(ValueError):
        set_mean_holding_time(flat_chain3, np.ones(3, dtype=bool))
    # no cell index may wrap: -1 is not the last cell
    for cells in ([-1], [3], np.array([1.0]), np.array([True])):
        with pytest.raises(ValueError):
            set_mean_holding_time(flat_chain3, cells)


def test_set_mean_holding_time_benchmark(gen50, chi1):
    mask = chi1.values > 0.22
    t = set_mean_holding_time(gen50, mask)
    assert np.all(t[~mask] == 0.0)
    assert np.all(t[mask] > 0.0)
    assert t.max() > 100.0


def test_regress_generator_action_identity(gen50, chi1):
    # for an eigen-affine membership the fit is exact
    report = regress_generator_action(gen50, chi1, "least_squares")
    np.testing.assert_allclose(report.alpha, chi1.meta["eps_bar"], rtol=1e-9)
    np.testing.assert_allclose(
        report.beta, -chi1.meta["eps_bar"] * chi1.meta["beta_bar"],
        rtol=1e-9)
    np.testing.assert_allclose(report.eps1, EPS1, rtol=1e-9)


def test_dominance_timescale():
    eps2 = 0.002
    np.testing.assert_allclose(dominance_timescale(0.5, eps2),
                               math.log(2) / (2 * 0.5 * eps2), rtol=1e-14)
    np.testing.assert_allclose(dominance_timescale(1 - 1e-9, eps2),
                               1.0 / eps2, rtol=1e-6)
    with pytest.raises(ValueError):
        dominance_timescale(1.0, eps2)
    for eps2 in (0.0, math.nan):
        with pytest.raises(ValueError, match="eps2 must be positive"):
            dominance_timescale(0.5, eps2)


def test_fit_survival_rate_exact_quantiles():
    rate = 0.004
    n = 400
    u = (np.arange(n) + 0.5) / n
    times = -np.log(1 - u) / rate
    np.testing.assert_allclose(fit_survival_rate(times), rate, rtol=0.05)


def test_fit_survival_rate_with_censoring():
    rate = 0.01
    n = 500
    u = (np.arange(n) + 0.5) / n
    times = -np.log(1 - u) / rate
    horizon = 250.0
    censored = times >= horizon
    times = np.minimum(times, horizon)
    fitted = fit_survival_rate(times, censored)
    np.testing.assert_allclose(fitted, rate, rtol=0.05)


def test_fit_survival_rate_needs_exits():
    assert math.isnan(fit_survival_rate(np.array([5.0, 5.0, 5.0]),
                                        np.array([True, True, True])))
    # two exits with none censored: the second sits at survival zero
    assert math.isnan(fit_survival_rate([1.0, 2.0]))


def test_fit_survival_rate_rejects_censored_of_another_length():
    # a short mask raised numpy's IndexError
    with pytest.raises(ValueError, match="times has 3 entries but censored "
                       "has 2"):
        fit_survival_rate([1.0, 2.0, 3.0], [False, True])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_fit_survival_rate_rejects_an_exit_time_not_finite(bad):
    # sorted last, it sat at survival 0 and was dropped without a word
    with pytest.raises(ValueError, match="not censored must be finite"):
        fit_survival_rate([1.0, bad, 3.0])
    # a censored entry is no exit, whatever it holds
    assert fit_survival_rate([1.0, bad, 2.0, 3.0],
                             [False, True, False, False]) > 0


def test_exit_path_direction_unit_norm(chi1):
    d = exit_path_direction(chi1, np.array([0.52, 0.88]))
    np.testing.assert_allclose(np.linalg.norm(d), 1.0, rtol=1e-12)


def test_exit_path_descends(chi1):
    x = np.array([0.52, 0.88])
    h = 0.02
    values = [chi1.evaluate_batch(x)[0]]
    for _ in range(40):
        x = x + h * exit_path_direction(chi1, x)
        values.append(chi1.evaluate_batch(x)[0])
    assert values[-1] < 0.05 < 0.9 < values[0]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_exit_path_rejects_extremum(chi1):
    peak = chi1.grid.centers[int(np.argmax(chi1.values))]
    with pytest.raises(ValueError, match="critical point"):
        exit_path_direction(chi1, peak)


def test_exit_path_rejects_a_flat_cell():
    # no neighbour is strictly above or below, yet the gradient vanishes
    grid = RegularGrid(5, 5, flat_potential().domain)
    chi = Membership(values=np.full(grid.n, 0.5), grid=grid)
    with pytest.raises(ValueError, match=r"critical point of chi \(gradient"):
        exit_path_direction(chi, np.array([0.5, 0.5]))


def test_exit_path_linear_field():
    pot = flat_potential()
    grid = RegularGrid(5, 5, pot.domain)
    chi = Membership(values=grid.centers[:, 0].copy(), grid=grid)
    d = exit_path_direction(chi, np.array([0.5, 0.5]))
    np.testing.assert_allclose(d, [-1.0, 0.0], rtol=0, atol=1e-12)


def test_exit_path_needs_a_grid_membership_and_position(chi1):
    sampler = mc_hitting_membership(SdeConfig(benchmark_potential()),
                                    (0.2, 0.3, 0.4, 0.5), 5, 5)
    with pytest.raises(ValueError, match="point sampler"):
        exit_path_direction(sampler, np.array([0.5, 0.5]))
    for x in ([1.5, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match="off the grid"):
            exit_path_direction(chi1, np.array(x))
    for x, shape in (([0.1, 0.2, 0.9], r"\(3,\)"),
                     (np.full((2, 2), 0.5), r"\(2, 2\)")):
        with pytest.raises(ValueError, match="not " + shape):
            exit_path_direction(chi1, np.array(x))
