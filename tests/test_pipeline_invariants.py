"""Cross-route invariants of the four rate pipelines on the benchmark."""

import numpy as np
import pytest

from chi_exit import (
    SdeConfig,
    benchmark_potential,
    committor,
    estimate_ptau_chi,
    find_weight_cores,
    gammas_to_rate,
    mc_hitting_membership,
    pcca_multi,
    rate_from_eigenpair,
    regress,
    regress_generator_action,
    propagate,
    uniform_points,
)


def test_idea1_rate_is_meaningful(report1):
    assert report1.eps1 > 0
    assert report1.meaningful


def test_idea2_rate_is_meaningful(gen50, eig3):
    chis = pcca_multi(eig3, 3)
    weights = [c.meta["weight"] for c in chis]
    chi = chis[int(np.argsort(weights)[-1])]
    report = regress_generator_action(gen50, chi, "least_squares")
    assert report.eps1 > 0
    assert report.meaningful


@pytest.mark.xfail(
    strict=False,
    reason="the committor's occupied fraction sits exactly at the "
    "meaningfulness boundary by the x1 reflection symmetry of the "
    "benchmark; the flag is a coin flip at float resolution",
)
def test_idea3_rate_is_meaningful(gen50):
    left, right = find_weight_cores(gen50, 0.0025)
    q = committor(gen50, left, right)
    ptau = propagate(gen50, q.values, 100.0)
    report = gammas_to_rate(regress(q.values, ptau, "least_squares"), 100.0)
    assert report.eps1 > 0
    assert report.meaningful


@pytest.mark.xfail(
    strict=True,
    reason="bias, not noise: a hitting membership with a 100-step budget "
    "is far from the slow subspace, and its noise-free occupied fraction "
    "on the SDE clock is 1.35, above one half; the flag is false for this "
    "protocol",
)
def test_idea4_rate_is_meaningful():
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    chi = mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 100, 100, seed=0)
    pts = uniform_points(50, cfg.potential.domain, seed=0)
    xs, ys = estimate_ptau_chi(chi, pts, 50)
    fit = regress(xs, ys, "least_squares")
    report = gammas_to_rate(fit, 0.05)
    assert report.eps1 > 0
    assert report.meaningful


def test_idea3_committor_rate_positive(gen50):
    left, right = find_weight_cores(gen50, 0.0025)
    q = committor(gen50, left, right)
    ptau = propagate(gen50, q.values, 100.0)
    report = gammas_to_rate(regress(q.values, ptau, "least_squares"), 100.0)
    assert report.eps1 > 0


def test_three_routes_agree(gen50, eig3, chi1, report1):
    # exact eigenspace: eigenpair algebra, lagged regression, and the
    # generator action must give one eps1
    ptau = propagate(gen50, chi1.values, 10.0)
    lagged = gammas_to_rate(regress(chi1.values, ptau, "least_squares"),
                            10.0)
    action = regress_generator_action(gen50, chi1, "least_squares")
    np.testing.assert_allclose(lagged.eps1, report1.eps1, rtol=0, atol=1e-8)
    np.testing.assert_allclose(action.eps1, report1.eps1, rtol=0, atol=1e-8)


def test_lag_invariance(gen50, chi1, report1):
    values = []
    for tau in (1.0, 10.0, 100.0):
        ptau = propagate(gen50, chi1.values, tau)
        fit = regress(chi1.values, ptau, "least_squares")
        values.append(gammas_to_rate(fit, tau).eps1)
    np.testing.assert_allclose(values, report1.eps1, rtol=0, atol=1e-8)


def test_gamma_identity_on_eigenbasis(gen50, chi1):
    # for the eigen-affine membership the fit must return
    # gamma1 = e^{-eps_bar tau}, gamma2 = beta_bar (1 - gamma1)
    eps_bar = chi1.meta["eps_bar"]
    beta_bar = chi1.meta["beta_bar"]
    for tau in (1.0, 10.0, 100.0):
        fit = regress(chi1.values, propagate(gen50, chi1.values, tau),
                      "least_squares")
        g1 = np.exp(-eps_bar * tau)
        assert abs(fit.gamma1 - g1) < 1e-8
        assert abs(fit.gamma2 - beta_bar * (1.0 - g1)) < 1e-8
