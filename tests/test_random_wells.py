"""The grid routes' exact identities on random reversible generators.

Every identity of the paper is tested elsewhere on one potential at one
temperature.  Here hypothesis draws sums of Gaussian wells (``wells``),
derandomized with a fixed budget so that the suite stays deterministic.
The identities that hold at any accuracy of the eigensolve are asserted
on every draw.  Those that need the eigenfunctions pointwise, not only in
the pi-weighted norm, are asserted where the pointwise error bound of
``eigensolve``'s ``f = v / sqrt(pi)``, the pi-weighted residual over the
root of the smallest weight, is within the 1e-10 that PCCA+ allows for
its row sums; idea3's lags also need the propagator to keep the constant
vector to 1e-10.  Of the 40 draws, 5 are rejected as degenerate by
``pcca_single``, 35 meet the idea2 bound, and 31 run every identity.
Draws past either bound that fail today are strict xfails that state the
measured cause.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings

from chi_exit import (
    eigensolve,
    gammas_to_rate,
    pcca_multi,
    pcca_single,
    propagate,
    rate_from_eigenpair,
    regress,
    regress_generator_action,
)
from chi_exit.membership import GAP_TOL
from wells import Wells, galerkin, random_wells

#: The row-sum tolerance of ``pcca_multi``, which the pointwise error
#: bound of the eigenfunctions must stay within for the pointwise
#: identities to be asserted.
POINTWISE = 1e-10

#: Unit roundoff.
U = np.finfo(float).eps / 2


def _assert_reversible(gen):
    # detailed balance pi_i L_ij = pi_j L_ji and zero row sums, each to a
    # few roundings of the entries involved
    flux = gen.rates.multiply(gen.weights[:, None]).tocsr()
    assert abs(flux - flux.T).max() <= 8 * U * abs(flux).max()
    mag = abs(gen.rates) @ np.ones(gen.n)
    assert np.all(np.abs(gen.rates @ np.ones(gen.n)) <= 8 * U * mag)


def _idea2_bound(gen, chi):
    """How far idea2's eps1 may lie from idea1's: the least-squares fit of
    L* chi on (chi, 1) moves its coefficients by at most |r|/sigma_min
    for the residual r of L* chi = eps_bar (chi - beta_bar), and eps1 is
    their sum; plus the roundoff of the fit."""
    eps_bar, beta_bar = chi.meta["eps_bar"], chi.meta["beta_bar"]
    r = gen.rates @ chi.values - eps_bar * (chi.values - beta_bar)
    design = np.column_stack([chi.values, np.ones(gen.n)])
    sv = np.linalg.svd(design, compute_uv=False)
    return (math.sqrt(2) * np.linalg.norm(r) / sv[-1]
            + 16 * U * sv[0] / sv[-1] * eps_bar * (1 + beta_bar))


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          phases=[Phase.explicit, Phase.generate])
@given(random_wells())
def test_grid_routes_agree_on_random_wells(draw):
    gen = draw.generator()
    _assert_reversible(gen)
    eig = eigensolve(gen, 3)
    lam = eig.eigenvalues
    try:
        chi = pcca_single(eig, 2)
    except ValueError:
        # only a pair that is not uniquely separated is rejected
        assert lam[1] < 1e-12 or lam[2] - lam[1] < GAP_TOL * lam[2]
        return
    eps_bar, beta_bar = chi.meta["eps_bar"], chi.meta["beta_bar"]
    idea1 = rate_from_eigenpair(eps_bar, beta_bar)
    idea2 = regress_generator_action(gen, chi)
    assert abs(idea2.eps1 - idea1.eps1) <= _idea2_bound(gen, chi)
    vecs = eig.eigenvectors
    res = np.sqrt(gen.weights @ (gen.rates @ vecs - vecs * lam) ** 2).max()
    if res / math.sqrt(gen.weights.min()) > POINTWISE:
        return
    assert abs(idea2.eps1 - idea1.eps1) <= 1e-8 * idea1.eps1
    if abs(beta_bar - 0.5) > 1e-6:
        assert idea1.meaningful == idea2.meaningful
    # lag invariance and the gamma identity: at every lag the fit returns
    # gamma1 = e^{-eps_bar tau} and gamma2 = beta_bar (1 - gamma1), where
    # the propagator keeps the constant vector to POINTWISE at the longest
    # lag (its error grows with the lag, and past 2^30 it refuses)
    try:
        drift = np.abs(propagate(gen, np.ones(gen.n), 4.0 / eps_bar)
                       - 1.0).max()
    except ValueError as err:
        assert "past the Chebyshev series' range" in str(err)
        drift = math.inf
    if drift <= POINTWISE:
        for c in (0.25, 1.0, 4.0):
            tau = c / eps_bar
            fit = regress(chi.values, propagate(gen, chi.values, tau))
            g1 = math.exp(-c)
            assert abs(fit.gamma1 - g1) < 1e-8
            assert abs(fit.gamma2 - beta_bar * (1.0 - g1)) < 1e-8
            idea3 = gammas_to_rate(fit, tau)
            assert abs(idea3.eps1 - idea1.eps1) <= 1e-8 * idea1.eps1
            if abs(beta_bar - 0.5) > 1e-6:
                assert idea1.meaningful == idea3.meaningful
    # PCCA+ at two and three clusters: nonnegative memberships with
    # partition of unity, whose Galerkin generator Q_c has the spectrum
    # lambda_1 .. lambda_m and zero row sums (test_membership states the
    # tolerance)
    for m in (2, 3):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            chis = pcca_multi(eig, m)
        x = np.column_stack([c.values for c in chis])
        assert x.min() >= -POINTWISE
        assert np.abs(x.sum(axis=1) - 1.0).max() <= POINTWISE
        q, cond = galerkin(gen, chis)
        assert np.abs(np.sort_complex(np.linalg.eigvals(q))
                      - lam[:m]).max() <= cond * res
        assert np.abs(q.sum(axis=1)).max() <= cond * res
        for j, chi_j in enumerate(chis if m == 2 else ()):
            # L* chi_j = Q_jj chi_j + Q_kj (1 - chi_j), so idea2 reads Q_jj
            r = (gen.rates @ chi_j.values - q[j, j] * chi_j.values
                 - q[1 - j, j] * chis[1 - j].values)
            smin = np.linalg.svd(np.column_stack([chi_j.values,
                                                  np.ones(gen.n)]),
                                 compute_uv=False)[-1]
            err = regress_generator_action(gen, chi_j).eps1 - q[j, j]
            assert abs(err) <= math.sqrt(2) * np.linalg.norm(r) / smin


#: Cold draws past the pointwise bound on which a pointwise identity
#: fails today, each with pi_min/pi_max and max |f_1 - 1| as measured.
_COLD = {
    # one well: pi_min/pi_max 1.5e-15, max |f_1 - 1| 1.0e-9
    "one-well": Wells(((-3.33, 0.83, 0.79, 0.11),), 25, 27, 0.097),
    # 1.3e-17, 1.7e-8
    "four-wells": Wells(((-3.33, 0.01, 0.59, 0.1), (2.42, 0.03, 0.22, 0.21),
                         (-2.94, 0.42, 0.3, 0.12), (-2.12, 0.98, 0.32, 0.08)),
                        17, 27, 0.133),
    # 3.3e-31, 5.1e-10
    "coldest": Wells(((-1.42, 0.07, 0.05, 0.28), (-0.67, 0.89, 0.24, 0.2),
                      (-1.96, 0.88, 0.22, 0.19), (3.73, 0.73, 0.55, 0.14)),
                     17, 6, 0.081),
}


@pytest.mark.xfail(
    strict=True, raises=ValueError,
    reason="pointwise eigenfunction error: eigensolve returns f = v / "
    "sqrt(pi), so the pi-weighted residual (about 1e-15) is amplified in "
    "the lowest-weight cells; max |f_1 - 1| reads 1.0e-9, 1.7e-8 and "
    "5.1e-10 on these draws, PCCA+'s row sums equal f_1 pointwise, and "
    "pcca_multi raises past 1e-10 (partition of unity on one-well and "
    "coldest, negative memberships on four-wells)")
@pytest.mark.parametrize("draw", list(_COLD.values()), ids=list(_COLD))
def test_pcca_multi_on_cold_wells(draw):
    eig = eigensolve(draw.generator(), 3)
    assert np.abs(eig.eigenvectors[:, 0] - 1.0).max() > POINTWISE
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        chis = pcca_multi(eig, 3)
    x = np.column_stack([c.values for c in chis])
    assert x.min() >= -POINTWISE
    assert np.abs(x.sum(axis=1) - 1.0).max() <= POINTWISE


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="unweighted regression: idea2 fits L* chi on (chi, 1) with "
    "every cell weighted alike, and L* chi carries the pointwise "
    "eigen residual of cells whose weight is 1.3e-17 and 3.3e-31 of the "
    "largest; idea2 leaves idea1 by 2.1e-2 and 6.5e-4 relative, within "
    "the residual's least-squares bound")
@pytest.mark.parametrize("name", ["four-wells", "coldest"])
def test_idea2_on_cold_wells(name):
    gen = _COLD[name].generator()
    chi = pcca_single(eigensolve(gen, 3), 2)
    idea1 = rate_from_eigenpair(chi.meta["eps_bar"], chi.meta["beta_bar"])
    idea2 = regress_generator_action(gen, chi)
    assert abs(idea2.eps1 - idea1.eps1) <= _idea2_bound(gen, chi)
    assert abs(idea2.eps1 - idea1.eps1) <= 1e-8 * idea1.eps1


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="propagator roundoff: expm_action's error grows with t (hi - lo) "
    "(about 1.2e-16 per unit); two wells at kbt 0.13 give eps_bar 1.8e-7, "
    "so the lag 4/eps_bar leaves the constant vector off by 1.5e-7, and "
    "idea3 leaves idea1 by 5.2e-8 to 9.1e-8 relative over the three lags")
def test_idea3_on_stiff_wells():
    gen = Wells(((-2.03, 0.3, 0.87, 0.07), (-2.15, 0.75, 0.02, 0.12)), 15, 26,
                0.13).generator()
    chi = pcca_single(eigensolve(gen, 3), 2)
    eps_bar, beta_bar = chi.meta["eps_bar"], chi.meta["beta_bar"]
    idea1 = rate_from_eigenpair(eps_bar, beta_bar)
    for c in (0.25, 1.0, 4.0):
        fit = regress(chi.values, propagate(gen, chi.values, c / eps_bar))
        idea3 = gammas_to_rate(fit, c / eps_bar)
        assert abs(idea3.eps1 - idea1.eps1) <= 1e-8 * idea1.eps1


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(random_wells())
def test_random_well_gradient_matches_differences(draw):
    # central differences of the energy, error O(h^2) over widths >= 0.05
    x = np.array([[0.3, 0.7], [0.51, 0.49], [0.9, 0.1]])
    h = 1e-6
    diff = np.stack([(draw.potential(x + e) - draw.potential(x - e)) / (2 * h)
                     for e in np.eye(2) * h], axis=-1)
    np.testing.assert_allclose(draw.potential.grad(x), diff, rtol=0,
                               atol=1e-5)
