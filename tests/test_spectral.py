"""Eigensolver and transfer-operator propagation."""

import math

import mpmath
import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.linalg import ArpackNoConvergence, expm_multiply

from chi_exit import (
    RegularGrid,
    build_sqrt_generator,
    committor,
    eigensolve,
    find_weight_cores,
    flat_potential,
    propagate,
    set_mean_holding_time,
)
from chi_exit import spectral
from chi_exit.grid_generator import GeneratorMatrix

# frozen from the 50x50 benchmark build
LAMBDA_2 = 0.0025711021476007576
LAMBDA_3 = 0.008840173485250052


def test_benchmark_eigenvalues(eig3):
    assert abs(eig3.eigenvalues[0]) < 1e-12
    np.testing.assert_allclose(eig3.eigenvalues[1], LAMBDA_2, rtol=1e-9)
    np.testing.assert_allclose(eig3.eigenvalues[2], LAMBDA_3, rtol=1e-9)


def test_eigenvalues_ascending(eig3):
    assert np.all(np.diff(eig3.eigenvalues) >= 0)


def test_weighted_orthonormality(gen50, eig3):
    f = eig3.eigenvectors
    gram = f.T @ (gen50.weights[:, None] * f)
    np.testing.assert_allclose(gram, np.eye(eig3.count), rtol=0, atol=1e-10)


def test_sign_convention(eig3):
    for k in range(eig3.count):
        v = eig3.eigenvectors[:, k]
        assert v[np.argmax(np.abs(v))] > 0


def test_eigenvector_residuals(gen50, eig3):
    for k in range(eig3.count):
        v = eig3.eigenvectors[:, k]
        r = gen50.rates @ v - eig3.eigenvalues[k] * v
        assert np.max(np.abs(r)) < 1e-9


def test_first_eigenvector_constant(eig3):
    v = eig3.eigenvectors[:, 0]
    np.testing.assert_allclose(v, np.ones_like(v), rtol=0, atol=1e-8)


def test_sparse_path_matches_chain_formula():
    # 70x70, away from the default 50x50 grid; flat-potential
    # eigenvalues are 2(1 - cos(pi k / n)) per axis
    pot = flat_potential()
    grid = RegularGrid(70, 70, pot.domain)
    gen = build_sqrt_generator(pot, grid, 1.0)
    eig = eigensolve(gen, 2)
    expected = 2.0 * (1.0 - np.cos(np.pi / 70))
    assert abs(eig.eigenvalues[0]) < 1e-8
    np.testing.assert_allclose(eig.eigenvalues[1], expected, rtol=1e-8)


def test_eigensolve_matches_dense_reference_on_a_non_square_grid(bench):
    # a wrong fill-reducing ordering or a transposed factor passes unseen
    # on a square grid, whose cell numbering is the same either way round
    gen = build_sqrt_generator(bench, RegularGrid(9, 6, bench.domain), 1.0)
    eig = eigensolve(gen, 4)
    dense = np.linalg.eigvalsh(gen.symmetrized().toarray())[:4]
    assert abs(eig.eigenvalues[0]) < 1e-12 and abs(dense[0]) < 1e-12
    np.testing.assert_allclose(eig.eigenvalues[1:], dense[1:], rtol=1e-10)
    f = eig.eigenvectors
    resid = gen.rates @ f - f * eig.eigenvalues
    assert np.max(np.abs(resid)) < 1e-9


def test_propagate_semigroup(gen50):
    rng = np.random.default_rng(3)
    v = rng.uniform(0, 1, gen50.n)
    np.testing.assert_allclose(
        propagate(gen50, propagate(gen50, v, 5.0), 5.0),
        propagate(gen50, v, 10.0),
        rtol=0, atol=1e-10,
    )


def test_propagate_identity_at_zero(gen50):
    rng = np.random.default_rng(4)
    v = rng.uniform(0, 1, gen50.n)
    out = propagate(gen50, v, 0.0)
    assert out.tobytes() == v.tobytes()
    assert not np.shares_memory(out, v)


def test_propagate_preserves_constants(gen50):
    ones = np.ones(gen50.n)
    np.testing.assert_allclose(propagate(gen50, ones, 50.0), ones, rtol=0,
                               atol=1e-10)


def test_propagate_preserves_positivity_and_bounds(gen50):
    rng = np.random.default_rng(5)
    v = rng.uniform(0, 1, gen50.n)
    out = propagate(gen50, v, 20.0)
    assert out.min() > -1e-12
    assert out.max() < 1.0 + 1e-12


def test_propagate_conserves_weighted_mass(gen50):
    rng = np.random.default_rng(6)
    v = rng.uniform(0, 1, gen50.n)
    before = float(gen50.weights @ v)
    after = float(gen50.weights @ propagate(gen50, v, 30.0))
    np.testing.assert_allclose(after, before, rtol=1e-10)


def test_propagate_matches_expm(bench):
    grid = RegularGrid(12, 12, bench.domain)
    gen = build_sqrt_generator(bench, grid, 1.0)
    rng = np.random.default_rng(7)
    v = rng.uniform(0, 1, gen.n)
    expected = expm_multiply(-2.5 * gen.rates.tocsc(), v)
    np.testing.assert_allclose(propagate(gen, v, 2.5), expected, rtol=0,
                               atol=1e-9)


@pytest.mark.parametrize("tau", [2.5, 30.0, 100.0, 1000.0])
def test_propagate_matches_dense_expm(bench, tau):
    grid = RegularGrid(30, 30, bench.domain)
    gen = build_sqrt_generator(bench, grid, 1.0)
    rng = np.random.default_rng(8)
    v = rng.uniform(0, 1, gen.n)
    expected = expm(-tau * gen.rates.toarray()) @ v
    np.testing.assert_allclose(propagate(gen, v, tau), expected, rtol=0,
                               atol=1e-12)


def test_negative_tau_rejected(gen50):
    with pytest.raises(ValueError):
        propagate(gen50, np.ones(gen50.n), -1.0)


@pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
def test_nonfinite_tau_rejected(gen50, tau):
    with pytest.raises(ValueError, match="tau must be finite"):
        propagate(gen50, np.ones(gen50.n), tau)


@pytest.mark.parametrize("t", [-5.0, np.nan, np.inf])
def test_expm_action_rejects_a_negative_or_nonfinite_t(bench, t):
    # a negative c used to be floored to 2^-60, which returned about v
    # where exp(5 L*) v reaches 9e14 on this grid; a NaN t used to blame
    # the series' range
    gen = build_sqrt_generator(bench, RegularGrid(10, 10, bench.domain), 1.0)
    with pytest.raises(ValueError, match="t must be finite and nonnegative"):
        spectral.expm_action(gen.rates, np.ones(gen.n), t)


def test_propagate_rejects_a_tau_past_the_chebyshev_range(gen50):
    # c = tau max L*_ii is past 2^30, where the series would take over
    # 2^18 sparse products; the weights must raise there, not run on
    with pytest.raises(ValueError, match="past the Chebyshev series' range"):
        propagate(gen50, np.ones(gen50.n), 3e8)


@pytest.mark.parametrize("c", [0.0, 5e-324, 1e-300, 1e-8, 2.0, 17.0,
                               411.2354267873026, 5000.0])
def test_chebyshev_weights_match_the_exact_bessel_values(c):
    # 411.235... is the c of a default idea3 or validate run, where
    # scipy.special.ive(k, c) misses by 3.0e-14 relative (1.3e-13 at 5000)
    w = spectral._chebyshev_weights(c)
    with mpmath.workdps(50):
        exact = [float((1 if k == 0 else 2) * mpmath.besseli(k, c)
                       * mpmath.exp(-c)) for k in range(w.size)]
    np.testing.assert_allclose(w, exact, rtol=4e-15, atol=0)
    assert abs(math.fsum(w) - 1.0) <= 2.0 ** -52


def test_propagate_shape_error_names_the_shape(gen50):
    with pytest.raises(ValueError, match=r"shape \(2500, 1\) does not match "
                                         r"grid shape \(2500,\)"):
        propagate(gen50, np.ones((gen50.n, 1)), 1.0)


def test_eigensolve_k_bounds(gen_small):
    with pytest.raises(ValueError):
        eigensolve(gen_small, 0)
    with pytest.raises(ValueError):
        eigensolve(gen_small, gen_small.n)
    # a float count is a TypeError here, not a SystemError inside ARPACK
    with pytest.raises(TypeError):
        eigensolve(gen_small, 2.5)


def test_eigensolve_rejects_a_generator_without_detailed_balance():
    # a one-way cycle keeps the uniform vector stationary, but its flux
    # runs one way round, so no symmetrization of it is symmetric
    cycle = sp.csr_matrix(np.eye(3) - np.roll(np.eye(3), 1, axis=1))
    gen = GeneratorMatrix(rates=cycle, weights=np.full(3, 1 / 3),
                          grid=RegularGrid(3, 1))
    np.testing.assert_allclose(gen.weights @ cycle.toarray(), 0.0, atol=1e-15)
    with pytest.raises(ValueError, match="violates detailed balance"):
        eigensolve(gen, 1)


def test_eigensolve_reports_arpack_no_convergence(gen_small, monkeypatch):
    def stalled(a, k, **kwargs):
        vec = np.ones((a.shape[0], 1)) / np.sqrt(a.shape[0])
        raise ArpackNoConvergence("stalled", np.zeros(1), vec)

    monkeypatch.setattr(spectral, "eigsh", stalled)
    with pytest.raises(RuntimeError, match=r"converged only 1 of 3 pairs; "
                       r"residuals \[[0-9.e-]+\]") as info:
        eigensolve(gen_small, 3)
    assert isinstance(info.value.__cause__, ArpackNoConvergence)


@pytest.mark.parametrize("n", [50, 200])
def test_committor_and_holding_time_solve_to_roundoff(bench, n):
    # both solve with the no-pivot minimum-degree factor; the normwise
    # relative residual |b - A x| / (|A| |x|), infinity norms
    gen = build_sqrt_generator(bench, RegularGrid(n, n, bench.domain), 1.0)

    def residual(a, x, b):
        norm = abs(a).sum(axis=1).max()
        return np.abs(b - a @ x).max() / (norm * np.abs(x).max())

    left, right = find_weight_cores(gen, 0.0025 * 2500 / gen.n)
    q = committor(gen, left, right).values
    core = gen.cell_mask(left)
    free = ~(core | gen.cell_mask(right))
    rhs = -np.asarray(gen.rates[free][:, core].sum(axis=1)).ravel()
    assert residual(gen.restricted(free), q[free], rhs) <= 1e-12
    # the cells left of the barrier, which hold one deep well
    mask = np.arange(gen.n) < gen.n // 2
    t = set_mean_holding_time(gen, mask)
    assert residual(gen.restricted(mask), t[mask], np.ones(gen.n // 2)) <= 1e-12
