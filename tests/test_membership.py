"""Membership constructions: PCCA+, committors, MC hitting."""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import fmin, rosen

from chi_exit import (
    RegularGrid,
    SdeConfig,
    benchmark_potential,
    build_sqrt_generator,
    committor,
    eigensolve,
    find_weight_cores,
    flat_potential,
    mc_hitting_membership,
    pcca_multi,
    pcca_single,
)
from chi_exit import membership
from chi_exit.grid_generator import GeneratorMatrix
from chi_exit.membership import Membership
from chi_exit.spectral import EigenSystem
from chi_exit.sde import _in_box

# frozen from the 50x50 benchmark build
EPS_BAR = 0.008840173485250052
BETA_BAR = 0.19627817964037228


def test_membership_range_validation():
    with pytest.raises(ValueError):
        Membership(values=np.array([-0.1, 0.5]), grid=RegularGrid(2, 1))
    chi = Membership(values=np.array([0.0, 1.0 + 5e-10]),
                     grid=RegularGrid(2, 1))
    assert chi.values.max() == 1.0


def test_pcca_single_normalization(chi1):
    assert chi1.values.min() == 0.0
    assert chi1.values.max() == 1.0
    assert chi1.kind == "grid_vector"


def test_pcca_single_meta(chi1):
    np.testing.assert_allclose(chi1.meta["eps_bar"], EPS_BAR, rtol=1e-9)
    np.testing.assert_allclose(chi1.meta["beta_bar"], BETA_BAR, rtol=1e-9)


def test_pcca_single_affine_identity(gen50, chi1):
    # L* chi = eps_bar chi - eps_bar beta_bar on the whole grid
    lhs = gen50.rates @ chi1.values
    rhs = (chi1.meta["eps_bar"] * chi1.values
           - chi1.meta["eps_bar"] * chi1.meta["beta_bar"])
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_pcca_single_rejects_kernel(eig3):
    with pytest.raises(ValueError):
        pcca_single(eig3, 1)


#: A slow-eigenfunction-like column on a 3x2 grid, for hand-made pairs.
_F = np.array([-1.0, -1.0, 0.0, 0.0, 1.0, 1.0])


@pytest.mark.parametrize("lam2,f2,message", [
    (1e-13, _F, "eigenvalue 1e-13 is not separated from zero"),
    (0.5, np.full(6, 0.3), "eigenfunction 2 is constant"),
], ids=["zero-eigenvalue", "constant-eigenfunction"])
def test_pcca_single_rejects_an_unusable_pair(lam2, f2, message):
    eig = EigenSystem(np.array([0.0, lam2, 1.0]),
                      np.column_stack([np.ones(6), f2, _F ** 2]),
                      RegularGrid(3, 2))
    with pytest.raises(ValueError, match=message):
        pcca_single(eig, 2)


def test_pcca_multi_rejects_a_singular_vertex_matrix():
    # the third column is the second up to 1e-14, so the simplex is flat
    wiggle = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    eig = EigenSystem(np.array([0.0, 0.5, 1.0]),
                      np.column_stack([np.ones(6), _F, _F + 1e-14 * wiggle]),
                      RegularGrid(3, 2))
    with pytest.raises(ValueError, match="singular simplex vertex matrix"):
        pcca_multi(eig, 3)


def test_pcca_single_rejects_degenerate_pair():
    # a square flat box has lambda_2 = lambda_3 by symmetry
    pot = flat_potential()
    grid = RegularGrid(20, 20, pot.domain)
    gen = build_sqrt_generator(pot, grid, 1.0)
    eig = eigensolve(gen, 3)
    with pytest.raises(ValueError, match="degenerate"):
        pcca_single(eig, 2)


def test_pcca_multi_partition_of_unity(eig3):
    chis = pcca_multi(eig3, 3)
    total = sum(c.values for c in chis)
    np.testing.assert_allclose(total, np.ones_like(total), rtol=0,
                               atol=1e-10)
    for c in chis:
        assert c.values.min() > -1e-10


def test_pcca_multi_weights(eig3):
    chis = pcca_multi(eig3, 3)
    weights = sorted(c.meta["weight"] for c in chis)
    np.testing.assert_allclose(sum(weights), 1.0, rtol=1e-9)
    # two deep wells share most of the measure; frozen windows
    assert abs(weights[1] - 0.4452) < 0.01
    assert abs(weights[2] - 0.4452) < 0.01
    assert abs(weights[0] - 0.1067) < 0.01


def test_pcca_multi_needs_two_clusters(eig3):
    # one cluster is the constant membership, which no route reads
    for m in (0, 1):
        with pytest.raises(ValueError, match="between 2 and 3"):
            pcca_multi(eig3, m)


@pytest.mark.parametrize("call", [
    lambda eig: pcca_single(eig, 2.5),
    lambda eig: pcca_multi(eig, 2.7),
], ids=["pcca_single", "pcca_multi"])
def test_pcca_counts_must_be_integers(eig3, call):
    # a float count or index is an error, never truncated to an int
    with pytest.raises(TypeError):
        call(eig3)


def test_pcca_multi_order_survives_roundoff(eig3):
    # the two deep wells are mirror images, so which one the simplex
    # meets first is roundoff's choice; the returned order must not be
    base = pcca_multi(eig3, 3)
    peaks = [eig3.grid.centers[np.argmax(c.values), 0] for c in base]
    assert peaks == sorted(peaks)
    rng = np.random.default_rng(0)
    for _ in range(10):
        vecs = eig3.eigenvectors * (
            1.0 + 1e-13 * rng.standard_normal(eig3.eigenvectors.shape))
        chis = pcca_multi(EigenSystem(eig3.eigenvalues, vecs, eig3.grid), 3)
        for chi, ref in zip(chis, base):
            np.testing.assert_allclose(chi.values, ref.values, rtol=0,
                                       atol=1e-6)


def test_pcca_multi_warns_when_its_budget_is_spent(eig3, monkeypatch):
    monkeypatch.setattr(membership, "_CRISPNESS_BUDGET", 50)
    with pytest.warns(UserWarning, match="unconverged after 50 evaluations"):
        chis = pcca_multi(eig3, 3)
    total = sum(c.values for c in chis)
    np.testing.assert_allclose(total, np.ones_like(total), rtol=0,
                               atol=1e-10)


def _assert_repeats_fmin(fun, x0, args, budget):
    # scipy's fmin is the reference the port must repeat bit for bit
    x_ref, _, _, _, warnflag = fmin(fun, x0, args=args, xtol=1e-10,
                                    ftol=1e-10, maxiter=budget,
                                    maxfun=budget, disp=False,
                                    full_output=True)
    x, converged = membership._nelder_mead(fun, x0, args, 1e-10, budget)
    assert x.tobytes() == x_ref.tobytes()
    assert converged == (warnflag == 0)


@pytest.fixture(scope="module")
def eig5(gen50):
    return eigensolve(gen50, 5)


@pytest.mark.parametrize("budget", [100, 20000])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_nelder_mead_repeats_fmin_on_crispness(eig5, m, budget):
    x = eig5.eigenvectors[:, :m]
    a0 = membership._fill_a(
        np.linalg.inv(x[membership._isa_vertices(x)])[1:, 1:], x)
    _assert_repeats_fmin(membership._crispness, a0[1:, 1:].ravel(), (x,),
                         budget)


def _crispness_reference(free, x):
    # the crispness through numpy's Python wrappers, which the direct
    # ufunc calls of _fill_a and _crispness must repeat bit for bit
    m = x.shape[1]
    a = np.zeros((m, m))
    a[1:, 1:] = np.reshape(free, (m - 1, m - 1))
    a[1:, 0] = -a[1:, 1:].sum(axis=1)
    for j in range(m):
        a[0, j] = -(x[:, 1:] @ a[1:, j]).min()
    total = a[0, :].sum()
    if total <= 0:
        return 1e6
    a = a / total
    if np.any(a[0, :] < 1e-12):
        return 1e6
    return -float(((a * a).sum(axis=0) / a[0, :]).sum())


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_crispness_repeats_the_wrapper_formula(eig5, m):
    x = eig5.eigenvectors[:, :m]
    a0 = membership._fill_a(
        np.linalg.inv(x[membership._isa_vertices(x)])[1:, 1:], x)
    rng = np.random.default_rng(m)
    feasible = 0
    for scale in np.repeat([1e-3, 1e-2, 0.1, 1.0], 60):
        free = a0[1:, 1:].ravel() * (1.0 + scale * rng.standard_normal(
            (m - 1) ** 2))
        want = _crispness_reference(free, x)
        assert membership._crispness(free, x).hex() == want.hex()
        feasible += want != 1e6
    assert feasible >= 100


def _floors(x):
    # flat steps tie vertices and force shrinks: budgets 7 and 8 stop
    # partway through a three-vertex shrink, and budget 2 stops before
    # every vertex of the first simplex is evaluated
    return float(np.floor(4 * np.abs(x)).sum())


@pytest.mark.parametrize("budget", [2, 7, 8, 40, 133, 20000])
@pytest.mark.parametrize("fun, x0", [
    (rosen, [-1.2, 1.0]),
    (rosen, [0.0, 2.0, -1.0]),
    (rosen, [1.3, 0.7, 0.8, 1.9]),
    (_floors, [0.3, 0.3, 0.3]),
], ids=["rosen2", "rosen3-zero", "rosen4", "floors3"])
def test_nelder_mead_repeats_fmin(fun, x0, budget):
    _assert_repeats_fmin(fun, np.array(x0), (), budget)


def test_fill_a_rejects_a_degenerate_completion(eig3):
    # all-zero free coefficients leave every membership at 0, so no
    # scaling reaches a partition of unity
    with pytest.raises(ValueError, match="degenerate PCCA\\+ feasibility"):
        membership._fill_a(np.zeros((2, 2)), eig3.eigenvectors)


@pytest.mark.parametrize("free", [[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]],
                         ids=["degenerate", "empty-cluster"])
def test_crispness_penalizes_an_infeasible_point(eig3, free):
    # the search must not step where the completion fails or where a
    # cluster's weight (here the third column's) falls to zero
    assert membership._crispness(np.array(free), eig3.eigenvectors) == 1e6


def test_pcca_multi_warns_of_a_weak_spectral_gap(eig3):
    vals = eig3.eigenvalues.copy()
    vals[2] = vals[1] * (1.0 + 0.5 * membership.GAP_TOL)
    eig = EigenSystem(eigenvalues=vals, eigenvectors=eig3.eigenvectors,
                      grid=eig3.grid)
    with pytest.warns(UserWarning, match="weak spectral gap after 2 clusters"):
        chis = pcca_multi(eig, 2)
    assert len(chis) == 2


def test_find_weight_cores_needs_two_components(bench):
    # the default threshold is an absolute weight: on 16x16 every cell
    # weighs more, and the cells above it join into one component
    gen = build_sqrt_generator(bench, RegularGrid(16, 16, bench.domain), 1.0)
    with pytest.raises(ValueError, match="expected two cores above weight "
                                         "0.0025, found 1 components"):
        find_weight_cores(gen, 0.0025)


def test_grid_memberships_carry_their_grid(gen50, eig3):
    assert pcca_single(eig3, 3).grid is gen50.grid
    for m in (2, 3):
        assert all(c.grid is gen50.grid for c in pcca_multi(eig3, m))


def test_find_weight_cores(gen50):
    left, right = find_weight_cores(gen50, 0.0025)
    assert left.dtype == right.dtype == np.int64
    assert left.size == 37 and right.size == 37
    lx = gen50.grid.centers[left, 0].mean()
    rx = gen50.grid.centers[right, 0].mean()
    assert lx < rx


def test_find_weight_cores_threshold_too_high(gen50):
    with pytest.raises(ValueError):
        find_weight_cores(gen50, 0.9)


def test_committor_chain_oracle(flat_chain3):
    q = committor(flat_chain3, np.array([0]), np.array([2]))
    np.testing.assert_allclose(q.values, [1.0, 0.5, 0.0], rtol=0, atol=1e-12)


def test_committor_boundary_and_residual(gen50):
    left, right = find_weight_cores(gen50, 0.0025)
    q = committor(gen50, left, right)
    np.testing.assert_array_equal(q.values[left], 1.0)
    np.testing.assert_array_equal(q.values[right], 0.0)
    free = np.ones(gen50.n, dtype=bool)
    free[left] = False
    free[right] = False
    residual = (gen50.rates @ q.values)[free]
    assert np.max(np.abs(residual)) < 1e-9
    assert q.values.min() >= 0.0 and q.values.max() <= 1.0


def test_committor_rejects_overlapping_cores(flat_chain3):
    with pytest.raises(ValueError):
        committor(flat_chain3, np.array([0, 1]), np.array([1, 2]))
    # a core cell of -1 must not wrap to the last cell
    with pytest.raises(ValueError, match="-1"):
        committor(flat_chain3, np.array([-1]), np.array([0]))
    # float cells must not truncate to 0 and 2, nor a mask read as cells
    for cells in ([0.7, 2.9], np.array([True, False, True])):
        with pytest.raises(ValueError, match="integers"):
            committor(flat_chain3, cells, np.array([1]))


@pytest.mark.parametrize("empty", [np.array([], dtype=np.int64), []])
def test_committor_rejects_an_empty_core(flat_chain3, empty):
    with pytest.raises(ValueError, match="empty"):
        committor(flat_chain3, empty, np.array([2]))
    with pytest.raises(ValueError, match="empty"):
        committor(flat_chain3, np.array([0]), empty)


def test_committor_rejects_disconnected_free_cells():
    # two detached 2-cell chains; cells 2..3 reach neither core
    pot = flat_potential()
    grid = RegularGrid(4, 1, pot.domain)
    block = sp.csr_matrix(np.array([
        [1.0, -1.0, 0.0, 0.0],
        [-1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
        [0.0, 0.0, -1.0, 1.0],
    ]))
    gen = GeneratorMatrix(rates=block, weights=np.full(4, 0.25), grid=grid)
    with pytest.raises(ValueError, match="2"):
        committor(gen, np.array([0]), np.array([1]))


def test_core_set_box_contains():
    # a core box holds its boundary, as the hitting sampler reads it
    pts = np.array([[0.25, 0.45], [0.35, 0.45], [0.2, 0.4]])
    np.testing.assert_array_equal(_in_box(pts, (0.2, 0.3, 0.4, 0.5)),
                                  [True, False, True])


def test_mc_membership_determinism():
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    core = (0.2, 0.3, 0.4, 0.5)
    pts = np.array([[0.4, 0.45], [0.6, 0.6]])
    a = mc_hitting_membership(cfg, core, 40, 60, seed=2)
    b = mc_hitting_membership(cfg, core, 40, 60, seed=2)
    np.testing.assert_array_equal(a.evaluate_batch(pts), b.evaluate_batch(pts))
    assert a.kind == "point_sampler"
    assert a.meta["n_traj"] == 40


def test_mc_membership_box_must_be_inside_domain():
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    with pytest.raises(ValueError, match="domain"):
        mc_hitting_membership(cfg, (0.9, 1.2, 0.4, 0.5), 10, 10, seed=0)


@pytest.mark.parametrize("box", [(0.3, 0.3, 0.4, 0.5), (0.2, 0.3, 0.5, 0.4)])
def test_mc_membership_rejects_a_degenerate_box(box):
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    with pytest.raises(ValueError, match="degenerate"):
        mc_hitting_membership(cfg, box, 10, 10, seed=0)


def test_mc_membership_box_entries_become_floats():
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    box = mc_hitting_membership(cfg, [0, 1, 0, 1], 10, 10).meta["box"]
    assert box == (0.0, 1.0, 0.0, 1.0)
    assert all(type(v) is float for v in box)


@pytest.mark.parametrize("key", ["dynamics", "box", "n_traj", "max_steps",
                                 "seed"])
def test_point_sampler_needs_its_parameters(key):
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    meta = dict(mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 10, 10,
                                      seed=0).meta)
    Membership(meta=meta)
    del meta[key]
    with pytest.raises(ValueError, match=key):
        Membership(meta=meta)


@pytest.mark.parametrize("key,value,message", [
    ("n_traj", 0, "n_traj and max_steps must be >= 1"),
    ("max_steps", 0, "n_traj and max_steps must be >= 1"),
    ("box", (0.3, 0.3, 0.4, 0.5), "degenerate"),
    ("box", (0.2, 0.3, 0.5, 0.4), "degenerate"),
    ("box", (0.9, 1.2, 0.4, 0.5), "domain"),
], ids=["n-traj-0", "max-steps-0", "box-flat", "box-reversed",
        "box-off-domain"])
def test_point_sampler_checks_itself(key, value, message):
    # a sampler built directly, not by mc_hitting_membership, is checked
    # when it is built, before any path runs on its parameters
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    meta = dict(mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 10, 10,
                                      seed=0).meta)
    meta[key] = value
    with pytest.raises(ValueError, match=message):
        Membership(meta=meta)
    with pytest.raises(ValueError, match=message):
        mc_hitting_membership(cfg, meta["box"], meta["n_traj"],
                              meta["max_steps"])


def test_grid_membership_needs_grid_for_points():
    with pytest.raises(ValueError):
        Membership(values=np.array([0.2, 0.8]))
    # and reads only positions on that grid, NaN never
    chi = Membership(values=np.array([0.2, 0.8]), grid=RegularGrid(2, 1))
    np.testing.assert_array_equal(chi.evaluate_batch([[0.9, 0.5]]), [0.8])
    for x in ([1.5, 0.5], [np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match="off the grid"):
            chi.evaluate_batch([x])
    for x in ([[0.1, 0.2, 0.9]], [0.1, 0.2, 0.3, 0.4]):
        with pytest.raises(ValueError, match="shape"):
            chi.evaluate_batch(x)
