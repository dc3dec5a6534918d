"""Membership constructions: PCCA+, committors, MC hitting."""

import numpy as np
import pytest
import scipy.sparse as sp

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
from chi_exit.grid_generator import GeneratorMatrix
from chi_exit.membership import Membership
from chi_exit.sde import _in_box

# frozen from the 50x50 benchmark build
EPS_BAR = 0.008840173485250052
BETA_BAR = 0.19627817964037228


def test_membership_range_validation():
    with pytest.raises(ValueError):
        Membership(provenance="test", values=np.array([-0.1, 0.5]),
                   grid=RegularGrid(2, 1))
    chi = Membership(provenance="test", values=np.array([0.0, 1.0 + 5e-10]),
                     grid=RegularGrid(2, 1))
    assert chi.values.max() == 1.0


def test_pcca_single_normalization(chi1):
    assert chi1.values.min() == 0.0
    assert chi1.values.max() == 1.0
    assert chi1.kind == "grid_vector"


def test_pcca_single_meta(chi1):
    np.testing.assert_allclose(chi1.meta["eps_bar"], EPS_BAR, rtol=1e-9)
    np.testing.assert_allclose(chi1.meta["beta_bar"], BETA_BAR, rtol=1e-9)
    assert chi1.meta["eigen_index"] == 3


def test_pcca_single_affine_identity(gen50, chi1):
    # L* chi = eps_bar chi - eps_bar beta_bar on the whole grid
    lhs = gen50.rates @ chi1.values
    rhs = (chi1.meta["eps_bar"] * chi1.values
           - chi1.meta["eps_bar"] * chi1.meta["beta_bar"])
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_pcca_single_rejects_kernel(eig3):
    with pytest.raises(ValueError):
        pcca_single(eig3, 1)


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


def test_pcca_multi_single_cluster(eig3):
    (chi,) = pcca_multi(eig3, 1)
    np.testing.assert_array_equal(chi.values, np.ones_like(chi.values))


def test_grid_memberships_carry_their_grid(gen50, eig3):
    assert pcca_single(eig3, 3).grid is gen50.grid
    for m in (1, 3):
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
    Membership(provenance="test", meta=meta)
    del meta[key]
    with pytest.raises(ValueError, match=key):
        Membership(provenance="test", meta=meta)


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
        Membership(provenance="test", meta=meta)
    with pytest.raises(ValueError, match=message):
        mc_hitting_membership(cfg, meta["box"], meta["n_traj"],
                              meta["max_steps"])


def test_grid_membership_needs_grid_for_points():
    with pytest.raises(ValueError):
        Membership(provenance="test", values=np.array([0.2, 0.8]))
    # and reads only positions on that grid, NaN never
    chi = Membership(provenance="test", values=np.array([0.2, 0.8]),
                     grid=RegularGrid(2, 1))
    np.testing.assert_array_equal(chi.evaluate_batch([[0.9, 0.5]]), [0.8])
    for x in ([1.5, 0.5], [np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match="off the grid"):
            chi.evaluate_batch([x])
