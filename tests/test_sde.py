"""Euler-Maruyama dynamics, MC estimators, holding probabilities."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from chi_exit import (
    PotentialSurface,
    RegularGrid,
    SdeConfig,
    benchmark_potential,
    build_sqrt_generator,
    estimate_ptau_chi,
    feynman_kac_holding,
    feynman_kac_holding_mc,
    flat_potential,
    regress_generator_action,
    sample_jump_exit_times,
    sample_set_exit_times,
    uniform_points,
)
from chi_exit.membership import mc_hitting_membership
from chi_exit import sde
from chi_exit.sde import TrajectoryStats, endpoint_ensemble, hitting_fractions
from chi_exit.streams import (
    TAG_CHI,
    TAG_EXIT,
    TAG_FK,
    TAG_JUMP,
    TAG_PTAU,
    generator_for,
)

# frozen gradient-descent endpoints (sigma = 0, dt = 1e-3, 20000 steps)
DESCENT_RIGHT = (0.76201375, 0.48947658)
DESCENT_LEFT = (0.23798625, 0.48947658)


def _descend(start, steps=20000):
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.0, dt=0.001)
    lo, hi = cfg.bounds
    x = np.asarray(start, dtype=float)
    zero = np.zeros(2)
    for _ in range(steps):
        x = sde._advance(cfg.potential, cfg.sigma, cfg.dt, lo, hi, x, zero)
    return x


def test_gradient_descent_right_minimum():
    np.testing.assert_allclose(_descend([0.8, 0.45]), DESCENT_RIGHT,
                               rtol=0, atol=1e-6)


def test_gradient_descent_left_minimum():
    np.testing.assert_allclose(_descend([0.25, 0.55]), DESCENT_LEFT,
                               rtol=0, atol=1e-6)


def test_step_clamps_to_domain():
    cfg = SdeConfig(potential=flat_potential(), sigma=1.0, dt=0.01)
    lo, hi = cfg.bounds
    x = sde._advance(cfg.potential, cfg.sigma, cfg.dt, lo, hi,
                     np.array([0.99, 0.01]), np.array([50.0, -50.0]))
    assert x[0] == 1.0 and x[1] == 0.0


def test_step_rejects_non_finite_gradient():
    bad = PotentialSurface(
        evaluator=lambda x: np.zeros(np.asarray(x).shape[:-1]),
        gradient=lambda x: np.full_like(np.asarray(x, dtype=float), np.nan),
        domain=((0.0, 0.0), (1.0, 1.0)),
        name="bad",
    )
    cfg = SdeConfig(potential=bad, sigma=0.5, dt=0.001)
    lo, hi = cfg.bounds
    with pytest.raises(ValueError):
        sde._advance(cfg.potential, cfg.sigma, cfg.dt, lo, hi,
                     np.array([0.5, 0.5]), np.zeros(2))


def test_config_validation():
    pot = flat_potential()
    with pytest.raises(ValueError):
        SdeConfig(potential=pot, sigma=-0.1)
    with pytest.raises(ValueError):
        SdeConfig(potential=pot, dt=0.0)
    with pytest.raises(TypeError):
        SdeConfig(potential=pot, boundary="reflect")
    with pytest.raises(TypeError):
        SdeConfig(potential=pot, antithetic=True)


def test_flat_weak_order_variance():
    # free diffusion: Var[X_k - X_0] = sigma^2 k dt per coordinate
    cfg = SdeConfig(potential=flat_potential(), sigma=0.8, dt=0.001)
    start = np.array([0.5, 0.5])
    ends = endpoint_ensemble(cfg, start[None, :], steps=50, n_traj=10000,
                             seed=11)[0]
    var = ends.var(axis=0)
    expected = 0.8 ** 2 * 50 * 0.001
    np.testing.assert_allclose(var, expected, rtol=0.1)
    assert np.max(np.abs(ends.mean(axis=0) - start)) < 4 * np.sqrt(
        expected / 10000)


def test_uniform_points_deterministic():
    domain = ((0.0, 0.0), (1.0, 1.0))
    a = uniform_points(40, domain, seed=3)
    b = uniform_points(40, domain, seed=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (40, 2)
    assert a.min() >= 0.0 and a.max() <= 1.0
    assert not np.array_equal(a, uniform_points(40, domain, seed=4))


def test_trajectory_stats_summaries():
    stats = TrajectoryStats(
        starts=np.array([[0.5, 0.5]]),
        endpoints=np.zeros((1, 4, 2)),
        exit_steps=np.array([[10, -1, 20, -1]]),
        horizon_steps=50,
        dt=0.1,
    )
    np.testing.assert_array_equal(stats.censoring_fraction, [0.5])
    # censored entries count at the horizon
    np.testing.assert_allclose(stats.mean_exit_time(),
                               [0.1 * (10 + 50 + 20 + 50) / 4])


def _kaplan_meier_restricted_mean(exit_steps, horizon, dt):
    """Reference: the Kaplan-Meier curve (Kaplan & Meier, JASA 1958) over
    the unique exit steps, integrated up to the horizon; a censored path
    (-1) stays at risk until the horizon."""
    times = np.where(exit_steps < 0, horizon, exit_steps)
    exited = exit_steps >= 0
    surv, prev, area = 1.0, 0, 0.0
    for s in np.unique(times[exited]):
        area += surv * (s - prev)
        surv *= 1.0 - (np.count_nonzero(exited & (times == s))
                       / np.count_nonzero(times >= s))
        prev = s
    return (area + surv * (horizon - prev)) * dt


def test_mean_exit_time_is_kaplan_meier_restricted_mean():
    # every path is censored at the common horizon, so the Kaplan-Meier
    # restricted mean is mean(min(T, H)); 200 paths over 300 steps tie
    rng = np.random.default_rng(0)
    horizon, censored = 300, [0.1, 0.4, 0.7, 1.0]
    exit_steps = rng.integers(1, horizon + 1, size=(len(censored), 200))
    for r, share in enumerate(censored):
        exit_steps[r, :int(share * 200)] = -1
    assert len(np.unique(exit_steps[0])) < 180
    stats = TrajectoryStats(starts=np.zeros((4, 2)),
                            endpoints=np.zeros((4, 200, 2)),
                            exit_steps=exit_steps, horizon_steps=horizon,
                            dt=0.01)
    np.testing.assert_allclose(stats.censoring_fraction, censored)
    expected = [_kaplan_meier_restricted_mean(e, horizon, 0.01)
                for e in exit_steps]
    np.testing.assert_allclose(stats.mean_exit_time(), expected, rtol=0,
                               atol=1e-12)


def test_estimate_ptau_chi_batch_matches_single():
    # per-point streams: a point's estimates are independent of its batch
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    chi = mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 30, 20, seed=5)
    pts = np.array([[0.3, 0.5], [0.7, 0.5], [0.5, 0.2]])
    batch = estimate_ptau_chi(chi, pts, 20)
    single = estimate_ptau_chi(chi, pts[1], 20)
    for b, s in zip(batch, single):
        assert b.shape == (3,) and s.shape == (1,)
        np.testing.assert_array_equal(b[1:2], s)


def test_estimate_ptau_chi_runs_on_the_hitting_paths():
    # for a hitting membership, (P^tau chi)(x) is the share of chi's own
    # paths at x that are in the box at some step in [k, k + T]; their
    # first T steps are the paths behind chi(x), and one pass reads both,
    # for a lag k past T and inside it
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    lo, hi = cfg.bounds
    box, horizon, n = (0.2, 0.3, 0.4, 0.5), 6, 50
    chi = mc_hitting_membership(cfg, box, n, horizon, seed=3)
    pts = np.array([[0.25, 0.45], [0.34, 0.47], [0.16, 0.52], [0.3, 0.36]])
    for k in (8, 3):
        chi_ref, ptau_ref = [], []
        for x in pts:
            rng = generator_for(3, TAG_CHI, x)
            pos = np.repeat(x[None, :], n, axis=0)
            seen = [sde._in_box(pos, box)]
            for _ in range(k + horizon):
                pos = sde._advance(cfg.potential, cfg.sigma, cfg.dt, lo, hi,
                                   pos, rng.standard_normal((n, 2)))
                seen.append(sde._in_box(pos, box))
            seen = np.array(seen)
            chi_ref.append(seen[:horizon + 1].any(axis=0).mean())
            ptau_ref.append(seen[k:].any(axis=0).mean())
        assert not np.array_equal(chi_ref, ptau_ref)
        np.testing.assert_array_equal(chi.evaluate_batch(pts), chi_ref)
        chi_x, ptau = estimate_ptau_chi(chi, pts, k)
        np.testing.assert_array_equal(chi_x, chi_ref)
        np.testing.assert_array_equal(ptau, ptau_ref)


def test_estimate_ptau_chi_at_zero_steps_is_chi(chi1):
    # the pass runs chi's own n_traj paths under chi's seed, so a lag of 0
    # steps reruns chi's paths, and its chi column is chi at every lag
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    chi = mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 40, 30, seed=7)
    pts = uniform_points(70, cfg.potential.domain, seed=1)
    vals = chi.evaluate_batch(pts)
    assert np.any((vals > 0) & (vals < 1))
    chi_x, ptau = estimate_ptau_chi(chi, pts, 0)
    np.testing.assert_array_equal(chi_x, vals)
    np.testing.assert_array_equal(ptau, vals)
    for steps in (3, 8):
        chi_x, ptau = estimate_ptau_chi(chi, pts, steps)
        np.testing.assert_array_equal(chi_x, vals)
        assert not np.array_equal(ptau, vals)
    # a grid membership has no paths; its P^tau is spectral.propagate
    with pytest.raises(ValueError, match="hitting membership"):
        estimate_ptau_chi(chi1, pts, 10)
    with pytest.raises(ValueError, match="steps >= 0"):
        estimate_ptau_chi(chi, pts, -1)


def test_hitting_fractions_batch_matches_single():
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    box = (0.2, 0.3, 0.4, 0.5)
    pts = np.array([[0.25, 0.45], [0.6, 0.5], [0.4, 0.42]])
    batch = hitting_fractions(cfg, box, pts, n_traj=25, max_steps=30, seed=9)
    single = hitting_fractions(cfg, box, pts[2:3], n_traj=25, max_steps=30,
                               seed=9)
    np.testing.assert_array_equal(batch[2], single[0])
    assert batch[0] == 1.0  # start inside the box hits at step zero


def test_hitting_fractions_worker_invariance():
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    box = (0.2, 0.3, 0.4, 0.5)
    pts = uniform_points(9, cfg.potential.domain, seed=2)
    seq = hitting_fractions(cfg, box, pts, n_traj=20, max_steps=25, seed=3,
                            workers=1)
    par = hitting_fractions(cfg, box, pts, n_traj=20, max_steps=25, seed=3,
                            workers=4)
    np.testing.assert_array_equal(seq, par)


def _three_estimators(cfg, pts):
    """hitting_fractions, estimate_ptau_chi and endpoint_ensemble on cfg."""
    box = (0.2, 0.3, 0.4, 0.5)
    chi = mc_hitting_membership(cfg, box, 12, 15, seed=4)
    return (hitting_fractions(cfg, box, pts, 12, 15, seed=4),
            *estimate_ptau_chi(chi, pts, 10),
            endpoint_ensemble(cfg, pts, 20, 6, seed=4))


def test_drift_is_the_surface_of_the_config():
    # the paths follow the config's own surface, whatever its name: a
    # surface named like the benchmark, but flat, runs flat
    flat = flat_potential()
    pts = uniform_points(9, flat.domain, seed=6)
    named = _three_estimators(
        SdeConfig(replace(flat, name="paper2d"), sigma=0.8, dt=0.001), pts)
    custom = _three_estimators(
        SdeConfig(replace(flat, name="custom"), sigma=0.8, dt=0.001), pts)
    bench = _three_estimators(
        SdeConfig(benchmark_potential(), sigma=0.8, dt=0.001), pts)
    for a, b in zip(named, custom):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(named[-1], bench[-1])


def test_unpicklable_surface_runs_in_this_process(monkeypatch):
    # a surface of lambdas cannot go to a worker process; it runs here at
    # any worker count, to the values of the benchmark it wraps
    bench = benchmark_potential()
    wrapped = PotentialSurface(lambda x: bench(x), lambda x: bench.grad(x),
                               bench.domain)
    pts = uniform_points(70, bench.domain, seed=2)  # two chunks
    box = (0.2, 0.3, 0.4, 0.5)
    ref = hitting_fractions(SdeConfig(bench), box, pts, 5, 8, seed=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(sde, "ProcessPoolExecutor", no_pool)
    for workers in (1, 2):
        got = hitting_fractions(SdeConfig(wrapped), box, pts, 5, 8, seed=1,
                                workers=workers)
        np.testing.assert_array_equal(got, ref)


def test_empty_batch_gives_empty_columns():
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    chi = mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 10, 15, seed=0)
    none = uniform_points(0, cfg.potential.domain, seed=0)
    assert none.shape == (0, 2)
    assert chi.evaluate_batch(none).shape == (0,)
    assert hitting_fractions(cfg, chi.meta["box"], none, 10, 15).shape == (0,)
    assert [a.shape for a in estimate_ptau_chi(chi, none, 5)] == [(0,)] * 2
    assert endpoint_ensemble(cfg, none, 5, 10).shape == (0, 10, 2)


def test_sample_set_exit_times_contract(gen50, chi1):
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    region = chi1.values > 0.22
    start = gen50.grid.centers[int(np.argmax(chi1.values))]
    stats = sample_set_exit_times(cfg, gen50, region, start[None, :],
                                  n_traj=20, horizon_steps=200, seed=1)
    assert stats.exit_steps.shape == (1, 20)
    exited = stats.exit_steps >= 0
    assert np.all(stats.exit_steps[exited] <= 200)
    assert 0.0 <= stats.censoring_fraction[0] <= 1.0
    with pytest.raises(ValueError):
        # a deep-well corner sits far outside the high-chi region
        sample_set_exit_times(cfg, gen50, region, [[0.05, 0.05]], 5, 10)
    # starts are always a batch of shape (m, 2)
    with pytest.raises(ValueError, match="shape"):
        sample_set_exit_times(cfg, gen50, region, start, 5, 10)


def test_sample_set_exit_times_rejects_an_off_grid_start(gen50):
    # (1.5, 0.5) has no cell and must not be read as cell n - 1 of the set
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    with pytest.raises(ValueError, match=r"\(1\.5, 0\.5\) is off the grid"):
        sample_set_exit_times(cfg, gen50, [gen50.n - 1], [[1.5, 0.5]], 5, 10)


def test_sample_set_exit_times_rejects_another_domain(bench):
    # a clamped trajectory could leave a grid narrower than its domain
    cfg = SdeConfig(potential=bench, sigma=0.8, dt=0.001)
    half = build_sqrt_generator(
        bench, RegularGrid(4, 4, ((0.0, 0.0), (0.5, 1.0))), 1.0)
    with pytest.raises(ValueError, match="domain"):
        sample_set_exit_times(cfg, half, [0, 1], [[0.05, 0.05]], 5, 10)


def _naive_run(cfg, starts, tag, seed, n_traj, steps, stop, stop_from=0):
    """Reference for the kernel: every start draws every step and every
    trajectory advances; returns each trajectory's position at its first
    stop from step ``stop_from`` on (at the horizon when it never stops),
    that step, and the first step from 0 on where ``stop`` held."""
    lo, hi = cfg.bounds
    rngs = [generator_for(seed, tag, p) for p in starts]
    pos = np.repeat(starts[:, None, :], n_traj, axis=1)
    hit_at = np.where(stop(pos), 0, -1)
    first = np.where(stop(pos) & (stop_from == 0), 0, -1)
    ends = pos.copy()
    for s in range(1, steps + 1):
        noise = np.stack([rng.standard_normal((n_traj, 2)) for rng in rngs])
        pos = sde._advance(cfg.potential, cfg.sigma, cfg.dt, lo, hi, pos,
                           noise)
        hit_at[(hit_at < 0) & stop(pos)] = s
        new = (first < 0) & stop(pos) & (s >= stop_from)
        first[new] = s
        ends[new] = pos[new]
    running = first < 0
    ends[running] = pos[running]
    return ends, first, hit_at


@pytest.mark.parametrize("noise_bytes", [sde._NOISE_BYTES, 16 * 3 * 20 * 5])
def test_kernel_matches_naive_loop(monkeypatch, gen50, chi1, noise_bytes):
    # a small noise budget forces several 4-step blocks per call
    monkeypatch.setattr(sde, "_NOISE_BYTES", noise_bytes)
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    box = (0.2, 0.3, 0.4, 0.5)
    pts = np.array([[0.25, 0.45], [0.33, 0.45], [0.4, 0.55]])
    in_box = lambda p: sde._in_box(p, box)  # noqa: E731
    ref_ends, ref_first, _ = _naive_run(cfg, pts, TAG_CHI, 4, 20, 60, in_box)
    assert (ref_first > 0).any() and (ref_first < 0).any()
    np.testing.assert_array_equal(
        hitting_fractions(cfg, box, pts, n_traj=20, max_steps=60, seed=4),
        (ref_first >= 0).mean(axis=1))
    rngs = [generator_for(4, TAG_CHI, p) for p in pts]
    pos, first, hit_at = sde._run(cfg, pts, rngs, 20, 60, in_box)
    np.testing.assert_array_equal(first, ref_first)
    # from step 0 on, the first stop is the first step in the stop set,
    # and the kernel keeps one array for both
    assert np.shares_memory(hit_at, first)
    # stopped trajectories keep the position of their first stop
    np.testing.assert_array_equal(pos, ref_ends)

    # a window from step 21 on: stops before it do not count, but the
    # first step in the stop set is still recorded
    ref_ends, ref_first, ref_hit = _naive_run(cfg, pts, TAG_CHI, 4, 20, 60,
                                              in_box, stop_from=21)
    assert (ref_first > 21).any() and (ref_first < 0).any()
    assert ((ref_hit >= 0) & (ref_hit < 21) & (ref_first > 21)).any()
    assert ((ref_hit > 21) & (ref_hit == ref_first)).any()
    rngs = [generator_for(4, TAG_CHI, p) for p in pts]
    pos, first, hit_at = sde._run(cfg, pts, rngs, 20, 60, in_box,
                                  stop_from=21)
    np.testing.assert_array_equal(first, ref_first)
    np.testing.assert_array_equal(hit_at, ref_hit)
    np.testing.assert_array_equal(pos, ref_ends)

    ends = endpoint_ensemble(cfg, pts, steps=37, n_traj=20, seed=4)
    ref_ends, _, _ = _naive_run(cfg, pts, TAG_PTAU, 4, 20, 37,
                             lambda p: np.zeros(p.shape[:-1], dtype=bool))
    np.testing.assert_array_equal(ends, ref_ends)
    # no step leaves every trajectory at its start
    np.testing.assert_array_equal(
        endpoint_ensemble(cfg, pts, steps=0, n_traj=20, seed=4),
        np.repeat(pts[:, None, :], 20, axis=1))

    # every trajectory of the first start leaves its small box within the
    # first 4-step block, before the block ends; the others run on
    field = chi1.values
    small = (0.485, 0.515, 0.085, 0.115)

    def region(p):
        return (field[gen50.grid.cells_of(p)] > 0.22) | sde._in_box(p, small)

    starts = np.vstack([[0.5, 0.1],
                        gen50.grid.centers[np.argsort(field)[-2:]]])
    rngs = [generator_for(2, TAG_EXIT, p) for p in starts]
    pos, first, _ = sde._run(cfg, starts, rngs, 20, 300, lambda p: ~region(p))
    ref_ends, ref_exit, _ = _naive_run(
        cfg, starts, TAG_EXIT, 2, 20, 300,
        lambda p: ~region(p.reshape(-1, 2)).reshape(p.shape[:-1]))
    assert np.all((ref_exit[0] > 0) & (ref_exit[0] < 4))
    assert 0 < (ref_exit[1:] >= 0).sum() < ref_exit[1:].size
    np.testing.assert_array_equal(first, ref_exit)
    np.testing.assert_array_equal(pos, ref_ends)

    # the set-exit sampler stops on the cell table of a set of grid cells
    mask = field > 0.22
    stats = sample_set_exit_times(cfg, gen50, mask, starts[1:], n_traj=20,
                                  horizon_steps=300, seed=2)
    ref_ends, ref_exit, _ = _naive_run(
        cfg, starts[1:], TAG_EXIT, 2, 20, 300,
        lambda p: ~mask[gen50.grid.cells_of(p)])
    assert 0 < (ref_exit >= 0).sum() < ref_exit.size
    np.testing.assert_array_equal(stats.exit_steps, ref_exit)
    np.testing.assert_array_equal(stats.endpoints, ref_ends)


def test_step_leaves_its_arguments_unchanged():
    # _advance reads the position only; it overwrites the noise by design
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    lo, hi = cfg.bounds
    x = np.array([0.3, 0.6])
    noise = np.array([1.5, -0.5])
    out = sde._advance(cfg.potential, cfg.sigma, cfg.dt, lo, hi, x, noise)
    np.testing.assert_array_equal(x, [0.3, 0.6])
    assert not np.array_equal(out, x)


def test_sample_set_exit_times_batch_matches_single(gen50, chi1):
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    region = chi1.values > 0.22
    inside = np.nonzero(region)[0]
    starts = gen50.grid.centers[inside[::max(1, inside.size // 4)][:4]]
    batch = sample_set_exit_times(cfg, gen50, region, starts, n_traj=15,
                                  horizon_steps=400, seed=3)
    assert batch.exit_steps.shape == (len(starts), 15)
    assert batch.endpoints.shape == (len(starts), 15, 2)
    assert batch.mean_exit_time().shape == (len(starts),)
    for i in range(len(starts)):
        one = sample_set_exit_times(cfg, gen50, region, starts[i:i + 1],
                                    n_traj=15, horizon_steps=400, seed=3)
        np.testing.assert_array_equal(batch.starts[i], one.starts[0])
        np.testing.assert_array_equal(batch.exit_steps[i], one.exit_steps[0])
        np.testing.assert_array_equal(batch.endpoints[i], one.endpoints[0])
        assert batch.mean_exit_time()[i] == one.mean_exit_time()[0]
        assert batch.censoring_fraction[i] == one.censoring_fraction[0]


def test_sample_set_exit_times_batch_rejects_outside_start(gen50, chi1):
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    region = chi1.values > 0.22
    starts = np.array([gen50.grid.centers[int(np.argmax(chi1.values))],
                       [0.05, 0.05]])
    with pytest.raises(ValueError):
        sample_set_exit_times(cfg, gen50, region, starts, 5, 10)
    with pytest.raises(ValueError):
        sample_set_exit_times(cfg, gen50, region, np.empty((0, 2)), 5, 10)


def test_jump_exit_times_two_cell_chain():
    # leaving cell 0 of a flat 2-chain is a unit-rate exponential
    pot = flat_potential()
    grid = RegularGrid(2, 1, pot.domain)
    gen = build_sqrt_generator(pot, grid, 1.0)
    times, censored = sample_jump_exit_times(gen, np.array([0]), 0,
                                             n_traj=4000, horizon_time=50.0,
                                             seed=0)
    assert not censored.any()
    np.testing.assert_allclose(times.mean(), 1.0, rtol=0.06)
    np.testing.assert_allclose(times.var(), 1.0, rtol=0.15)


def test_jump_exit_times_censoring():
    pot = flat_potential()
    grid = RegularGrid(2, 1, pot.domain)
    gen = build_sqrt_generator(pot, grid, 1.0)
    times, censored = sample_jump_exit_times(gen, np.array([0]), 0,
                                             n_traj=500, horizon_time=0.05,
                                             seed=0)
    assert censored.any()
    np.testing.assert_array_equal(times[censored], 0.05)
    assert np.all(times <= 0.05 + 1e-15)
    with pytest.raises(ValueError):
        sample_jump_exit_times(gen, np.array([0]), 1, 10, 1.0)
    # a length-1 mask must not broadcast to the grid, nor a start of -1
    # wrap to the last cell
    with pytest.raises(ValueError, match="shape"):
        sample_jump_exit_times(gen, np.array([True]), 0, 10, 1.0)
    with pytest.raises(ValueError, match="-1"):
        sample_jump_exit_times(gen, np.array([1]), -1, 10, 1.0)


def _loop_jump_exit_times(gen, mask, start_cell, n_traj, horizon_time, rng):
    """Reference: the exit-time loop the jump kernel replaced, frozen."""
    rate_out, neighbors, cum = gen.jump_tables()
    cells = np.full(n_traj, start_cell, dtype=np.int64)
    clock = np.zeros(n_traj)
    times = np.full(n_traj, float(horizon_time))
    censored = np.ones(n_traj, dtype=bool)
    active = np.ones(n_traj, dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        hold = rng.exponential(size=idx.size) / rate_out[cells[idx]]
        clock[idx] += hold
        timed_out = clock[idx] >= horizon_time
        active[idx[timed_out]] = False
        go = idx[~timed_out]
        if go.size:
            u = rng.random(go.size)
            pick = (u[:, None] > cum[cells[go]]).sum(axis=1)
            nxt = neighbors[cells[go], pick]
            cells[go] = nxt
            left = ~mask[nxt]
            out = go[left]
            times[out] = clock[out]
            censored[out] = False
            active[out] = False
    return times, censored


def _loop_fk_mc_cell(gen, chi, eps2, cell, t, n_traj, rng):
    """Reference: the Feynman-Kac loop the jump kernel replaced, frozen."""
    if chi[cell] < sde.CHI_MIN:
        return 0.0, 0.0
    rate_out, neighbors, cum = gen.jump_tables()
    pen = np.where(chi >= sde.CHI_MIN,
                   (1.0 - chi) / np.maximum(chi, sde.CHI_MIN), np.inf)
    cells = np.full(n_traj, cell, dtype=np.int64)
    clock = np.zeros(n_traj)
    integral = np.zeros(n_traj)
    weight_dead = np.zeros(n_traj, dtype=bool)
    active = np.ones(n_traj, dtype=bool)
    while active.any():
        idx = np.nonzero(active)[0]
        hold = rng.exponential(size=idx.size) / rate_out[cells[idx]]
        finish = clock[idx] + hold >= t
        fin, go = idx[finish], idx[~finish]
        integral[fin] += (t - clock[fin]) * pen[cells[fin]]
        clock[fin] = t
        active[fin] = False
        if go.size:
            integral[go] += hold[~finish] * pen[cells[go]]
            clock[go] += hold[~finish]
            u = rng.random(go.size)
            pick = (u[:, None] > cum[cells[go]]).sum(axis=1)
            nxt = neighbors[cells[go], pick]
            cells[go] = nxt
            died = chi[nxt] < sde.CHI_MIN
            weight_dead[go[died]] = True
            active[go[died]] = False
    values = np.where(weight_dead, 0.0,
                      chi[cells] * np.exp(-eps2 * integral))
    est = float(values.mean())
    se = float(values.std(ddof=1) / np.sqrt(n_traj)) if n_traj > 1 else 0.0
    return est, se


def _assert_jump_kernel_matches_loops(gen, mask, start, horizon, chi, eps2,
                                      probes, t, rng_for, seed=0):
    times, censored = sample_jump_exit_times(gen, mask, start, 200, horizon,
                                             seed)
    ref_times, ref_censored = _loop_jump_exit_times(
        gen, mask, start, 200, horizon, rng_for(TAG_JUMP, start))
    assert 0 < ref_censored.sum() < ref_censored.size
    np.testing.assert_array_equal(times, ref_times)
    np.testing.assert_array_equal(censored, ref_censored)
    est, se = feynman_kac_holding_mc(gen, chi, eps2, probes, t, n_traj=200,
                                     seed=seed)
    ref = np.array([_loop_fk_mc_cell(gen, chi, eps2, int(c), t, 200,
                                     rng_for(TAG_FK, int(c)))
                    for c in probes])
    np.testing.assert_array_equal(est, ref[:, 0])
    np.testing.assert_array_equal(se, ref[:, 1])


@pytest.mark.parametrize("seed", [0, 1])
def test_jump_kernel_matches_frozen_loops(gen50, chi1, report1, seed):
    # exit times, censoring flags and Feynman-Kac estimates equal the two
    # loops the kernel replaced, bit for bit; the probes run from a dead
    # cell, from one beside it, and up to the deepest cell
    field = chi1.values
    order = np.argsort(field)
    probes = order[[0, 2, 40, 800, 1600, 2499]]
    assert field[probes[0]] < sde.CHI_MIN <= field[probes[1]]
    _assert_jump_kernel_matches_loops(
        gen50, field > 0.22, int(order[-1]), 200.0, field, report1.eps2,
        probes, 50.0, lambda tag, cell: generator_for(seed, tag, cell), seed)


class _DyadicDraws:
    """Holding draws of exactly 1: on a flat chain, whose cells jump at
    rate 1 or 2, every clock is dyadic and lands on an integer horizon."""

    def __init__(self, cell):
        self._uniform = np.random.default_rng(cell)

    def exponential(self, size):
        return np.ones(size)

    def random(self, size):
        return self._uniform.random(size)


def test_jump_kernel_ends_paths_on_the_horizon(monkeypatch):
    pot = flat_potential()
    gen = build_sqrt_generator(pot, RegularGrid(6, 1, pot.domain), 1.0)
    monkeypatch.setattr(sde, "generator_for",
                        lambda seed, tag, cell: _DyadicDraws(cell))
    chi = np.array([0.0, 0.3, 0.6, 0.9, 1.0, 0.8])
    _assert_jump_kernel_matches_loops(
        gen, np.arange(6) < 4, 1, 3.0, chi, 0.5, np.array([0, 1, 3, 5]),
        3.0, lambda tag, cell: _DyadicDraws(cell))


def test_feynman_kac_grid_backend(gen50, chi1, report1):
    p0 = feynman_kac_holding(gen50, chi1.values, report1.eps2, t=0.0)
    np.testing.assert_allclose(p0, chi1.values, rtol=0, atol=1e-14)
    cell = int(np.argmax(chi1.values))
    levels = [
        feynman_kac_holding(gen50, chi1.values, report1.eps2, t=t)[cell]
        for t in (0.0, 25.0, 50.0, 100.0)
    ]
    assert all(a > b > 0 for a, b in zip(levels, levels[1:]))


def test_feynman_kac_grid_without_live_cells(bench):
    gen = build_sqrt_generator(bench, RegularGrid(10, 10, bench.domain), 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = feynman_kac_holding(gen, np.zeros(gen.n), 0.01, t=2.0)
    np.testing.assert_array_equal(p, np.zeros(gen.n))
    # one live cell: the restricted operator is the number L*_ii + eps2 pen_i
    chi = np.zeros(gen.n)
    chi[37] = 0.6
    p = feynman_kac_holding(gen, chi, 0.01, t=2.0)
    expected = np.exp(-2.0 * (gen.rates[37, 37] + 0.01 * 0.4 / 0.6)) * 0.6
    np.testing.assert_allclose(p[37], expected, rtol=1e-14)
    assert np.count_nonzero(p) == 1


def test_feynman_kac_grid_matches_expm_multiply(bench):
    gen = build_sqrt_generator(bench, RegularGrid(12, 12, bench.domain), 1.0)
    x = gen.grid.centers
    chi = 0.9 * np.exp(-((x[:, 0] - 0.25) ** 2 + (x[:, 1] - 0.5) ** 2) / 0.05)
    chi[chi < 0.01] = 0.0
    alive = chi >= sde.CHI_MIN
    eps2, t = 0.1, 50.0
    op = gen.rates[alive][:, alive] + eps2 * sp.diags(
        (1.0 - chi[alive]) / chi[alive])
    # chi <= 0.9 keeps the Gershgorin interval of op away from 0, so the
    # factor exp(-t lo) of the series is exercised
    diag = op.diagonal()
    radius = np.asarray(abs(op).sum(axis=1)).ravel() - np.abs(diag)
    assert np.min(diag - radius) > 0.01
    expected = np.zeros(gen.n)
    expected[alive] = expm_multiply(-t * op.tocsc(), chi[alive])
    np.testing.assert_allclose(feynman_kac_holding(gen, chi, eps2, t=t),
                               expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name,value", [("t", np.nan), ("t", np.inf),
                                        ("eps2", np.nan), ("eps2", np.inf)])
def test_feynman_kac_rejects_nonfinite(gen_small, name, value):
    kwargs = {"eps2": 0.01, "t": 1.0, name: value}
    chi = np.full(gen_small.n, 0.5)
    with pytest.raises(ValueError, match="%s must be finite" % name):
        feynman_kac_holding(gen_small, chi, **kwargs)
    with pytest.raises(ValueError, match="%s must be finite" % name):
        feynman_kac_holding_mc(gen_small, chi, cells=[0], n_traj=4, **kwargs)


def test_feynman_kac_requires_generator(gen50, chi1, report1):
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    with pytest.raises(ValueError):
        feynman_kac_holding(gen50, chi1.values, -0.01, t=1.0)
    with pytest.raises(ValueError):
        feynman_kac_holding_mc(gen50, chi1.values, -0.01, [0], t=1.0)
    # a position, and a cell of -1 or n, must not wrap to another cell
    for cells in ((2.0, 2.0), -1, [0, gen50.n]):
        with pytest.raises(ValueError):
            feynman_kac_holding_mc(gen50, chi1.values, report1.eps2, cells,
                                   t=10.0, n_traj=4)
    # a point sampler has no grid values, for either grid-operator route
    sampler = mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 5, 5)
    with pytest.raises(ValueError, match="needs a grid membership"):
        feynman_kac_holding(gen50, sampler, report1.eps2, t=1.0)
    with pytest.raises(ValueError, match="needs a grid membership"):
        feynman_kac_holding_mc(gen50, sampler, report1.eps2, [0], t=1.0)
    with pytest.raises(ValueError, match="needs a grid membership"):
        regress_generator_action(gen50, sampler)


def test_grid_routes_reject_a_membership_of_another_grid(bench, chi1):
    # 25 x 100 has the cell count of chi1's 50 x 50 grid, so only the grid
    # itself tells the two apart
    other = build_sqrt_generator(bench, RegularGrid(25, 100, bench.domain),
                                 1.0)
    with pytest.raises(ValueError, match="50x50 grid.* 25x100 grid"):
        regress_generator_action(other, chi1)
    with pytest.raises(ValueError, match="50x50 grid.* 25x100 grid"):
        feynman_kac_holding(other, chi1, 0.0017, t=1.0)


def test_feynman_kac_mc_matches_grid(gen50, chi1, report1):
    cells = [int(np.argmax(chi1.values)),
             int(np.argmin(np.abs(chi1.values - 0.4)))]
    grid_vals = feynman_kac_holding(gen50, chi1.values, report1.eps2, t=50.0)
    est, se = feynman_kac_holding_mc(gen50, chi1.values, report1.eps2,
                                     np.array(cells), t=50.0, n_traj=800,
                                     seed=0)
    assert np.all(se > 0)
    for k, cell in enumerate(cells):
        assert abs(est[k] - grid_vals[cell]) < 4 * se[k]


def test_mc_membership_box_hit_is_certain():
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    chi = mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), n_traj=10,
                                max_steps=5, seed=0)
    assert chi.evaluate_batch([[0.25, 0.45]])[0] == 1.0
    far = chi.evaluate_batch([[0.95, 0.95]])[0]
    assert 0.0 <= far <= 1.0
