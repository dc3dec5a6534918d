"""Euler-Maruyama dynamics, MC estimators, holding probabilities."""

import pickle
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from chi_exit import (
    Membership,
    PotentialSurface,
    RegularGrid,
    SdeConfig,
    benchmark_potential,
    build_sqrt_generator,
    estimate_ptau_chi,
    feynman_kac_holding,
    feynman_kac_holding_mc,
    flat_potential,
    propagate,
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
    stats = TrajectoryStats(endpoints=np.zeros((4, 200, 2)),
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
    # the paths follow the config's own surface: a flat surface runs flat
    # at any level, and the benchmark surface runs otherwise
    flat = flat_potential()
    pts = uniform_points(9, flat.domain, seed=6)
    level0 = _three_estimators(SdeConfig(flat, sigma=0.8, dt=0.001), pts)
    raised = _three_estimators(
        SdeConfig(flat_potential(2.5), sigma=0.8, dt=0.001), pts)
    bench = _three_estimators(
        SdeConfig(benchmark_potential(), sigma=0.8, dt=0.001), pts)
    for a, b in zip(level0, raised):
        np.testing.assert_array_equal(a, b)
    assert not np.array_equal(level0[-1], bench[-1])


#: The benchmark surface behind module-level lambdas, which do not pickle.
_BENCH = benchmark_potential()
_LAMBDA_SURFACE = PotentialSurface(lambda x: _BENCH(x),
                                   lambda x: _BENCH.grad(x), _BENCH.domain)


def test_unpicklable_surface_runs_at_one_worker(monkeypatch):
    # a surface of lambdas cannot go to a worker process: at more workers
    # the pool's error is raised, not a silent run here; at one worker it
    # runs here, to the values of the benchmark it wraps
    pts = uniform_points(70, _BENCH.domain, seed=2)  # two chunks
    box = (0.2, 0.3, 0.4, 0.5)
    with pytest.raises(pickle.PicklingError):
        hitting_fractions(SdeConfig(_LAMBDA_SURFACE), box, pts, 5, 8, seed=1,
                          workers=2)
    ref = hitting_fractions(SdeConfig(_BENCH), box, pts, 5, 8, seed=1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(sde, "ProcessPoolExecutor", no_pool)
    got = hitting_fractions(SdeConfig(_LAMBDA_SURFACE), box, pts, 5, 8, seed=1)
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


def test_ensembles_reject_points_of_another_shape():
    # a third coordinate or a flat list of numbers is no batch of starts,
    # and the one dispatch names its shape
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    chi = mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 4, 5, seed=0)
    for pts, shape in ((np.full((5, 3), 0.5), r"\(5, 3\)"),
                       ([0.1, 0.2, 0.3, 0.4], r"\(4,\)")):
        for run in (lambda: hitting_fractions(cfg, chi.meta["box"], pts, 4, 5),
                    lambda: endpoint_ensemble(cfg, pts, 5, 4),
                    lambda: estimate_ptau_chi(chi, pts, 3)):
            with pytest.raises(ValueError, match="not " + shape):
                run()
    with pytest.raises(ValueError, match=r"not \(1, 4\)"):
        chi.evaluate_batch([0.1, 0.2, 0.3, 0.4])


_OFF_DOMAIN = {
    "hitting": lambda cfg, chi, pts: hitting_fractions(cfg, chi.meta["box"],
                                                       pts, 5, 5),
    "endpoints": lambda cfg, chi, pts: endpoint_ensemble(cfg, pts, 3, 2),
    "ptau": lambda cfg, chi, pts: estimate_ptau_chi(chi, pts, 3)[1],
    "sampler": lambda cfg, chi, pts: chi.evaluate_batch(pts),
}


@pytest.mark.parametrize("run", list(_OFF_DOMAIN.values()),
                         ids=list(_OFF_DOMAIN))
def test_ensembles_reject_a_start_off_the_domain(run):
    # (1.5, 0.5) was clamped onto the wall by the first step: hitting
    # fractions read 0 and endpoints lay inside, without a word
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    chi = mc_hitting_membership(cfg, (0.2, 0.3, 0.4, 0.5), 5, 5, seed=0)
    for bad, text in (([1.5, 0.5], r"\(1\.5, 0\.5\)"),
                      ([0.5, np.nan], r"\(0\.5, nan\)"),
                      ([-1e-12, 0.5], r"\(-1e-12, 0\.5\)")):
        with pytest.raises(ValueError, match=text + " is off the potential's "
                           "domain"):
            run(cfg, chi, [[0.3, 0.45], bad])
    # a start on the boundary is in the domain
    assert np.all(np.isfinite(run(cfg, chi, [[1.0, 0.5], [0.0, 1.0]])))


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


#: A noise budget of 4-step blocks for 3 starts of 20 paths.
_FOUR_STEPS = 32 * 3 * 20 * 4


@pytest.mark.parametrize("noise_bytes", [sde._NOISE_BYTES, _FOUR_STEPS])
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

    # the step is written over the noise, which it returns, and matches
    # the formula bit for bit; rows past the walls are clamped, and the
    # gradient is left in keep
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.02, 1.02, size=(40, 2))
    noise = rng.standard_normal((40, 2))
    before = x.copy()
    want = (x - cfg.potential.grad(x) * cfg.dt) + noise * (
        cfg.sigma * np.sqrt(cfg.dt))
    for d in range(2):
        want[:, d] = np.minimum(np.maximum(want[:, d], lo[d]), hi[d])
    buf, keep = noise.copy(), [None]
    got = sde._advance(cfg.potential, cfg.sigma, cfg.dt, lo, hi, x, buf, keep)
    assert got is buf
    np.testing.assert_array_equal(x, before)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(keep[0], cfg.potential.grad(x))


@pytest.mark.parametrize("stop_from", [0, 21])
def test_kernel_step_buffers_never_alias(monkeypatch, stop_from):
    # 4-step blocks, with compactions of the live set between them: each
    # step reads row j of the block's one buffer and writes row j + 1, the
    # next row; a step that wrote the positions it reads would move the
    # paths off the naive loop's
    monkeypatch.setattr(sde, "_NOISE_BYTES", _FOUR_STEPS)
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    box = (0.2, 0.3, 0.4, 0.5)
    pts = np.array([[0.25, 0.45], [0.33, 0.45], [0.4, 0.55]])
    in_box = lambda p: sde._in_box(p, box)  # noqa: E731
    step, bases = sde._advance, set()

    def checked(potential, sigma, dt, lo, hi, pos, noise, keep=None):
        assert not np.shares_memory(pos, noise)
        assert pos.base is noise.base
        start = pos.__array_interface__["data"][0]
        assert noise.__array_interface__["data"][0] == start + pos.nbytes
        bases.add(id(noise.base))
        return step(potential, sigma, dt, lo, hi, pos, noise, keep)

    monkeypatch.setattr(sde, "_advance", checked)
    rngs = [generator_for(4, TAG_CHI, p) for p in pts]
    pos, first, hit_at = sde._run(cfg, pts, rngs, 20, 60, in_box,
                                  stop_from=stop_from)
    monkeypatch.setattr(sde, "_advance", step)
    ref_ends, ref_first, ref_hit = _naive_run(cfg, pts, TAG_CHI, 4, 20, 60,
                                              in_box, stop_from=stop_from)
    # some paths froze within a block, so the live set was compacted
    assert (ref_first > 0).any() and (ref_first < 0).any()
    np.testing.assert_array_equal(first, ref_first)
    np.testing.assert_array_equal(hit_at, ref_hit)
    np.testing.assert_array_equal(pos, ref_ends)
    # every block's rows are views of the kernel's one buffer
    assert len(bases) == 1


@pytest.mark.parametrize("stop_from", [0, 21])
def test_kernel_calls_stop_once_per_block(monkeypatch, stop_from):
    # 60 steps in 4-step blocks: stop sees the starts once, then the 4
    # stepped rows of each block's live paths in one call; the live set
    # shrinks between blocks, and the results are the naive loop's
    monkeypatch.setattr(sde, "_NOISE_BYTES", _FOUR_STEPS)
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    box = (0.2, 0.3, 0.4, 0.5)
    pts = np.array([[0.25, 0.45], [0.33, 0.45], [0.4, 0.55]])
    shapes = []

    def in_box(p):
        shapes.append(p.shape)
        return sde._in_box(p, box)

    rngs = [generator_for(4, TAG_CHI, p) for p in pts]
    pos, first, hit_at = sde._run(cfg, pts, rngs, 20, 60, in_box,
                                  stop_from=stop_from)
    ref_ends, ref_first, ref_hit = _naive_run(
        cfg, pts, TAG_CHI, 4, 20, 60, lambda p: sde._in_box(p, box),
        stop_from=stop_from)
    np.testing.assert_array_equal(first, ref_first)
    np.testing.assert_array_equal(hit_at, ref_hit)
    np.testing.assert_array_equal(pos, ref_ends)
    # some path never stops, so all 15 blocks run
    assert (ref_first < 0).any()
    assert len(shapes) == 1 + 60 // 4
    assert shapes[0] == (60, 2)
    live = [n for k, n, _ in shapes[1:]]
    assert {k for k, _, _ in shapes[1:]} == {4}
    assert live == sorted(live, reverse=True) and live[-1] < live[0]


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
        np.testing.assert_array_equal(batch.exit_steps[i], one.exit_steps[0])
        np.testing.assert_array_equal(batch.endpoints[i], one.endpoints[0])
        assert batch.mean_exit_time()[i] == one.mean_exit_time()[0]
        assert batch.censoring_fraction[i] == one.censoring_fraction[0]
    # one start past a task of sde._CHUNK starts makes two tasks, and the
    # task boundary changes no row
    many = gen50.grid.centers[inside[:sde._CHUNK + 1]]
    batch = sample_set_exit_times(cfg, gen50, region, many, n_traj=3,
                                  horizon_steps=40, seed=3)
    assert batch.exit_steps.shape == (sde._CHUNK + 1, 3)
    for i in range(len(many)):
        one = sample_set_exit_times(cfg, gen50, region, many[i:i + 1],
                                    n_traj=3, horizon_steps=40, seed=3)
        np.testing.assert_array_equal(batch.exit_steps[i], one.exit_steps[0])
        np.testing.assert_array_equal(batch.endpoints[i], one.endpoints[0])


def test_ensembles_reject_an_empty_budget(gen50, chi1):
    cfg = SdeConfig(potential=benchmark_potential(), sigma=0.8, dt=0.001)
    pts = np.array([[0.5, 0.5]])
    for n_traj, max_steps in ((0, 10), (5, 0)):
        with pytest.raises(ValueError, match="n_traj and max_steps"):
            hitting_fractions(cfg, (0.2, 0.3, 0.4, 0.5), pts, n_traj,
                              max_steps)
    for n_traj, steps in ((0, 10), (5, -1)):
        with pytest.raises(ValueError, match="n_traj must be >= 1 and "
                           "steps >= 0"):
            endpoint_ensemble(cfg, pts, steps, n_traj)
    region = chi1.values > 0.22
    start = gen50.grid.centers[[int(np.argmax(chi1.values))]]
    for n_traj, horizon in ((0, 10), (5, 0)):
        with pytest.raises(ValueError, match="n_traj and horizon_steps"):
            sample_set_exit_times(cfg, gen50, region, start, n_traj, horizon)


_FLAT = SdeConfig(potential=flat_potential(), sigma=0.8, dt=0.001)
_HALF = (0.0, 0.5, 0.0, 1.0)
_NEAR = np.array([[0.45, 0.3], [0.55, 0.6], [0.49, 0.9]])


def _chain():
    return build_sqrt_generator(_FLAT.potential,
                                RegularGrid(4, 4, _FLAT.potential.domain), 1.0)


def _exits(horizon):
    stats = sample_set_exit_times(_FLAT, _chain(), np.arange(8), _NEAR[:1],
                                  5, horizon, seed=2)
    return stats.endpoints, stats.exit_steps


#: Each count, lag or seed of the samplers, as a call of the one value, and
#: the integer it is tried with.
_COUNTS = {
    "hitting-n_traj": (lambda v: hitting_fractions(_FLAT, _HALF, _NEAR, v,
                                                   15, seed=4), 2),
    "hitting-max_steps": (lambda v: hitting_fractions(_FLAT, _HALF, _NEAR,
                                                      12, v, seed=4), 10),
    "hitting-seed": (lambda v: hitting_fractions(_FLAT, _HALF, _NEAR, 12, 15,
                                                 seed=v), 1),
    "sampler-n_traj": (lambda v: mc_hitting_membership(
        _FLAT, _HALF, v, 15, seed=4).evaluate_batch(_NEAR), 2),
    "sampler-max_steps": (lambda v: mc_hitting_membership(
        _FLAT, _HALF, 12, v, seed=4).evaluate_batch(_NEAR), 10),
    "sampler-seed": (lambda v: mc_hitting_membership(
        _FLAT, _HALF, 12, 15, seed=v).evaluate_batch(_NEAR), 1),
    "ptau-steps": (lambda v: estimate_ptau_chi(mc_hitting_membership(
        _FLAT, _HALF, 12, 15, seed=4), _NEAR, v), 1),
    "exit-horizon": (_exits, 10),
    "points-n": (lambda v: uniform_points(v, _FLAT.potential.domain, 3), 2),
    "points-seed": (lambda v: uniform_points(5, _FLAT.potential.domain, v),
                    1),
    "jump-n_traj": (lambda v: sample_jump_exit_times(
        _chain(), np.arange(8), 0, v, 5.0, seed=2), 2),
    "jump-seed": (lambda v: sample_jump_exit_times(
        _chain(), np.arange(8), 0, 20, 5.0, seed=v), 1),
    "fk-n_traj": (lambda v: feynman_kac_holding_mc(
        _chain(), np.linspace(0.1, 0.9, 16), 0.01, [0, 5], 1.0, n_traj=v,
        seed=2), 2),
    "fk-seed": (lambda v: feynman_kac_holding_mc(
        _chain(), np.linspace(0.1, 0.9, 16), 0.01, [0, 5], 1.0, n_traj=20,
        seed=v), 1),
}


@pytest.mark.parametrize("call,value", list(_COUNTS.values()),
                         ids=list(_COUNTS))
def test_counts_and_seeds_are_integers(call, value):
    # int() truncated a float without a word: n_traj = 2.5 ran 2 paths,
    # seed = 1.9 drew the streams of seed 1
    with pytest.raises(TypeError):
        call(value + 0.5)
    as_int, as_int64 = call(value), call(np.int64(value))
    if not isinstance(as_int, tuple):
        as_int, as_int64 = (as_int,), (as_int64,)
    for a, b in zip(as_int, as_int64):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape,
                                                   b.tobytes())


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


@pytest.mark.parametrize("horizon", [np.nan, np.inf])
def test_jump_exit_times_reject_a_horizon_not_finite(horizon):
    # NaN failed the positivity check and was ignored; inf never stops a
    # path that cannot leave S
    pot = flat_potential()
    gen = build_sqrt_generator(pot, RegularGrid(6, 6, pot.domain), 1.0)
    with pytest.raises(ValueError, match="horizon_time positive and finite"):
        sample_jump_exit_times(gen, np.arange(18), 0, 5, horizon)


def _loop_jump_exit_times(gen, mask, start_cell, n_traj, horizon_time, rng):
    """Reference: the exit-time loop the jump kernel replaced, frozen."""
    rate_out, neighbors, cum = gen.jump_tables
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
    rate_out, neighbors, cum = gen.jump_tables
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


@pytest.mark.parametrize("n_traj", [0, -1])
def test_feynman_kac_mc_needs_a_trajectory(n_traj):
    # 0 gave a NaN estimate with RuntimeWarnings, -1 numpy's "negative
    # dimensions are not allowed"
    flat = flat_potential()
    gen = build_sqrt_generator(flat, RegularGrid(4, 4, flat.domain), 1.0)
    with pytest.raises(ValueError, match="n_traj must be >= 1"):
        feynman_kac_holding_mc(gen, np.full(gen.n, 0.5), 0.01, [0], t=1.0,
                               n_traj=n_traj)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_per_cell_readers_reject_a_value_not_finite(gen50, chi1, bad):
    # RegularGrid.cell_values is the one per-cell check of every reader: a
    # NaN passed the membership's range check, held 0 in the Feynman-Kac
    # solve and made every propagated value NaN
    vals = chi1.values.copy()
    vals[7] = bad
    readers = [
        lambda: Membership(values=vals, grid=gen50.grid),
        lambda: propagate(gen50, vals, 1.0),
        lambda: feynman_kac_holding(gen50, vals, 0.0017, t=1.0),
        lambda: feynman_kac_holding_mc(gen50, vals, 0.0017, [0], t=1.0,
                                       n_traj=4),
        lambda: regress_generator_action(gen50, vals),
    ]
    for read in readers:
        with pytest.raises(ValueError, match="per-cell values are not all "
                                             "finite"):
            read()


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
