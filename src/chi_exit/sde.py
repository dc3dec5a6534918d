"""Euler-Maruyama sampling and Monte Carlo estimators.

Implements the overdamped Langevin dynamics dX = -grad V dt + sigma dB
with boundary clamping (one step, ``_advance``, inside one stepping
kernel, ``_run``), trajectory ensembles for hitting and exit
statistics, the Monte Carlo estimator of chi and P^tau chi for a
core-hitting membership from one pass (lag in steps), and the
Feynman-Kac chi-holding probability:
``feynman_kac_holding`` solves it on the grid, ``feynman_kac_holding_mc``
checks it by Monte Carlo.

Every ensemble draws from a counter-based stream keyed by the master
seed, a role tag, and the starting point, so results are reproducible
and independent of evaluation order and worker count.  Rate-magnitude
comparisons against generator quantities use the generator's own jump
process (``sample_jump_exit_times``, ``feynman_kac_holding_mc``)
because the grid operator carries its own time unit.  One kernel,
``_jump_run``, simulates that process for both.  A set of grid cells,
for the jump process or for the diffusion's exit
(``sample_set_exit_times``), and every start cell are checked by the
``GeneratorMatrix`` they run on.  The diffusion's starts and positions
get their cells from ``RegularGrid.cells_of``, which rejects a position
off the grid, and every diffusion ensemble runs through one dispatch.
Counts, lags and seeds are read with ``operator.index``, so a numpy
integer counts as its ``int`` and a float raises ``TypeError``.
"""

import math
import operator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .grid_generator import GeneratorMatrix
from .potential import PotentialSurface
from .spectral import expm_action
from .streams import (
    TAG_CHI,
    TAG_EXIT,
    TAG_FK,
    TAG_JUMP,
    TAG_POINTS,
    TAG_PTAU,
    generator_for,
)

Array = np.ndarray

#: Memberships below this value carry an infinite occupation penalty.
CHI_MIN = 1e-6

#: Points per worker task; fixed so results do not depend on worker count.
_CHUNK = 64

#: Bytes of noise one kernel call holds at a time, its copies included.
_NOISE_BYTES = 1 << 20


@dataclass(frozen=True)
class SdeConfig:
    """Overdamped Langevin dynamics dX = -grad V dt + sigma dB.

    No seed: each Monte Carlo call takes its master seed as an argument.

    Attributes
    ----------
    potential : PotentialSurface
        Drift potential; its domain bounds the trajectories.
    sigma : float
        Constant diffusion parameter, >= 0.
    dt : float
        Time step of the Euler-Maruyama scheme; steps leaving the domain
        are clamped to the boundary, mirroring the no-flux grid generator.
    """

    potential: PotentialSurface
    sigma: float = 0.8
    dt: float = 1e-3

    def __post_init__(self):
        if not np.isfinite(self.sigma) or self.sigma < 0:
            raise ValueError("sigma must be finite and >= 0")
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ValueError("dt must be finite and positive")

    @property
    def bounds(self) -> Tuple[Array, Array]:
        (lo1, lo2), (hi1, hi2) = self.potential.domain
        return np.array([lo1, lo2]), np.array([hi1, hi2])


@dataclass
class TrajectoryStats:
    """Exit statistics of trajectory ensembles from m starts.

    Attributes
    ----------
    endpoints : ndarray, shape (m, n_traj, 2)
        Positions at exit, or at the horizon when censored.
    exit_steps : ndarray of int, shape (m, n_traj)
        First step leaving the set, -1 when censored at the horizon.
    horizon_steps : int
        Step budget of the integration.
    dt : float
        Time step, for converting steps to times.
    """

    endpoints: Array
    exit_steps: Array
    horizon_steps: int
    dt: float

    @property
    def censoring_fraction(self) -> Array:
        """Share of censored trajectories per start, shape (m,)."""
        return np.mean(self.exit_steps < 0, axis=1)

    def mean_exit_time(self) -> Array:
        """Kaplan-Meier restricted mean exit time up to the horizon H per
        start, shape (m,).  Every censored path is censored at H, so the
        Kaplan-Meier curve equals the empirical survival on [0, H), and its
        integral up to H is mean(min(T, H)), computed here.  It underestimates
        the unrestricted mean only, when censoring_fraction > 0."""
        steps = np.where(self.exit_steps < 0, self.horizon_steps, self.exit_steps)
        return steps.mean(axis=1) * self.dt


def _advance(potential, sigma, dt, lo, hi, pos, noise, keep=None):
    """One Euler-Maruyama step pos - grad V(pos) dt + sigma sqrt(dt) noise
    for positions of shape (..., 2), clamped to [lo, hi], written over
    ``noise`` and returned; ``pos`` is only read.  Every diffusion ensemble
    steps through it.  A one-item list ``keep`` is left holding the
    gradient, so that the caller frees it only once the next step's
    gradient exists.
    """
    g = potential.grad(pos)
    if keep is not None:
        keep[0] = g
    # one reduction covers the common case; a non-finite sum of finite
    # values (overflow) falls through to the per-element check
    if not math.isfinite(g.sum()):
        bad_rows = ~np.isfinite(g).reshape(-1, 2).all(axis=1)
        if bad_rows.any():
            bad = np.asarray(pos).reshape(-1, 2)[bad_rows][0]
            raise ValueError(
                "non-finite gradient at (%g, %g); trajectory aborted"
                % (bad[0], bad[1])
            )
    drift = np.multiply(g, dt)
    np.subtract(pos, drift, out=drift)
    noise *= sigma * math.sqrt(dt)
    noise += drift
    # one coordinate at a time: scalar bounds clip several times faster
    # than bounds broadcast along a length-2 axis, and the ufuncs skip
    # np.clip's Python wrapper (a clamped -0.0 becomes +0.0)
    for d in range(2):
        col = noise[..., d]
        np.maximum(col, lo[d], out=col)
        np.minimum(col, hi[d], out=col)
    return noise


def _run(config: SdeConfig, starts, rngs, n_traj: int, steps: int, stop=None,
         stop_from: int = 0) -> Tuple[Array, Array, Array]:
    """The stepping kernel: ``n_traj`` trajectories from each start.

    Start ``r`` draws its noise from ``rngs[r]`` in blocks of shape
    (b, n_traj, 2), which yields the same values as b draws of (n_traj, 2),
    so a start's stream never depends on the other starts or on b.  When
    ``stop`` maps positions (..., 2) to booleans (...), a trajectory
    freezes at the first step from ``stop_from`` on (step 0 included when
    it is 0) where it is true: its position and step are recorded then.
    The first step from 0 on where ``stop`` held is recorded too, in the
    same array when ``stop_from`` is 0.

    A block's positions live in one buffer of shape (b + 1, n_live, 2),
    row 0 the block's start.  One gather fills rows 1..b with the live
    noise, step j reads row j and writes row j + 1, ``stop`` is called once
    on rows 1..b, and the live set is compacted once; a start with no live
    trajectory draws no further blocks.  The noise and the buffer share
    ``_NOISE_BYTES``.  The kernel holds the last gradient until the next
    one exists, so that the gradient's temporaries reuse freed memory;
    else they leave a free block at the top of the heap, which glibc trims
    and the next step faults back in.

    Returns
    -------
    pos : ndarray, shape (m, n_traj, 2)
        Positions at the stop or after ``steps`` steps.
    first_stop_step : ndarray of int, shape (m, n_traj)
        First step from ``stop_from`` on where ``stop`` held, -1 when it
        never did.
    first_hit_step : ndarray of int, shape (m, n_traj)
        First step from 0 on where ``stop`` held, -1 when it never did;
        ``first_stop_step`` itself when ``stop_from`` is 0.
    """
    potential, sigma, dt = config.potential, config.sigma, config.dt
    lo, hi = config.bounds
    m = len(starts)
    # trajectory c of start r sits at flat index r * n_traj + c
    pos = np.repeat(np.asarray(starts, dtype=float), n_traj, axis=0)
    first = np.full(m * n_traj, -1, dtype=np.int64)
    hit_at = first if stop_from == 0 else first.copy()
    if stop is not None:
        hit_at[np.asarray(stop(pos), dtype=bool)] = 0
    idx = np.flatnonzero(first < 0)
    b = max(1, min(steps, _NOISE_BYTES // (32 * max(1, m * n_traj))))
    noise = np.empty((m, b, n_traj, 2))
    flat_noise = noise.reshape(-1, 2)
    space = np.empty((b + 1) * idx.size * 2)
    live = np.take(pos, idx, axis=0, out=space[:idx.size * 2].reshape(-1, 2))
    keep = [None]
    for s0 in range(0, steps, b):
        if idx.size == 0:
            break
        k, n = min(b, steps - s0), idx.size
        # the starts with a live trajectory (bincount is far cheaper than
        # np.unique here)
        for r in np.flatnonzero(np.bincount(idx // n_traj, minlength=m)):
            rngs[r].standard_normal((k, n_traj, 2), out=noise[r, :k])
        # noise of trajectory (r, c) at step j of the block:
        # flat_noise[(r * b + j) * n_traj + c].  mode="clip" gathers
        # straight into the buffer, where "raise" would buffer the result,
        # so the range is checked here, once
        at = idx + (idx // n_traj) * (b - 1) * n_traj
        if at.max() + (k - 1) * n_traj >= len(flat_noise):
            raise IndexError("noise index past the block")
        buf = space[:(k + 1) * n * 2].reshape(k + 1, n, 2)
        np.take(flat_noise, at + n_traj * np.arange(k)[:, None], axis=0,
                out=buf[1:], mode="clip")
        for j in range(k):
            _advance(potential, sigma, dt, lo, hi, buf[j], buf[j + 1], keep)
        alive = np.ones(n, dtype=bool)
        if stop is not None:
            held = np.asarray(stop(buf[1:]), dtype=bool)
            if stop_from:
                new = held.any(axis=0) & (hit_at[idx] < 0)
                hit_at[idx[new]] = s0 + 1 + held[:, new].argmax(axis=0)
            j0 = max(0, stop_from - s0 - 1)
            alive = ~held[j0:].any(axis=0)
            done = np.flatnonzero(~alive)
            if done.size:
                j = j0 + held[j0:, done].argmax(axis=0)
                pos[idx[done]] = buf[j + 1, done]
                first[idx[done]] = s0 + 1 + j
                idx = idx[alive]
        live = np.compress(alive, buf[k], axis=0,
                           out=space[:idx.size * 2].reshape(-1, 2))
    pos[idx] = live
    return (pos.reshape(m, n_traj, 2), first.reshape(m, n_traj),
            hit_at.reshape(m, n_traj))


def _in_box(pos: Array, box) -> Array:
    x1lo, x1hi, x2lo, x2hi = box
    x1, x2 = pos[..., 0], pos[..., 1]
    return (x1 >= x1lo) & (x1 <= x1hi) & (x2 >= x2lo) & (x2 <= x2hi)


def _off_cells(grid, outside: Array, pos: Array) -> Array:
    return outside[grid.cells_of(pos)]


def _chunk(args):
    """One task on a chunk of starts: the kernel's ``(pos, first)``, or,
    given ``stop_from``, the fractions of paths where ``stop`` held at some
    step in [0, steps - stop_from] and at some step from ``stop_from`` on."""
    config, pts, n_traj, steps, seed, tag, stop, stop_from = args
    rngs = [generator_for(seed, tag, p) for p in pts]
    pos, first, hit_at = _run(config, pts, rngs, n_traj, steps, stop,
                              stop_from or 0)
    if stop_from is None:
        return pos, first
    early = (hit_at >= 0) & (hit_at <= steps - stop_from)
    return early.mean(axis=1), (first >= 0).mean(axis=1)


def _chunked(config: SdeConfig, points, n_traj: int, steps: int, seed: int,
             tag: int, workers: int, stop=None,
             stop_from: Optional[int] = None) -> Tuple[Array, ...]:
    """The one dispatch of every diffusion ensemble: the kernel from
    ``points`` (one point, or shape (m, 2)) in tasks of ``_CHUNK`` starts,
    joining each column ``_chunk`` returns.  A point off the potential's
    domain (NaN included) raises ``ValueError``; one on its boundary runs.
    Every task carries ``config`` and the picklable predicate ``stop``; no
    points make one empty task.
    Several tasks run in up to ``workers`` processes; a task that does not
    pickle (a surface built from lambdas or closures) raises the pool's
    error there, so it runs only at ``workers = 1``."""
    points = np.asarray(points, dtype=float)
    if points.ndim > 2 or points.shape[-1:] != (2,):
        raise ValueError("points must have shape (2,) or (m, 2), not %s"
                         % (points.shape,))
    points = np.atleast_2d(points)
    lo, hi = config.bounds
    off = ~((points >= lo) & (points <= hi)).all(axis=1)
    if off.any():
        bad = points[off][0]
        raise ValueError("start (%g, %g) is off the potential's domain %s"
                         % (bad[0], bad[1], config.potential.domain))
    tasks = [
        (config, points[i:i + _CHUNK], operator.index(n_traj),
         operator.index(steps), operator.index(seed), tag, stop, stop_from)
        for i in range(0, max(1, len(points)), _CHUNK)
    ]
    if workers <= 1 or len(tasks) <= 1:
        parts = [_chunk(t) for t in tasks]
    else:
        with ProcessPoolExecutor(min(workers, len(tasks))) as pool:
            parts = list(pool.map(_chunk, tasks))
    return tuple(np.concatenate(col, axis=0) for col in zip(*parts))


def hitting_fractions(config: SdeConfig, box, points, n_traj: int,
                      max_steps: int, seed: int = 0,
                      workers: int = 1) -> Array:
    """Fraction of trajectories from each point entering a box core.

    Parameters
    ----------
    config : SdeConfig
    box : tuple
        (x1_min, x1_max, x2_min, x2_max) hitting target.
    points : ndarray, shape (m, 2)
        Starting positions.
    n_traj, max_steps : int
        Ensemble size and step budget per point.
    seed : int
        Master seed of the per-point streams.
    workers : int
        Worker processes; does not affect the values.

    Returns
    -------
    ndarray, shape (m,)
        Hitting fractions in [0, 1].
    """
    if n_traj < 1 or max_steps < 1:
        raise ValueError("n_traj and max_steps must be >= 1")
    return _chunked(config, points, n_traj, max_steps, seed, TAG_CHI,
                    workers, partial(_in_box, box=tuple(box)), 0)[1]


def endpoint_ensemble(config: SdeConfig, points, steps: int, n_traj: int,
                      seed: int = 0, workers: int = 1) -> Array:
    """Endpoints after ``steps`` integration steps, per point and trajectory,
    on per-point streams keyed by ``seed`` (``workers`` changes no value).

    Returns
    -------
    ndarray, shape (m, n_traj, 2)
    """
    if n_traj < 1 or steps < 0:
        raise ValueError("n_traj must be >= 1 and steps >= 0")
    return _chunked(config, points, n_traj, steps, seed, TAG_PTAU, workers)[0]


def uniform_points(n: int, domain, seed: int) -> Array:
    """n uniform points in the box domain from the master-seed stream."""
    (lo1, lo2), (hi1, hi2) = domain
    rng = generator_for(operator.index(seed), TAG_POINTS)
    return rng.uniform((lo1, lo2), (hi1, hi2), size=(operator.index(n), 2))


def estimate_ptau_chi(chi, points, steps: int,
                      workers: int = 1) -> Tuple[Array, Array]:
    """Monte Carlo estimates of chi(x) and (P^tau chi)(x) for a core-hitting
    membership, at a lag of ``steps`` steps of chi's own dynamics
    (tau = steps * dt), from one set of chi's own paths per point.

    chi(y) is the chance of entering chi's core box within T = ``max_steps``
    steps from y.  The Euler-Maruyama chain is Markov, so (P^tau chi)(x) is
    the chance of being in the box at some step in [k, k + T], k = ``steps``.
    One pass runs chi's ``n_traj`` paths of k + T steps from x on the stream
    chi uses at x, under chi's seed.  The share of them in the box at some
    step in [0, T] is chi(x), ``chi.evaluate_batch(points)`` bit for bit,
    and the share in the box at some step in [k, k + T] estimates
    (P^tau chi)(x); at ``steps = 0`` the two are equal.

    Parameters
    ----------
    chi : Membership
        A core-hitting membership; its meta gives the dynamics, box,
        n_traj, max_steps and seed of the paths.  A grid membership
        raises: its P^tau is ``spectral.propagate``.
    points : array-like, shape (m, 2)
        Starting positions.
    steps : int
        Lag in time steps, >= 0.
    workers : int
        Worker processes; does not affect the values.

    Returns
    -------
    chi_x, ptau_chi : ndarray, shape (m,)
        chi(x) and the estimate of (P^tau chi)(x), in [0, 1].
    """
    if chi.values is not None:
        raise ValueError("estimate_ptau_chi needs a hitting membership; P^tau "
                         "of a grid membership is spectral.propagate")
    if steps < 0:
        raise ValueError("estimate_ptau_chi needs steps >= 0")
    m = chi.meta
    return _chunked(m["dynamics"], points, m["n_traj"], steps + m["max_steps"],
                    m["seed"], TAG_CHI, workers,
                    partial(_in_box, box=m["box"]), steps)


def _fk_values(gen: GeneratorMatrix, chi, eps2: float,
               t: float) -> Tuple[Array, Array]:
    """chi's per-cell values and the penalty table (1-chi)/chi, infinite
    on the dead cells below ``CHI_MIN``, once eps2 and t are checked."""
    if not (math.isfinite(eps2) and eps2 >= 0):
        raise ValueError("eps2 must be finite and nonnegative (got %r)" % eps2)
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative (got %r)" % t)
    vals = gen.grid.cell_values(chi)
    return vals, np.where(vals >= CHI_MIN,
                          (1.0 - vals) / np.maximum(vals, CHI_MIN), np.inf)


def feynman_kac_holding(gen: GeneratorMatrix, chi, eps2: float,
                        t: float) -> Array:
    """Chi-holding probability p_chi(t) on every cell, solved exactly.

    Solves dp/dt = -L* p - eps2 (1-chi)/chi p from p(0) = chi by the
    Chebyshev propagator ``spectral.expm_action``; its error is absolute,
    near the unit roundoff.  Cells with chi below ``CHI_MIN`` carry an
    infinite penalty and hold 0; the solve runs on the other cells, and
    with none p(t) is 0.  ``feynman_kac_holding_mc`` reads the same
    penalty table.  The restricted, penalized operator stays similar to a
    symmetric matrix, which ``expm_action`` needs.

    Parameters
    ----------
    gen : GeneratorMatrix
        The grid operator, whose clock t is on.
    chi : Membership or ndarray
        Grid membership values, as ``RegularGrid.cell_values`` checks.
    eps2 : float
        Penalty rate, finite and >= 0.
    t : float
        Horizon, finite and >= 0.

    Returns
    -------
    ndarray, shape (n,)

    Raises
    ------
    ValueError
        For a negative or non-finite eps2 or t, or a chi that
        ``RegularGrid.cell_values`` of the generator's grid rejects.
    """
    vals, pen = _fk_values(gen, chi, eps2, t)
    if t == 0:
        return vals.copy()
    alive = np.isfinite(pen)
    out = np.zeros(gen.n)
    if alive.any():
        out[alive] = expm_action(gen.rates[alive][:, alive]
                                 + eps2 * sp.diags(pen[alive]), vals[alive],
                                 float(t))
    return out


def _jump_run(gen: GeneratorMatrix, rng, cell: int, n_traj: int,
              horizon: float, stop: Array, pen: Optional[Array] = None):
    """The jump-process kernel: ``n_traj`` paths of the chain of L* from
    ``cell``, each ending at ``horizon`` or on a jump into a cell where the
    boolean table ``stop`` holds (``cell`` is not one).  Returns the final
    cells, the end times, the stop flags, and the integrals of the table
    ``pen`` along the paths (zeros without ``pen``)."""
    rate_out, neighbors, cum = gen.jump_tables
    # the last column of cum is exactly 1 and u < 1, so it never counts
    cut = cum[:, :-1]
    cells = np.full(n_traj, cell, dtype=np.int64)
    clock, integral = np.zeros(n_traj), np.zeros(n_traj)
    idx = np.arange(n_traj)
    while idx.size:
        at, now = cells[idx], clock[idx]
        hold = rng.exponential(size=idx.size) / rate_out[at]
        later = now + hold
        end = later >= horizon
        if pen is not None:
            integral[idx] += np.where(end, horizon - now, hold) * pen[at]
        later[end] = horizon
        clock[idx] = later
        go, at = idx[~end], at[~end]
        u = rng.random(go.size)
        nxt = neighbors[at, (u[:, None] > cut[at]).sum(axis=1)]
        cells[go] = nxt
        idx = go[~stop[nxt]]
    return cells, clock, stop[cells], integral


def feynman_kac_holding_mc(gen: GeneratorMatrix, chi, eps2: float, cells,
                           t: float, n_traj: int = 1000,
                           seed: int = 0) -> Tuple[Array, Array]:
    """Monte Carlo check of ``feynman_kac_holding`` at integer ``cells``.

    Averages chi(X_t) exp(-eps2 * integral (1-chi)/chi) over ``n_traj``
    trajectories per cell of the jump process generated by L*, which
    shares the grid operator's time unit, on per-cell streams keyed by
    ``seed``, with ``feynman_kac_holding``'s penalty table: a state with
    chi below ``CHI_MIN`` zeroes out the trajectory.  ``gen``, ``chi``,
    ``eps2`` and ``t`` are as for ``feynman_kac_holding``, and raise as
    there; cells that ``GeneratorMatrix.cell_indices`` rejects, or
    ``n_traj`` < 1, raise ``ValueError``.

    Returns
    -------
    est, se : ndarray, shape (k,)
        Estimates and their standard errors, one per starting cell.
    """
    vals, pen = _fk_values(gen, chi, eps2, t)
    cells = gen.cell_indices(np.ravel(cells))
    n_traj, seed = operator.index(n_traj), operator.index(seed)
    if not n_traj >= 1:
        raise ValueError("n_traj must be >= 1")
    ests, ses = vals[cells].copy(), np.zeros(cells.size)
    dead = np.isinf(pen)
    for k, c in enumerate(cells if t > 0 else ()):
        if dead[c]:
            ests[k] = 0.0
            continue
        rng = generator_for(seed, TAG_FK, int(c))
        at, _, died, integral = _jump_run(gen, rng, int(c), n_traj, t,
                                          dead, pen)
        values = np.where(died, 0.0, vals[at] * np.exp(-eps2 * integral))
        ests[k] = values.mean()
        ses[k] = values.std(ddof=1) / math.sqrt(n_traj) if n_traj > 1 else 0
    return ests, ses


def sample_set_exit_times(config: SdeConfig, gen: GeneratorMatrix, region_cells,
                          starts, n_traj: int, horizon_steps: int,
                          seed: int = 0) -> TrajectoryStats:
    """First-exit steps of the diffusion from a set of grid cells, censored
    at the horizon.

    The starts run in this process through ``_chunked``; each start draws
    from its own stream, so a start's results do not depend on the batch
    or task it comes in.  A trajectory exits at the first step whose cell
    lies outside the set, read from one per-cell table.

    Parameters
    ----------
    config : SdeConfig
    gen : GeneratorMatrix
        Owner of the grid the set lives on; its domain must be the
        potential's, so that every clamped position has a cell.
    region_cells : boolean mask (n,) or integer index array
        The set S, as ``GeneratorMatrix.cell_mask`` takes it.
    starts : array-like, shape (m, 2)
        Starting positions, each in a cell of S.
    n_traj : int
        Ensemble size per start.
    horizon_steps : int
        Step budget; trajectories still inside are censored.
    seed : int
        Master seed of the per-start streams.

    Returns
    -------
    TrajectoryStats
        exit_steps holds the first step outside the set (-1 when
        censored); endpoints are the positions at exit or at the horizon.

    Raises
    ------
    ValueError
        For a grid domain other than the potential's, a set that
        ``cell_mask`` rejects, starts not of shape (m, 2) with m >= 1, a
        start off the grid or outside S, or a nonpositive n_traj or
        horizon_steps.
    """
    if gen.grid.domain != config.potential.domain:
        raise ValueError("grid domain %s differs from the potential domain %s"
                         % (gen.grid.domain, config.potential.domain))
    inside = gen.cell_mask(region_cells)
    starts = np.asarray(starts, dtype=float)
    if starts.ndim != 2 or starts.shape[1] != 2:
        raise ValueError("starts must have shape (m, 2), not %s"
                         % (starts.shape,))
    if len(starts) == 0:
        raise ValueError("no starting position given")
    if not inside[gen.grid.cells_of(starts)].all():
        raise ValueError("starting position lies outside the region")
    if n_traj < 1 or horizon_steps < 1:
        raise ValueError("n_traj and horizon_steps must be >= 1")
    pos, exit_steps = _chunked(config, starts, n_traj, horizon_steps, seed,
                               TAG_EXIT, 1,
                               partial(_off_cells, gen.grid, ~inside))
    return TrajectoryStats(endpoints=pos, exit_steps=exit_steps,
                           horizon_steps=int(horizon_steps), dt=config.dt)


def sample_jump_exit_times(gen: GeneratorMatrix, region_cells, start_cell: int,
                           n_traj: int, horizon_time: float,
                           seed: int = 0) -> Tuple[Array, Array]:
    """First-exit times of the generator's jump process from a cell set.

    The jump process holds in cell i for an exponential time with rate
    L*_ii and then moves to a neighbor with probability proportional to
    the off-diagonal rate, so its exit times live on the same clock as
    the generator's rates.

    Parameters
    ----------
    gen : GeneratorMatrix
    region_cells : boolean mask (n,) or integer index array
        The set S; True/included means inside.
    start_cell : int
        Starting cell, inside S.
    n_traj : int
        Ensemble size.
    horizon_time : float
        Censoring horizon on the generator clock.
    seed : int
        Master seed of the start cell's stream.

    Returns
    -------
    times : ndarray
        Exit times; censored entries equal horizon_time.
    censored : ndarray of bool
        True where no exit occurred before the horizon.

    Raises
    ------
    ValueError
        For cells ``GeneratorMatrix.cell_mask`` rejects, a start off S,
        n_traj < 1, or a horizon that is not positive and finite (NaN
        included).
    """
    mask = gen.cell_mask(region_cells)
    start_cell = int(gen.cell_indices(start_cell))
    if not mask[start_cell]:
        raise ValueError("start cell lies outside the region")
    n_traj = operator.index(n_traj)
    if n_traj < 1 or not 0 < horizon_time < math.inf:
        raise ValueError("n_traj must be >= 1 and horizon_time positive and "
                         "finite")
    rng = generator_for(operator.index(seed), TAG_JUMP, start_cell)
    _, times, exited, _ = _jump_run(gen, rng, start_cell, n_traj,
                                    float(horizon_time), ~mask)
    return times, ~exited
