"""Membership functions chi by four routes.

A membership chi maps the state space to [0, 1] and generalizes the
indicator of a metastable set.  Grid memberships carry one value per
cell and their grid; the point sampler evaluates lazily by simulation.
Construction routes: affine rescaling of a single eigenfunction
(pcca_single), inner-simplex PCCA+ on several eigenfunctions
(pcca_multi), the committor between two cores (committor), and Monte
Carlo core-hitting probabilities (mc_hitting_membership).  A core is
passed as what its consumer reads: integer grid cells to the committor
(find_weight_cores returns two), a box (x1_min, x1_max, x2_min, x2_max)
to the sampler.
"""

import operator
import warnings
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .grid_generator import GeneratorMatrix, RegularGrid
from .spectral import EigenSystem, _factor
from .sde import SdeConfig, hitting_fractions

Array = np.ndarray

#: Reject eigenvalues whose relative gap to a neighbor is below this.
GAP_TOL = 0.05

# Objective evaluations, and iterations, the PCCA+ crispness search may spend.
_CRISPNESS_BUDGET = 20000


@dataclass(eq=False)
class Membership:
    """A fuzzy set chi with values in [0, 1].

    A grid membership holds one value per cell of its grid, checked by
    ``RegularGrid.cell_values`` and clipped into [0, 1].  One without
    values is the core-hitting sampler: its meta holds the dynamics, box,
    n_traj, max_steps and seed of its paths, checked when it is built, that
    ``evaluate_batch`` and ``sde.estimate_ptau_chi`` run.

    Attributes
    ----------
    values : ndarray, optional
        Per-cell values; None for the sampler.
    grid : RegularGrid, optional
        The discretization of the values, required with them.
    meta : dict
        Construction metadata (e.g. eps_bar, beta_bar, weight).
    """

    values: Optional[Array] = None
    grid: Optional[RegularGrid] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.values is None:
            keys = ("dynamics", "box", "n_traj", "max_steps", "seed")
            missing = [key for key in keys if key not in self.meta]
            if missing:
                raise ValueError("point_sampler membership needs meta %s"
                                 % ", ".join(missing))
            if self.meta["n_traj"] < 1 or self.meta["max_steps"] < 1:
                raise ValueError("n_traj and max_steps must be >= 1")
            x1lo, x1hi, x2lo, x2hi = self.meta["box"]
            if not (x1hi > x1lo and x2hi > x2lo):
                raise ValueError("core box is degenerate")
            (lo1, lo2), (hi1, hi2) = self.meta["dynamics"].potential.domain
            if not (lo1 <= x1lo and x1hi <= hi1
                    and lo2 <= x2lo and x2hi <= hi2):
                raise ValueError("core box leaves the potential domain")
            return
        if self.grid is None:
            raise ValueError("grid membership needs its grid")
        vals = self.grid.cell_values(self.values)
        if vals.min() < -1e-9 or vals.max() > 1 + 1e-9:
            raise ValueError(
                "membership values leave [0,1]: min %.3e max %.3e"
                % (vals.min(), vals.max())
            )
        self.values = np.clip(vals, 0.0, 1.0)

    @property
    def kind(self) -> str:
        """Kind "grid_vector" with per-cell values, else "point_sampler"."""
        return "point_sampler" if self.values is None else "grid_vector"

    def evaluate_batch(self, pts: Array, workers: int = 1) -> Array:
        """Vectorized evaluation; workers only affects speed.  A grid
        membership raises ValueError for a position off its grid."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.values is not None:
            return self.values[self.grid.cells_of(pts)]
        m = self.meta
        return hitting_fractions(m["dynamics"], m["box"], pts, m["n_traj"],
                                 m["max_steps"], seed=m["seed"],
                                 workers=workers)


def _reject_degenerate(eig: EigenSystem, idx: int) -> None:
    """Reject eigenpairs not uniquely separated from their neighbors."""
    lam = eig.eigenvalues[idx]
    for other in (idx - 1, idx + 1):
        if other < 1 or other >= eig.count:
            continue  # the kernel pair is not a degeneracy partner
        gap = abs(lam - eig.eigenvalues[other])
        if gap < GAP_TOL * max(lam, eig.eigenvalues[other]):
            raise ValueError(
                "no uniquely separated slow eigenfunction: eigenvalue "
                "%.6g is degenerate with neighbor %.6g (relative gap %.1e)"
                % (lam, eig.eigenvalues[other],
                   gap / max(lam, eig.eigenvalues[other]))
            )


def pcca_single(eig: EigenSystem, which: int) -> Membership:
    """Membership from one eigenfunction: chi = alpha_bar f + beta_bar 1.

    Parameters
    ----------
    eig : EigenSystem
    which : int
        One-based eigen index, >= 2 (index 1 is the constant kernel).
        The eigenvalue must be nonzero and uniquely separated from its
        neighbors.

    Returns
    -------
    Membership
        Grid membership with meta beta_bar = -min f/(max f - min f), the
        statistical weight pi_chi, and eps_bar, the eigenvalue: all that
        the rate eps1 = eps_bar (1 - beta_bar) reads.
    """
    which = operator.index(which)
    if which < 2 or which > eig.count:
        raise ValueError("which must be between 2 and %d" % eig.count)
    idx = which - 1
    f = eig.eigenvectors[:, idx]
    eps_bar = float(eig.eigenvalues[idx])
    if eps_bar < 1e-12:
        raise ValueError(
            "no uniquely separated slow eigenfunction: eigenvalue %.3g "
            "is not separated from zero" % eps_bar
        )
    _reject_degenerate(eig, idx)
    fmax, fmin = float(f.max()), float(f.min())
    if fmax - fmin < 1e-14:
        raise ValueError("eigenfunction %d is constant; cannot rescale" % which)
    beta_bar = -fmin / (fmax - fmin)
    return Membership(
        values=(f - fmin) / (fmax - fmin),
        grid=eig.grid,
        meta={"beta_bar": beta_bar, "eps_bar": eps_bar},
    )


def _isa_vertices(x: Array) -> Array:
    """Greedy max-distance rows spanning the eigenvector simplex."""
    m = x.shape[1]
    idx = np.zeros(m, dtype=np.int64)
    idx[0] = int(np.argmax((x * x).sum(axis=1)))
    y = x - x[idx[0]]
    for k in range(1, m):
        norms = (y * y).sum(axis=1)
        idx[k] = int(np.argmax(norms))
        w = y[idx[k]] / np.sqrt(norms[idx[k]])
        y = y - np.outer(y @ w, w)
    return idx


def _fill_a(free: Array, x: Array) -> Array:
    """Feasibility completion of the (m-1)^2 free coefficients (rows and
    columns 1..m-1 of ``a``): nonnegative memberships, partition of unity."""
    m = x.shape[1]
    a = np.zeros((m, m))
    a[1:, 1:] = free.reshape(m - 1, m - 1)
    a[1:, 0] = -np.add.reduce(a[1:, 1:], 1)
    slow = x[:, 1:]
    for j in range(m):
        a[0, j] = -np.minimum.reduce(slow @ a[1:, j])
    total = np.add.reduce(a[0])
    if total <= 0:
        raise ValueError("degenerate PCCA+ feasibility completion")
    return a / total


def _crispness(free: Array, x: Array) -> float:
    try:
        a = _fill_a(free, x)
    except ValueError:
        return 1e6
    if np.logical_or.reduce(a[0] < 1e-12):
        return 1e6
    # columns of x are pi-orthonormal, so <chi_j, chi_j>_pi = sum_k a_kj^2
    return -float(np.add.reduce(np.add.reduce(a * a, 0) / a[0]))


class _BudgetSpent(Exception):
    """The Nelder-Mead objective was asked for one evaluation too many."""


def _nelder_mead(fun, x0: Array, args: tuple, tol: float, budget: int
                 ) -> Tuple[Array, bool]:
    """Minimize fun(x, *args) by the Nelder-Mead simplex (Nelder & Mead,
    Comput. J. 1965), repeating each step of scipy 1.17's ``fmin`` with
    xtol = ftol = tol and maxiter = maxfun = budget, so that it returns
    fmin's vertex bit for bit; like fmin, it stops partway through a step
    once the budget is spent.  Returns the best vertex and whether it
    converged (fmin's warnflag 0)."""
    n = len(x0)
    calls = 0

    def f(x):
        nonlocal calls
        if calls >= budget:
            raise _BudgetSpent
        calls += 1
        return fun(x.copy(), *args)

    def ordered(sim, fsim):
        order = fsim.argsort()
        return sim.take(order, 0), fsim.take(order, 0)

    sim = np.tile(np.asarray(x0, dtype=float), (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _BudgetSpent:
        pass
    sim, fsim = ordered(*ordered(sim, fsim))  # fmin sorts twice here
    iterations = 1
    while calls < budget and iterations < budget:
        if (np.maximum.reduce(np.abs(sim[1:] - sim[0]), None) <= tol
                and np.maximum.reduce(np.abs(fsim[0] - fsim[1:])) <= tol):
            break
        # fmin's rho = 1, chi = 2, psi = sigma = 0.5, written out
        try:
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:  # contract outside if xr beats the worst vertex
                outside = fxr < fsim[-1]
                xc = (1.5 * xbar - 0.5 * sim[-1] if outside
                      else 0.5 * xbar + 0.5 * sim[-1])
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
            iterations += 1
        except _BudgetSpent:
            pass
        sim, fsim = ordered(sim, fsim)
    return sim[0], calls < budget and iterations < budget


def pcca_multi(eig: EigenSystem, n_clusters: int) -> List[Membership]:
    """Inner-simplex PCCA+ memberships from the first n_clusters eigenpairs.

    Vertices are selected by greedy max-distance on the eigenvector rows,
    the vertex matrix is inverted for the initial linear-combination
    coefficients, and the free coefficients are then polished by a
    crispness maximization that keeps nonnegativity and partition of
    unity exact.  A maximization that spends its budget of evaluations
    unconverged issues a UserWarning and keeps its best vertex.

    Parameters
    ----------
    eig : EigenSystem
    n_clusters : int
        Number of memberships, 2 <= n_clusters <= eig.count.

    Returns
    -------
    list of Membership
        Each with meta "weight" (pi_chi, the coefficient of the constant
        eigenfunction in its linear combination), ordered by the center of
        each one's peak cell, x1 first, then x2.
    """
    m = operator.index(n_clusters)
    if m < 2 or m > eig.count:
        raise ValueError("n_clusters must be between 2 and %d" % eig.count)
    if eig.count > m:
        lam_in, lam_out = eig.eigenvalues[m - 1], eig.eigenvalues[m]
        if lam_out - lam_in < GAP_TOL * max(lam_out, 1e-300):
            warnings.warn(
                "weak spectral gap after %d clusters (%.3g vs %.3g)"
                % (m, lam_in, lam_out)
            )
    x = eig.eigenvectors[:, :m]
    idx = _isa_vertices(x)
    vert = x[idx]
    cond = np.linalg.cond(vert)
    if cond > 1e12:
        raise ValueError(
            "singular simplex vertex matrix (condition number %.2e)" % cond
        )
    a0 = _fill_a(np.linalg.inv(vert)[1:, 1:], x)
    free, converged = _nelder_mead(_crispness, a0[1:, 1:].ravel(), (x,),
                                   1e-10, _CRISPNESS_BUDGET)
    if not converged:
        warnings.warn("PCCA+ crispness search stopped unconverged after %d "
                      "evaluations" % _CRISPNESS_BUDGET)
    a = _fill_a(free, x)
    chis = x @ a
    if chis.min() < -1e-10:
        raise ValueError("PCCA+ produced negative memberships")
    unity = np.abs(chis.sum(axis=1) - 1.0).max()
    if unity > 1e-10:
        raise ValueError("PCCA+ memberships violate partition of unity")
    # the simplex's vertex order is roundoff's choice between symmetric
    # wells; the peak cell's center, x1 then x2, is not
    peaks = eig.grid.centers[chis.argmax(axis=0)]
    return [Membership(values=chis[:, j], grid=eig.grid,
                       meta={"weight": float(a[0, j])})
            for j in np.lexsort((peaks[:, 1], peaks[:, 0]))]


def committor(gen: GeneratorMatrix, core_a, core_b) -> Membership:
    """Committor q = probability of reaching core_a before core_b.

    Solves the restricted linear system (L* q)_i = 0 on non-core cells
    with boundary values q = 1 on core_a and q = 0 on core_b.

    Parameters
    ----------
    gen : GeneratorMatrix
    core_a, core_b : array-like of int
        Disjoint, non-empty sets of grid cells.

    Returns
    -------
    Membership
        Grid membership of the committor's values, one per cell.

    Raises
    ------
    ValueError
        For an empty core, cells that ``GeneratorMatrix.cell_indices``
        rejects (floats, masks, -1), overlapping cores, or non-core cells
        that reach neither core.
    """
    a, b = (gen.cell_mask(gen.cell_indices(core)) for core in (core_a, core_b))
    if not (a.any() and b.any()):
        raise ValueError("core cell set is empty")
    if np.any(a & b):
        raise ValueError("core sets overlap")
    free = ~(a | b)
    sub = gen.restricted(free)
    rhs = -np.asarray(gen.rates[free][:, a].sum(axis=1)).ravel()
    q = np.zeros(gen.n)
    q[a] = 1.0
    q[free] = _factor(sub).solve(rhs)
    return Membership(values=q, grid=gen.grid)


def find_weight_cores(gen: GeneratorMatrix, threshold: float = 0.0025
                      ) -> Tuple[Array, Array]:
    """Left and right cores: cells with stationary weight above a threshold.

    Cells with normalized weight pi_i > threshold are split into
    connected components on the grid adjacency; exactly two components
    are expected, ordered left/right by the x1 of their centroids.

    Parameters
    ----------
    gen : GeneratorMatrix
    threshold : float
        Weight cutoff on the normalized stationary vector.

    Returns
    -------
    (ndarray, ndarray) of int64
        The cells of the left and of the right core.
    """
    mask = gen.weights > threshold
    if not mask.any():
        raise ValueError("no cells above weight threshold %g" % threshold)
    labels = gen.components(mask)
    ncomp = labels.max() + 1
    if ncomp != 2:
        raise ValueError(
            "expected two cores above weight %g, found %d components"
            % (threshold, ncomp)
        )
    cells = np.flatnonzero(mask).astype(np.int64)
    centers = gen.grid.centers
    cores = [cells[labels == comp] for comp in range(2)]
    cores.sort(key=lambda core: centers[core, 0].mean())
    return cores[0], cores[1]


def mc_hitting_membership(dynamics: SdeConfig, box, n_traj: int,
                          max_steps: int, seed: int = 0) -> Membership:
    """Membership as the probability of hitting a core box within a budget.

    The sampler, given x, runs n_traj Euler-Maruyama trajectories from x
    and returns the fraction entering the box within max_steps steps
    (the start itself counts as step 0).  Values are deterministic given
    (seed, x): each point draws from its own stream keyed by the master
    seed and the coordinate bits, so evaluation order and worker count
    never matter.

    Parameters
    ----------
    dynamics : SdeConfig
    box : tuple
        (x1_min, x1_max, x2_min, x2_max) hitting target, non-degenerate
        and inside the domain.
    n_traj, max_steps : int
        Ensemble size and step budget per point, both >= 1.
    seed : int
        Master seed of the per-point streams.

    Returns
    -------
    Membership
        Point-sampler membership; its meta holds the dynamics, box,
        n_traj, max_steps and seed.
    """
    return Membership(
        meta={
            "dynamics": dynamics,
            "box": tuple(map(float, box)),
            "n_traj": operator.index(n_traj),
            "max_steps": operator.index(max_steps),
            "seed": operator.index(seed),
        },
    )
