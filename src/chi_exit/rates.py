"""Exit-rate algebra for fuzzy metastable sets.

Given a membership chi with (approximately) L* chi = alpha chi + beta 1,
the chi-holding probability decays as chi(x) e^{-eps1 t} with
eps1 = alpha + beta; eps2 = -beta is the occupation penalty rate and
pi_chi = -beta/alpha the statistical weight.  The report is meaningful
when eps2 < eps1, equivalently pi_chi < 1/2.  Three routes produce the
same report on an exact eigenspace: directly from an eigenpair, by
regressing the generator action, or by regressing propagated values
(P^tau chi vs chi) and inverting gamma1 = e^{-tau alpha}.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .grid_generator import GeneratorMatrix
from .spectral import _factor

Array = np.ndarray

_NORM_NAMES = {
    "ls": "least_squares",
    "least_squares": "least_squares",
    "lad": "least_absolute",
    "least_absolute": "least_absolute",
}


@dataclass(frozen=True)
class RegressionResult:
    """A fit ys ~ gamma1 * xs + gamma2.

    Attributes
    ----------
    gamma1, gamma2 : float
        Slope and intercept.
    residual_norm : float
        L2 norm of the residuals for least squares, L1 for least
        absolute deviation.
    n_points : int
        Sample size.
    norm_kind : str
        "least_squares" or "least_absolute".
    """

    gamma1: float
    gamma2: float
    residual_norm: float
    n_points: int
    norm_kind: str


@dataclass(frozen=True)
class ExitRateReport:
    """Rates of one fuzzy set.

    eps1 = alpha + beta is the chi-exit rate, eps2 = -beta the penalty
    rate, pi_chi the statistical-weight estimate, and meaningful is the
    eps2 < eps1 criterion (equivalently pi_chi < 1/2).  tau is the lag of
    a lag fit, None otherwise; residual_norm and n_points describe the
    regression behind the report, when any.  The fields, in this order,
    are the columns of the CLI's report.csv after the route that made it;
    build a report by keyword.
    """

    alpha: float
    beta: float
    eps1: float
    eps2: float
    pi_chi: float
    meaningful: bool
    tau: Optional[float] = None
    residual_norm: float = float("nan")
    n_points: int = 0
    norm_kind: str = "exact"
    note: str = ""


def regress(xs, ys, norm_kind: str = "least_squares") -> RegressionResult:
    """Fit ys ~ gamma1 * xs + gamma2.

    Parameters
    ----------
    xs, ys : array-like
        Equal lengths >= 2, finite; xs must not be constant.
    norm_kind : str
        "least_squares"/"ls" or "least_absolute"/"lad".

    Returns
    -------
    RegressionResult
    """
    try:
        kind = _NORM_NAMES[norm_kind]
    except KeyError:
        raise ValueError("unknown regression norm %r" % (norm_kind,)) from None
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size != ys.size:
        raise ValueError("xs and ys must have equal length")
    if xs.size < 2:
        raise ValueError("regression needs at least two points")
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("regression needs finite xs and ys")
    if xs.max() - xs.min() < 1e-14:
        raise ValueError("degenerate regression: predictor has zero variance")
    n = xs.size
    if kind == "least_squares":
        design = np.column_stack([xs, np.ones(n)])
        coef, _, _, _ = np.linalg.lstsq(design, ys, rcond=None)
        g1, g2 = float(coef[0]), float(coef[1])
        resid = float(np.linalg.norm(ys - g1 * xs - g2))
    else:
        # LAD as a linear program: min sum(u+v), y - g1 x - g2 = u - v;
        # imported here so that no other run loads scipy.optimize
        from scipy.optimize import linprog
        eye = sp.identity(n, format="csc")
        a_eq = sp.hstack(
            [sp.csc_matrix(xs[:, None]), sp.csc_matrix(np.ones((n, 1))),
             eye, -eye],
            format="csc",
        )
        c = np.concatenate([[0.0, 0.0], np.ones(2 * n)])
        bounds = [(None, None), (None, None)] + [(0, None)] * (2 * n)
        res = linprog(c, A_eq=a_eq, b_eq=ys, bounds=bounds, method="highs")
        if not res.success:
            raise RuntimeError("LAD regression failed: %s" % res.message)
        g1, g2 = float(res.x[0]), float(res.x[1])
        resid = float(np.abs(ys - g1 * xs - g2).sum())
    return RegressionResult(gamma1=g1, gamma2=g2, residual_norm=resid,
                            n_points=n, norm_kind=kind)


def gammas_to_rate(reg: RegressionResult, tau: float) -> ExitRateReport:
    """Convert a (gamma1, gamma2) fit at lag tau into an exit-rate report.

    Inverts gamma1 = e^{-tau alpha} and gamma2 = (beta/alpha)(e^{-tau
    alpha} - 1).  Outside 0 < gamma1 < 1 the rate is undefined, and the
    report is returned with the rates unset and a note: "no decay
    detected" for gamma1 >= 1, "lag time too long / noise dominated" for
    gamma1 <= 0.

    Parameters
    ----------
    reg : RegressionResult
    tau : float
        Lag time of the propagated values, > 0; the report's tau.

    Returns
    -------
    ExitRateReport

    Raises
    ------
    ValueError
        When tau is not positive and finite (NaN included).
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    g1, g2 = reg.gamma1, reg.gamma2
    if not 0 < g1 < 1:
        return _fit_report(math.nan, math.nan, reg, float(tau),
                           "no decay detected" if g1 >= 1
                           else "lag time too long / noise dominated")
    alpha = -math.log(g1) / tau
    return _fit_report(alpha, alpha * g2 / (g1 - 1.0), reg, float(tau))


def _fit_report(alpha: float, beta: float, reg: RegressionResult,
                tau: Optional[float] = None, note: str = "") -> ExitRateReport:
    """Report from fitted generator coefficients L* chi ~ alpha chi + beta."""
    eps1, eps2 = alpha + beta, -beta
    return ExitRateReport(
        alpha=alpha, beta=beta, eps1=eps1, eps2=eps2,
        pi_chi=eps2 / (eps1 + eps2) if alpha > 0 else float("nan"),
        meaningful=bool(eps2 < eps1), tau=tau,
        residual_norm=reg.residual_norm, n_points=reg.n_points,
        norm_kind=reg.norm_kind, note=note,
    )


def rate_from_eigenpair(eps_bar: float, beta_bar: float) -> ExitRateReport:
    """Report from an eigenvalue and the shift of its rescaled eigenfunction.

    For chi = alpha_bar f + beta_bar 1 the generator acts exactly:
    L* chi = eps_bar chi - eps_bar beta_bar 1, so eps1 = eps_bar (1 -
    beta_bar), eps2 = eps_bar beta_bar, and pi_chi = beta_bar.

    Parameters
    ----------
    eps_bar : float
        Eigenvalue, positive and finite.
    beta_bar : float
        Shift in [0, 1]; equals the statistical weight.

    Returns
    -------
    ExitRateReport
    """
    if not 0 < eps_bar < math.inf:
        raise ValueError("eps_bar must be positive and finite")
    if not 0 <= beta_bar <= 1:
        raise ValueError("beta_bar must lie in [0, 1]")
    alpha = float(eps_bar)
    beta = -alpha * float(beta_bar)
    return ExitRateReport(
        alpha=alpha, beta=beta, eps1=alpha + beta, eps2=-beta,
        pi_chi=float(beta_bar), meaningful=bool(-beta < alpha + beta),
    )


def regress_generator_action(gen: GeneratorMatrix, chi,
                             norm_kind: str = "least_squares"
                             ) -> ExitRateReport:
    """Report from regressing L* chi against (chi, 1) on the grid.

    Computes the sparse product L* chi exactly, fits L* chi ~ alpha chi
    + beta, and maps (alpha, beta) directly to the report (no lag-time
    conversion).

    Parameters
    ----------
    gen : GeneratorMatrix
    chi : Membership or ndarray
        Grid membership values, as ``RegularGrid.cell_values`` checks.
    norm_kind : str
        Regression norm, as in :func:`regress`.

    Returns
    -------
    ExitRateReport

    Raises
    ------
    ValueError
        For a chi that ``RegularGrid.cell_values`` of ``gen.grid`` rejects.
    """
    vals = gen.grid.cell_values(chi)
    reg = regress(vals, gen.rates @ vals, norm_kind)
    return _fit_report(reg.gamma1, reg.gamma2, reg)


def holding_probability(report: ExitRateReport, chi_at_x, t: float):
    """p_chi(x, t) = chi(x) e^{-eps1 t} under a meaningful report."""
    if not t >= 0:
        raise ValueError("t must be nonnegative")
    if not report.meaningful:
        raise ValueError("holding probability needs a meaningful report")
    return np.asarray(chi_at_x, dtype=float) * math.exp(-report.eps1 * t)


def chi_mean_holding_time(report: ExitRateReport, chi_at_x):
    """Fuzzy mean holding time t1(x) = chi(x) / eps1."""
    if not (report.eps1 > 0):
        raise ValueError("chi mean holding time needs eps1 > 0")
    return np.asarray(chi_at_x, dtype=float) / report.eps1


def set_mean_holding_time(gen: GeneratorMatrix, region_cells) -> Array:
    """Mean holding times of a crisp set: L* t = 1 inside, t = 0 outside.

    Parameters
    ----------
    gen : GeneratorMatrix
    region_cells : boolean mask (n,) or integer index array
        The set S; both S and its complement must be non-empty.

    Returns
    -------
    ndarray
        Mean holding time per cell, zero outside S.

    Raises
    ------
    ValueError
        For cells ``GeneratorMatrix.cell_mask`` rejects, an empty S or
        complement, or a component of S without exit.
    """
    mask = gen.cell_mask(region_cells)
    if not mask.any():
        raise ValueError("region is empty")
    if mask.all():
        raise ValueError("region complement is empty; no absorbing boundary")
    t = np.zeros(gen.n)
    t[mask] = _factor(gen.restricted(mask)).solve(np.ones(int(mask.sum())))
    return t


def exit_path_direction(chi, x) -> Array:
    """Normalized exit direction -grad chi(x) on the cell lattice.

    The gradient uses central differences in the grid interior and
    one-sided differences at the edges.  A pcca_single membership is a
    positive affine image of its eigenfunction f, so its direction is
    also that of -grad f.

    Parameters
    ----------
    chi : Membership
        A grid membership; a point sampler raises ValueError.
    x : array-like, shape (2,)
        One position on the grid; another shape raises ValueError, and
        ``RegularGrid.cells_of`` rejects one off the grid.

    Returns
    -------
    ndarray, shape (2,)
        Unit vector along -grad chi at the cell containing x.
    """
    if chi.values is None:
        raise ValueError("exit_path_direction needs a grid membership, "
                         "not a point sampler")
    if np.shape(x) != (2,):
        raise ValueError("exit_path_direction takes one position of shape "
                         "(2,), not %s" % (np.shape(x),))
    grid = chi.grid
    cell = int(grid.cells_of(x))
    h1, h2 = grid.spacing
    field = chi.values.reshape(grid.nx, grid.ny)
    g1, g2 = np.gradient(field, h1, h2)
    i, j = divmod(cell, grid.ny)
    # a strict local extremum among the lattice neighbors is a critical
    # cell even when the central difference does not vanish exactly
    center = field[i, j]
    neigh = [field[a, b]
             for a, b in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1))
             if 0 <= a < grid.nx and 0 <= b < grid.ny]
    if all(v < center for v in neigh) or all(v > center for v in neigh):
        raise ValueError("at a critical point of chi (local extremum cell)")
    vec = -np.array([g1[i, j], g2[i, j]])
    norm = float(np.linalg.norm(vec))
    if norm < 1e-10:
        raise ValueError("at a critical point of chi (gradient ~ 0)")
    return vec / norm


def dominance_timescale(chi_level: float, eps2: float) -> float:
    """Time beyond which the exponential rate law dominates.

    Returns -ln(chi) chi / ((1 - chi) eps2); the limit for chi -> 1 is
    1/eps2.

    Parameters
    ----------
    chi_level : float
        Membership level, strictly between 0 and 1.
    eps2 : float
        Penalty rate, > 0.
    """
    if not 0 < chi_level < 1:
        raise ValueError("chi_level must lie strictly between 0 and 1")
    if not eps2 > 0:
        raise ValueError("eps2 must be positive")
    return -math.log(chi_level) * chi_level / ((1.0 - chi_level) * eps2)


def fit_survival_rate(times, censored=None) -> float:
    """Exponential rate from an empirical survival curve.

    Sorts the exit-time samples, forms the survival fractions S(t_k) =
    (n - k)/n at the observed exits, and fits ln S ~ -rate * t by least
    squares (censored samples enter the curve but contribute no exit
    point).

    Parameters
    ----------
    times : array-like
        Exit times, finite where not censored; censored entries hold the
        horizon.
    censored : array-like of bool, optional
        Marks entries that never exited.

    Returns
    -------
    float
        The fitted exit rate; NaN when the curve keeps fewer than two
        distinct exit times (fewer than two exits, two with none censored,
        whose last survival fraction is zero, or exits all at one time).

    Raises
    ------
    ValueError
        When censored and times differ in length, or an exit time that
        is not censored is negative or not finite.
    """
    times = np.asarray(times, dtype=float).ravel()
    if censored is None:
        censored = np.zeros(times.shape, dtype=bool)
    censored = np.asarray(censored, dtype=bool).ravel()
    n = times.size
    if censored.size != n:
        raise ValueError("times has %d entries but censored has %d"
                         % (n, censored.size))
    exits = np.sort(times[~censored])
    if not np.isfinite(exits).all():
        raise ValueError("exit times that are not censored must be finite")
    if exits.size and exits[0] < 0:
        raise ValueError("exit times that are not censored must be >= 0, "
                         "not %g" % exits[0])
    survival = (n - np.arange(1, exits.size + 1)) / n
    keep = survival > 0
    # exits is sorted, so the kept times are distinct unless all are equal
    if keep.sum() < 2 or exits[keep][0] == exits[keep][-1]:
        return float("nan")
    reg = regress(exits[keep], np.log(survival[keep]), "least_squares")
    return -reg.gamma1
