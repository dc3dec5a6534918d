"""Potential energy surfaces and their gradients.

Energies are dimensionless (units of k_B T with k_B T = 1 unless rescaled
at generator construction).  Evaluators are pure functions of position and
accept arrays of shape (..., 2).
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Tuple

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class PotentialSurface:
    """A potential V: R^2 -> R with analytic gradient on a box domain.

    Parameters
    ----------
    evaluator : callable
        Maps positions of shape (..., 2) to energies of shape (...).
    gradient : callable
        Maps positions of shape (..., 2) to gradients of shape (..., 2).
    domain : tuple
        ((x1_lo, x2_lo), (x1_hi, x2_hi)) axis-aligned box.
    """

    evaluator: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    domain: Tuple[Tuple[float, float], Tuple[float, float]] = ((0.0, 0.0), (1.0, 1.0))

    def __call__(self, x: Array) -> Array:
        return self.evaluator(np.asarray(x, dtype=float))

    def grad(self, x: Array) -> Array:
        return self.gradient(np.asarray(x, dtype=float))


def _benchmark_energy(x: Array) -> Array:
    x1, x2 = x[..., 0], x[..., 1]
    a = 4.0 * x1 - 2.0
    b = 4.0 * x2 - 7.0 / 3.0
    c = 4.0 * x2 - 11.0 / 3.0
    d = 4.0 * x1 - 3.0
    e = 4.0 * x1 - 1.0
    f = 4.0 * x2 - 2.0
    return (
        3.0 * np.exp(-a * a - b * b)
        - 3.0 * np.exp(-a * a - c * c)
        - 5.0 * np.exp(-d * d - f * f)
        - 5.0 * np.exp(-e * e - f * f)
        + 0.2 * a ** 4
        + 0.2 * b ** 4
    )


# Offsets of the scaled coordinates a, d, e (from 4 x1) and b, c, f (from
# 4 x2), and the Gaussian weights in the row order of the gradient below.
_OFFSETS = (np.array([[2.0], [3.0], [1.0]]),
            np.array([[7.0 / 3.0], [11.0 / 3.0], [2.0]]))
_WEIGHTS = np.array([[5.0], [5.0], [3.0], [3.0]])


def _benchmark_gradient(x: Array) -> Array:
    # The gradient of _benchmark_energy,
    #   dV/dx1 = 4 (3 g1 (-2a) - 3 g2 (-2a) - 5 g3 (-2d) - 5 g4 (-2e)) + 3.2 a^3
    #   dV/dx2 = 4 (3 g1 (-2b) - 3 g2 (-2c) - 5 g3 (-2f) - 5 g4 (-2f)) + 3.2 b^3
    # with g1 = exp(-a^2 - b^2), g2 = exp(-a^2 - c^2), g3 = exp(-d^2 - f^2)
    # and g4 = exp(-e^2 - f^2), computed on stacked rows so that one ufunc
    # call serves every like term.  Each value takes the same IEEE
    # operations in the same order as the formula written out term by term
    # (-(a a) - b b == (-a) a - b b, as rounding is symmetric in sign, and
    # -f f - d d == -d d - f f, as addition commutes), so the two agree bit
    # for bit.  The input is viewed as rows of (m, 2), so
    # every slice below is at least 1-d and can take out=.
    p = x.reshape(-1, 2)
    tmp = np.multiply(p.T, 4.0, out=np.empty(p.shape[::-1]))
    v = np.empty((6, len(p)))                 # a, d, e, b, c, f
    np.subtract(tmp[0], _OFFSETS[0], out=v[:3])
    np.subtract(tmp[1], _OFFSETS[1], out=v[3:])
    sq = v * v                                # aa, dd, ee, bb, cc, ff
    cube = sq[0:4:3] * v[0:4:3]               # a^3, b^3
    cube *= 3.2
    np.negative(sq[0:6:5], out=sq[0:6:5])     # -aa, -ff
    np.subtract(sq[0], sq[3:5], out=sq[3:5])  # -aa - bb, -aa - cc
    np.subtract(sq[5], sq[1:3], out=sq[1:3])  # -ff - dd, -ff - ee
    g = np.exp(sq[1:5], out=sq[1:5])          # g3, g4, g1, g2
    g *= _WEIGHTS
    # one row per gradient component: 3 g1 a - 3 g2 a - ...
    acc = np.multiply(g[2], v[0:4:3])
    acc -= np.multiply(g[3], v[0:5:4], out=tmp)
    acc -= np.multiply(g[0], v[1:6:4], out=tmp)
    acc -= np.multiply(g[1], v[2:6:3], out=tmp)
    # the factor -2 of every Gaussian's derivative and the chain rule's 4;
    # scaling by a power of two is exact, so the sum scaled once has the
    # bits of the sum of the scaled terms
    acc *= -8.0
    out = np.empty(p.shape)
    np.add(acc, cube, out=out.T)
    return out.reshape(x.shape)


def benchmark_potential() -> PotentialSurface:
    """The two-dimensional benchmark potential.

    Three Gaussian wells (two deep minima near (0.25, 0.5) and (0.75, 0.5),
    a shallower one near (0.5, 11/12)), one Gaussian barrier, and a quartic
    confinement, on the domain [0, 1] x [0, 1].

    Returns
    -------
    PotentialSurface
    """
    return PotentialSurface(
        evaluator=_benchmark_energy,
        gradient=_benchmark_gradient,
        domain=((0.0, 0.0), (1.0, 1.0)),
    )


def _flat_energy(level: float, x: Array) -> Array:
    return np.full(np.asarray(x).shape[:-1], level)


def _flat_gradient(x: Array) -> Array:
    return np.zeros(np.asarray(x, dtype=float).shape)


def flat_potential(level: float = 0.0) -> PotentialSurface:
    """A constant potential with zero gradient (test fixture).

    Module-level functions and ``functools.partial`` for the level make it
    pickle, so its Monte Carlo ensembles can run in worker processes.

    Parameters
    ----------
    level : float
        The constant energy value.

    Returns
    -------
    PotentialSurface
    """
    if not np.isfinite(level):
        raise ValueError("flat_potential level must be finite")
    return PotentialSurface(
        evaluator=partial(_flat_energy, float(level)),
        gradient=_flat_gradient,
        domain=((0.0, 0.0), (1.0, 1.0)),
    )


_REGISTRY = {
    "paper2d": benchmark_potential,
    "flat": flat_potential,
}


def potential_by_name(name: str) -> PotentialSurface:
    """Look up a registered potential by config name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            "unknown potential %r (choose from %s)" % (name, sorted(_REGISTRY))
        ) from None
    return factory()
