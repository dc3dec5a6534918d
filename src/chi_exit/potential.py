"""Potential energy surfaces and their gradients.

Energies are dimensionless (units of k_B T with k_B T = 1 unless rescaled
at generator construction).  Evaluators are pure functions of position and
accept arrays of shape (..., 2).
"""

from dataclasses import dataclass, field
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
    name : str
        Registry name used in configs.
    """

    evaluator: Callable[[Array], Array]
    gradient: Callable[[Array], Array]
    domain: Tuple[Tuple[float, float], Tuple[float, float]] = ((0.0, 0.0), (1.0, 1.0))
    name: str = "custom"

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


def _benchmark_gradient(x: Array) -> Array:
    x1, x2 = x[..., 0], x[..., 1]
    a = 4.0 * x1 - 2.0
    b = 4.0 * x2 - 7.0 / 3.0
    c = 4.0 * x2 - 11.0 / 3.0
    d = 4.0 * x1 - 3.0
    e = 4.0 * x1 - 1.0
    f = 4.0 * x2 - 2.0
    g1 = np.exp(-a * a - b * b)
    g2 = np.exp(-a * a - c * c)
    g3 = np.exp(-d * d - f * f)
    g4 = np.exp(-e * e - f * f)
    # chain rule: each scaled coordinate contributes a factor 4
    dv1 = 4.0 * (
        3.0 * g1 * (-2.0 * a)
        - 3.0 * g2 * (-2.0 * a)
        - 5.0 * g3 * (-2.0 * d)
        - 5.0 * g4 * (-2.0 * e)
    ) + 3.2 * (a * a * a)
    dv2 = 4.0 * (
        3.0 * g1 * (-2.0 * b)
        - 3.0 * g2 * (-2.0 * c)
        - 5.0 * g3 * (-2.0 * f)
        - 5.0 * g4 * (-2.0 * f)
    ) + 3.2 * (b * b * b)
    return np.stack([dv1, dv2], axis=-1)


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
        name="paper2d",
    )


def flat_potential(level: float = 0.0) -> PotentialSurface:
    """A constant potential with zero gradient (test fixture).

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
    lvl = float(level)

    def _energy(x: Array) -> Array:
        return np.full(np.asarray(x).shape[:-1], lvl)

    def _gradient(x: Array) -> Array:
        return np.zeros(np.asarray(x, dtype=float).shape)

    return PotentialSurface(
        evaluator=_energy,
        gradient=_gradient,
        domain=((0.0, 0.0), (1.0, 1.0)),
        name="flat",
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
