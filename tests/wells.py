"""Random reversible generators: sums of Gaussian wells on the unit square.

``random_wells()`` is a hypothesis strategy for a ``Wells`` draw: one to
four Gaussian terms with amplitudes in [-4, 4], widths in [0.05, 0.3] and
centers anywhere on the square, a grid of 6 to 29 cells per axis, and a
temperature ``kbt`` in [0.08, 2], the range the grid routes are meant to
cover.  Below ``kbt`` 0.3 some draws leave the eigensolver's pointwise
accuracy (ROADMAP items 9 and 15); the strategy keeps them.
"""

from dataclasses import dataclass
from functools import partial
from typing import Tuple

import numpy as np
from hypothesis import strategies as st

from chi_exit import PotentialSurface, RegularGrid, build_sqrt_generator


def _energy(wells, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape[:-1])
    for a, c1, c2, w in wells:
        out += a * np.exp(-((x[..., 0] - c1) ** 2 + (x[..., 1] - c2) ** 2)
                          / (2.0 * w * w))
    return out


def _gradient(wells, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    for a, c1, c2, w in wells:
        d = x - (c1, c2)
        e = a * np.exp(-(d * d).sum(axis=-1) / (2.0 * w * w))
        out -= d * (e / (w * w))[..., None]
    return out


@dataclass(frozen=True)
class Wells:
    """One draw: (amplitude, center x1, center x2, width) per well, the
    grid's cells per axis, and the temperature."""

    wells: Tuple[Tuple[float, float, float, float], ...]
    nx: int
    ny: int
    kbt: float

    @property
    def potential(self) -> PotentialSurface:
        return PotentialSurface(partial(_energy, self.wells),
                                partial(_gradient, self.wells))

    def generator(self):
        pot = self.potential
        return build_sqrt_generator(pot, RegularGrid(self.nx, self.ny,
                                                     pot.domain), self.kbt)


def galerkin(gen, chis):
    """PCCA+'s coarse-grained generator Q_c = (X^T Pi X)^-1 X^T Pi L* X of
    the memberships X, and the condition number of X^T Pi X."""
    x = np.column_stack([c.values for c in chis])
    px = gen.weights[:, None] * x
    gram = x.T @ px
    return np.linalg.solve(gram, px.T @ (gen.rates @ x)), np.linalg.cond(gram)


_WELL = st.tuples(st.floats(-4.0, 4.0), st.floats(0.0, 1.0),
                  st.floats(0.0, 1.0), st.floats(0.05, 0.3))


def random_wells():
    """The strategy of ``Wells`` draws described in the module docstring."""
    return st.builds(Wells, st.lists(_WELL, min_size=1, max_size=4).map(tuple),
                     st.integers(6, 29), st.integers(6, 29),
                     st.floats(0.08, 2.0))
