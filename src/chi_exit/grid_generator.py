"""Square-root approximation of the generator L* on a regular grid.

The transition rate between 4-neighbor cells i and j is
-L*_ij = sqrt(pi_j / pi_i) with pi the Boltzmann weights of the cell
centers; diagonal entries make every row sum to zero.  The resulting
rate matrix is reversible with respect to pi, so D L* D^-1 with
D = diag(sqrt(pi)) is symmetric positive semidefinite and the transfer
operator is P^tau = exp(-tau L*).
"""

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .potential import PotentialSurface

Array = np.ndarray

#: Largest allowed span of V/kbt over the grid before exp(-V) degenerates.
MAX_LOG_RANGE = 700.0


@dataclass(frozen=True)
class RegularGrid:
    """A regular nx-by-ny box discretization with row-major cell indexing.

    Cell k = i * ny + j covers the i-th slab along x1 and the j-th along
    x2; centers lie strictly inside the domain.
    """

    nx: int
    ny: int
    domain: Tuple[Tuple[float, float], Tuple[float, float]] = (
        (0.0, 0.0),
        (1.0, 1.0),
    )

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("grid needs at least one cell per axis")
        (lo1, lo2), (hi1, hi2) = self.domain
        if not (hi1 > lo1 and hi2 > lo2):
            raise ValueError("degenerate grid domain")

    @property
    def n(self) -> int:
        return self.nx * self.ny

    @property
    def spacing(self) -> Tuple[float, float]:
        (lo1, lo2), (hi1, hi2) = self.domain
        return (hi1 - lo1) / self.nx, (hi2 - lo2) / self.ny

    @property
    def centers(self) -> Array:
        """Cell centers, shape (nx*ny, 2), row-major."""
        (lo1, lo2), (hi1, hi2) = self.domain
        h1, h2 = self.spacing
        c1 = lo1 + (np.arange(self.nx) + 0.5) * h1
        c2 = lo2 + (np.arange(self.ny) + 0.5) * h2
        g1, g2 = np.meshgrid(c1, c2, indexing="ij")
        return np.column_stack([g1.ravel(), g2.ravel()])

    def cell_of(self, x) -> int:
        """Index of the cell containing x, or -1 when x is outside."""
        idx = self.cells_of(np.asarray(x, dtype=float)[None, :])
        return int(idx[0])

    def cells_of(self, x: Array) -> Array:
        """Vectorized cell lookup for positions of shape (m, 2).

        Positions on the upper domain boundary belong to the last cell,
        matching the clamped SDE convention.  Outside positions map to -1.
        """
        (lo1, lo2), (hi1, hi2) = self.domain
        h1, h2 = self.spacing
        x1, x2 = x[..., 0], x[..., 1]
        i = np.minimum(((x1 - lo1) / h1).astype(np.int64), self.nx - 1)
        j = np.minimum(((x2 - lo2) / h2).astype(np.int64), self.ny - 1)
        out = i * self.ny + j
        bad = (x1 < lo1) | (x1 > hi1) | (x2 < lo2) | (x2 > hi2)
        return np.where(bad, -1, out)


@dataclass
class GeneratorMatrix:
    """Sparse rate operator L* with its stationary distribution.

    Everything derived from it stays sparse: ``symmetrized()`` builds
    D L* D^-1 on each call, and only the jump-process tables are cached.

    Attributes
    ----------
    rates : scipy.sparse.csr_matrix
        L*; off-diagonal entries are <= 0 exactly on 4-neighbor pairs,
        diagonals make row sums vanish, eigenvalues are >= 0.
    weights : ndarray
        Stationary Boltzmann vector pi, positive, sums to 1.
    grid : RegularGrid
        The discretization the operator lives on.
    kbt : float
        Temperature scale used for the Boltzmann weights.
    """

    rates: sp.csr_matrix
    weights: Array
    grid: RegularGrid
    kbt: float = 1.0
    _jump_tables: Optional[tuple] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    def symmetrized(self) -> sp.csr_matrix:
        """Sparse D L* D^-1 with D = diag(sqrt(pi)); symmetric exactly when
        L* satisfies detailed balance (it is not symmetrized by force)."""
        sq = np.sqrt(self.weights)
        return self.rates.multiply(sq[:, None]).multiply(1.0 / sq[None, :]).tocsr()

    def jump_tables(self):
        """Tables for simulating the jump process generated by L*.

        Returns
        -------
        rate_out : ndarray
            Total outflow rate per cell (the diagonal of L*).
        neighbors : ndarray, shape (n, 4)
            Neighbor cell indices, padded by repeating the last one.
        cum : ndarray, shape (n, 4)
            Cumulative jump probabilities aligned with ``neighbors``.
        """
        if self._jump_tables is None:
            r, n = self.rates, self.n
            row = np.repeat(np.arange(n), np.diff(r.indptr))
            keep = r.indices != row
            row, js = row[keep], r.indices[keep].astype(np.int64)
            count = np.bincount(row, minlength=n)
            end = np.cumsum(count)
            off = sp.csr_matrix((r.data[keep], js, np.append(0, end)),
                                shape=(n, n))
            rate_out = np.asarray(-off.sum(axis=1)).ravel()
            # each row is padded with its last neighbour at zero rate, so
            # the row cumsum adds the rates in CSR order, its last column
            # is their total, and the padded slots hold exactly 1
            slot = np.arange(row.size) - (end - count)[row]
            neighbors = np.broadcast_to(js[end - 1][:, None], (n, 4)).copy()
            neighbors[row, slot] = js
            cum = np.zeros((n, 4))
            cum[row, slot] = -off.data
            np.cumsum(cum, axis=1, out=cum)
            cum /= cum[:, -1:]
            self._jump_tables = (rate_out, neighbors, cum)
        return self._jump_tables


def build_sqrt_generator(
    potential: PotentialSurface, grid: RegularGrid, kbt: float = 1.0
) -> GeneratorMatrix:
    """Build the square-root generator on a grid.

    Parameters
    ----------
    potential : PotentialSurface
        Supplies V at the cell centers.
    grid : RegularGrid
        At least two cells (chains such as 2x1 are allowed).
    kbt : float
        Boltzmann temperature scale, pi_i = exp(-V_i / kbt).

    Returns
    -------
    GeneratorMatrix

    Raises
    ------
    ValueError
        If the potential range on the grid exceeds ``MAX_LOG_RANGE`` in
        log units (Boltzmann weights would overflow or vanish).
    """
    if grid.n < 2:
        raise ValueError("build_sqrt_generator needs at least two cells")
    if kbt <= 0:
        raise ValueError("kbt must be positive")
    centers = grid.centers
    v = potential(centers) / kbt
    if not np.all(np.isfinite(v)):
        raise ValueError("potential is not finite on all grid cells")
    if v.max() - v.min() > MAX_LOG_RANGE:
        raise ValueError(
            "potential range too large for Boltzmann weights "
            "(%.1f log units, limit %.1f)" % (v.max() - v.min(), MAX_LOG_RANGE)
        )
    # shift before exponentiating; rates depend only on differences
    w = np.exp(-(v - v.min()))
    pi = w / w.sum()

    n = grid.n
    # every 4-neighbour pair in both directions; the CSR conversion sorts
    # the entries of each row, so their order here does not matter
    ids = np.arange(n).reshape(grid.nx, grid.ny)
    lo = np.concatenate([ids[:-1].ravel(), ids[:, :-1].ravel()])
    hi = np.concatenate([ids[1:].ravel(), ids[:, 1:].ravel()])
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    vals = -np.sqrt(w[cols] / w[rows])
    off = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    diag = -np.asarray(off.sum(axis=1)).ravel()
    rates = (off + sp.diags(diag)).tocsr()
    rates.sort_indices()
    return GeneratorMatrix(rates=rates, weights=pi, grid=grid, kbt=float(kbt))

