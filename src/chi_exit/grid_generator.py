"""Square-root approximation of the generator L* on a regular grid.

The transition rate between 4-neighbor cells i and j is
-L*_ij = sqrt(pi_j / pi_i) with pi the Boltzmann weights of the cell
centers; diagonal entries make every row sum to zero.  The resulting
rate matrix is reversible with respect to pi, so D L* D^-1 with
D = diag(sqrt(pi)) is symmetric positive semidefinite and the transfer
operator is P^tau = exp(-tau L*).  ``RegularGrid.cells_of`` is the one
lookup from positions to cells; a position off the grid raises there.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

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
    x2; centers lie strictly inside the domain.  nx and ny are integers
    >= 1 (Python or numpy, not bool).
    """

    nx: int
    ny: int
    domain: Tuple[Tuple[float, float], Tuple[float, float]] = (
        (0.0, 0.0),
        (1.0, 1.0),
    )

    def __post_init__(self):
        if any(isinstance(c, bool) or not isinstance(c, (int, np.integer))
               for c in (self.nx, self.ny)):
            raise ValueError("grid cell counts must be integers, not %r, %r"
                             % (self.nx, self.ny))
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
    def axis_centers(self) -> Tuple[Array, Array]:
        """The nx centers along x1 and the ny centers along x2."""
        (lo1, lo2), (hi1, hi2) = self.domain
        h1, h2 = self.spacing
        return (lo1 + (np.arange(self.nx) + 0.5) * h1,
                lo2 + (np.arange(self.ny) + 0.5) * h2)

    @property
    def centers(self) -> Array:
        """Cell centers, shape (nx*ny, 2), row-major."""
        g1, g2 = np.meshgrid(*self.axis_centers, indexing="ij")
        return np.column_stack([g1.ravel(), g2.ravel()])

    def cells_of(self, x) -> Array:
        """Cells of positions of shape (..., 2), as int64 of shape (...).

        Positions on the upper domain boundary belong to the last cell,
        matching the clamped SDE convention.  A position off the domain,
        or with a NaN coordinate, raises ValueError, as does a last axis
        of a length other than 2.
        """
        x = np.asarray(x, dtype=float)
        if x.shape[-1:] != (2,):
            raise ValueError("positions must have shape (..., 2), not %s"
                             % (x.shape,))
        (lo1, lo2), (hi1, hi2) = self.domain
        h1, h2 = self.spacing
        x1, x2 = x[..., 0], x[..., 1]
        on = (x1 >= lo1) & (x1 <= hi1) & (x2 >= lo2) & (x2 <= hi2)
        if not on.all():
            bad = x[~on][0]
            raise ValueError("position (%g, %g) is off the grid domain %s"
                             % (bad[0], bad[1], self.domain))
        i = np.minimum(((x1 - lo1) / h1).astype(np.int64), self.nx - 1)
        j = np.minimum(((x2 - lo2) / h2).astype(np.int64), self.ny - 1)
        return i * self.ny + j

    def cell_values(self, chi) -> Array:
        """Per-cell floats of a grid membership on this grid or of an
        array; ValueError for a point-sampler membership, a membership on
        another grid, values of another shape, or a value not finite."""
        if getattr(chi, "kind", None) == "point_sampler":
            raise ValueError("needs a grid membership, not a point sampler")
        grid = getattr(chi, "grid", None)
        if grid is not None and grid != self:
            raise ValueError("membership lives on a %dx%d grid, not on this "
                             "%dx%d grid" % (grid.nx, grid.ny, self.nx, self.ny))
        vals = getattr(chi, "values", None)
        vals = np.asarray(chi if vals is None else vals, dtype=float)
        if vals.shape != (self.n,):
            raise ValueError("vector shape %s does not match grid shape (%d,)"
                             % (vals.shape, self.n))
        if not np.isfinite(vals).all():
            raise ValueError("per-cell values are not all finite")
        return vals


@dataclass
class GeneratorMatrix:
    """Sparse rate operator L* with its stationary distribution.

    Everything derived from it stays sparse: ``symmetrized()`` builds
    D L* D^-1 on each call, and only ``jump_tables`` is cached.
    Cells and cell sets are checked against it, ``components`` labels a
    cell set's connected components, and ``restricted`` gives L* on a cell
    set; per-cell values are checked against its grid.

    Attributes
    ----------
    rates : scipy.sparse.csr_matrix
        L*; off-diagonal entries are <= 0 exactly on 4-neighbor pairs,
        diagonals make row sums vanish, eigenvalues are >= 0.
    weights : ndarray
        Stationary Boltzmann vector pi, positive, sums to 1.
    grid : RegularGrid
        The discretization the operator lives on.
    """

    rates: sp.csr_matrix
    weights: Array
    grid: RegularGrid

    @property
    def n(self) -> int:
        return self.rates.shape[0]

    def symmetrized(self) -> sp.csr_matrix:
        """Sparse D L* D^-1 with D = diag(sqrt(pi)); symmetric exactly when
        L* satisfies detailed balance (it is not symmetrized by force)."""
        sq = np.sqrt(self.weights)
        return self.rates.multiply(sq[:, None]).multiply(1.0 / sq[None, :]).tocsr()

    def cell_indices(self, cells) -> Array:
        """Integer cells as int64, shape kept; ValueError for a non-integer
        array or a cell outside [0, n)."""
        cells = np.asarray(cells)
        if cells.size and cells.dtype.kind not in "iu":
            raise ValueError("cell indices must be integers, not %s"
                             % cells.dtype)
        bad = (cells < 0) | (cells >= self.n)
        if bad.any():
            raise ValueError("cell %d is not in [0, %d)"
                             % (cells[bad].flat[0], self.n))
        return cells.astype(np.int64)

    def cell_mask(self, cells) -> Array:
        """A cell set, a boolean (n,) mask or integer cells, as a new (n,)
        mask; ValueError for a mask of another shape or for cells that
        ``cell_indices`` rejects."""
        cells = np.asarray(cells)
        if cells.dtype != bool:
            mask = np.zeros(self.n, dtype=bool)
            mask[self.cell_indices(cells)] = True
            return mask
        if cells.shape != (self.n,):
            raise ValueError("cell mask has shape %s, not (%d,)"
                             % (cells.shape, self.n))
        return cells.copy()

    def components(self, cells) -> Array:
        """Component labels of a cell set (as for ``cell_mask``), one per
        cell of the set in ascending order.  Two cells are joined when
        L* has a nonzero rate between them in either direction, and the
        components are numbered by their lowest cell, as
        ``scipy.sparse.csgraph.connected_components`` numbers them."""
        mask = self.cell_mask(cells)
        sub = self.rates[mask]
        # each nonzero of the set's rows between two cells of the set,
        # as positions in the set
        row = np.repeat(np.arange(sub.shape[0]), np.diff(sub.indptr))
        keep = mask[sub.indices] & (sub.data != 0)
        row, col = row[keep], (np.cumsum(mask) - 1)[sub.indices[keep]]
        # min-label hooking with pointer jumping (Shiloach & Vishkin,
        # J. Algorithms 1982): every root is the lowest cell of its tree
        root = np.arange(sub.shape[0])
        while True:
            a, b = root[row], root[col]
            if (a == b).all():
                break
            np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
            while True:
                up = root[root]
                if (up == root).all():
                    break
                root = up
        return np.unique(root, return_inverse=True)[1]

    def restricted(self, cells) -> sp.csr_matrix:
        """L* on a cell set (as for ``cell_mask``), the generator killed on
        leaving it; ValueError when a connected component of the set has
        no rate to the other cells, where the restriction is singular."""
        mask = self.cell_mask(cells)
        sub = self.rates[mask][:, mask]
        touch = np.asarray(
            np.abs(self.rates[mask][:, ~mask]).sum(axis=1)).ravel() > 0
        labels = self.components(mask)
        stuck = np.bincount(labels, weights=touch) == 0
        if stuck.any():
            cells = np.flatnonzero(mask)[labels == np.argmax(stuck)]
            raise ValueError(
                "singular restricted system: component without exit "
                "(%d cells, e.g. %s)" % (cells.size, cells[:8].tolist()))
        return sub

    @cached_property
    def jump_tables(self):
        """Tables for simulating the jump process generated by L*, cached.

        Returns
        -------
        rate_out : ndarray
            Total outflow rate per cell (the diagonal of L*).
        neighbors : ndarray, shape (n, 4)
            Neighbor cell indices, padded by repeating the last one.
        cum : ndarray, shape (n, 4)
            Cumulative jump probabilities aligned with ``neighbors``.
        """
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
        return rate_out, neighbors, cum


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
        Boltzmann temperature scale, pi_i = exp(-V_i / kbt); finite, > 0.

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
    if not (np.isfinite(kbt) and kbt > 0):
        raise ValueError("kbt must be positive and finite (got %r)" % kbt)
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
    return GeneratorMatrix(rates=rates, weights=pi, grid=grid)

