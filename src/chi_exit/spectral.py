"""Eigenpairs of L* and the transfer operator P^tau = exp(-tau L*).

Both stay sparse at every grid size.  Eigenpairs come from the
symmetrized matrix S = D L* D^-1 with D = diag(sqrt(pi)); eigenvectors are
transformed back to f = u / sqrt(pi), which makes them orthonormal in the
pi-weighted inner product <u, v>_pi = sum_i u_i v_i pi_i.  The same
similarity makes the spectrum of L* real, which lets ``expm_action``
apply exp(-t L*) by a Chebyshev series on its Gershgorin interval.

Every sparse solve of the grid routes goes through one SuperLU
factorization, ``_factor``: S - sigma I for the shift-invert Lanczos
solve, and L* restricted to a cell set for the committor and the set
mean holding time.  It orders by minimum degree on A^T + A, in symmetric
mode, and takes the diagonal as pivots without a pivot search.  That is
safe because each matrix has the symmetric 5-point pattern, a positive
diagonal and diagonal dominance: S - sigma I is symmetric positive
definite, and a restricted L* is an M-matrix whose singular case
``GeneratorMatrix.restricted`` rejects.  On this pattern minimum degree
fills far less than SuperLU's default COLAMD column ordering: at 70x70
the L+U entries fall from 275,312 to 159,048 for S - sigma I and from
244,906 to 144,862 for the committor, and the committor's factor and
solve from 16.7 to 11.8 ms (241 to 157 ms at 200x200; 2-core VM, one
BLAS thread).
"""

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import (ArpackNoConvergence, LinearOperator, eigsh,
                                 splu)

from .grid_generator import GeneratorMatrix, RegularGrid

Array = np.ndarray

#: Shift-invert pole just below the spectrum, which starts at 0.
_SHIFT = -1e-3

#: Unit roundoff of float64; the Chebyshev series stops below it.
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class EigenSystem:
    """The k smallest eigenpairs of L*.

    Attributes
    ----------
    eigenvalues : ndarray
        Ascending, eigenvalues[0] ~ 0.
    eigenvectors : ndarray, shape (n, k)
        pi-orthonormal columns f_k, sign-fixed so the entry of largest
        magnitude is positive.
    grid : RegularGrid
        The generator's grid, which memberships built from the pairs carry.
    """

    eigenvalues: Array
    eigenvectors: Array
    grid: RegularGrid

    @property
    def count(self) -> int:
        return self.eigenvalues.size


def _fix_signs(vecs: Array) -> Array:
    out = vecs.copy()
    for k in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, k])))
        if out[j, k] < 0:
            out[:, k] = -out[:, k]
    return out


def _factor(a: sp.spmatrix):
    """SuperLU factor of S - sigma I or of a restricted L*, for its solve;
    the module docstring says why it needs no pivot search."""
    return splu(a.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True})


def eigensolve(gen: GeneratorMatrix, k: int) -> EigenSystem:
    """Compute the k smallest eigenpairs of L*.

    Shift-invert Lanczos (ARPACK) on the sparse symmetrized matrix, with
    a fixed start vector so that repeated calls agree to the last bit.

    Parameters
    ----------
    gen : GeneratorMatrix
        Must satisfy detailed balance (D L* D^-1 symmetric to 1e-9).
    k : int
        Number of pairs, 1 <= k < n.

    Returns
    -------
    EigenSystem
    """
    n, k = gen.n, operator.index(k)
    if not 1 <= k < n:
        raise ValueError("k must be between 1 and %d" % (n - 1))
    sym = gen.symmetrized().tocsc()
    resid = abs(sym - sym.T).max()
    if resid > 1e-9 * abs(sym).max():
        raise ValueError(
            "generator violates detailed balance (residual %.2e)" % resid
        )
    lu = _factor(sym - _SHIFT * sp.identity(n, format="csc"))
    op_inv = LinearOperator((n, n), matvec=lu.solve, dtype=sym.dtype)
    try:
        vals, vecs = eigsh(sym, k=k, sigma=_SHIFT, v0=np.ones(n),
                           OPinv=op_inv)
    except ArpackNoConvergence as err:
        got = err.eigenvalues.size
        resid = [
            float(np.linalg.norm(sym @ err.eigenvectors[:, i]
                                 - err.eigenvalues[i] * err.eigenvectors[:, i]))
            for i in range(got)
        ]
        raise RuntimeError(
            "eigensolver converged only %d of %d pairs; residuals %s"
            % (got, k, resid)
        ) from err
    order = np.argsort(vals)
    f = _fix_signs(vecs[:, order] / np.sqrt(gen.weights)[:, None])
    return EigenSystem(eigenvalues=vals[order], eigenvectors=f, grid=gen.grid)


def _chebyshev_weights(c: float) -> Array:
    """I_k(c) e^-c, doubled for k >= 1, up to the last k whose tail mass
    sum_{j >= k} is at least the unit roundoff (the weights sum to 1).

    Miller's backward recurrence I_(k-1) = (2k/c) I_k + I_(k+1), started
    far past the cut and normalized by I_0 + 2 sum_k I_k = e^c (Gautschi,
    SIAM Rev. 1967), gives every weight to a few units of roundoff.
    ValueError for c >= 2^30, where the series would take over 2^18
    sparse products."""
    if not c < 2.0 ** 30:
        raise ValueError("t (hi - lo) / 2 = %g is past the Chebyshev "
                         "series' range (2^30)" % c)
    # below 2^-60 the weights round to [1.0]; the floor keeps 2k/c finite
    c = max(c, 2.0 ** -60)
    # the weights fall off faster than geometrically once k is past
    # sqrt(c); starting where they are below 1e-32 puts the cut well inside
    count = 16
    while True:
        # y_k proportional to I_k(c), from y_count = 0 and y_(count-1) = 1,
        # rescaled on the way down so that it cannot overflow
        y = [0.0, 1.0]
        for k in range(count - 1, 0, -1):
            y.append(2.0 * k / c * y[-1] + y[-2])
            if y[-1] > 1e250:
                top = y[-1]
                y = [v / top for v in y]
        w = np.array(y[:0:-1])
        w /= w[0] + 2.0 * w[1:].sum()
        if w[-1] < 1e-32:
            break
        count *= 2
    w[1:] *= 2.0
    tail = np.cumsum(w[::-1])[::-1]
    return w[:np.count_nonzero(tail >= _UNIT_ROUNDOFF)]


def expm_action(a: sp.spmatrix, v: Array, t: float) -> Array:
    """exp(-t a) v for a sparse ``a`` with real spectrum (similar to a
    symmetric matrix), by the Chebyshev series of exp(-t x) on the
    Gershgorin interval [lo, hi] of ``a`` (Tal-Ezer & Kosloff, J. Chem.
    Phys. 1984).

    With c = t (hi - lo) / 2, the coefficient of T_k is
    exp(-t lo) (-1)^k I_k(c) e^-c, doubled for k >= 1.  The series stops
    where the remaining coefficient mass falls below the unit roundoff,
    after about sqrt(t (hi - lo)) sparse products.  The error is absolute,
    of order the unit roundoff times the size of ``v`` in the norm that
    makes ``a`` symmetric: an entry whose exact value is about 1e-22 can
    come out as -1e-19.  ``t`` must be finite and >= 0; another ``t``, or
    a c of 2^30 or more, raises ValueError.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("t must be finite and nonnegative (got %r)" % t)
    diag = a.diagonal()
    radius = np.asarray(abs(a).sum(axis=1)).ravel() - np.abs(diag)
    lo, hi = float(np.min(diag - radius)), float(np.max(diag + radius))
    if hi == lo:
        return math.exp(-t * lo) * v
    weights = _chebyshev_weights(t * (hi - lo) / 2.0) * math.exp(-t * lo)
    weights[1::2] *= -1.0
    # doubled recurrence operator 2 B, B = (2 a - (hi + lo) I) / (hi - lo)
    b2 = (a * (4.0 / (hi - lo)) - sp.identity(a.shape[0], format="csr")
          * (2.0 * (hi + lo) / (hi - lo))).tocsr()
    prev, cur = v.copy(), 0.5 * (b2 @ v)
    out = weights[0] * v
    if weights.size > 1:
        out += weights[1] * cur
    for w in weights[2:]:
        np.subtract(b2 @ cur, prev, out=prev)
        prev, cur = cur, prev
        out += w * cur
    return out


def propagate(gen: GeneratorMatrix, v: Array, tau: float) -> Array:
    """Apply the transfer operator: returns exp(-tau L*) v.

    Computes the action of the sparse matrix exponential by the Chebyshev
    series of ``expm_action`` on the Gershgorin interval
    [0, 2 max L*_ii] of L*, never forming the exponential or an
    eigenbasis.  The error is absolute, near the unit roundoff: entries
    whose exact value is far below it may come out slightly negative.

    Parameters
    ----------
    gen : GeneratorMatrix
    v : ndarray
        Vector over the grid cells, as ``RegularGrid.cell_values`` checks.
    tau : float
        Lag time, finite and >= 0.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError("tau must be finite and nonnegative (got %r)" % tau)
    return expm_action(gen.rates, gen.grid.cell_values(v), float(tau))
