"""Eigenpairs of L* and the transfer operator P^tau = exp(-tau L*).

Both stay sparse at every grid size.  Eigenpairs come from the
symmetrized matrix S = D L* D^-1 with D = diag(sqrt(pi)); eigenvectors are
transformed back to f = u / sqrt(pi), which makes them orthonormal in the
pi-weighted inner product <u, v>_pi = sum_i u_i v_i pi_i.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, eigsh, expm_multiply

from .grid_generator import GeneratorMatrix

Array = np.ndarray

#: Shift-invert pole just below the spectrum, which starts at 0.
_SHIFT = -1e-3


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
    weights : ndarray
        The stationary vector the orthonormality refers to.
    """

    eigenvalues: Array
    eigenvectors: Array
    weights: Array

    @property
    def count(self) -> int:
        return self.eigenvalues.size


def _check_detailed_balance(gen: GeneratorMatrix, tol: float = 1e-9) -> None:
    pi = gen.weights
    flux = gen.rates.multiply(pi[:, None])
    resid = abs(flux - flux.T).max()
    scale = abs(flux).max() or 1.0
    if resid > tol * scale:
        raise ValueError(
            "generator violates detailed balance (residual %.2e)" % resid
        )


def _fix_signs(vecs: Array) -> Array:
    out = vecs.copy()
    for k in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, k])))
        if out[j, k] < 0:
            out[:, k] = -out[:, k]
    return out


def eigensolve(gen: GeneratorMatrix, k: int) -> EigenSystem:
    """Compute the k smallest eigenpairs of L*.

    Shift-invert Lanczos (ARPACK) on the sparse symmetrized matrix, with
    a fixed start vector so that repeated calls agree to the last bit.

    Parameters
    ----------
    gen : GeneratorMatrix
        Must satisfy detailed balance.
    k : int
        Number of pairs, 1 <= k < n.

    Returns
    -------
    EigenSystem
    """
    n = gen.n
    if not 1 <= k < n:
        raise ValueError("k must be between 1 and %d" % (n - 1))
    _check_detailed_balance(gen)
    sym = gen.symmetrized().tocsc()
    try:
        vals, vecs = eigsh(sym, k=k, sigma=_SHIFT, v0=np.ones(n))
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
    return EigenSystem(eigenvalues=vals[order], eigenvectors=f,
                       weights=gen.weights)


def propagate(gen: GeneratorMatrix, v: Array, tau: float) -> Array:
    """Apply the transfer operator: returns exp(-tau L*) v.

    Computes the action of the sparse matrix exponential directly
    (Al-Mohy & Higham's truncated Taylor scheme), never forming the
    exponential or an eigenbasis.

    Parameters
    ----------
    gen : GeneratorMatrix
    v : ndarray
        Vector over the grid cells.
    tau : float
        Lag time, >= 0.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    v = np.asarray(v, dtype=float)
    if v.shape != (gen.n,):
        raise ValueError("vector length %d does not match grid %d" % (v.size, gen.n))
    if tau == 0:
        return v.copy()
    return expm_multiply(-tau * gen.rates, v)
