"""Eigenpairs of the conjugated generator and comparison utilities.

The symmetric matrix Lhat shares eigenvalues with the Markov generator; its
orthonormal eigenvectors are mapped back through the conjugation diagonal
and rescaled so that every eigenvector has Euclidean norm sqrt(N), matching
the convention that makes discrete vectors comparable with L2-normalized
eigenfunctions sampled at the data points.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve_banded, cholesky_banded, eigh, svd
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                 LinearOperator, eigsh)

from .errors import (AlignmentAmbiguous, DegenerateEigenvector,
                     DisconnectedGraph, EmptyMask, SolverFailure)

# full eigh is cheaper and more robust than iterative solvers this small;
# this is the eigensolver crossover for a sparse Lhat, not the harness's
# choice between the all-pairs and the support path
_DENSE_MAX = 600


@dataclass(frozen=True)
class Spectrum:
    """Top eigenpairs of the generator, eigenvalues descending from zero."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    scaled: bool = False


def eigs_near_zero(gm, n_eig, method="auto", tol=1e-10):
    """Largest-algebraic eigenpairs of the generator in ``gm``.

    Checks connectivity of the kernel support first and raises
    :class:`DisconnectedGraph` with the component sizes when it splits.
    ``method`` is 'auto', 'dense', 'shift-invert' or 'lanczos'; 'auto' uses
    dense decomposition for small problems and shift-inverted Lanczos
    otherwise, falling back to plain Lanczos and then failing with
    :class:`SolverFailure`.
    """
    lhat = gm.Lhat
    n = gm.P.shape[0]
    _check_connected(gm.Kalpha)
    if method == "auto":
        method = "dense" if (not sparse.issparse(lhat) or n <= _DENSE_MAX
                             or n_eig >= n - 1) else "shift-invert"
    if method == "dense":
        dense = lhat.toarray() if sparse.issparse(lhat) else lhat
        # only the largest n_eig; no overwrite_a: callers read gm.Lhat afterwards
        vals, vecs = eigh(dense, subset_by_index=[max(n - n_eig, 0), n - 1])
    else:
        vals, vecs = _eigs_sparse(lhat, n_eig, method, tol)
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    return Spectrum(eigenvalues=vals, eigenvectors=vecs / gm.S[:, None], scaled=False)


def _check_connected(kalpha):
    if sparse.issparse(kalpha):
        labels = connected_components(kalpha, directed=False)[1]
    else:
        labels = _dense_components(kalpha)
    if labels.max() > 0:
        raise DisconnectedGraph(np.bincount(labels).tolist())


def _dense_components(mat, block=256):
    """Components of a dense symmetric positive pattern, numbered by lowest
    point; breadth-first, reading the frontier's rows a block at a time."""
    labels = np.full(mat.shape[0], -1)
    for seed in range(labels.size):
        if labels[seed] >= 0:
            continue
        frontier, comp = np.array([seed]), labels.max() + 1
        while frontier.size:
            labels[frontier] = comp
            reached = np.zeros(labels.size, dtype=bool)
            for start in range(0, frontier.size, block):
                reached |= (mat[frontier[start:start + block]] > 0.0).any(axis=0)
            frontier = np.flatnonzero(reached & (labels < 0))
    return labels


def _eigs_sparse(lhat, n_eig, method, tol):
    n = lhat.shape[0]
    maxiter = int(10 * n_eig * np.sqrt(n))
    v0 = np.full(n, 1.0 / np.sqrt(n))
    ncv = min(n, max(4 * n_eig + 1, 40))
    if method == "shift-invert":
        # the spectrum is nonpositive, so any positive shift is safe to factor
        scale = float(np.abs(lhat.diagonal()).max())
        sigma = 1e-6 * scale if scale > 0.0 else 1e-12
        opinv = _banded_opinv(lhat, sigma) if sparse.issparse(lhat) else None
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return eigsh(lhat, k=n_eig, sigma=sigma, which="LM", tol=tol,
                             maxiter=maxiter, v0=v0, ncv=ncv, OPinv=opinv)
        except (ArpackError, RuntimeError, MemoryError, ValueError):
            method = "lanczos"
    try:
        return eigsh(lhat, k=n_eig, which="LA", tol=tol, maxiter=maxiter,
                     v0=v0, ncv=ncv)
    except ArpackNoConvergence as exc:
        raise SolverFailure(f"eigensolver did not converge: {exc}",
                            iterations=maxiter) from exc
    except (ArpackError, RuntimeError) as exc:
        raise SolverFailure(f"eigensolver failed: {exc}") from exc


def _banded_opinv(lhat, sigma):
    """Shift-invert operator via banded Cholesky, or None when unprofitable.

    Data sorted along a line (the one-dimensional experiments) gives kernel
    supports that are narrow bands around the diagonal; factoring the shifted
    matrix sigma*I - Lhat with a banded Cholesky is then much cheaper, in
    both memory and time, than the general sparse LU the solver would use.
    """
    n = lhat.shape[0]
    csr = lhat.tocsr()
    if np.any(np.diff(csr.indptr) == 0):
        return None
    csr.sort_indices()
    rows = np.arange(n)
    first = csr.indices[csr.indptr[:-1]]
    last = csr.indices[csr.indptr[1:] - 1]
    b = int(max((rows - first).max(), (last - rows).max()))
    # skip wide bands: storage (b+1)*n and factor cost n*b^2 both blow up
    if b > n // 8 or (b + 1) * n * 8 > 1_200_000_000 or n * b * b > 5e10:
        return None
    lower = sparse.tril(csr, format="coo")
    ab = np.zeros((b + 1, n))
    ab[lower.row - lower.col, lower.col] = -lower.data
    ab[0, :] += sigma
    try:
        cb = cholesky_banded(ab, overwrite_ab=True, lower=True,
                             check_finite=False)
    except np.linalg.LinAlgError:
        return None

    def solve(x):
        # (Lhat - sigma I)^-1 = -(sigma I - Lhat)^-1
        return -cho_solve_banded((cb, True), x, check_finite=False)

    return LinearOperator((n, n), matvec=solve, dtype=float)


def scale_sqrtN(spectrum):
    """Rescale eigenvector columns to norm sqrt(N), largest entry positive."""
    vecs = np.array(spectrum.eigenvectors)
    n = vecs.shape[0]
    norms = np.linalg.norm(vecs, axis=0)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise DegenerateEigenvector("eigenvector with zero or non-finite norm")
    vecs *= np.sqrt(n) / norms
    lead = np.take_along_axis(vecs, np.abs(vecs).argmax(axis=0)[None, :], axis=0)[0]
    vecs[:, lead < 0.0] *= -1.0
    return Spectrum(eigenvalues=spectrum.eigenvalues, eigenvectors=vecs, scaled=True)


def procrustes_rotation(estimated, reference):
    """Orthogonal Q minimizing ||estimated Q - reference||_F."""
    if estimated.shape != reference.shape:
        raise ValueError("estimated and reference must have the same shape")
    overlap = estimated.T @ reference
    u, s, vt = svd(overlap)
    if s[-1] <= 1e-12 * max(s[0], 1e-300):
        raise AlignmentAmbiguous(
            "overlap matrix is rank deficient; alignment undetermined",
            singular_values=s)
    return u @ vt


def align_orthogonal(estimated, reference):
    """Procrustes-align an eigenvector block to reference columns."""
    return estimated @ procrustes_rotation(estimated, reference)


def least_squares_map(estimated, targets):
    """Matrix B minimizing ||estimated B - targets||_F (minimum-norm on ties)."""
    b, _, rank, sv = np.linalg.lstsq(estimated, targets, rcond=None)
    if rank < estimated.shape[1]:
        cond = float(sv[0] / sv[-1]) if sv[-1] > 0.0 else np.inf
        warnings.warn(f"least-squares map is rank deficient (cond={cond:.3g}); "
                      "minimum-norm solution returned")
    return b


def mse(a, b, mask=None):
    """Mean squared difference over (optionally masked) rows."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("arrays must have the same shape")
    if mask is not None:
        a, b = a[mask], b[mask]
        if a.size == 0:
            raise EmptyMask("mask selected no points")
    return float(np.mean((a - b) ** 2))


def group_by_eigenvalue(eigenvalues, rel_tol=1e-2):
    """Slices of consecutive (descending) eigenvalues within relative rel_tol.

    Repeated eigenvalues make individual eigenvectors arbitrary up to
    rotation, so comparisons must align each group as a block.
    """
    groups = []
    start = 0
    for i in range(1, len(eigenvalues) + 1):
        if i == len(eigenvalues):
            groups.append(slice(start, i))
            break
        gap = abs(eigenvalues[i - 1] - eigenvalues[i])
        scale = max(abs(eigenvalues[i - 1]), abs(eigenvalues[i]))
        if gap > rel_tol * max(scale, 1e-300):
            groups.append(slice(start, i))
            start = i
    return groups


def save_csv(spectrum, path, latent=None):
    """Write eigenvalues (first row) then eigenvector rows, latent columns first."""
    vecs = spectrum.eigenvectors
    lat = None
    if latent is not None:
        lat = np.asarray(latent, dtype=float)
        if lat.ndim == 1:
            lat = lat[:, None]
    with open(path, "w") as fh:
        lead = [""] * (lat.shape[1] if lat is not None else 0)
        fh.write(",".join(lead + ["%.17g" % v for v in spectrum.eigenvalues]) + "\n")
        for i in range(vecs.shape[0]):
            row = [] if lat is None else ["%.17g" % v for v in lat[i]]
            row += ["%.17g" % v for v in vecs[i]]
            fh.write(",".join(row) + "\n")
