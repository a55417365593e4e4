"""Eigenpairs of the conjugated generator and comparison utilities.

The symmetric matrix Lhat shares eigenvalues with the Markov generator; its
orthonormal eigenvectors are mapped back through the conjugation diagonal
and rescaled so that every eigenvector has Euclidean norm sqrt(N), matching
the convention that makes discrete vectors comparable with L2-normalized
eigenfunctions sampled at the data points.

Only the few eigenpairs nearest zero are wanted, and each storage has one
path to them. Small problems take a dense ``eigh`` of the top pairs. Larger
ones run shift-inverted Lanczos (ARPACK), solving with a Cholesky factor of
sigma I - Lhat: for all-pairs runs a dense one, made in the spare triangle
of Lhat's own array and undone when the run ends, and for a support a
banded one in reverse Cuthill-McKee order. Either run may take a fixed
number of solves. On the dense storage a Lanczos run that spends them or
fails hands over to ``eigh``; on a sparse one it raises
:class:`SolverFailure`. :class:`Spectrum` records which path ran.
"""

import warnings
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse
from scipy.linalg import (cho_factor, cho_solve_banded, cholesky_banded,
                          eigh, svd)
from scipy.linalg.blas import dtrsv
from scipy.sparse.csgraph import connected_components, reverse_cuthill_mckee
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from . import neighbors
from .errors import (AlignmentAmbiguous, DegenerateEigenvector,
                     DisconnectedGraph, EmptyMask, SolverFailure)

# a Lanczos run may take n // _SOLVE_BUDGET solves, and a problem whose budget
# cannot cover a first pass (ncv + 1 solves) takes eigh: below 656 points for
# up to nine pairs, and whenever n_eig >= n - 1. Dense eigh costs about n/4.5
# solves from n = 1500 to 3000, so a spent budget plus the factor costs about
# 1.4 to 1.5 times eigh alone; shipped sparse runs take 41 solves. Measured on
# one BLAS thread, top 4 or 5 pairs of sphere and ou1d_nice generators at
# eps*: the dense Cholesky factor plus a first pass (41 solves) matched eigh
# at n = 300-400 and took half its time at n = 600 (0.012 s against 0.022 s),
# and up to n = 656 eigh takes under 0.04 s. The crossover for a sparse Lhat
# is not measured
_SOLVE_BUDGET = 16
# ARPACK's stopping tolerance, relative to each Ritz value of the inverse
_TOL = 1e-10
# relative gap between consecutive eigenvalues that group_by_eigenvalue
# takes for a repeated one
_GROUP_TOL = 1e-2
# relative closeness to a column's largest |v| at which entries tie for its
# sign: ARPACK stops at a relative residual of _TOL, which moves a vector
# whose eigenvalue lies _GROUP_TOL apart from the next (the groups of
# group_by_eigenvalue) by 1e-8 in angle, so any entry of the unit vector by
# at most 1e-8, while its largest entry is at least 1/sqrt(n); 1e-5 covers
# n up to 1e6
_SIGN_TIE = 1e-5


@dataclass(frozen=True)
class Spectrum:
    """Top eigenpairs of the generator, eigenvalues descending from zero.

    ``solver`` names the path that produced them: 'eigh', 'eigh (lanczos
    budget spent)', 'eigh (dense cholesky shift-invert failed: <error>)',
    'dense cholesky shift-invert' or 'banded cholesky shift-invert'.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    solver: str = "eigh"


class _BudgetSpent(Exception):
    """A shift-invert Lanczos run used up its solves."""


def eigs_near_zero(gm, n_eig):
    """Largest-algebraic eigenpairs of the generator in ``gm``.

    Checks first that the graph of Lhat's off-diagonal entries is connected
    and raises :class:`DisconnectedGraph` with the component sizes when it
    splits; a kernel entry whose conjugated value underflows to zero is no
    edge, as for the eigensolver. ``gm.Lhat`` is left as it was: a dense
    factor is made in Lhat's spare triangle, so an all-pairs run holds one
    n-by-n array, and Lhat is whole again on return, or on any error raised;
    nothing else may read a dense Lhat while the call runs.
    Small problems take dense ``eigh``, larger ones shift-inverted Lanczos.
    A Lanczos run that spends its solve budget or fails hands over to ``eigh``
    on a dense Lhat and raises :class:`SolverFailure` on a sparse one; so
    does a failed factor (as for an eigenvalue above the shift) on either.
    """
    lhat = gm.Lhat
    n = gm.P.shape[0]
    _check_connected(lhat)
    dense = not sparse.issparse(lhat)
    vals, vecs, solver = None, None, "eigh"
    # a Lanczos run whose budget cannot cover its first pass could only spend it
    if n // _SOLVE_BUDGET > _ncv(n, n_eig):
        vals, vecs, solver = _shift_invert(lhat, n_eig)
    if vals is None:
        # eigh runs once _shift_invert has returned, when a dense Lhat is
        # whole again
        vals, vecs = eigh(lhat if dense else lhat.toarray(),
                          subset_by_index=[max(n - n_eig, 0), n - 1])
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    return Spectrum(eigenvalues=vals, eigenvectors=vecs / gm.S[:, None],
                    solver=solver)


def _ncv(n, n_eig):
    return min(n, max(4 * n_eig + 1, 40))


def _check_connected(lhat):
    # off the diagonal Lhat is nonnegative, and a diagonal entry joins no two
    # points; scipy's sums store no zero, so a sparse Lhat's pattern is its
    # numerical graph
    if sparse.issparse(lhat):
        labels = connected_components(lhat, directed=False)[1]
    else:
        labels = _dense_components(lhat)
    if labels.max() > 0:
        raise DisconnectedGraph(np.bincount(labels).tolist())


def _dense_components(mat):
    """Components of a dense symmetric positive pattern, numbered by lowest
    point; breadth-first, testing the frontier's rows in place one by one."""
    labels = np.full(mat.shape[0], -1)
    edge = np.empty(labels.size, dtype=bool)
    for seed in range(labels.size):
        if labels[seed] >= 0:
            continue
        frontier, comp = np.array([seed]), labels.max() + 1
        while frontier.size:
            labels[frontier] = comp
            reached = np.zeros(labels.size, dtype=bool)
            for i in frontier:
                reached |= np.greater(mat[i], 0.0, out=edge)
            frontier = np.flatnonzero(reached & (labels < 0))
    return labels


def _shift_invert(lhat, n_eig):
    """``(vals, vecs, solver)`` from ARPACK; vals is None when eigh must run."""
    n = lhat.shape[0]
    dense = not sparse.issparse(lhat)
    budget = n // _SOLVE_BUDGET
    solver = f"{'dense' if dense else 'banded'} cholesky shift-invert"
    # seeded, and without the mirror symmetry of grid clouds: the constant
    # vector is orthogonal to every odd eigenvector of such a cloud
    v0 = np.random.default_rng(0).standard_normal(n)
    scale = float(np.abs(lhat.diagonal()).max())
    # the spectrum is nonpositive, so any positive shift is safe to factor
    sigma = 1e-6 * scale if scale > 0.0 else 1e-12
    solves = 0

    def counted(x):
        nonlocal solves
        solves += 1
        if solves > budget:
            raise _BudgetSpent(f"spent its budget of {budget} solves")
        return solve(x)

    try:
        # a dense Lhat holds its factor until the block ends, however it ends:
        # eigsh never multiplies by Lhat, since in shift-invert mode with an
        # OPinv (ARPACK's mode 3) it takes no matvec
        with (_dense_solve(lhat, sigma) if dense
              else nullcontext(_banded_solve(lhat, sigma))) as solve:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                vals, vecs = eigsh(lhat, k=n_eig, sigma=sigma, which="LM",
                                   tol=_TOL, v0=v0, ncv=_ncv(n, n_eig),
                                   OPinv=LinearOperator((n, n), matvec=counted,
                                                        dtype=float))
        return vals, vecs, solver
    except np.linalg.LinAlgError as exc:
        raise SolverFailure(f"{solver}: sigma I - Lhat is not positive definite, "
                            f"so Lhat has an eigenvalue above sigma = {sigma:.3g}"
                            ) from exc
    except (_BudgetSpent, ArpackError, RuntimeError) as exc:
        if not dense:
            raise SolverFailure(f"{solver}: {exc}", iterations=budget) from exc
        spent = isinstance(exc, _BudgetSpent)
        return None, None, ("eigh (lanczos budget spent)" if spent
                            else f"eigh ({solver} failed: {type(exc).__name__})")
    except (MemoryError, ValueError) as exc:
        raise SolverFailure(f"{solver}: {type(exc).__name__}: {exc}") from exc


@contextmanager
def _dense_solve(lhat, sigma):
    """Yield a solve with Lhat - sigma I by a dense Cholesky factor of
    sigma I - Lhat made in Lhat's own array.

    Lhat is exactly symmetric, so its strict lower triangle holds every
    value off the diagonal. The factor takes the upper triangle and the
    diagonal, which are copied back from the lower triangle and a saved
    diagonal when the block ends, or when the factor fails.
    """
    n = lhat.shape[0]
    diag = lhat.diagonal().copy()
    try:
        # Lhat's Fortran-ordered transpose is sigma I - Lhat in its lower
        # triangle, which is all that LAPACK reads, and LAPACK factors it in
        # place; sign flips and sigma - Lhat_ii are the bits of a negated copy
        for rows, cols, where in _upper_tiles(n):
            tile = lhat[rows, cols]
            np.negative(tile, out=tile, where=where)
        lhat[np.diag_indices(n)] = sigma - diag
        c = cho_factor(lhat.T, lower=True, overwrite_a=True,
                       check_finite=False)[0]

        def solve(x):
            # (Lhat - sigma I)^-1 = -(c c^T)^-1; two triangular matrix-vector
            # solves take half the time of LAPACK's one-column potrs
            y = dtrsv(c, dtrsv(c, x, lower=1), lower=1, trans=1, overwrite_x=1)
            return np.negative(y, out=y)

        yield solve
    finally:
        # tile by tile, so that the transposed reads stay in cache; a tile
        # off the diagonal lies in other rows than its mirror, apart in
        # memory, so numpy copies it without a buffer
        for rows, cols, where in _upper_tiles(n):
            np.copyto(lhat[rows, cols], lhat[cols, rows].T, where=where)
        lhat[np.diag_indices(n)] = diag


def _upper_tiles(n):
    """(rows, cols, where) of the square tiles that cover the entries right
    of the diagonal, a block of rows at a time; a tile on the diagonal picks
    them by its mask."""
    size = neighbors._SUPPORT_BLOCK
    upper = np.triu(np.ones((size, size), dtype=bool), 1)
    blocks = [slice(*block) for block in neighbors._blocks(n, size)]
    for i, rows in enumerate(blocks):
        yield rows, rows, upper[:rows.stop - rows.start, :rows.stop - rows.start]
        for cols in blocks[i + 1:]:
            yield rows, cols, True


def _banded_solve(lhat, sigma):
    """Solve with Lhat - sigma I by a banded Cholesky factor of sigma I - Lhat.

    Reverse Cuthill-McKee renumbers the points so that the support is a
    narrow band (Cuthill & McKee 1969); the lower band is filled from Lhat's
    rows a block at a time, Fortran-ordered so that LAPACK factors it in place.
    """
    n = lhat.shape[0]
    csr = lhat.tocsr()
    perm = reverse_cuthill_mckee(csr, symmetric_mode=True)
    rank = np.empty(n, dtype=np.intp)
    rank[perm] = np.arange(n)
    blocks = neighbors._blocks(n, neighbors._SUPPORT_BLOCK)

    def renumbered(start, stop):
        # entries (i, j) of the block's rows as (i' - j', j'), and their slice
        rows = np.repeat(rank[start:stop], np.diff(csr.indptr[start:stop + 1]))
        entries = slice(csr.indptr[start], csr.indptr[stop])
        cols = rank[csr.indices[entries]]
        return rows - cols, cols, entries

    b = max(int(renumbered(*block)[0].max(initial=0)) for block in blocks)
    ab = np.zeros((b + 1, n), order="F")
    for start, stop in blocks:
        # Lhat is exactly symmetric, so its lower triangle in the new order
        # holds every entry of the band, at ab[i' - j', j']
        off, cols, entries = renumbered(start, stop)
        lower = off >= 0
        ab[off[lower], cols[lower]] = -csr.data[entries][lower]
    ab[0] += sigma
    cb = cholesky_banded(ab, overwrite_ab=True, lower=True, check_finite=False)

    def solve(x):
        # (Lhat - sigma I)^-1 = -(sigma I - Lhat)^-1
        return -cho_solve_banded((cb, True), x[perm], check_finite=False)[rank]

    return solve


def scale_sqrtN(spectrum):
    """Rescale eigenvector columns to norm sqrt(N), largest entry positive.

    Of entries tied for the largest |v| within a relative _SIGN_TIE, the
    first is made positive.
    """
    vecs = np.array(spectrum.eigenvectors)
    n = vecs.shape[0]
    norms = np.linalg.norm(vecs, axis=0)
    if np.any(norms == 0.0) or not np.all(np.isfinite(norms)):
        raise DegenerateEigenvector("eigenvector with zero or non-finite norm")
    vecs *= np.sqrt(n) / norms
    mag = np.abs(vecs)
    # the first entry within _SIGN_TIE of the largest: the entries a
    # symmetric cloud makes equal differ by rounding alone
    lead = (mag >= (1.0 - _SIGN_TIE) * mag.max(axis=0)).argmax(axis=0)
    vecs[:, vecs[lead, np.arange(vecs.shape[1])] < 0.0] *= -1.0
    return replace(spectrum, eigenvectors=vecs)


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


def group_by_eigenvalue(eigenvalues):
    """Slices of consecutive (descending) eigenvalues within relative _GROUP_TOL.

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
        if gap > _GROUP_TOL * max(scale, 1e-300):
            groups.append(slice(start, i))
            start = i
    return groups


def save_csv(spectrum, path, latent=None):
    """Write eigenvalues (first row) then eigenvector rows, latent columns first."""
    vecs = spectrum.eigenvectors
    data = vecs if latent is None else np.column_stack([latent, vecs])
    # the eigenvalue row leaves the latent columns blank
    header = ",".join([""] * (data.shape[1] - vecs.shape[1])
                      + ["%.17g" % v for v in spectrum.eigenvalues])
    np.savetxt(path, data, fmt="%.17g", delimiter=",", header=header,
               comments="")
