"""Reference computations shared by the tests (not collected as tests)."""

import numpy as np
from scipy import sparse
from scipy.linalg import eigh, qr
from scipy.spatial.distance import pdist, squareform

from vbdiffusion.kernel import GeneratorMatrices


def kernel_alpha(points, rho, eps, alpha, d):
    """The alpha-normalized kernel Kalpha = W K W over all pairs, from its
    closed form: K_ij = exp(-|x_i - x_j|^2 / (4 eps rho_i rho_j)) and
    W = diag(qS^(-alpha)) with qS = K 1 / rho^d."""
    diff = points[:, None, :] - points[None, :, :]
    k = np.exp(-(diff**2).sum(axis=2) / (4.0 * eps * rho[:, None] * rho[None, :]))
    w = (k.sum(axis=1) / rho**d) ** (-alpha)
    return w[:, None] * k * w[None, :]


def generator_dense_nonsymmetric(gm, kalpha):
    """Markov generator L = diag(1/(eps P^2)) (diag(1/D) Kalpha - I) of a
    dense ``gm`` and its alpha-normalized kernel ``kalpha``.

    For verification on small instances: L is similar to Lhat via S.
    """
    lout = kalpha / gm.D[:, None]
    np.fill_diagonal(lout, lout.diagonal() - 1.0)
    lout /= gm.eps * gm.P[:, None] ** 2
    return lout


def planted_generator(lhat):
    """GeneratorMatrices around a given Lhat, with S = 1."""
    ones = np.ones(lhat.shape[0])
    return GeneratorMatrices(eps=0.1, alpha=0.0, qS=None, Lhat=lhat, P=ones,
                             D=ones, S=ones)


def eigh_top(gm, k):
    """The k eigenpairs of ``gm.Lhat`` nearest zero by LAPACK's ``eigh`` on
    the whole matrix: eigenvalues descending, eigenvectors divided by S."""
    lhat = gm.Lhat.toarray() if sparse.issparse(gm.Lhat) else gm.Lhat
    n = lhat.shape[0]
    vals, vecs = eigh(lhat, subset_by_index=[n - k, n - 1])
    return vals[::-1], vecs[:, ::-1] / gm.S[:, None]


def support_rows(pairs):
    """Row index of every entry of a SupportPairs."""
    return np.repeat(np.arange(pairs.n), np.diff(pairs.indptr))


def pair_sq_dists(points, rows, cols, chunk=4_000_000):
    """Squared distances ||points[rows] - points[cols]||^2, computed in
    chunks with the arithmetic of ``pdist`` and ``cdist``: the squared
    coordinate differences summed one coordinate at a time, in order."""
    out = np.zeros(rows.shape[0])
    for start in range(0, rows.shape[0], chunk):
        stop = min(start + chunk, rows.shape[0])
        for a, b in zip(points[rows[start:stop]].T, points[cols[start:stop]].T):
            diff = a - b
            out[start:stop] += diff * diff
    return out


def whole_shell_support(points, k):
    """Rows, columns and squared distances of the pairs i < j with
    r_ij^2 <= max(R_i^2, R_j^2), R_i^2 the k-th smallest entry of row i of
    the whole squared distance matrix (its own zero included), by brute
    force over ``pdist``."""
    d2 = squareform(pdist(points, "sqeuclidean"))
    radius = np.partition(d2, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(np.triu(d2 <= np.maximum.outer(radius, radius), 1))
    return rows, cols, d2[rows, cols]


def mirrored_spectrum(even, odd, n, seed=0, lo=10.0):
    """Exactly symmetric n x n matrix with planted eigenvalues, mirror-invariant.

    Eigenvectors are even or odd under reversing the point order, as on a
    symmetric grid; the odd ones are orthogonal to the constant vector.
    ``even`` and ``odd`` head the two halves of the spectrum, and the rest
    descends from -lo to -100, crowding near -lo.
    """
    rng = np.random.default_rng(seed)
    half = n // 2
    r = rng.standard_normal((n, half))
    bulk = -(lo + (100.0 - lo) * np.linspace(0.0, 1.0, half) ** 3)
    mat = np.zeros((n, n))
    for sign, top in ((1.0, even), (-1.0, odd)):
        basis = qr(r + sign * r[::-1], mode="economic")[0]
        vals = np.concatenate([top, bulk[len(top):]])
        mat += (basis * vals) @ basis.T
    # the averages are exact, so reversal and transposition leave it unchanged
    mat = 0.5 * (mat + mat[::-1, ::-1])
    return 0.5 * (mat + mat.T)


def knn_union(indices):
    """Sorted support of every point: its kNN list joined with every list
    that contains it, built with Python sets."""
    sets = [set(map(int, row)) for row in indices]
    for i, row in enumerate(indices):
        for j in row:
            sets[int(j)].add(i)
    return [sorted(s) for s in sets]
