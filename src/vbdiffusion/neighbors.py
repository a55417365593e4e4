"""Exact k-nearest-neighbor queries and sparse support patterns.

Rows of a :class:`NeighborGraph` always start with the point itself at
distance zero and are sorted by (distance, index) so that results are
reproducible even in the presence of exact ties.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import KTooLarge

# kd-trees stop paying off in high ambient dimension; everything in this
# package lives in R^4 or lower, so the brute-force path is for completeness
_KDTREE_MAX_DIM = 16


@dataclass(frozen=True)
class NeighborGraph:
    """k nearest neighbors of every point, self included first."""

    k: int
    indices: np.ndarray
    distances: np.ndarray

    def __post_init__(self):
        if self.indices.shape != self.distances.shape:
            raise ValueError("indices and distances must have the same shape")
        if self.indices.shape[1] != self.k:
            raise ValueError("row length must equal k")


def knn(cloud, k):
    """Exact k nearest neighbors (the point itself counts as the first).

    Neighbors at equal distance are listed by increasing index; the self
    entry is always listed first regardless. When more points tie at the
    k-th distance than fit in the row, the kd-tree picks which are kept.
    """
    pts = cloud.points
    n = pts.shape[0]
    if k > n:
        raise KTooLarge(k, n)
    if pts.shape[1] <= _KDTREE_MAX_DIM:
        dist, idx = cKDTree(pts).query(pts, k=k, workers=-1)
        if k == 1:
            dist, idx = dist[:, None], idx[:, None]
    else:
        dist, idx = _knn_brute(pts, k)
    rows = np.arange(n)
    # with more than k coincident points the query may drop the self entry;
    # such a row holds k points at distance zero, so patching it keeps it
    # sorted by distance
    missing = ~np.any(idx == rows[:, None], axis=1)
    if np.any(missing):
        idx[missing, -1] = rows[missing]
        dist[missing, -1] = 0.0
    # rows are sorted by distance, so the (distance, index) order only has
    # to sort indices inside each run of equal distances; distances are
    # constant along a run and need no reordering
    key = np.zeros((n, k), dtype=np.int64)
    np.cumsum(dist[:, 1:] != dist[:, :-1], axis=1, out=key[:, 1:])
    key *= n
    key += idx
    order = np.argsort(key, axis=1, kind="stable")
    del key
    idx = np.take_along_axis(idx, order, axis=1)
    self_pos = np.argmax(idx == rows[:, None], axis=1)
    if np.any(self_pos > 0):
        cols = np.arange(k)[None, :]
        sp = self_pos[:, None]
        perm = np.where(cols == 0, sp, np.where(cols <= sp, cols - 1, cols))
        idx = np.take_along_axis(idx, perm, axis=1)
        dist = np.take_along_axis(dist, perm, axis=1)
    dist[:, 0] = 0.0
    return NeighborGraph(k=k, indices=idx.astype(np.int32), distances=dist)


def _knn_brute(pts, k, block=512):
    n = pts.shape[0]
    sq = np.einsum("ij,ij->i", pts, pts)
    idx = np.empty((n, k), dtype=np.int64)
    dist = np.empty((n, k))
    for start in range(0, n, block):
        stop = min(start + block, n)
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * pts[start:stop] @ pts.T
        np.maximum(d2, 0.0, out=d2)
        # the expansion leaves O(eps) residue on the diagonal, which sqrt
        # would amplify to ~1e-8; the self distance is zero by definition
        d2[np.arange(stop - start), np.arange(start, stop)] = 0.0
        part = np.argpartition(d2, k - 1, axis=1)[:, :k]
        pd = np.take_along_axis(d2, part, axis=1)
        order = np.lexsort((part, pd), axis=1)
        idx[start:stop] = np.take_along_axis(part, order, axis=1)
        dist[start:stop] = np.sqrt(np.take_along_axis(pd, order, axis=1))
    return dist, idx


def pair_sq_dists(points, rows, cols, chunk=4_000_000):
    """Squared distances ||points[rows] - points[cols]||^2, computed in chunks."""
    out = np.empty(rows.shape[0])
    for start in range(0, rows.shape[0], chunk):
        stop = min(start + chunk, rows.shape[0])
        diff = points[rows[start:stop]] - points[cols[start:stop]]
        out[start:stop] = np.einsum("ij,ij->i", diff, diff)
    return out


def symmetrized_support(graph):
    """Union of the directed kNN edge set with its transpose, as a boolean CSR.

    The result is canonical (sorted column indices, no duplicates), so
    kernel matrices built on its pattern are too. The diagonal is always
    present because every row contains its own point.
    """
    n, k = graph.indices.shape
    # rows sorted by column make the pattern canonical, so the sum with its
    # transpose merges sorted rows and stays canonical
    cols = np.sort(graph.indices, axis=1).ravel()
    pattern = sparse.csr_matrix((np.ones(n * k, dtype=bool), cols,
                                 np.arange(0, n * k + 1, k)), shape=(n, n))
    return pattern + pattern.T


@dataclass(frozen=True)
class SupportPairs:
    """Squared distances of every pair in a symmetric support, in CSR order.

    ``indptr`` and ``indices`` are the support's canonical CSR pattern and
    ``r2[e]`` is the squared distance of entry e. The distances do not depend
    on epsilon or on the bandwidth, so one instance serves every kernel
    evaluation on the same cloud and support. Instances share their index
    arrays with the support and with the matrices from :meth:`matrix`;
    nothing may modify them in place.
    """

    indptr: np.ndarray
    indices: np.ndarray
    r2: np.ndarray

    @property
    def n(self):
        return self.indptr.shape[0] - 1

    @property
    def nnz(self):
        return self.r2.shape[0]

    def rows(self, x):
        """The per-point array ``x`` gathered at the row of every entry."""
        return np.repeat(x, np.diff(self.indptr))

    def matrix(self, vals):
        """CSR matrix with ``vals`` on the support, sharing its index arrays."""
        return sparse.csr_matrix((vals, self.indices, self.indptr),
                                 shape=(self.n, self.n))


def support_pairs(cloud, support):
    """Cache the squared distances over a canonical symmetric CSR ``support``.

    The distances use the same difference arithmetic as
    :func:`pair_sq_dists`, so entries (i, j) and (j, i) are bitwise equal and
    the diagonal is exactly zero.
    """
    indptr, indices = support.indptr, support.indices
    rows = np.repeat(np.arange(support.shape[0], dtype=indices.dtype),
                     np.diff(indptr))
    return SupportPairs(indptr=indptr, indices=indices,
                        r2=pair_sq_dists(cloud.points, rows, indices))


def scaled_pairs(cloud, x, support=None):
    """r_ij^2 / (x_i x_j) over the unordered pairs i < j: all of them in
    ``pdist`` order, or a :class:`SupportPairs`' entries above the diagonal."""
    if support is None:
        t = pdist(cloud.points, "sqeuclidean")
        stop = 0
        for i in range(cloud.n_points - 1):
            start, stop = stop, stop + cloud.n_points - 1 - i
            t[start:stop] /= x[i] * x[i + 1:]
        return t
    rows = support.rows(np.arange(support.n))
    upper = support.indices > rows
    return support.r2[upper] / (x[rows[upper]] * x[support.indices[upper]])


def save_csv(graph, path):
    """Write directed edges as (i, j, distance) triples."""
    n, k = graph.indices.shape
    rows = np.repeat(np.arange(n), k)
    out = np.column_stack([rows, graph.indices.ravel(), graph.distances.ravel()])
    np.savetxt(path, out, fmt=["%d", "%d", "%.17g"], delimiter=",",
               header="i,j,distance", comments="")
