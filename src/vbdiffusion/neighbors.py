"""Exact k-nearest-neighbor queries and sparse support patterns.

Rows of a :class:`NeighborGraph` always start with the point itself at
distance zero and are sorted by (distance, index) so that results are
reproducible even in the presence of exact ties. Every query goes to one
kd-tree (``scipy.spatial.cKDTree``), exact in any dimension, a block of
rows at a time. A support, ``symmetrized_support(cloud, k)``, is symmetric
and stored once, as its strict upper triangle with the diagonal implicit;
it streams the query blocks and holds no n*k distances, and its pair
distances and scaled pairs run over blocks of rows.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import KTooLarge

# rows per block of the kNN queries, and of the support behind the pair
# distances and of the matrix-free kernel products (support or all pairs);
# support blocks are small because their pass is memory-bound and runs
# faster in cache
_QUERY_BLOCK = 4096
_SUPPORT_BLOCK = 256


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


def _blocks(n, size):
    """(start, stop) of consecutive blocks of at most ``size`` rows."""
    return [(start, min(start + size, n)) for start in range(0, n, size)]


def _query_blocks(cloud, k):
    """(start, stop, dist, idx, is_self) of each block of rows' exact k
    nearest neighbors from one kd-tree; every row lists its own point."""
    pts = cloud.points
    if k > pts.shape[0]:
        raise KTooLarge(k, pts.shape[0])
    tree = cKDTree(pts)
    for start, stop in _blocks(pts.shape[0], _QUERY_BLOCK):
        dist, idx = tree.query(pts[start:stop], k=k, workers=-1)
        dist, idx = dist.reshape(-1, k), idx.reshape(-1, k)
        rows = np.arange(start, stop)
        is_self = idx == rows[:, None]
        # with more than k coincident points the query may drop the self
        # entry; such a row holds k points at distance zero, so patching it
        # keeps it sorted by distance
        missing = ~np.any(is_self, axis=1)
        idx[missing, -1] = rows[missing]
        dist[missing, -1] = 0.0
        is_self[missing, -1] = True
        yield start, stop, dist, idx, is_self
        del dist, idx, is_self  # before the next block's query


def knn(cloud, k):
    """Exact k nearest neighbors (the point itself counts as the first).

    One kd-tree answers every query. Neighbors at equal distance are listed
    by increasing index; the self entry is always listed first regardless.
    When more points tie at the k-th distance than fit in the row, the
    kd-tree picks which are kept. Queries run in blocks of rows, which
    cannot change any row's answer.
    """
    n = cloud.n_points
    if k > n:  # before the output is allocated
        raise KTooLarge(k, n)
    indices = np.empty((n, k), dtype=np.int32)
    distances = np.empty((n, k))
    for start, stop, dist, idx, is_self in _query_blocks(cloud, k):
        # rows are sorted by distance, so (distance, index) order only sorts
        # indices within runs of equal distance; keys are unique in a row, and
        # the self entry (distance zero, first run) gets the one negative key
        key = np.zeros(idx.shape, dtype=np.int64)
        np.not_equal(dist[:, 1:], dist[:, :-1], out=key[:, 1:])
        np.cumsum(key, axis=1, out=key)
        key *= n
        key += idx
        key[is_self] -= n
        key.sort(axis=1)
        indices[start:stop] = np.remainder(key, n, out=key)
        distances[start:stop] = dist
        del dist, idx, is_self, key  # before the next block's query
    return NeighborGraph(k=k, indices=indices, distances=distances)


def symmetrized_support(cloud, k):
    """Support pairs (i, j), i < j, where either point is among the other's k
    nearest neighbors (as :func:`knn` finds them), without a NeighborGraph:
    each query block's sorted int32 rows, less the point itself, are kept
    and then split at the diagonal; the part below, transposed by a counting
    sort, merges with the part above as canonical CSRs, and the merged
    indices are copied out of the merge's buffer, which has room for both."""
    n = cloud.n_points
    below = np.empty(n, dtype=np.int64)
    chunks = []
    for start, stop, _, idx, _ in _query_blocks(cloud, k):
        cols = idx.astype(np.int32)
        cols.sort(axis=1)
        mid = np.arange(start, stop, dtype=np.int32)[:, None]
        below[start:stop] = np.count_nonzero(cols < mid, axis=1)
        chunks.append((start, stop, cols[cols != mid].reshape(stop - start, k - 1)))
        del idx, _, cols  # before the next block's query
    upper, lower = _empty_pattern(k - 1 - below), _empty_pattern(below)
    # the last chunk first: each is freed from the top of the heap, so the
    # allocator can hand its memory back before the next one is split
    while chunks:
        start, stop, rows = chunks.pop()
        side = np.arange(k - 1) < below[start:stop, None]
        lower.indices[lower.indptr[start]:lower.indptr[stop]] = rows[side]
        upper.indices[upper.indptr[start]:upper.indptr[stop]] = rows[~side]
        del rows, side
    lower = lower.T.tocsr()
    merged = upper + lower
    del upper, lower
    indptr, cols = merged.indptr, merged.indices.copy()
    del merged
    return SupportPairs(indptr=indptr, indices=cols,
                        r2=_sq_dists(cloud.points, indptr, cols))


def _sq_dists(pts, indptr, indices):
    """Squared distance of every CSR entry (i, j), a block of rows at a time.

    Each block repeats its own points against the gathered columns and
    reduces the differences with one ``einsum``.
    """
    r2 = np.empty(indices.shape[0])
    for start, stop in _blocks(indptr.shape[0] - 1, _SUPPORT_BLOCK):
        lo, hi = indptr[start], indptr[stop]
        diff = np.repeat(pts[start:stop], np.diff(indptr[start:stop + 1]), axis=0)
        diff -= pts[indices[lo:hi]]
        r2[lo:hi] = np.einsum("ij,ij->i", diff, diff)
    return r2


def _empty_pattern(counts):
    """Boolean n-by-n CSR with counts[i] entries in row i, indices unset."""
    n = counts.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return sparse.csr_matrix((np.ones(indptr[-1], dtype=bool),
                              np.empty(indptr[-1], dtype=np.int32), indptr),
                             shape=(n, n))


@dataclass(frozen=True)
class SupportPairs:
    """Squared distances of the pairs i < j of a symmetric support, in CSR order.

    ``indptr`` and ``indices`` are the canonical CSR pattern of the support's
    strict upper triangle and ``r2[e]`` is the squared distance of entry e.
    The diagonal is implicit: every point is in its own support, at r^2 = 0.
    The distances do not depend on epsilon or on the bandwidth, so one
    instance serves every kernel evaluation on the same cloud and support.
    Instances share their index arrays with the kernel matrices built on
    them; nothing may modify them in place.
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


def scaled_pairs(cloud, x, support=None):
    """r_ij^2 / (x_i x_j) over the unordered pairs i < j: all of them in
    ``pdist`` order, or the entries of a :class:`SupportPairs`, a block of
    its rows at a time."""
    if support is None:
        t = pdist(cloud.points, "sqeuclidean")
        stop = 0
        for i in range(cloud.n_points - 1):
            start, stop = stop, stop + cloud.n_points - 1 - i
            t[start:stop] /= x[i] * x[i + 1:]
        return t
    t = np.empty(support.nnz)
    for start, stop in _blocks(support.n, _SUPPORT_BLOCK):
        lo, hi = support.indptr[start], support.indptr[stop]
        den = np.repeat(x[start:stop], np.diff(support.indptr[start:stop + 1]))
        den *= x[support.indices[lo:hi]]
        np.divide(support.r2[lo:hi], den, out=t[lo:hi])
    return t
