"""Exact k-nearest-neighbor queries and sparse support patterns.

Rows of a :class:`NeighborGraph` start with the point itself at distance
zero, then order the rest by (distance, index); when more points tie at the
k-th distance than fit in a row, the kd-tree picks which ones it keeps.
Every query goes to one kd-tree (``scipy.spatial.cKDTree``), exact in any
dimension, a block of rows at a time. A support,
``symmetrized_support(cloud, k)``, is symmetric and stored once, as its
strict upper triangle with the diagonal implicit; it streams the query
blocks and holds each pair once from the moment its block arrives, never
n*k distances, and its pair distances and scaled pairs run over blocks of
rows. Where a run's bandwidth rho is fixed before its kernels,
``scale_support`` divides a support's r^2 in place by rho_i rho_j, so that
every kernel evaluation after it reads t_ij = r_ij^2 / (rho_i rho_j) and
never gathers the bandwidth.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import KTooLarge

# rows per block of the kNN queries, and of the support behind the pair
# distances and of the matrix-free kernel products (support or all pairs);
# support blocks are small because their pass is memory-bound and runs
# faster in cache. A query block holds at most _QUERY_ENTRIES neighbors,
# as glibc may keep a freed block's arrays resident (at k = 500, 4096-row
# blocks left up to 26 MB more); large-k queries run as fast in fewer rows
_QUERY_BLOCK = 4096
_QUERY_ENTRIES = 1 << 19
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


def _query_blocks(cloud, k, size=None):
    """(start, stop, dist, idx, is_self) of each block of rows' exact k
    nearest neighbors from one kd-tree; every row lists its own point.
    Blocks are query blocks, or ``size`` rows of one. Callers check k <= n."""
    pts = cloud.points
    tree = cKDTree(pts)
    block = min(_QUERY_BLOCK, max(1, _QUERY_ENTRIES // k))
    for start, stop in _blocks(pts.shape[0], block):
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
        for lo, hi in _blocks(stop - start, size or block):
            yield start + lo, start + hi, dist[lo:hi], idx[lo:hi], is_self[lo:hi]
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
    nearest neighbors (as :func:`knn` finds them), without a NeighborGraph.

    Row i's neighbors above it go, sorted, straight into one packed int32
    column store as their query block arrives. A neighbor i below row j at
    distance d adds (i, j) only if row i did not list j: (i, j) and (j, i)
    get the same distance bit for bit, and every point closer than row i's
    k-th distance R_i is among its k nearest, so d < R_i is stored already,
    d > R_i is an extra pair and only d == R_i is looked up in row i's
    columns. The few extras are inserted in place at the end.
    """
    n = cloud.n_points
    if k > n:  # before the column store is allocated
        raise KTooLarge(k, n)
    # row i's upper columns are cols[indptr[i]:indptr[i + 1]]; they fill a
    # prefix of the buffer, whose untouched pages are never resident
    cols = np.empty(n * (k - 1), dtype=np.int32)
    # int32 row pointers where they fit, as scipy gives a CSR of this size
    indptr = np.zeros(n + 1, dtype=np.int32 if cols.size < 2**31 else np.int64)
    # rows not yet queried have no neighbor at or beyond their k-th distance
    radius = np.full(n, np.inf)
    # i * n + j of the pairs (i, j) that row j lists beyond or at R_i
    beyond, ties = [], []
    # each query block in blocks of support rows, so that what is derived
    # from them stays small
    for start, stop, dist, idx, _ in _query_blocks(cloud, k, _SUPPORT_BLOCK):
        radius[start:stop] = dist[:, -1]
        mid = np.arange(start, stop, dtype=np.int32)[:, None]
        row = idx.astype(np.int32)
        row.sort(axis=1)
        above = row > mid
        np.cumsum(np.count_nonzero(above, axis=1), out=indptr[start + 1:stop + 1])
        indptr[start + 1:stop + 1] += indptr[start]
        np.compress(above.ravel(), row, out=cols[indptr[start]:indptr[stop]])
        del row, above
        unsure = dist >= radius[idx]
        unsure &= idx < mid
        at = np.flatnonzero(unsure)
        i = idx.ravel()[at]
        tie = dist.ravel()[at] == radius[i]
        key = i * n + at // k + start
        beyond.append(key[~tie])
        ties.append(key[tie])
        del dist, idx, _  # before the next block's query
    # a pair at R_i is an extra only if row i did not pick it
    tie = np.concatenate(ties)
    i, j = np.divmod(tie, n)
    at = _insertion(cols, indptr, i, j)
    held = (at < indptr[i + 1]) & (cols[np.minimum(at, cols.size - 1)] == j)
    key = np.concatenate(beyond + [tie[~held]])
    del beyond, ties, tie, held
    key.sort()
    # the extras of the rows before each row: how far its columns move
    shift = np.searchsorted(key, np.arange(n + 1) * n)
    # in place, from the last block back: a block's columns only move up,
    # over its own old columns and those of blocks already moved
    for start, stop in reversed(_blocks(n, _QUERY_BLOCK)):
        lo, hi = shift[start], shift[stop]
        i, j = np.divmod(key[lo:hi], n)
        at = _insertion(cols, indptr, i, j) - indptr[start]
        cols[indptr[start] + lo:indptr[stop] + hi] = np.insert(
            cols[indptr[start]:indptr[stop]], at, j)
    del key, i, j, at
    indptr += shift
    # no view of cols outlives the statement that made it, so the store can
    # shrink in place; numpy's reference check would also count the copy of
    # this frame's locals that a tracer or profiler holds, and refuse
    cols.resize(indptr[-1], refcheck=False)
    return SupportPairs(indptr=indptr, indices=cols,
                        r2=_sq_dists(cloud.points, indptr, cols))


def _insertion(cols, indptr, i, j):
    """Where each j would go among row i's sorted columns
    cols[indptr[i]:indptr[i + 1]]: one binary search over all pairs at once."""
    lo, hi = indptr[i], indptr[i + 1]
    while np.any(lo < hi):
        mid = lo + (hi - lo) // 2
        right = cols[np.minimum(mid, cols.size - 1)] < j
        lo = np.where(right & (lo < hi), mid + 1, lo)
        hi = np.where(right, hi, mid)
    return lo


def _sq_dists(pts, indptr, indices):
    """Squared distance of every CSR entry (i, j), a block of rows at a time.

    Each block repeats its own points against the gathered columns and
    reduces the differences with one ``einsum``; ``np.take`` gathers the
    same rows several times faster than fancy indexing by int32 columns.
    """
    r2 = np.empty(indices.shape[0])
    for start, stop in _blocks(indptr.shape[0] - 1, _SUPPORT_BLOCK):
        lo, hi = indptr[start], indptr[stop]
        diff = np.repeat(pts[start:stop], np.diff(indptr[start:stop + 1]), axis=0)
        diff -= np.take(pts, indices[lo:hi], axis=0)
        r2[lo:hi] = np.einsum("ij,ij->i", diff, diff)
    return r2


@dataclass(frozen=True)
class SupportPairs:
    """Squared distances of the pairs i < j of a symmetric support, in CSR order.

    ``indptr`` and ``indices`` are the canonical CSR pattern of the support's
    strict upper triangle and ``r2[e]`` is the squared distance of entry e,
    or, once :func:`scale_support` has run, r^2 / (x_i x_j) for the
    ``bandwidth`` x it records (None: raw r^2). The diagonal is implicit:
    every point is in its own support, at r^2 = 0. The values do not depend
    on epsilon, so one instance serves every kernel evaluation on the same
    cloud, support and bandwidth. Instances share their index arrays with
    the kernel matrices built on them, and nothing may modify those in
    place; only :func:`scale_support` modifies ``r2``, and it records the
    bandwidth on the same instance.
    """

    indptr: np.ndarray
    indices: np.ndarray
    r2: np.ndarray
    bandwidth: np.ndarray | None = None

    @property
    def n(self):
        return self.indptr.shape[0] - 1

    @property
    def nnz(self):
        return self.r2.shape[0]


def scale_support(support, x):
    """Divide each r_ij^2 of ``support`` in place by x_i x_j; return it.

    The values are scaled a block of rows at a time with the arithmetic of
    :func:`scaled_pairs`, so no second array of the support's size is made,
    and the instance itself records x as its ``bandwidth``: no handle on it
    is left that still reads as raw r^2. Scaling a support twice raises
    ``ValueError``.
    """
    if support.bandwidth is not None:
        raise ValueError("the support is already scaled by a bandwidth")
    x = np.array(x, dtype=float)
    for start, stop in _blocks(support.n, _SUPPORT_BLOCK):
        lo, hi = support.indptr[start], support.indptr[stop]
        support.r2[lo:hi] /= _pair_products(support, x, start, stop)
    # the one field of the frozen instance that changes, with its values
    object.__setattr__(support, "bandwidth", x)
    return support


def _pair_products(support, x, start, stop, out=None):
    """x_j x_i (the same double as x_i x_j) over the entries of rows
    start:stop of ``support``, written into ``out`` when given."""
    lo, hi = support.indptr[start], support.indptr[stop]
    # "clip" gathers into out unbuffered; the columns are in range
    den = np.take(x, support.indices[lo:hi], out=out, mode="clip")
    den *= np.repeat(x[start:stop], np.diff(support.indptr[start:stop + 1]))
    return den


def scaled_pairs(cloud, x, support=None):
    """r_ij^2 / (x_i x_j) over the unordered pairs i < j: all of them in
    ``pdist`` order, or the entries of a :class:`SupportPairs`, a block of
    its rows at a time; a support :func:`scale_support` has scaled raises
    ``ValueError``, as its pairs would be divided twice."""
    if support is None:
        t = pdist(cloud.points, "sqeuclidean")
        stop = 0
        for i in range(cloud.n_points - 1):
            start, stop = stop, stop + cloud.n_points - 1 - i
            t[start:stop] /= x[i] * x[i + 1:]
        return t
    if support.bandwidth is not None:
        raise ValueError("the support is already scaled by a bandwidth")
    t = np.empty(support.nnz)
    for start, stop in _blocks(support.n, _SUPPORT_BLOCK):
        lo, hi = support.indptr[start], support.indptr[stop]
        _pair_products(support, x, start, stop, out=t[lo:hi])
        np.divide(support.r2[lo:hi], t[lo:hi], out=t[lo:hi])
    return t
