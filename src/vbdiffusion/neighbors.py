"""Exact k-nearest-neighbor queries and sparse support patterns.

Rows of a :class:`NeighborGraph` start with the point itself at distance
zero, then order the rest by (distance, index); when more points tie at the
k-th distance than fit in a row, the kd-tree picks which ones it keeps.
Every query goes to one kd-tree (``scipy.spatial.cKDTree``), exact in any
dimension, a block of rows at a time.

A support, ``symmetrized_support(cloud, k)``, holds every pair within
either point's k-th smallest distance, whole last shells included, so it
is a function of the point set: renumbering the points renumbers its pairs
and leaves their r^2 as they were. It is symmetric and stored once, as its
strict upper triangle with the diagonal implicit. It is built over cells of
the kd-tree, never from a neighbor query: each cell's rows get their
squared distances to a superset of their last shells in one ``cdist``
block, the arithmetic of ``pdist``, and each pair is written once, its r^2
straight from that block. Where a run's bandwidth rho is fixed before its
kernels, the support is built with it: each block of pair distances is
divided by rho_i rho_j as it is written, so that every kernel evaluation
reads t_ij = r_ij^2 / (rho_i rho_j) and never gathers the bandwidth. A
support's arrays are read-only.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist, pdist

from .errors import KTooLarge

# rows per block of the kNN queries, and per block of the support's merge
# and of the matrix-free kernel products (support or all pairs); support
# blocks are small because their pass is memory-bound and runs faster in
# cache. A query block holds at most _QUERY_ENTRIES neighbors, as glibc may
# keep a freed block's arrays resident (at k = 500, 4096-row blocks left up
# to 26 MB more); large-k queries run as fast in fewer rows
_QUERY_BLOCK = 4096
_QUERY_ENTRIES = 1 << 19
_SUPPORT_BLOCK = 256
# points per cell of the support build, at most (a subtree of the kd-tree
# holds between half and all of them), and cells per query of their
# candidates, whose Python lists a query holds at once. Smaller cells have
# fewer candidates per row, larger ones fewer numpy calls per point: on the
# 250^2 torus grid at k = 500, cells of 16 points built the support 20%
# slower than cells of 32, and cells of 48 or 64 no faster, with larger
# blocks
_CELL = 32
_CELL_QUERY = 32


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
    nearest neighbors from one kd-tree; every row lists its own point.
    Callers check k <= n."""
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


def symmetrized_support(cloud, k, bandwidth=None):
    """Support pairs (i, j), i < j, with r_ij^2 <= max(R_i^2, R_j^2), where
    R_i^2 is the k-th smallest squared distance from point i, itself at zero
    included: every point's k nearest neighbors and all the points tied with
    the k-th, joined. With a ``bandwidth`` x the pairs hold
    r_ij^2 / (x_i x_j), and the support records a copy of x.

    Rows go a kd-tree cell at a time (:func:`_cells`), against candidates
    that hold every row's last shell, and each cell's squared distances come
    from one ``cdist`` block, so (i, j) and (j, i) get the bits of ``pdist``.
    Pass A finds each R_i^2, and counts each row's pairs above it within
    R_i^2 and the extras: pairs (j, i), j < i, that R_i reaches and R_j does
    not. Pass B writes each row's upper columns, sorted, and their r^2
    straight into place, and collects the extras, which are inserted in
    place at the end.
    """
    n = cloud.n_points
    if k > n:  # before the cells are built
        raise KTooLarge(k, n)
    pts = cloud.points
    tree, cells, centre, spread, kth = _cells(pts, k)
    # R_i^2, -inf until row i's cell has passed, and each cell's largest;
    # row i's upper columns are cols_out[indptr[i]:indptr[i + 1]] before
    # the extras go in
    radius = np.full(n, -np.inf)
    top = np.empty(len(cells))
    indptr = np.zeros(n + 1, dtype=np.int64)
    extra = 0
    # every row of a cell has R_i <= R_c + a
    reach = kth + 2.0 * spread
    for c, (rows, cols) in enumerate(zip(cells, _candidates(tree, centre, reach))):
        d = cdist(pts[rows], pts[cols], "sqeuclidean")
        # a copy, so that the partitioned block goes at once
        r2 = np.partition(d, k - 1, axis=1)[:, k - 1].copy()
        top[c] = r2.max()
        within = d <= r2[:, None]
        above = cols > rows[:, None]
        above &= within
        indptr[rows + 1] = np.count_nonzero(above, axis=1)
        # a pair (j, i), j < i, within R_i counts as an extra unless R_j is
        # known and reaches it; the same pair seen from row j later, within
        # both radii, takes its count back. Besides the upper pairs, that
        # count holds each row's own point and the pairs of two rows of this
        # cell within both radii, which never come back
        within &= d > radius[cols]
        own = d[:, np.searchsorted(cols, rows)]
        both = (own <= r2[:, None]) & (own <= r2) & (rows[:, None] < rows)
        extra += (np.count_nonzero(within) - np.count_nonzero(above)
                  - rows.size - np.count_nonzero(both))
        radius[rows] = r2
    np.cumsum(indptr, out=indptr)
    nnz = int(indptr[-1]) + extra
    cols_out = np.empty(nnz, dtype=np.int32)
    r2_out = np.empty(nnz)
    x = None if bandwidth is None else np.array(bandwidth, dtype=float)
    # pass B, on the candidates within a + max R_i of each cell's centre;
    # the extras as keys j * n + i and their values
    key = np.empty(extra, dtype=np.int64)
    val = np.empty(extra)
    filled = 0
    reach = spread + np.sqrt(top)
    for rows, cols in zip(cells, _candidates(tree, centre, reach)):
        d = cdist(pts[rows], pts[cols], "sqeuclidean")
        within = d <= radius[rows, None]
        above = cols > rows[:, None]
        up = above & within
        # the same pairs as pass A counted, from the same bits
        count = indptr[rows + 1] - indptr[rows]
        slot = np.repeat(indptr[rows] - (np.cumsum(count) - count), count)
        slot += np.arange(slot.size)
        j = np.broadcast_to(cols, d.shape)[up]
        cols_out[slot] = j
        r2_out[slot] = _divided(d[up], x, j, np.repeat(rows, count))
        del up, count, slot, j
        within &= ~above
        within &= d > radius[cols]
        i, at = np.divmod(np.flatnonzero(within), cols.size)
        end = filled + i.size
        np.multiply(cols[at], np.int64(n), out=key[filled:end])
        key[filled:end] += rows[i]
        val[filled:end] = _divided(d[i, at], x, cols[at], rows[i])
        filled = end
    del tree, cells, radius
    order = np.argsort(key)
    key = key[order]
    val = val[order]
    del order
    # the extras of the rows before each row: how far its columns move
    shift = np.searchsorted(key, np.arange(n + 1) * n)
    # in place, from the last block back: a block's entries only move up,
    # over its own old entries and those of blocks already moved; blocks
    # ahead of every extra stay
    for start, stop in reversed(_blocks(n, _SUPPORT_BLOCK)):
        lo, hi = shift[start], shift[stop]
        if hi == 0:
            break
        i, j = np.divmod(key[lo:hi], n)
        at = _insertion(cols_out, indptr, i, j) - indptr[start]
        old = slice(indptr[start], indptr[stop])
        new = slice(indptr[start] + lo, indptr[stop] + hi)
        cols_out[new] = np.insert(cols_out[old], at, j)
        r2_out[new] = np.insert(r2_out[old], at, val[lo:hi])
    del key, val
    indptr += shift
    # int32 row pointers where they fit, as scipy gives a CSR of this size
    if nnz < 2**31:
        indptr = indptr.astype(np.int32)
    return SupportPairs(indptr=indptr, indices=cols_out, r2=r2_out, bandwidth=x)


def _divided(r2, x, j, i):
    """r2 / (x_j x_i) (the same double as x_i x_j), in place, for pairs
    (i, j); r2 itself when x is None."""
    if x is not None:
        r2 /= x[j] * x[i]
    return r2


def _cells(pts, k):
    """The kd-tree of the points and its cells, subtrees of at most _CELL
    points: each cell's rows, the centre c of their bounding box, their
    largest distance a from c, and the distance R_c from c to its k-th
    nearest point."""
    tree = cKDTree(pts)
    order = tree.indices.astype(np.int32)
    bounds, stack = [], [tree.tree]
    while stack:
        node = stack.pop()
        size = node.end_idx - node.start_idx
        if node.split_dim == -1 or size <= _CELL:
            bounds += [(node.start_idx + a, node.start_idx + b)
                       for a, b in _blocks(size, _CELL)]
        else:
            stack += [node.greater, node.lesser]
    starts = np.array([a for a, _ in bounds])
    members = pts[order]
    centre = 0.5 * (np.minimum.reduceat(members, starts)
                    + np.maximum.reduceat(members, starts))
    members -= np.repeat(centre, np.diff(starts, append=pts.shape[0]), axis=0)
    spread = np.maximum.reduceat(
        np.sqrt(np.einsum("ij,ij->i", members, members)), starts)
    kth = tree.query(centre, k=[k], workers=-1)[0][:, 0]
    return tree, [order[a:b] for a, b in bounds], centre, spread, kth


def _candidates(tree, centre, reach):
    """Sorted int32 indices of the points within each cell's reach of its
    centre, a margin for the rounding of the tree's distances included,
    queried one chunk of cells at a time."""
    for lo, hi in _blocks(centre.shape[0], _CELL_QUERY):
        # numpy sorts them faster than the tree does
        for ball in tree.query_ball_point(centre[lo:hi],
                                          reach[lo:hi] * (1.0 + 1e-9),
                                          return_sorted=False):
            cols = np.array(ball, dtype=np.int32)
            cols.sort()
            yield cols


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


@dataclass(frozen=True)
class SupportPairs:
    """Squared distances of the pairs i < j of a symmetric support, in CSR order.

    ``indptr`` and ``indices`` are the canonical CSR pattern of the support's
    strict upper triangle and ``r2[e]`` is the squared distance of entry e,
    or r^2 / (x_i x_j) for the ``bandwidth`` x it records (None: raw r^2).
    The diagonal is implicit: every point is in its own support, at r^2 = 0.
    The values do not depend on epsilon, so one instance serves every kernel
    evaluation on the same cloud, support and bandwidth. Instances share
    their index arrays with the kernel matrices built on them, and nothing
    may modify those in place: construction marks the four arrays read-only,
    the caller's own arrays and not copies of them.
    """

    indptr: np.ndarray
    indices: np.ndarray
    r2: np.ndarray
    bandwidth: np.ndarray | None = None

    def __post_init__(self):
        for arr in (self.indptr, self.indices, self.r2, self.bandwidth):
            if arr is not None:
                arr.setflags(write=False)

    @property
    def n(self):
        return self.indptr.shape[0] - 1

    @property
    def nnz(self):
        return self.r2.shape[0]


def _pair_products(indptr, indices, x, start, stop, out=None):
    """x_j x_i (the same double as x_i x_j) over the CSR entries of rows
    start:stop, written into ``out`` when given."""
    lo, hi = indptr[start], indptr[stop]
    # "clip" gathers into out unbuffered; the columns are in range
    den = np.take(x, indices[lo:hi], out=out, mode="clip")
    den *= np.repeat(x[start:stop], np.diff(indptr[start:stop + 1]))
    return den


def scaled_pairs(cloud, x, support=None):
    """r_ij^2 / (x_i x_j) over the unordered pairs i < j: all of them in
    ``pdist`` order, or the entries of a :class:`SupportPairs`, a block of
    its rows at a time; a support built with a bandwidth raises
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
        _pair_products(support.indptr, support.indices, x, start, stop,
                       out=t[lo:hi])
        np.divide(support.r2[lo:hi], t[lo:hi], out=t[lo:hi])
    return t
