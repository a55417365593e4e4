import sys

import numpy as np
import pytest

from vbdiffusion import neighbors, pointcloud
from vbdiffusion.errors import KTooLarge

from oracles import knn_union, pair_sq_dists, support_rows


def _brute_reference(pts, k):
    # independent of the kd-tree path: full distance matrix, same tie rule
    # (sort by distance then index), self forced to the front
    n = pts.shape[0]
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    idx = np.empty((n, k), dtype=int)
    dist = np.empty((n, k))
    for i in range(n):
        order = sorted(range(n), key=lambda j: (d2[i, j], j))
        order.remove(i)
        row = [i] + order[: k - 1]
        idx[i] = row
        dist[i] = np.sqrt(d2[i, row])
    dist[:, 0] = 0.0
    return idx, dist


def test_knn_matches_brute_force_reference():
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((60, 3))
    cloud = pointcloud.PointCloud(pts)
    g = neighbors.knn(cloud, 7)
    ref_idx, ref_dist = _brute_reference(pts, 7)
    np.testing.assert_array_equal(g.indices, ref_idx)
    np.testing.assert_allclose(g.distances, ref_dist, atol=1e-12)


def test_knn_tie_break_prefers_smaller_index():
    # integer coordinates so the equidistant pairs are exact in floats
    pts = np.array([[0.0], [1.0], [-1.0], [2.0], [-2.0]])
    g = neighbors.knn(pointcloud.PointCloud(pts), 5)
    assert list(g.indices[0]) == [0, 1, 2, 3, 4]
    assert list(g.indices[1]) == [1, 0, 3, 2, 4]


def test_knn_self_is_first_with_zero_distance():
    cloud = pointcloud.PointCloud(np.random.default_rng(0).standard_normal((30, 2)))
    g = neighbors.knn(cloud, 4)
    np.testing.assert_array_equal(g.indices[:, 0], np.arange(30))
    assert np.all(g.distances[:, 0] == 0.0)
    assert np.all(np.diff(g.distances, axis=1) >= 0)


def test_knn_handles_duplicate_points():
    # a pair of coincident points: each must still list itself first
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    g = neighbors.knn(pointcloud.PointCloud(pts), 2)
    np.testing.assert_array_equal(g.indices[:, 0], np.arange(4))
    assert g.indices[0, 1] == 1 and g.indices[1, 1] == 0
    assert g.distances[0, 1] == 0.0


def _tied_lattice():
    # integer grid: exact distance ties in every row; three sites carry six
    # coincident points each, more than some k below
    grid = np.stack(np.meshgrid(np.arange(7.0), np.arange(6.0), indexing="ij"),
                    axis=-1).reshape(-1, 2)
    pts = np.concatenate([grid, np.repeat(grid[:3], 5, axis=0)])
    return pts[np.random.default_rng(3).permutation(pts.shape[0])]


@pytest.mark.parametrize("k", [3, 4, 9, 13])
def test_knn_orders_exact_ties_by_index(k):
    pts = _tied_lattice()
    _assert_tie_order(pts, neighbors.knn(pointcloud.PointCloud(pts), k), k)


def _assert_tie_order(pts, g, k):
    n = pts.shape[0]
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=2)
    for i in range(n):
        ref = sorted(range(n), key=lambda j: (j != i, d2[i, j], j))[:k]
        row = g.indices[i]
        assert row[0] == i
        np.testing.assert_array_equal(g.distances[i], np.sqrt(d2[i, ref]))
        # shells inside the k-th distance are complete and must match the
        # oracle exactly; the kd-tree picks which points of the last shell
        # are kept, and those must still come in increasing index order
        last = d2[i, ref[-1]]
        inner = d2[i, row[1:]] < last
        np.testing.assert_array_equal(row[1:][inner], np.array(ref[1:])[inner])
        shell = row[1:][~inner]
        assert np.all(d2[i, shell] == last) and i not in shell
        assert np.all(np.diff(shell) > 0)


def test_knn_rejects_k_above_n():
    cloud = pointcloud.gen_circle_uniform(5)
    with pytest.raises(KTooLarge):
        neighbors.knn(cloud, 6)
    with pytest.raises(KTooLarge):
        neighbors.symmetrized_support(cloud, 6)


def test_knn_k_equals_one():
    cloud = pointcloud.gen_circle_uniform(5)
    g = neighbors.knn(cloud, 1)
    assert g.indices.shape == (5, 1)
    np.testing.assert_array_equal(g.indices[:, 0], np.arange(5))


def _coincident_cloud():
    # more coincident copies of some points than fit in a k = 6 row, so the
    # query drops self entries in several blocks
    base = np.random.default_rng(6).standard_normal((40, 2))
    pts = np.concatenate([base, np.repeat(base[:4], 8, axis=0)])
    return pts[np.random.default_rng(7).permutation(pts.shape[0])]


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_knn_blocks_do_not_change_the_graph(monkeypatch, block):
    lattice = _tied_lattice()
    coincident = _coincident_cloud()
    scattered = np.random.default_rng(11).standard_normal((60, 3))
    clouds = ((lattice, 13), (coincident, 6), (scattered, 7))
    # each cloud is below the default block size, so this is one block
    whole = [neighbors.knn(pointcloud.PointCloud(pts), k) for pts, k in clouds]
    monkeypatch.setattr(neighbors, "_QUERY_BLOCK", block)
    for (pts, k), ref in zip(clouds, whole):
        g = neighbors.knn(pointcloud.PointCloud(pts), k)
        np.testing.assert_array_equal(g.indices, ref.indices)
        np.testing.assert_array_equal(g.distances, ref.distances)
        assert g.indices.dtype == np.int32
        _assert_tie_order(pts, g, k)
    ref_idx, ref_dist = _brute_reference(scattered, 7)
    np.testing.assert_array_equal(g.indices, ref_idx)
    np.testing.assert_allclose(g.distances, ref_dist, atol=1e-12)


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_support_pairs_in_row_blocks_match_oracle(monkeypatch, block):
    monkeypatch.setattr(neighbors, "_SUPPORT_BLOCK", block)
    for pts, k in ((np.random.default_rng(2).standard_normal((40, 3)), 5),
                   (_coincident_cloud(), 6)):
        cloud = pointcloud.PointCloud(pts)
        pairs = neighbors.symmetrized_support(cloud, k)
        rows = support_rows(pairs)
        np.testing.assert_array_equal(pairs.r2, pair_sq_dists(pts, rows, pairs.indices))
        np.testing.assert_allclose(
            pairs.r2, np.sum((pts[rows] - pts[pairs.indices]) ** 2, axis=1), atol=1e-12)


def _assert_strict_upper(pairs):
    for i in range(pairs.n):
        cols = pairs.indices[pairs.indptr[i]:pairs.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0), f"row {i} not sorted or duplicated"
        assert np.all(cols > i), f"row {i} has entries on or below the diagonal"


def test_symmetrized_support_is_union_with_diagonal():
    # directed edges i -> j; the support holds the pair once, as (min, max),
    # and the diagonal (every point lists itself) implicitly
    small = np.array([[0.0], [0.1], [0.2], [5.0]])
    scattered = np.random.default_rng(4).standard_normal((60, 2))
    for pts, k in ((small, 2), (scattered, 5)):
        cloud = pointcloud.PointCloud(pts)
        g = neighbors.knn(cloud, k)
        pairs = neighbors.symmetrized_support(cloud, k)
        # cached pairs follow the CSR order, so it must be canonical
        _assert_strict_upper(pairs)
        union = knn_union(g.indices)
        assert all(i in row for i, row in enumerate(union))
        expected = {(i, j) for i, row in enumerate(union) for j in row if j > i}
        got = set(zip(support_rows(pairs).tolist(), pairs.indices.tolist()))
        assert got == expected


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_support_query_blocks_do_not_change_the_support(monkeypatch, block):
    clouds = ((_tied_lattice(), 13), (_coincident_cloud(), 6),
              (np.random.default_rng(11).standard_normal((60, 3)), 7))
    # the oracle reads kNN lists queried in one block (each cloud is below
    # the default size) and joins them with Python sets
    unions = [knn_union(neighbors.knn(pointcloud.PointCloud(pts), k).indices)
              for pts, k in clouds]
    monkeypatch.setattr(neighbors, "_QUERY_BLOCK", block)
    for (pts, k), union in zip(clouds, unions):
        pairs = neighbors.symmetrized_support(pointcloud.PointCloud(pts), k)
        _assert_strict_upper(pairs)
        rows = support_rows(pairs)
        expected = {(i, j) for i, row in enumerate(union) for j in row if j > i}
        assert set(zip(rows.tolist(), pairs.indices.tolist())) == expected
        np.testing.assert_array_equal(pairs.r2, pair_sq_dists(pts, rows, pairs.indices))


@pytest.mark.parametrize("hook, current", [(sys.setprofile, sys.getprofile),
                                           (sys.settrace, sys.gettrace)],
                         ids=["setprofile", "settrace"])
def test_support_builds_under_a_profiler_or_tracer(hook, current):
    # a trace or profile hook gives every frame's locals one more reference,
    # which the column store's final shrink must not take for a view
    cloud = pointcloud.gen_torus_grid(50)
    want = neighbors.symmetrized_support(cloud, 60)
    before = current()
    hook(lambda *args: None)
    try:
        got = neighbors.symmetrized_support(cloud, 60)
    finally:
        hook(before)
    for name in ("indptr", "indices", "r2"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def test_support_pairs_follow_csr_order():
    pts = np.random.default_rng(8).standard_normal((50, 3))
    cloud = pointcloud.PointCloud(pts)
    pairs = neighbors.symmetrized_support(cloud, 6)
    assert pairs.n == 50 and pairs.nnz == pairs.indices.shape[0]
    _assert_strict_upper(pairs)
    np.testing.assert_array_equal(
        pairs.r2, pair_sq_dists(pts, support_rows(pairs), pairs.indices))


def test_support_pairs_on_a_torus_grid_match_each_pair_bitwise():
    # 4-D points gathered by int32 columns; every r2 is the einsum of its own
    # pair's difference, taken one pair at a time
    cloud = pointcloud.gen_torus_grid(50)
    pts = cloud.points
    pairs = neighbors.symmetrized_support(cloud, 60)
    diff = np.array([pts[i] - pts[j] for i, j in
                     zip(support_rows(pairs).tolist(), pairs.indices.tolist())])
    want = np.einsum("ij,ij->i", diff, diff)
    assert pairs.r2.tobytes() == want.tobytes()


def test_support_scaled_pairs_match_each_pair_bitwise():
    # r2 / (x_i x_j) one pair at a time, over two blocks of support rows
    rng = np.random.default_rng(12)
    cloud = pointcloud.PointCloud(rng.standard_normal((300, 3)))
    x = rng.uniform(0.5, 2.0, 300)
    pairs = neighbors.symmetrized_support(cloud, 12)
    xs = x.tolist()
    want = [r2 / (xs[i] * xs[j]) for r2, i, j in
            zip(pairs.r2.tolist(), support_rows(pairs).tolist(),
                pairs.indices.tolist())]
    got = neighbors.scaled_pairs(cloud, x, pairs)
    assert got.tobytes() == np.array(want).tobytes()


def test_scale_support_divides_its_pairs_in_place():
    # the scaled_pairs quotient of every pair, written over the input's r2;
    # the input itself records the bandwidth, so no handle reads as raw r^2
    rng = np.random.default_rng(12)
    cloud = pointcloud.PointCloud(rng.standard_normal((600, 3)))
    x = rng.uniform(0.5, 2.0, 600)
    raw = neighbors.symmetrized_support(cloud, 12)
    want = neighbors.scaled_pairs(cloud, x, raw)
    support = neighbors.symmetrized_support(cloud, 12)
    r2 = support.r2
    assert neighbors.scale_support(support, x) is support
    assert support.r2 is r2
    assert support.r2.tobytes() == want.tobytes()
    np.testing.assert_array_equal(support.bandwidth, x)
    assert raw.bandwidth is None
    # a second scaling, or scaled pairs of the scaled values, would divide
    # each pair twice
    with pytest.raises(ValueError, match="already scaled"):
        neighbors.scale_support(support, x)
    with pytest.raises(ValueError, match="already scaled"):
        neighbors.scaled_pairs(cloud, x, support)
    assert support.r2.tobytes() == want.tobytes()


@pytest.mark.parametrize("cloud, k", [
    (pointcloud.gen_torus_grid(50), 60),
    (pointcloud.PointCloud(_tied_lattice()), 13),
], ids=["torus_grid", "lattice"])
def test_support_decides_pairs_at_the_kth_distance(cloud, k):
    # a pair whose distance equals row i's k-th distance R_i may or may not
    # be among row i's picks: the distance alone cannot tell
    g = neighbors.knn(cloud, k)
    radius = g.distances[:, -1]
    lists = [set(row.tolist()) for row in g.indices]
    both = one = 0
    for j, (row, dist) in enumerate(zip(g.indices, g.distances)):
        at_radius = (row < j) & (dist == radius[row])
        both += sum(j in lists[i] for i in row[at_radius])
        one += sum(j not in lists[i] for i in row[at_radius])
    # so both outcomes must occur on these grids to pin the support
    assert both > 0 and one > 0, (both, one)
    pairs = neighbors.symmetrized_support(cloud, k)
    _assert_strict_upper(pairs)
    expected = {(i, j) for i, row in enumerate(knn_union(g.indices))
                for j in row if j > i}
    assert set(zip(support_rows(pairs).tolist(), pairs.indices.tolist())) == expected
