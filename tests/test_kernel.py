import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.spatial.distance import cdist

from vbdiffusion import kernel, neighbors, pointcloud, spectral
from vbdiffusion.errors import DisconnectedGraph
from vbdiffusion.pointcloud import PointCloud

from oracles import generator_dense_nonsymmetric, kernel_alpha, knn_union

# unit roundoff of float64
_U = np.finfo(float).eps / 2


def _two_point_cloud():
    pts = np.array([[0.0], [2.0]])
    return PointCloud(points=pts, intrinsic_dim=1)


def test_two_point_kernel_values():
    # r^2 = 4, eps = 1/2, rho = (1, 2): the off-diagonal argument is exactly 1
    cloud = _two_point_cloud()
    k = kernel.kernel_matrix(cloud, np.array([1.0, 2.0]), 0.5)
    assert k[0, 0] == 1.0 and k[1, 1] == 1.0
    assert k[0, 1] == np.exp(-1.0)
    assert k[1, 0] == k[0, 1]


def test_two_point_cascade_oracle():
    # frozen from the exact closed forms for the same pair, alpha = 1/2
    cloud = _two_point_cloud()
    rho = np.array([1.0, 2.0])
    gm = kernel.build_generator(cloud, rho, eps=0.5, alpha=0.5)
    kalpha = np.array([[0.7310585786300049, 0.38034060558534444],
                       [0.38034060558534444, 1.4621171572600098]])
    s = np.array([1.0542291896050637, 2.7147432754095582])
    np.testing.assert_allclose(kernel_alpha(cloud.points, rho, 0.5, 0.5, 1),
                               kalpha, rtol=1e-14, atol=0)
    assert gm.qS == pytest.approx([1.3678794411714423, 0.68393972058572117], rel=1e-14)
    assert gm.D == pytest.approx([1.1113991842153492, 1.8424577628453542], rel=1e-14)
    assert gm.S == pytest.approx(s, rel=1e-14)
    # the frozen Kalpha reaches Lhat = (S^-1 Kalpha S^-1 - diag(rho^-2)) / eps
    want = (kalpha / np.outer(s, s) - np.diag(rho**-2.0)) / 0.5
    np.testing.assert_allclose(gm.Lhat, want, rtol=1e-13, atol=0)
    assert gm.Lhat[0, 0] == pytest.approx(-0.68443563930428086, rel=1e-13)
    assert gm.Lhat[0, 1] == pytest.approx(0.26579015257040067, rel=1e-13)
    assert gm.Lhat[1, 1] == pytest.approx(-0.10321555621388433, rel=1e-13)
    assert gm.Lhat[1, 0] == gm.Lhat[0, 1]


def _pairs(cloud, graph):
    return neighbors.symmetrized_support(cloud, graph.k)


def _gaussian_line(n, seed=5):
    cloud = pointcloud.gen_gaussian_random(n, 1, seed=seed)
    rho = 1.0 + 0.2 * cloud.points[:, 0] ** 2
    return cloud, rho


def test_sparse_kernel_matches_dense_on_support():
    cloud, rho = _gaussian_line(80)
    graph = neighbors.knn(cloud, 20)
    support = _pairs(cloud, graph)
    dense = kernel.kernel_matrix(cloud, rho, 0.05)
    sp = kernel.kernel_matrix(cloud, rho, 0.05, support=support)
    coo = sp.tocoo()
    # identical squared differences; the bandwidth products associate
    # differently between the two paths, so agreement is to rounding only
    assert np.allclose(coo.data, dense[coo.row, coo.col], rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("eps", [0.001, 2.0**-7, 0.1])
def test_sparse_kernel_is_the_exponent_of_each_pair(eps):
    # the sign of the exponent rides on the scale 4 eps; 4 * 0.001 is not a
    # power of two, so its product rounds, yet every value stays bit for bit
    # exp(-(r2 / ((4 eps rho_i) rho_j)))
    rng = np.random.default_rng(9)
    cloud = PointCloud(points=rng.standard_normal((200, 3)))
    rho = rng.uniform(0.5, 2.0, 200)
    support = neighbors.symmetrized_support(cloud, 12)
    rows = np.repeat(np.arange(support.n), np.diff(support.indptr))
    arg = [-(r2 / ((4.0 * eps * rho[i]) * rho[j])) for r2, i, j in
           zip(support.r2.tolist(), rows.tolist(), support.indices.tolist())]
    got = kernel.kernel_matrix(cloud, rho, eps, support=support)
    assert got.data.tobytes() == np.exp(np.array(arg)).tobytes()


def _scaled_twins(n=600, k=12, seed=9):
    """A cloud, its bandwidth, a raw support and its twin scaled by rho."""
    rng = np.random.default_rng(seed)
    cloud = PointCloud(points=rng.standard_normal((n, 3)), intrinsic_dim=3)
    rho = rng.uniform(0.5, 2.0, n)
    raw = neighbors.symmetrized_support(cloud, k)
    scaled = neighbors.symmetrized_support(cloud, k, bandwidth=rho)
    return cloud, rho, raw, scaled


@pytest.mark.parametrize("eps", [0.001, 2.0**-7, 0.1])
def test_scaled_kernel_is_the_exponent_of_each_scaled_pair(eps):
    # one divide of t = r2 / (rho_i rho_j) by -4 eps, then the exp, per pair
    cloud, rho, raw, scaled = _scaled_twins()
    assert scaled.bandwidth is not None and raw.bandwidth is None
    rows = np.repeat(np.arange(raw.n), np.diff(raw.indptr))
    rs = rho.tolist()
    arg = [(r2 / (rs[i] * rs[j])) / (-4.0 * eps) for r2, i, j in
           zip(raw.r2.tolist(), rows.tolist(), raw.indices.tolist())]
    got = kernel.kernel_matrix(cloud, rho, eps, support=scaled)
    assert got.data.tobytes() == np.exp(np.array(arg)).tobytes()


@pytest.mark.parametrize("eps", [2.0**-13, 2.0**-7, 0.5, 2.0**5])
def test_scaled_and_raw_supports_agree_bitwise_at_dyadic_eps(eps):
    # 4 eps is a power of two: dividing by it is exact, so r2 / ((-4 eps
    # rho_i) rho_j) and (r2 / (rho_i rho_j)) / (-4 eps) are the same double
    cloud, rho, raw, scaled = _scaled_twins()
    want = kernel.kernel_matrix(cloud, rho, eps, support=raw)
    got = kernel.kernel_matrix(cloud, rho, eps, support=scaled)
    assert got.data.tobytes() == want.data.tobytes()
    want = kernel.build_generator(cloud, rho, eps, 0.3, support=raw)
    got = kernel.build_generator(cloud, rho, eps, 0.3, support=scaled)
    got, want = ((gm.Lhat.data, gm.Lhat.indices, gm.Lhat.indptr, gm.qS, gm.D,
                  gm.S) for gm in (got, want))
    for name, a, b in zip(("data", "indices", "indptr", "qS", "D", "S"),
                          got, want):
        assert a.tobytes() == b.tobytes(), name
    f = np.sin(cloud.points[:, 0])
    want = kernel.apply_generator(cloud, rho, eps, 0.3, "symmetric", f,
                                  support=raw)
    got = kernel.apply_generator(cloud, rho, eps, 0.3, "symmetric", f,
                                 support=scaled)
    assert got.tobytes() == want.tobytes()


def test_scaled_support_refuses_any_other_kernel():
    # a kernel whose bandwidth is not the one the support is scaled by would
    # be wrongly scaled, so it is refused rather than computed
    cloud, rho, _, scaled = _scaled_twins()
    other = rho * 1.5
    f = np.sin(cloud.points[:, 0])
    with pytest.raises(ValueError, match="bandwidth"):
        kernel.kernel_matrix(cloud, other, 0.01, support=scaled)
    with pytest.raises(ValueError, match="bandwidth"):
        kernel.build_generator(cloud, other, 0.01, 0.0, support=scaled)
    with pytest.raises(ValueError, match="bandwidth"):
        kernel.apply_generator(cloud, other, 0.01, 0.0, "symmetric", f,
                               support=scaled)
    for formulation in ("left", "right"):
        with pytest.raises(ValueError, match="bandwidth"):
            kernel.apply_generator(cloud, rho, 0.01, 0.0, formulation, f,
                                   support=scaled)
    # the same values as the scaled-by bandwidth are the same kernel
    kernel.kernel_matrix(cloud, rho.copy(), 0.01, support=scaled)


def test_sparse_scaling_multiplies_each_entry_by_both_weights_bitwise():
    # (d w_i) w_j one entry at a time, over the CSR of a strict upper triangle
    rng = np.random.default_rng(10)
    cloud = PointCloud(points=rng.standard_normal((300, 3)))
    support = neighbors.symmetrized_support(cloud, 12)
    mat = kernel.kernel_matrix(cloud, np.ones(300), 0.5, support=support)
    w = rng.uniform(0.5, 2.0, 300)
    ws = w.tolist()
    rows = np.repeat(np.arange(support.n), np.diff(support.indptr))
    want = [(d * ws[i]) * ws[j] for d, i, j in
            zip(mat.data.tolist(), rows.tolist(), support.indices.tolist())]
    got = kernel._scaled(mat, w)
    assert got.data.tobytes() == np.array(want).tobytes()


def test_dense_kernel_and_scaling_match_whole_matrix_formulas_bitwise():
    # row by row, the same IEEE products as the whole-matrix expressions:
    # r2 / (-4 eps (rho_i rho_j)), then K_ij (w_i w_j)
    rng = np.random.default_rng(11)
    cloud = PointCloud(points=rng.standard_normal((300, 3)))
    rho = rng.uniform(0.5, 2.0, 300)
    w = rng.uniform(0.5, 2.0, 300)
    eps = 0.001
    want = np.exp(cdist(cloud.points, cloud.points, "sqeuclidean")
                  / (-4.0 * eps * np.outer(rho, rho)))
    got = kernel.kernel_matrix(cloud, rho, eps)
    assert got.tobytes() == want.tobytes()
    want *= np.outer(w, w)
    assert kernel._scaled(got, w).tobytes() == want.tobytes()


def test_sparse_generator_matches_dense_with_full_support():
    cloud, rho = _gaussian_line(40)
    graph = neighbors.knn(cloud, 40)
    support = _pairs(cloud, graph)
    dense = kernel.build_generator(cloud, rho, 0.05, 0.3)
    sp = kernel.build_generator(cloud, rho, 0.05, 0.3, support=support)
    scale = np.abs(dense.Lhat).max()
    assert np.allclose(sp.Lhat.toarray(), dense.Lhat, atol=1e-12 * scale)
    assert np.allclose(sp.qS, dense.qS, rtol=1e-13)
    diff = sp.Lhat - sp.Lhat.T
    assert np.abs(diff.toarray()).max() <= 1e-13 * scale


def test_sparse_generator_is_exactly_symmetric():
    # eigsh takes Lhat as symmetric; the two orders of a bandwidth product
    # differ in the last bit, so every pair must be evaluated once
    cloud = pointcloud.gen_gaussian_random(2000, 2, seed=3)
    rho = np.exp(0.3 * cloud.points[:, 0])
    support = _pairs(cloud, neighbors.knn(cloud, 20))
    gm = kernel.build_generator(cloud, rho, 0.01, -0.5, support=support)
    lhat = gm.Lhat.tocsr()
    assert lhat.has_canonical_format
    mirror = lhat.T.tocsr()
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(lhat, name), getattr(mirror, name))


def test_underflowed_pairs_leave_lhat():
    # two clusters 50 apart: exp(-r^2 / 4 eps) underflows on every cross pair
    pts = np.array([[0.0], [0.1], [0.2], [50.0], [50.1], [50.2]])
    cloud = PointCloud(points=pts, intrinsic_dim=1)
    support = neighbors.symmetrized_support(cloud, 6)
    assert support.nnz == 15
    k = kernel.kernel_matrix(cloud, np.ones(6), 1e-3, support=support)
    # K keeps the support's pattern: the 9 cross pairs stay as explicit zeros
    assert k.nnz == 15
    assert np.count_nonzero(k.data == 0.0) == 9
    gm = kernel.build_generator(cloud, np.ones(6), 1e-3, 0.0, support=support)
    # Lhat's sum drops them, so its pattern is the numerical graph
    assert np.all(gm.Lhat.data != 0.0)
    assert gm.Lhat.nnz - np.count_nonzero(gm.Lhat.diagonal()) == 12
    with pytest.raises(DisconnectedGraph) as info:
        spectral.eigs_near_zero(gm, 2)
    assert info.value.component_sizes == [3, 3]


def test_sparse_chain_shares_the_support_pattern():
    cloud, rho = _gaussian_line(80)
    support = neighbors.symmetrized_support(cloud, 20)
    k = kernel.kernel_matrix(cloud, rho, 0.05, support=support)
    assert np.shares_memory(k.indices, support.indices)
    assert np.shares_memory(k.indptr, support.indptr)
    before = [a.copy() for a in (support.indices, support.indptr, support.r2)]
    # an epsilon small enough that some pairs underflow
    for eps in (0.05, 1e-7):
        kernel.build_generator(cloud, rho, eps, 0.3, support=support)
    for was, now in zip(before, (support.indices, support.indptr, support.r2)):
        np.testing.assert_array_equal(now, was)


def test_generator_identities():
    cloud, rho = _gaussian_line(60)
    gm = kernel.build_generator(cloud, rho, 0.05, 0.3)
    kalpha = kernel_alpha(cloud.points, rho, 0.05, 0.3, 1)
    assert np.array_equal(gm.Lhat, gm.Lhat.T)
    assert np.array_equal(gm.S, gm.P * np.sqrt(gm.D))
    # the closed form and the cascade differ as the two storages of
    # test_complete_support_matches_all_pairs do, within 32 n u
    np.testing.assert_allclose(gm.D, kalpha.sum(axis=1), rtol=32 * 60 * _U, atol=0)
    lmark = generator_dense_nonsymmetric(gm, kalpha)
    resid = np.abs(lmark @ np.ones(60)).max()
    assert resid <= 1e-10 * np.abs(np.diag(lmark)).max()
    # similarity via S: both matrices carry the same spectrum
    from scipy.linalg import eigvalsh

    sym_vals = eigvalsh(gm.Lhat)
    mark_vals = np.sort(np.linalg.eigvals(lmark).real)
    assert np.allclose(sym_vals, mark_vals, rtol=1e-8, atol=1e-8 * np.abs(sym_vals).max())


def _naive_apply(pts, rho, eps, alpha, formulation, f, d):
    n = pts.shape[0]
    K = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            r2 = float(np.sum((pts[i] - pts[j]) ** 2))
            if formulation == "left":
                arg = r2 / (4.0 * eps * rho[i])
            elif formulation == "right":
                arg = r2 / (4.0 * eps * rho[j])
            else:
                arg = r2 / (4.0 * eps * rho[i] * rho[j])
            K[i, j] = np.exp(-arg)
    w = np.ones(n)
    if alpha != 0.0:
        w = (K.sum(axis=1) / rho**d) ** (-alpha)
    p = 2 if formulation == "symmetric" else 1
    est = np.empty(n)
    for i in range(n):
        est[i] = (K[i] @ (w * f) / (K[i] @ w) - f[i]) / (eps * rho[i] ** p)
    return est


def test_apply_generator_matches_naive_loops():
    cloud, rho = _gaussian_line(40)
    f = np.sin(cloud.points[:, 0])
    cases = [("left", 0.0), ("right", 0.0), ("symmetric", 0.0), ("symmetric", 0.3)]
    for formulation, alpha in cases:
        got = kernel.apply_generator(cloud, rho, 0.05, alpha, formulation, f)
        want = _naive_apply(cloud.points, rho, 0.05, alpha, formulation, f, 1)
        assert np.allclose(got, want, atol=1e-10 * np.abs(want).max()), formulation


def test_apply_generator_sparse_full_support_matches_dense():
    cloud, rho = _gaussian_line(40)
    f = np.sin(cloud.points[:, 0])
    graph = neighbors.knn(cloud, 40)
    support = _pairs(cloud, graph)
    for formulation, alpha in [("left", 0.0), ("symmetric", 0.3)]:
        dense = kernel.apply_generator(cloud, rho, 0.05, alpha, formulation, f)
        sp = kernel.apply_generator(cloud, rho, 0.05, alpha, formulation, f,
                                    support=support)
        assert np.allclose(sp, dense, atol=1e-11 * np.abs(dense).max())


def _naive_support_apply(pts, rho, eps, alpha, formulation, f, d, sets):
    def k(i, j, form):
        r2 = float(np.sum((pts[i] - pts[j]) ** 2))
        b = {"left": rho[i], "right": rho[j], "symmetric": rho[i] * rho[j]}[form]
        return np.exp(-r2 / (4.0 * eps * b))

    n = pts.shape[0]
    w = np.ones(n)
    if alpha != 0.0:
        w = np.array([sum(k(i, j, "symmetric") for j in sets[i]) / rho[i] ** d
                      for i in range(n)]) ** (-alpha)
    p = 2 if formulation == "symmetric" else 1
    est = np.empty(n)
    for i in range(n):
        num = sum(k(i, j, formulation) * w[j] * f[j] for j in sets[i])
        den = sum(k(i, j, formulation) * w[j] for j in sets[i])
        est[i] = (num / den - f[i]) / (eps * rho[i] ** p)
    return est


def test_partial_support_matches_per_row_oracle():
    cloud, rho = _gaussian_line(60)
    f = np.sin(cloud.points[:, 0])
    graph = neighbors.knn(cloud, 9)
    sets = knn_union(graph.indices)
    support = _pairs(cloud, graph)
    assert support.nnz < 60 * 30
    eps = 0.02
    km = kernel.kernel_matrix(cloud, rho, eps, support=support)
    # the strict upper triangle: the diagonal, all ones, is implicit
    upper = [[j for j in s if j > i] for i, s in enumerate(sets)]
    assert km.nnz == sum(len(s) for s in upper)
    for i in range(60):
        row = km.getrow(i)
        assert list(row.indices) == upper[i]
        want = [np.exp(-float(np.sum((cloud.points[i] - cloud.points[j]) ** 2))
                       / (4.0 * eps * rho[i] * rho[j])) for j in upper[i]]
        np.testing.assert_allclose(row.data, want, rtol=1e-13, atol=0.0)
    cases = [("left", 0.0), ("right", 0.0), ("symmetric", 0.0), ("symmetric", 0.3)]
    for formulation, alpha in cases:
        got = kernel.apply_generator(cloud, rho, eps, alpha, formulation, f,
                                     support=support)
        want = _naive_support_apply(cloud.points, rho, eps, alpha, formulation,
                                    f, 1, sets)
        assert np.allclose(got, want, atol=1e-10 * np.abs(want).max()), formulation


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_apply_generator_in_row_blocks(monkeypatch, block):
    cloud, rho = _gaussian_line(60)
    f = np.sin(cloud.points[:, 0])
    graph = neighbors.knn(cloud, 9)
    sets = knn_union(graph.indices)
    support = _pairs(cloud, graph)
    cases = [("left", 0.0), ("right", 0.0), ("symmetric", 0.0), ("symmetric", 0.3)]
    # 60 rows are one block at the default size
    whole = [kernel.apply_generator(cloud, rho, 0.02, alpha, formulation, f,
                                    support=support)
             for formulation, alpha in cases]
    monkeypatch.setattr(neighbors, "_SUPPORT_BLOCK", block)
    for (formulation, alpha), ref in zip(cases, whole):
        got = kernel.apply_generator(cloud, rho, 0.02, alpha, formulation, f,
                                     support=support)
        np.testing.assert_array_equal(got, ref)
        want = _naive_support_apply(cloud.points, rho, 0.02, alpha, formulation,
                                    f, 1, sets)
        assert np.allclose(got, want, atol=1e-10 * np.abs(want).max()), formulation


def test_cached_pairs_survive_underflow():
    cloud, rho = _gaussian_line(80)
    graph = neighbors.knn(cloud, 20)
    support = _pairs(cloud, graph)
    tiny = kernel.build_generator(cloud, rho, 1e-7, 0.3, support=support)
    # the small epsilon drops underflowed entries from the pattern
    assert sparse.triu(tiny.Lhat, 1).nnz < support.nnz
    got = kernel.build_generator(cloud, rho, 0.05, 0.3, support=support)
    want = kernel.build_generator(cloud, rho, 0.05, 0.3,
                                  support=_pairs(cloud, graph))
    assert sparse.triu(got.Lhat, 1).nnz == support.nnz
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(got.Lhat, name),
                                      getattr(want.Lhat, name))
    np.testing.assert_array_equal(got.qS, want.qS)


@st.composite
def _small_clouds(draw):
    n = draw(st.integers(10, 60))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cloud = PointCloud(points=rng.standard_normal((n, dim)), intrinsic_dim=dim)
    rho = np.exp(rng.uniform(-0.5, 0.5, n))
    eps = 2.0 ** draw(st.floats(-8.0, 0.0))
    alpha = draw(st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.5, 1.0]))
    return cloud, rho, eps, alpha


def _kalpha_from_lhat(gm):
    """Kalpha = eps S Lhat S off the diagonal, with its diagonal qS^(-2 alpha)."""
    lhat = gm.Lhat.toarray() if sparse.issparse(gm.Lhat) else gm.Lhat
    kalpha = gm.eps * gm.S[:, None] * lhat * gm.S[None, :]
    w = gm.qS ** (-gm.alpha)
    np.fill_diagonal(kalpha, w * w)
    return kalpha


@settings(derandomize=True, deadline=None)
@given(_small_clouds())
def test_complete_support_matches_all_pairs(case):
    # Tolerances, from the length n of the row sums: each sum of n positive
    # terms is within (n - 1) u of its own exact value; the two storages
    # associate the bandwidth product differently, which moves a kernel
    # argument x by a few u x, and the kernel-weighted mean of x over a row
    # stays below about 15 here; qS^-alpha carries |alpha| <= 1 times the
    # error of qS; and every entry of Lhat and every term of it is at most
    # scale = 1/(eps min rho^2), as Kalpha_ij <= sqrt(D_i D_j). 32 n u covers
    # the sum of these with room to spare.
    cloud, rho, eps, alpha = case
    n, d = cloud.n_points, cloud.intrinsic_dim
    tol = 32 * n * _U
    support = neighbors.symmetrized_support(cloud, n)
    assert support.nnz == n * (n - 1) // 2
    dense = kernel.build_generator(cloud, rho, eps, alpha)
    sp = kernel.build_generator(cloud, rho, eps, alpha, support=support)
    scale = 1.0 / (eps * rho.min() ** 2)
    np.testing.assert_allclose(sp.Lhat.toarray(), dense.Lhat, rtol=0, atol=tol * scale)
    np.testing.assert_allclose(sp.D, dense.D, rtol=tol, atol=0)
    np.testing.assert_allclose(sp.S, dense.S, rtol=tol, atol=0)
    # the closed form differs from the cascade as the two storages do
    oracle = kernel_alpha(cloud.points, rho, eps, alpha, d).sum(axis=1)
    np.testing.assert_allclose(dense.D, oracle, rtol=tol, atol=0)
    for gm in (dense, sp):
        # Markov rows: D and the sum here each carry (n - 1) u, and each
        # entry rebuilt from Lhat, S and eps at most 8 u relative
        rows = _kalpha_from_lhat(gm).sum(axis=1) / gm.D
        assert np.abs(rows - 1.0).max() <= 4 * n * _U
        # D^-1 Kalpha has spectral radius 1 up to the error of D, so Lhat,
        # congruent to diag(1/(eps rho^2)) (D^-1/2 Kalpha D^-1/2 - I), is
        # negative semidefinite up to that error and eigvalsh's own
        lhat = gm.Lhat.toarray() if sparse.issparse(gm.Lhat) else gm.Lhat
        assert np.linalg.eigvalsh(lhat).max() <= tol * scale
    f = np.sin(cloud.points[:, 0])
    for formulation, a in (("left", 0.0), ("right", 0.0), ("symmetric", 0.0),
                           ("symmetric", alpha)):
        # the kernel-weighted mean of f moves by at most tol max|f| before
        # the division by eps rho^p
        p = 2 if formulation == "symmetric" else 1
        want = kernel.apply_generator(cloud, rho, eps, a, formulation, f)
        got = kernel.apply_generator(cloud, rho, eps, a, formulation, f,
                                     support=support)
        bound = tol * np.abs(f).max() / (eps * rho**p)
        assert np.all(np.abs(got - want) <= bound), formulation


@settings(derandomize=True, deadline=None)
@given(_small_clouds(), st.integers(2, 9))
def test_apply_generator_is_the_built_markov_generator(case, k):
    # The symmetric estimate is the Markov generator S^-1 Lhat S of the built
    # cascade at the same eps and alpha, on all pairs and on a kNN support;
    # a constant that one side carries and the other lacks breaks this.
    # Tolerance, from the length n of the row sums as in
    # test_complete_support_matches_all_pairs: qS, D and the kernel-weighted
    # mean of f are sums of at most n terms, each within (n - 1) u of its
    # exact value; w = qS^-alpha carries |alpha| <= 1/2 times the error of
    # qS, and a relative error delta of the weights moves a weighted mean by
    # at most 2 delta max|f|; Lhat (S f) sums terms whose magnitudes, over
    # S_i, add to at most 2 max|f| / (eps rho_i^2), as Kalpha_ij sums to D_i
    # and the diagonal is at most 1/(eps rho_i^2). 32 n u covers the sum.
    cloud, rho, eps, _ = case
    n = cloud.n_points
    f = np.sin(cloud.points[:, 0])
    bound = 32 * n * _U * np.abs(f).max() / (eps * rho**2)
    for support in (None, neighbors.symmetrized_support(cloud, k)):
        for alpha in (-0.5, 0.0, 0.5):
            gm = kernel.build_generator(cloud, rho, eps, alpha, support=support)
            want = gm.Lhat @ (gm.S * f) / gm.S
            got = kernel.apply_generator(cloud, rho, eps, alpha, "symmetric", f,
                                         support=support)
            assert np.all(np.abs(got - want) <= bound), (alpha, support is None)


@st.composite
def _clouds_with_motion(draw):
    # continuous random clouds have no distance ties (with probability one),
    # so their kNN sets do not depend on the order of the points, and the
    # kd-tree's choice within a tied last shell never comes into play
    cloud, rho, eps, alpha = draw(_small_clouds())
    k = draw(st.integers(2, cloud.n_points - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return cloud, rho, eps, alpha, k, rng


def _lhats(pts, rho, eps, alpha, k):
    """Whole dense Lhat on all pairs, then on the kNN support of size k."""
    cloud = PointCloud(points=pts, intrinsic_dim=pts.shape[1])
    support = neighbors.symmetrized_support(cloud, k)
    for pairs in (None, support):
        lhat = kernel.build_generator(cloud, rho, eps, alpha, support=pairs).Lhat
        yield lhat.toarray() if sparse.issparse(lhat) else lhat


@settings(derandomize=True, deadline=None)
@given(_clouds_with_motion())
def test_permuting_points_permutes_lhat(case):
    # Relabelling moves no distance: each pair's r^2 is the same sum of the
    # same squares, so the kernel changes only where a support pair's two
    # bandwidths associate the other way round. What moves is the order of
    # each row sum, and that is the difference between the two storages of
    # test_complete_support_matches_all_pairs, so its 32 n u scale bounds
    # every entry. The top eigenvalues then move by at most the 2-norm of
    # the difference, at most n times the entry bound (Weyl), plus eigh's
    # backward error on each matrix, within n u ||Lhat||_1 <= n^2 u scale
    # times a small constant; 2 n times the entry bound covers both.
    cloud, rho, eps, alpha, k, rng = case
    n = cloud.n_points
    perm = rng.permutation(n)
    tol = 32 * n * _U / (eps * rho.min() ** 2)
    top = min(n, 4)
    for got, want in zip(_lhats(cloud.points[perm], rho[perm], eps, alpha, k),
                         _lhats(cloud.points, rho, eps, alpha, k)):
        np.testing.assert_allclose(got, want[np.ix_(perm, perm)], rtol=0, atol=tol)
        np.testing.assert_allclose(np.linalg.eigvalsh(got)[-top:],
                                   np.linalg.eigvalsh(want)[-top:],
                                   rtol=0, atol=2 * n * tol)


# exp(-a) underflows to zero beyond this kernel argument a
_A_MAX = 746.0


@settings(derandomize=True, deadline=None)
@given(_clouds_with_motion())
def test_rigid_motion_leaves_lhat_unchanged(case):
    # Tolerance, from the coordinate rounding and the sum length. The moved
    # coordinates x Q^T + b are each within delta = (d + 2) u (||x||_1 +
    # |b|) of exact, and Householder QR leaves Q orthogonal to within
    # omega = 8 d^2 u, so a computed distance r moves by at most
    # omega r + 2 sqrt(d) delta, and its square, computed on either side,
    # by a further 2 (d + 4) u relative. The kernel argument
    # a = r^2 / (4 eps rho_i rho_j) then moves by at most
    # a (2 omega + 2 (d + 4) u) + 2 sqrt(a d) delta / (sqrt(eps) rho_min),
    # and a <= _A_MAX wherever the kernel is not zero on both sides: each
    # kernel value moves by at most kappa relative. qS, its power, Kalpha,
    # D and S compound kappa with the n u of each row sum a few times over,
    # and every entry of Lhat is at most scale = 1/(eps rho_min^2), as in
    # test_complete_support_matches_all_pairs; 8 (kappa + n u) scale covers
    # the sum.
    cloud, rho, eps, alpha, k, rng = case
    n, d = cloud.n_points, cloud.intrinsic_dim
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    b = rng.uniform(-10.0, 10.0, d)
    moved = cloud.points @ q.T + b
    delta = (d + 2) * _U * (np.abs(cloud.points).sum(axis=1).max() + np.abs(b).max())
    omega = 8 * d * d * _U
    kappa = (_A_MAX * (2 * omega + 2 * (d + 4) * _U)
             + 2 * np.sqrt(_A_MAX * d) * delta / (np.sqrt(eps) * rho.min()))
    tol = 8 * (kappa + n * _U) / (eps * rho.min() ** 2)
    for got, want in zip(_lhats(moved, rho, eps, alpha, k),
                         _lhats(cloud.points, rho, eps, alpha, k)):
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_apply_generator_constant_function_is_annihilated():
    cloud, rho = _gaussian_line(50)
    f = np.full(50, 0.7)
    for formulation in ("left", "right", "symmetric"):
        est = kernel.apply_generator(cloud, rho, 0.02, 0.0, formulation, f)
        assert np.abs(est).max() <= 1e-9


def test_apply_generator_validation():
    cloud, rho = _gaussian_line(10)
    f = np.zeros(10)
    with pytest.raises(ValueError, match="formulation"):
        kernel.apply_generator(cloud, rho, 0.1, 0.0, "center", f)
    with pytest.raises(ValueError, match="symmetric"):
        kernel.apply_generator(cloud, rho, 0.1, 0.5, "left", f)
    bare = PointCloud(points=cloud.points)
    with pytest.raises(ValueError, match="dimension"):
        kernel.apply_generator(bare, rho, 0.1, 0.5, "symmetric", f)
    with pytest.raises(ValueError, match="dimension"):
        kernel.build_generator(bare, rho, 0.1, 0.5)


def test_save_sparse_csv_roundtrip(tmp_path):
    mat = sparse.csr_matrix(np.array([[1.5, 0.0], [0.25, -3.0]]))
    path = tmp_path / "mat.csv"
    kernel.save_sparse_csv(mat, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,j,value"
    back = np.loadtxt(path, delimiter=",", skiprows=1).reshape(-1, 3)
    rebuilt = sparse.coo_matrix((back[:, 2], (back[:, 0].astype(int), back[:, 1].astype(int))),
                                shape=(2, 2)).toarray()
    assert np.array_equal(rebuilt, mat.toarray())
