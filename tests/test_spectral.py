import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import cho_factor, qr
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence

from vbdiffusion import kernel, neighbors, pointcloud, spectral
from vbdiffusion.errors import (AlignmentAmbiguous, DegenerateEigenvector,
                                DisconnectedGraph, EmptyMask, SolverFailure)
from vbdiffusion.pointcloud import PointCloud

from oracles import eigh_top, mirrored_spectrum, planted_generator


def test_dense_path_recovers_planted_spectrum():
    n = 12
    rng = np.random.default_rng(3)
    q, _ = qr(rng.standard_normal((n, n)))
    vals = -np.linspace(0.0, 5.5, n)
    lhat = (q * vals) @ q.T
    lhat = 0.5 * (lhat + lhat.T)
    spec = spectral.eigs_near_zero(planted_generator(lhat), 4)
    assert np.allclose(spec.eigenvalues, vals[:4], atol=1e-10)
    for i in range(4):
        corr = abs(spec.eigenvectors[:, i] @ q[:, i])
        assert corr == pytest.approx(1.0, abs=1e-10)


def _assert_matches_eigh(spec, gm):
    """Eigenvalues within 1e-12 ||Lhat||_1 of eigh's, and the same subspace."""
    vals, vecs = eigh_top(gm, spec.eigenvalues.size)
    norm = np.abs(gm.Lhat).sum(axis=0).max()
    np.testing.assert_allclose(spec.eigenvalues, vals, rtol=0.0, atol=1e-12 * norm)
    # unit columns (S = 1): all cosines of the principal angles are 1
    cosines = np.linalg.svd(vecs.T @ spec.eigenvectors, compute_uv=False)
    assert cosines.min() == pytest.approx(1.0, abs=1e-10)


def test_dense_shift_invert_matches_eigh_on_a_degenerate_pair():
    n = 800
    lhat = mirrored_spectrum([0.0, -1.0, -3.0], [-1.0, -2.0], n)
    gm = planted_generator(lhat)
    before = lhat.copy()
    spec = spectral.eigs_near_zero(gm, 5)
    assert spec.solver == "dense cholesky shift-invert"
    np.testing.assert_array_equal(gm.Lhat, before)
    assert spec.eigenvalues[1] == pytest.approx(spec.eigenvalues[2], abs=1e-12)
    _assert_matches_eigh(spec, gm)


def test_start_vector_reaches_odd_eigenvectors():
    # the wanted -2 is odd, so the constant start vector is orthogonal to it,
    # and an even -2.0001 stands next to it; a constant start returns that
    n = 800
    lhat = mirrored_spectrum([0.0, -1.0, -2.0001], [-2.0], n, lo=2.6)
    assert abs(np.ones(n) @ np.linalg.eigh(lhat)[1][:, -3]) < 1e-10
    gm = planted_generator(lhat)
    spec = spectral.eigs_near_zero(gm, 3)
    assert spec.solver == "dense cholesky shift-invert"
    _assert_matches_eigh(spec, gm)


def test_spent_solve_budget_hands_over_to_eigh(monkeypatch):
    # the fifth eigenvalue sits in a tight cluster at the edge of a crowded
    # bulk, which Lanczos resolves only slowly
    n = 800
    lhat = mirrored_spectrum([0.0, -1.0, -2.0, -2.548], [-2.5475, -2.5481], n,
                             lo=2.549)
    gm = planted_generator(lhat)
    spec = spectral.eigs_near_zero(gm, 5)
    assert spec.solver == "eigh (lanczos budget spent)"
    vals, vecs = eigh_top(gm, 5)
    np.testing.assert_array_equal(spec.eigenvalues, vals)
    np.testing.assert_array_equal(spec.eigenvectors, vecs)
    # the same Lhat stored sparse has no eigh to hand over to: the run stops
    # loudly after its budget of n // 16 = 50 solves
    solves = []
    solve_banded = spectral.cho_solve_banded

    def counting(*args, **kwargs):
        solves.append(1)
        return solve_banded(*args, **kwargs)

    monkeypatch.setattr(spectral, "cho_solve_banded", counting)
    with pytest.raises(SolverFailure, match="banded cholesky shift-invert") as exc:
        spectral.eigs_near_zero(planted_generator(sparse.csr_matrix(lhat)), 5)
    assert exc.value.iterations == n // spectral._SOLVE_BUDGET == len(solves)


def test_dense_factor_overwrites_its_one_copy(monkeypatch):
    n = 800
    lhat = mirrored_spectrum([0.0, -1.0, -2.0], [-1.5], n)
    seen = []

    def recording(a, **kwargs):
        factor = cho_factor(a, **kwargs)
        seen.append(np.shares_memory(factor[0], a))
        return factor

    monkeypatch.setattr(spectral, "cho_factor", recording)
    spec = spectral.eigs_near_zero(planted_generator(lhat), 4)
    assert spec.solver == "dense cholesky shift-invert"
    assert seen == [True]


def test_eigenvalue_above_shift_raises():
    # sigma I - Lhat is indefinite: no fallback hides it, on either storage
    n = 800
    lhat = mirrored_spectrum([1.0, 0.0, -1.0], [-2.0], n)
    for stored, path in ((lhat, "dense"), (sparse.csr_matrix(lhat), "banded")):
        with pytest.raises(SolverFailure, match=f"{path} cholesky shift-invert: "
                                                "sigma I - Lhat is not positive definite"):
            spectral.eigs_near_zero(planted_generator(stored), 4)


@pytest.mark.parametrize("error", [MemoryError, ValueError, RuntimeError,
                                   ArpackNoConvergence])
def test_memory_and_value_errors_are_not_fallbacks(monkeypatch, error):
    # every error fails a shift-invert run loudly, but for an ARPACK or
    # runtime error on the dense storage, which hands over to eigh; the
    # injected error hits only shift-invert calls (given sigma), and a memory
    # or value error also hits either factor in a second pass
    eigsh = spectral.eigsh

    def failing(*args, **kwargs):
        if "sigma" in kwargs:
            # ARPACK's error carries the pairs it had: none here
            raise (error("injected", np.empty(0), np.empty((0, 0)))
                   if error is ArpackNoConvergence else error("injected"))
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigsh", failing)
    loud = error in (MemoryError, ValueError)
    runs = ((_line_generator(800, 40, 0.05), "banded cholesky"),
            (_ring_generator(800), "banded cholesky"),
            (planted_generator(mirrored_spectrum(
                [0.0, -1.0, -2.0], [-1.5, -3.0], 800)), "dense cholesky"))
    for gm, solver in runs:
        path = f"{solver} shift-invert"
        if loud or solver != "dense cholesky":
            with pytest.raises(SolverFailure, match=path) as exc:
                spectral.eigs_near_zero(gm, 5)
            assert loud or exc.value.iterations > 0
            continue
        spec = spectral.eigs_near_zero(gm, 5)
        assert spec.solver == f"eigh ({path} failed: {error.__name__})"
        vals, vecs = eigh_top(gm, 5)
        np.testing.assert_array_equal(spec.eigenvalues, vals)
        np.testing.assert_array_equal(spec.eigenvectors, vecs)
    if not loud:
        return

    def failing_factor(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(spectral, "eigsh", eigsh)
    monkeypatch.setattr(spectral, "cho_factor", failing_factor)
    monkeypatch.setattr(spectral, "cholesky_banded", failing_factor)
    for gm, solver in runs:
        with pytest.raises(SolverFailure, match=f"{solver} shift-invert"):
            spectral.eigs_near_zero(gm, 5)


def test_solver_names_the_path():
    gm = _line_generator(800, 40, 0.05)
    assert spectral.eigs_near_zero(gm, 5).solver == "banded cholesky shift-invert"
    # a circle's wrap-around support is banded once its points are renumbered
    assert (spectral.eigs_near_zero(_ring_generator(800), 3).solver
            == "banded cholesky shift-invert")
    small = _line_generator(300, 20, 0.05)
    assert spectral.eigs_near_zero(small, 4).solver == "eigh"


def _line_generator(n, k, eps, shuffle=False):
    cloud = pointcloud.gen_gaussian_nice_1d(n)
    if shuffle:
        order = np.random.default_rng(2).permutation(n)
        cloud = PointCloud(cloud.points[order], intrinsic_dim=1)
    support = neighbors.symmetrized_support(cloud, k)
    return kernel.build_generator(cloud, np.ones(n), eps, 0.0, support=support)


def _ring_generator(n):
    cloud = pointcloud.gen_circle_uniform(n)
    support = neighbors.symmetrized_support(cloud, 8)
    return kernel.build_generator(cloud, np.ones(n), 0.001, 0.0, support=support)


def test_shift_invert_matches_dense_eigh():
    # sorted, the line's support is a band; shuffled, and on the ring's
    # wrap-around, it is one only once reverse Cuthill-McKee renumbers it
    for gm in (_line_generator(800, 40, 0.05),
               _line_generator(800, 40, 0.05, shuffle=True),
               _ring_generator(800)):
        si = spectral.eigs_near_zero(gm, 5)
        assert si.solver == "banded cholesky shift-invert"
        vals, vecs = eigh_top(gm, 5)
        scale = np.abs(vals).max()
        assert np.allclose(si.eigenvalues, vals, atol=1e-8 * scale)
        for i in range(5):
            a, b = si.eigenvectors[:, i], vecs[:, i]
            corr = abs(a @ b) / (np.linalg.norm(a) * np.linalg.norm(b))
            assert corr == pytest.approx(1.0, abs=1e-8)


def test_banded_solve_solves_shifted_system():
    gm = _line_generator(300, 16, 0.05, shuffle=True)
    sigma = 1e-3
    solve = spectral._banded_solve(gm.Lhat, sigma)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(300)
    y = solve(x)
    resid = (gm.Lhat - sigma * sparse.identity(300)) @ y - x
    assert np.linalg.norm(resid) <= 1e-8 * np.linalg.norm(x)


def test_disconnected_support_is_reported_with_sizes():
    # all pairs, and a kNN support whose third neighbors of the pair cross to
    # the triple: the kernel underflows across, so no edge joins the two
    pts = np.array([[0.0], [0.1], [0.2], [1000.0], [1000.1]])
    cloud = PointCloud(points=pts, intrinsic_dim=1)
    knn = neighbors.symmetrized_support(cloud, 3)
    for support in (None, knn):
        gm = kernel.build_generator(cloud, np.ones(5), 0.01, 0.0, support=support)
        with pytest.raises(DisconnectedGraph) as exc:
            spectral.eigs_near_zero(gm, 2)
        assert exc.value.component_sizes == [3, 2]


def test_dense_components_match_sparse_oracle(monkeypatch):
    # frontiers of 3 rows a block, so that a component's frontier spans blocks
    monkeypatch.setattr(neighbors, "_SUPPORT_BLOCK", 3)
    rng = np.random.default_rng(5)
    for n in (1, 2, 7, 40, 90):
        # up to five groups of random edges; small groups stay isolated points
        group = rng.integers(0, 5, n)
        pattern = (rng.random((n, n)) < 0.08) & (group[:, None] == group[None, :])
        pattern |= pattern.T
        np.fill_diagonal(pattern, True)
        mat = np.where(pattern, rng.random((n, n)) + 0.5, 0.0)
        mat = 0.5 * (mat + mat.T)
        want = connected_components(sparse.csr_matrix(pattern), directed=False)[1]
        np.testing.assert_array_equal(spectral._dense_components(mat), want)
        sizes = sorted(np.bincount(want).tolist(), reverse=True)
        if len(sizes) == 1:
            spectral._check_connected(mat)
            continue
        with pytest.raises(DisconnectedGraph) as exc:
            spectral._check_connected(mat)
        assert exc.value.component_sizes == sizes


def test_scale_sqrtN_norms_and_sign():
    vecs = np.array([[-3.0, 1.0], [1.0, 2.0], [0.5, -0.5]])
    spec = spectral.Spectrum(eigenvalues=np.array([0.0, -1.0]), eigenvectors=vecs)
    scaled = spectral.scale_sqrtN(spec)
    norms = np.linalg.norm(scaled.eigenvectors, axis=0)
    assert np.allclose(norms, np.sqrt(3.0), atol=1e-10)
    # first column led by -3: flipped; second led by +2: kept
    assert scaled.eigenvectors[0, 0] > 0.0
    assert scaled.eigenvectors[1, 1] > 0.0
    bad = spectral.Spectrum(eigenvalues=np.array([0.0]), eigenvectors=np.zeros((3, 1)))
    with pytest.raises(DegenerateEigenvector):
        spectral.scale_sqrtN(bad)


def test_sign_ignores_rounding_between_mirrored_entries():
    # an odd column: its two end entries tie for the largest |v|
    col = np.linspace(-1.0, 1.0, 9)
    signs = []
    for end, away in ((0, -2.0), (-1, 2.0)):
        vecs = col.copy()
        vecs[end] = np.nextafter(vecs[end], away)
        spec = spectral.Spectrum(eigenvalues=np.array([-1.0]),
                                 eigenvectors=vecs[:, None])
        signs.append(np.sign(spectral.scale_sqrtN(spec).eigenvectors[0, 0]))
    assert signs == [1.0, 1.0]


def test_procrustes_recovers_rotation():
    rng = np.random.default_rng(11)
    t, _ = qr(rng.standard_normal((30, 2)), mode="economic")
    theta = 0.7
    r = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    est = t @ r
    q = spectral.procrustes_rotation(est, t)
    assert np.allclose(q, r.T, atol=1e-12)
    assert np.allclose(spectral.align_orthogonal(est, t), t, atol=1e-12)
    with pytest.raises(AlignmentAmbiguous):
        spectral.procrustes_rotation(np.zeros((30, 2)), t)
    with pytest.raises(ValueError):
        spectral.procrustes_rotation(est[:, :1], t)


def test_least_squares_map_matches_normal_equations():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((40, 3))
    m = rng.standard_normal((3, 2))
    b = spectral.least_squares_map(a, a @ m)
    assert np.allclose(b, m, atol=1e-10)
    with pytest.warns(UserWarning, match="rank deficient"):
        spectral.least_squares_map(np.column_stack([a[:, 0], a[:, 0]]), a[:, :1])


def test_mse_values_and_mask():
    assert spectral.mse([1.0, 2.0], [0.0, 0.0]) == 2.5
    assert spectral.mse([1.0, 2.0], [0.0, 0.0], mask=np.array([True, False])) == 1.0
    with pytest.raises(ValueError):
        spectral.mse([1.0], [1.0, 2.0])
    with pytest.raises(EmptyMask):
        spectral.mse([1.0], [1.0], mask=np.array([False]))


def test_group_by_eigenvalue_slices():
    vals = np.array([0.0, -1.0, -1.001, -3.0])
    groups = spectral.group_by_eigenvalue(vals)
    assert groups == [slice(0, 1), slice(1, 3), slice(3, 4)]
    assert spectral.group_by_eigenvalue(np.array([-2.0])) == [slice(0, 1)]


def test_save_csv_layout(tmp_path):
    vecs = np.array([[1.0, 2.0], [3.0, 4.0]])
    spec = spectral.Spectrum(eigenvalues=np.array([0.0, -1.5]), eigenvectors=vecs)
    path = tmp_path / "spec.csv"
    spectral.save_csv(spec, path, latent=np.array([0.25, 0.75]))
    lines = path.read_text().splitlines()
    assert lines[0] == ",0,-1.5"
    assert lines[1] == "0.25,1,2"
    assert lines[2] == "0.75,3,4"
