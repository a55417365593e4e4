import math
from dataclasses import replace

import numpy as np
import pytest

from vbdiffusion import density, neighbors, pointcloud
from vbdiffusion.errors import DuplicatePoints

from oracles import knn_union


def _profile(cloud, beta, k0=8):
    g = neighbors.knn(cloud, max(k0, 8))
    return density.bandwidth_profile(cloud, g, beta, k0=k0)


def test_pilot_bandwidth_two_points():
    # with k0 = 2 the pilot is exactly the distance to the other point
    pts = np.array([[0.0], [np.sqrt(2.0)]])
    g = neighbors.knn(pointcloud.PointCloud(pts), 2)
    rho0 = density.pilot_bandwidth(g, k0=2)
    np.testing.assert_allclose(rho0, np.sqrt(2.0), atol=1e-15)


def test_pilot_bandwidth_rms_formula():
    # five collinear points; hand-computed RMS over neighbors 2..4 of point 0
    pts = np.array([[0.0], [1.0], [2.0], [3.0], [10.0]])
    g = neighbors.knn(pointcloud.PointCloud(pts), 5)
    rho0 = density.pilot_bandwidth(g, k0=4)
    np.testing.assert_allclose(rho0[0], np.sqrt((1 + 4 + 9) / 3), atol=1e-15)
    np.testing.assert_allclose(rho0[1], np.sqrt((1 + 1 + 4) / 3), atol=1e-15)


def test_pilot_bandwidth_raises_on_repeated_points():
    pts = np.zeros((4, 2))
    pts[3] = [1.0, 0.0]
    g = neighbors.knn(pointcloud.PointCloud(pts), 3)
    with pytest.raises(DuplicatePoints):
        density.pilot_bandwidth(g, k0=3)


def test_kde_two_point_oracle():
    # q0 = (2 pi)^{-1/2} (1 + e^{-r^2/2}) / 2 at unit pilot bandwidth;
    # r = sqrt(2) gives 0.2728524717875863 (hand evaluation)
    pts = np.array([[0.0], [np.sqrt(2.0)]])
    cloud = pointcloud.PointCloud(pts, intrinsic_dim=1)
    q0 = density.kde_pilot(cloud, np.ones(2))
    np.testing.assert_allclose(q0, 0.2728524717875863, atol=1e-15)


def test_kde_two_point_with_pilot_bandwidth():
    # with rho0 = r the kernel argument becomes 1/2:
    # q0 = (1 + e^{-1/2}) / (2 r sqrt(2 pi)) = 0.22659696596499324
    r = np.sqrt(2.0)
    pts = np.array([[0.0], [r]])
    cloud = pointcloud.PointCloud(pts, intrinsic_dim=1)
    g = neighbors.knn(cloud, 2)
    rho0 = density.pilot_bandwidth(g, k0=2)
    q0 = density.kde_pilot(cloud, rho0)
    np.testing.assert_allclose(q0, 0.22659696596499324, atol=1e-15)


def test_kde_matches_per_point_naive_sum():
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((50, 2))
    rho0 = np.exp(0.4 * rng.standard_normal(50))
    q0 = density.kde_pilot(pointcloud.PointCloud(pts, intrinsic_dim=2), rho0)
    want = []
    for i in range(50):
        total = math.fsum(
            math.exp(-float(np.sum((pts[i] - pts[j]) ** 2)) / (2.0 * rho0[i] * rho0[j]))
            for j in range(50))
        want.append(total / (2.0 * math.pi * rho0[i] ** 2 * 50))
    np.testing.assert_allclose(q0, want, rtol=1e-13, atol=0.0)


def test_kde_sparse_path_matches_dense():
    # entries beyond the k = 60 support are below exp(-60) here, so the
    # truncated sum agrees with the all-pairs sum to rounding
    cloud = pointcloud.gen_circle_uniform(300)
    g = neighbors.knn(cloud, 60)
    rho0 = density.pilot_bandwidth(g)
    dense_q0 = density.kde_pilot(cloud, rho0)
    support = neighbors.symmetrized_support(cloud, 60)
    sparse_q0 = density.kde_pilot(cloud, rho0, support=support)
    np.testing.assert_allclose(sparse_q0, dense_q0, rtol=1e-12)


@pytest.mark.parametrize("block", [1, 7, 10_000])
def test_truncated_kde_in_row_blocks(monkeypatch, block):
    rng = np.random.default_rng(29)
    pts = rng.standard_normal((50, 2))
    rho0 = np.exp(0.4 * rng.standard_normal(50))
    cloud = pointcloud.PointCloud(pts, intrinsic_dim=2)
    graph = neighbors.knn(cloud, 8)
    support = neighbors.symmetrized_support(cloud, 8)
    whole = density.kde_pilot(cloud, rho0, support=support)  # one block
    monkeypatch.setattr(neighbors, "_SUPPORT_BLOCK", block)
    q0 = density.kde_pilot(cloud, rho0, support=support)
    np.testing.assert_array_equal(q0, whole)
    want = [math.fsum(
        math.exp(-float(np.sum((pts[i] - pts[j]) ** 2)) / (2.0 * rho0[i] * rho0[j]))
        for j in row) / (2.0 * math.pi * rho0[i] ** 2 * 50)
        for i, row in enumerate(knn_union(graph.indices))]
    np.testing.assert_allclose(q0, want, rtol=1e-13, atol=0.0)


def test_kde_estimates_uniform_circle_density():
    # true density against arc length is 1/(2 pi)
    cloud = pointcloud.gen_circle_uniform(1000)
    prof = _profile(cloud, beta=-0.5)
    np.testing.assert_allclose(prof.q0, 1 / (2 * np.pi), rtol=2e-3)


def test_kde_estimates_gaussian_density():
    cloud = pointcloud.gen_gaussian_nice_1d(2000)
    prof = _profile(cloud, beta=-0.5)
    x = cloud.points[:, 0]
    true = np.exp(-x**2 / 2) / np.sqrt(2 * np.pi)
    bulk = np.abs(x) < 2
    np.testing.assert_allclose(prof.q0[bulk], true[bulk], rtol=2e-2)


def test_bandwidth_power_law():
    # the bandwidth is the density's power, rho = q0^beta; on the two-point
    # cloud with k0 = 2, q0 = 0.22659696596499324 at both points (see
    # test_kde_two_point_with_pilot_bandwidth), so at beta = -0.5
    # rho = q0^{-1/2} = 2.100743143385977, and beta = 0 is a fixed bandwidth
    cloud = pointcloud.PointCloud(np.array([[0.0], [np.sqrt(2.0)]]),
                                  intrinsic_dim=1)
    g = neighbors.knn(cloud, 2)
    prof = density.bandwidth_profile(cloud, g, -0.5, k0=2)
    np.testing.assert_allclose(prof.rho, 2.100743143385977, atol=1e-14)
    np.testing.assert_array_equal(prof.rho, prof.q0 ** -0.5)
    flat = density.bandwidth_profile(cloud, g, 0.0, k0=2)
    np.testing.assert_array_equal(flat.rho, np.ones(2))


def test_c_constants_pinned_values():
    assert density.c_constants(-0.25, -0.5, 1) == (1.0, -0.25)
    assert density.c_constants(0.25, -0.5, 1) == (0.0, -0.25)
    assert density.c_constants(0.5, 0.0, 1) == (1.0, 0.5)
    assert density.c_constants(1.0, 0.0, 2) == (0.0, 2.5)
    assert density.c_constants(0.0, -0.5, 2) == (0.0, -0.5)


def test_profile_requires_dimension():
    cloud = pointcloud.PointCloud(np.random.default_rng(0).standard_normal((20, 2)))
    g = neighbors.knn(cloud, 8)
    with pytest.raises(ValueError, match="dimension"):
        density.bandwidth_profile(cloud, g, beta=-0.5)
    with pytest.raises(ValueError, match="dimension"):
        density.kde_pilot(cloud, np.ones(20))
    prof = density.bandwidth_profile(replace(cloud, intrinsic_dim=2), g,
                                     beta=-0.5)
    assert np.all(np.isfinite(prof.rho))


def test_kde_scaling_invariance():
    # scaling all points by c scales rho0 by c and q0 by 1/c^d (d = 1)
    cloud = pointcloud.gen_gaussian_nice_1d(200)
    scaled = pointcloud.PointCloud(cloud.points * 3.0, latent=cloud.latent,
                                   intrinsic_dim=1)
    p1 = _profile(cloud, beta=-0.5)
    p2 = _profile(scaled, beta=-0.5)
    np.testing.assert_allclose(p2.rho0, 3.0 * p1.rho0, rtol=1e-12)
    np.testing.assert_allclose(p2.q0, p1.q0 / 3.0, rtol=1e-12)


def test_save_csv_layout(tmp_path):
    cloud = pointcloud.gen_circle_uniform(20)
    prof = _profile(cloud, beta=-0.5)
    path = tmp_path / "bandwidth.csv"
    density.save_csv(prof, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,rho0,q0,rho"
    assert len(lines) == 21
    row = lines[1].split(",")
    np.testing.assert_allclose(float(row[1]), prof.rho0[0], rtol=1e-15)
