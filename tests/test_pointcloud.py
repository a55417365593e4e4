import numpy as np
import pytest

from vbdiffusion import pointcloud
from vbdiffusion.errors import InvalidCovariance, WrongManifold


def test_cloud_validates_shape_and_finiteness():
    with pytest.raises(ValueError):
        pointcloud.PointCloud(np.zeros(3))
    with pytest.raises(ValueError):
        pointcloud.PointCloud(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        pointcloud.PointCloud(np.array([[0.0, np.nan], [1.0, 2.0]]))


def test_cloud_is_read_only():
    cloud = pointcloud.gen_circle_uniform(8)
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 5.0
    with pytest.raises(ValueError):
        cloud.latent[0, 0] = 5.0


def test_scalar_latent_gets_column_shape():
    cloud = pointcloud.PointCloud(np.zeros((4, 2)), latent=np.arange(4.0))
    assert cloud.latent.shape == (4, 1)


def test_circle_uniform_grid():
    cloud = pointcloud.gen_circle_uniform(12)
    assert cloud.n_points == 12
    assert cloud.ambient_dim == 2
    assert cloud.intrinsic_dim == 1
    np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-15)
    np.testing.assert_allclose(np.diff(cloud.latent[:, 0]), 2 * np.pi / 12, atol=1e-15)


def test_circle_nonuniform_inverts_its_cdf():
    # the generator must satisfy F(theta_i) = i/(N+1) for the target CDF
    # F(t) = (2 t + sin t)/(4 pi); residual bounded by the bisection tolerance
    n = 200
    cloud = pointcloud.gen_circle_nonuniform(n)
    theta = cloud.latent[:, 0]
    resid = (2 * theta + np.sin(theta)) / (4 * np.pi) - np.arange(1, n + 1) / (n + 1)
    # d(theta)/d(target) = 4 pi / (2 + cos) <= 4 pi, so 1e-12 angular tolerance
    # leaves at most ~1e-13 CDF residual
    assert np.max(np.abs(resid)) < 1e-12
    assert np.all(np.diff(theta) > 0)


def test_circle_from_density_matches_bisection_grid():
    # trapezoid-CDF interpolation and direct bisection must agree on the same law
    n = 50
    by_interp = pointcloud.gen_circle_from_density(
        n, lambda t: np.log(2.0 + np.cos(t)))
    by_bisect = pointcloud.gen_circle_nonuniform(n)
    np.testing.assert_allclose(by_interp.latent[:, 0], by_bisect.latent[:, 0],
                               atol=1e-8)


def test_gaussian_nice_grid_matches_normal_quantiles():
    # oracle: scipy.stats.norm.ppf (ndtri), a separate implementation from erfinv
    cloud = pointcloud.gen_gaussian_nice_1d(5)
    x = cloud.points[:, 0]
    np.testing.assert_allclose(x[0], -0.96742156610170105, atol=1e-14)
    np.testing.assert_allclose(x[-1], 0.96742156610170105, atol=1e-14)
    assert x[2] == 0.0
    np.testing.assert_allclose(x, -x[::-1], atol=1e-15)
    big = pointcloud.gen_gaussian_nice_1d(100).points[:, 0]
    np.testing.assert_allclose(big[0], -2.3300789227879108, atol=1e-12)


def test_gaussian_random_mean_and_covariance():
    n = 40000
    cov = np.array([[2.0, 0.5], [0.5, 1.0]])
    cloud = pointcloud.gen_gaussian_random(n, 2, cov=cov, seed=3)
    # CLT: per-coordinate mean within 4 sigma/sqrt(N)
    bound = 4 * np.sqrt(np.diag(cov) / n)
    assert np.all(np.abs(cloud.points.mean(axis=0)) < bound)
    emp = cloud.points.T @ cloud.points / n
    np.testing.assert_allclose(emp, cov, atol=0.1)


def test_gaussian_random_rejects_bad_covariance():
    with pytest.raises(InvalidCovariance):
        pointcloud.gen_gaussian_random(10, 2, cov=np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(InvalidCovariance):
        pointcloud.gen_gaussian_random(10, 2, cov=np.array([[1.0, 2.0], [2.0, 1.0]]))
    # the sphere samples through the same checks: asymmetric, indefinite,
    # and of the wrong shape for R^3
    for cov in (np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                np.diag([1.0, -1.0, 1.0]), np.eye(2)):
        with pytest.raises(InvalidCovariance):
            pointcloud.gen_sphere_nonuniform(10, cov=cov)


def test_sphere_points_have_unit_norm_and_fixed_seed():
    cloud = pointcloud.gen_sphere_nonuniform(500, seed=0)
    np.testing.assert_allclose(np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-12)
    again = pointcloud.gen_sphere_nonuniform(500, seed=0)
    np.testing.assert_array_equal(cloud.points, again.points)
    other = pointcloud.gen_sphere_nonuniform(500, seed=1)
    assert not np.array_equal(cloud.points, other.points)


def test_sphere_identity_covariance_is_roughly_uniform():
    # with isotropic draws each octant holds N/8 in expectation; allow 5 sigma
    n = 16000
    cloud = pointcloud.gen_sphere_nonuniform(n, cov=np.eye(3), seed=2)
    signs = cloud.points > 0
    octant = signs @ np.array([1, 2, 4])
    counts = np.bincount(octant, minlength=8)
    p = 1 / 8
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 5 * sigma)


def test_torus_grid_chordal_distances():
    # embedding (cos a, sin a, cos b, sin b) has squared chordal distance
    # 4 (sin^2(da/2) + sin^2(db/2)); check against direct norms
    cloud = pointcloud.gen_torus_grid(7)
    assert cloud.n_points == 49
    assert cloud.ambient_dim == 4
    a, b = cloud.latent[:, 0], cloud.latent[:, 1]
    i, j = 5, 40
    lhs = np.sum((cloud.points[i] - cloud.points[j]) ** 2)
    rhs = 4 * (np.sin((a[i] - a[j]) / 2) ** 2 + np.sin((b[i] - b[j]) / 2) ** 2)
    np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_perturb_circle_wraps_and_is_seeded():
    base = pointcloud.gen_circle_nonuniform(100)
    pert = pointcloud.perturb_circle(base, 0.5, seed=0)
    assert pert.latent[:, 0].min() >= 0 and pert.latent[:, 0].max() < 2 * np.pi
    shift = pert.latent[:, 0] - base.latent[:, 0]
    shift = np.mod(shift, 2 * np.pi)
    assert shift.max() < 0.5
    again = pointcloud.perturb_circle(base, 0.5, seed=0)
    np.testing.assert_array_equal(pert.points, again.points)


def test_perturb_circle_rejects_non_circle():
    flat = pointcloud.gen_gaussian_nice_1d(10)
    with pytest.raises(WrongManifold):
        pointcloud.perturb_circle(flat, 0.5)


def test_csv_round_trip(tmp_path):
    cloud = pointcloud.gen_torus_grid(5)
    path = tmp_path / "torus.csv"
    pointcloud.save_csv(cloud, path)
    assert path.read_text().splitlines()[0] == "x1,x2,x3,x4,theta,phi"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back[:, :4], cloud.points)
    np.testing.assert_array_equal(back[:, 4:], cloud.latent)


def test_csv_round_trip_without_latent(tmp_path):
    cloud = pointcloud.gen_sphere_nonuniform(20, seed=0)
    path = tmp_path / "sphere.csv"
    pointcloud.save_csv(cloud, path)
    assert path.read_text().splitlines()[0] == "x1,x2,x3"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_array_equal(back, cloud.points)
