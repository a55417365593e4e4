import numpy as np
import pytest
from numpy.polynomial.hermite_e import hermegauss

from vbdiffusion import analytic, pointcloud
from vbdiffusion.errors import NoLatent
from vbdiffusion.pointcloud import PointCloud


def test_hermite_pinned_values():
    # He_3(1)/sqrt(3!) = -2/sqrt(6); He_4(0)/sqrt(4!) = 3/sqrt(24)
    assert analytic.hermite(3, np.array([1.0]))[0] == pytest.approx(
        -0.81649658092772603, rel=1e-15)
    assert analytic.hermite(4, np.array([0.0]))[0] == pytest.approx(
        0.61237243569579447, rel=1e-15)
    x = np.linspace(-2, 2, 9)
    assert np.array_equal(analytic.hermite(0, x), np.ones(9))
    assert np.array_equal(analytic.hermite(1, x), x)
    for bad in (-1, 7):
        with pytest.raises(ValueError):
            analytic.hermite(bad, x)


def test_hermite_orthonormal_under_gaussian_weight():
    nodes, weights = hermegauss(40)
    for i in range(7):
        for j in range(i, 7):
            inner = np.sum(weights * analytic.hermite(i, nodes)
                           * analytic.hermite(j, nodes)) / np.sqrt(2.0 * np.pi)
            assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


def test_target_eigenvalues():
    assert analytic.hermite_target(3).eigenvalue == -3.0
    assert analytic.ou2d_target(2, 1).eigenvalue == -3.0
    assert analytic.circle_target(2, "cos").eigenvalue == -4.0
    assert analytic.sphere_coordinate_target(0).eigenvalue == -2.0


def test_targets_evaluate_in_latent_coordinates():
    cloud = pointcloud.gen_circle_uniform(64)
    theta = cloud.latent[:, 0]
    got = analytic.circle_target(3, "sin").evaluate(cloud)
    assert np.allclose(got, np.sin(3.0 * theta), atol=1e-12)
    bare = PointCloud(points=cloud.points, label="no-latent")
    with pytest.raises(NoLatent):
        analytic.circle_target(1, "cos").evaluate(bare)
    # hermite targets fall back to the first ambient coordinate
    line = PointCloud(points=np.linspace(-2, 2, 11)[:, None], intrinsic_dim=1,
                      label="line")
    got = analytic.hermite_target(2).evaluate(line)
    assert np.allclose(got, analytic.hermite(2, line.points[:, 0]), atol=1e-14)


def test_reference_laplacian_on_circle():
    cloud = pointcloud.gen_circle_uniform(50)
    got = analytic.reference_operator("laplacian", cloud)
    assert np.allclose(got, -np.sin(cloud.latent[:, 0]), atol=1e-12)


def test_reference_bandwidth_drift_on_circle():
    # rho = exp(cos t), d = 1: lap f + 3 (log rho)' f' = -sin - 3 sin cos
    cloud = pointcloud.gen_circle_uniform(50)
    t = cloud.latent[:, 0]
    got = analytic.reference_operator("bandwidth_drift", cloud)
    assert np.allclose(got, -np.sin(t) - 3.0 * np.sin(t) * np.cos(t), atol=1e-12)


def test_reference_gradient_flow_on_circle():
    cloud = pointcloud.gen_circle_uniform(50)
    t = cloud.latent[:, 0]
    got = analytic.reference_operator("gradient_flow", cloud, c1=2.0)
    assert np.allclose(got, -np.sin(t) - 2.0 * np.sin(t) * np.cos(t), atol=1e-12)


def _at(*angles):
    """A circle (one angle array) or torus (two) cloud at these latent angles."""
    latent = np.column_stack(angles)
    points = np.column_stack([fn(a) for a in angles for fn in (np.cos, np.sin)])
    return PointCloud(points, latent=latent, intrinsic_dim=len(angles),
                      label="angles")


def test_reference_operator_hand_derived_values():
    # f = sin t, g = cos t: L f = -sin t - c sin t cos t. At t = pi/2 the
    # drift vanishes; at t = pi/4, 3pi/4 and -pi/4, sin t cos t = +-1/2
    r = np.sqrt(0.5)
    theta = np.array([np.pi / 2, np.pi / 4, 3 * np.pi / 4, -np.pi / 4])
    lap = np.array([-1.0, -r, -r, r])
    sin_cos = np.array([0.0, 0.5, -0.5, -0.5])
    circle = _at(theta)
    for kind, c, c1 in (("laplacian", 0.0, None), ("gradient_flow", 2.0, 2.0),
                        ("bandwidth_drift", 3.0, None)):  # c = d + 2, d = 1
        got = analytic.reference_operator(kind, circle, c1=c1)
        np.testing.assert_allclose(got, lap - c * sin_cos, rtol=0, atol=1e-15)
    # torus grid, d = 2: c = 4 in the first angle, and the second changes
    # nothing; the grid holds t = pi/4 and t = pi/2 on eight circles each
    torus = pointcloud.gen_torus_grid(8)
    ta, tb = torus.latent[:, 0], torus.latent[:, 1]
    got = analytic.reference_operator("bandwidth_drift", torus)
    for t, want in ((np.pi / 4, -r - 4.0 * 0.5), (np.pi / 2, -1.0)):
        at = np.isclose(ta, t)
        assert at.sum() == 8 and np.unique(tb[at]).size == 8
        np.testing.assert_allclose(got[at], want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind, c1", [("laplacian", None),
                                      ("gradient_flow", -0.7),
                                      ("bandwidth_drift", None)])
@pytest.mark.parametrize("dim", [1, 2])
def test_reference_operator_matches_central_differences(kind, c1, dim):
    # lap f + c g' f' from central differences of sin and cos with step h.
    # By Taylor the second difference is off by at most h^2/12 max|f''''|
    # and each first difference by at most h^2/6 max|f'''|, each max 1, so
    # the drift is off by at most |c| (h^2/3 + h^4/36). With sin and cos
    # within an ulp (2u, u the unit roundoff), rounding adds about 8u/h^2
    # and 4|c|u/h
    rng = np.random.default_rng(7)
    angles = rng.uniform(0.0, 2.0 * np.pi, (dim, 200))
    theta = angles[0]
    c = {"laplacian": 0.0, "gradient_flow": c1, "bandwidth_drift": dim + 2}[kind]
    h, u = 1e-3, np.finfo(float).eps / 2

    def slope(fn):
        return (fn(theta + h) - fn(theta - h)) / (2.0 * h)

    oracle = ((np.sin(theta + h) - 2.0 * np.sin(theta) + np.sin(theta - h))
              / h**2 + c * slope(np.cos) * slope(np.sin))
    tol = (h**2 / 12 + abs(c) * (h**2 / 3 + h**4 / 36)
           + 8 * u / h**2 + 4 * abs(c) * u / h)
    got = analytic.reference_operator(kind, _at(*angles), c1=c1)
    err = np.max(np.abs(got - oracle))
    assert err <= tol, (err, tol)


def test_reference_operator_validation():
    cloud = pointcloud.gen_circle_uniform(20)
    with pytest.raises(ValueError, match="kind"):
        analytic.reference_operator("divergence", cloud)
    with pytest.raises(ValueError, match="c1"):
        analytic.reference_operator("gradient_flow", cloud)
    no_dim = PointCloud(points=cloud.points, latent=cloud.latent, label="no-d")
    with pytest.raises(ValueError, match="intrinsic dimension"):
        analytic.reference_operator("bandwidth_drift", no_dim)
    bare = PointCloud(points=cloud.points, label="no-latent")
    with pytest.raises(NoLatent):
        analytic.reference_operator("laplacian", bare)
