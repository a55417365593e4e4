import numpy as np
import pytest
import sympy as sym
from numpy.polynomial.hermite_e import hermegauss

from vbdiffusion import analytic, pointcloud
from vbdiffusion.errors import NoLatent
from vbdiffusion.pointcloud import PointCloud

THETA, PHI = sym.symbols("theta phi")


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
    got = analytic.reference_operator("laplacian", sym.sin(THETA), cloud, (THETA,))
    assert np.allclose(got, -np.sin(cloud.latent[:, 0]), atol=1e-12)


def test_reference_bandwidth_drift_on_circle():
    # rho = exp(cos t), d = 1: lap f + 3 (log rho)' f' = -sin - 3 sin cos
    cloud = pointcloud.gen_circle_uniform(50)
    t = cloud.latent[:, 0]
    got = analytic.reference_operator("bandwidth_drift", sym.sin(THETA), cloud,
                                      (THETA,), rho_expr=sym.exp(sym.cos(THETA)))
    assert np.allclose(got, -np.sin(t) - 3.0 * np.sin(t) * np.cos(t), atol=1e-12)


def test_reference_gradient_flow_on_circle():
    cloud = pointcloud.gen_circle_uniform(50)
    t = cloud.latent[:, 0]
    got = analytic.reference_operator("gradient_flow", sym.sin(THETA), cloud,
                                      (THETA,), c1=2.0,
                                      q_expr=sym.exp(sym.cos(THETA)))
    assert np.allclose(got, -np.sin(t) - 2.0 * np.sin(t) * np.cos(t), atol=1e-12)


def test_reference_operator_validation():
    cloud = pointcloud.gen_circle_uniform(20)
    f = sym.sin(THETA)
    with pytest.raises(ValueError, match="kind"):
        analytic.reference_operator("divergence", f, cloud, (THETA,))
    with pytest.raises(ValueError, match="c1"):
        analytic.reference_operator("gradient_flow", f, cloud, (THETA,))
    with pytest.raises(ValueError, match="rho_expr"):
        analytic.reference_operator("bandwidth_drift", f, cloud, (THETA,))
    with pytest.raises(ValueError, match="symbol"):
        analytic.reference_operator("laplacian", f, cloud, (THETA, PHI))
    bare = PointCloud(points=cloud.points, label="no-latent")
    with pytest.raises(NoLatent):
        analytic.reference_operator("laplacian", f, bare, (THETA,))


def test_constant_reference_broadcasts():
    cloud = pointcloud.gen_circle_uniform(16)
    got = analytic.reference_operator("laplacian", THETA, cloud, (THETA,))
    assert got.shape == (16,)
    assert np.array_equal(got, np.zeros(16))
