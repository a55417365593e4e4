"""Closed-form eigenfunctions and reference operators for validation.

Discrete estimates are compared against these exact objects evaluated at
the sample points. Every operator check applies its generator to one
function f of the first latent coordinate theta (arc length, so the
Laplacian is the second derivative in theta) with one log density g, and
the reference operator is written out in closed form, free of
finite-difference error.
"""

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from .errors import NoLatent

MAX_HERMITE = 6
_KINDS = ("laplacian", "gradient_flow", "bandwidth_drift")
# the operator checks' f and their g = log q = log rho, both of theta
CHECK_F, CHECK_G = np.sin, np.cos


def hermite(n, x):
    """Probabilists' Hermite polynomial, normalized to unit Gaussian L2 norm.

    He_n / sqrt(n!) for n up to 6: these are the Ornstein-Uhlenbeck
    eigenfunctions with eigenvalue -n.
    """
    if not 0 <= n <= MAX_HERMITE:
        raise ValueError(f"hermite order must be in [0, {MAX_HERMITE}]")
    x = np.asarray(x, dtype=float)
    prev, cur = np.ones_like(x), x.copy()
    if n == 0:
        return prev
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur / np.sqrt(factorial(n))


def ou2d_eigenfunction(nx, ny, pts):
    """Product eigenfunction H_nx(x) H_ny(y) with eigenvalue -(nx + ny)."""
    pts = np.asarray(pts, dtype=float)
    return hermite(nx, pts[:, 0]) * hermite(ny, pts[:, 1])


def circle_eigenfunction(k, parity, theta):
    """sin(k theta) or cos(k theta), the circle Laplacian eigenfunctions (-k^2)."""
    if parity not in ("sin", "cos"):
        raise ValueError("parity must be 'sin' or 'cos'")
    if k < 0 or (k == 0 and parity == "sin"):
        raise ValueError("need k >= 1 for sin and k >= 0 for cos")
    theta = np.asarray(theta, dtype=float)
    return np.sin(k * theta) if parity == "sin" else np.cos(k * theta)


@dataclass(frozen=True)
class AnalyticTarget:
    """A known eigenfunction with its eigenvalue, evaluable on a cloud."""

    eigenvalue: float
    evaluate: Callable


def _latent_or_points(cloud):
    return cloud.latent if cloud.latent is not None else cloud.points


def hermite_target(n):
    return AnalyticTarget(
        float(-n), lambda cloud: hermite(n, _latent_or_points(cloud)[:, 0]))


def ou2d_target(nx, ny):
    return AnalyticTarget(
        float(-(nx + ny)),
        lambda cloud: ou2d_eigenfunction(nx, ny, _latent_or_points(cloud)))


def circle_target(k, parity):
    def _eval(cloud):
        if cloud.latent is None:
            raise NoLatent("circle eigenfunctions need the angular latent")
        return circle_eigenfunction(k, parity, cloud.latent[:, 0])
    return AnalyticTarget(float(-k * k), _eval)


def sphere_coordinate_target(axis):
    return AnalyticTarget(-2.0, lambda cloud: cloud.points[:, axis])


def reference_operator(kind, cloud, c1=None):
    """Exact limiting operator applied to f = CHECK_F(theta), at the points.

    ``kind`` selects the drift c grad(g) . grad f added to lap f, with
    g = CHECK_G(theta) = log q = log rho: 'laplacian' takes c = 0,
    'gradient_flow' c = ``c1`` and 'bandwidth_drift' c = d + 2. As f'' = -f,
    f' = g and g' = -f, the operator is -c f g - f, evaluated in that order.
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    if cloud.latent is None:
        raise NoLatent("reference operators are evaluated in latent coordinates")
    c = 0.0  # a float: at theta = 0, -c f g - f is then -0.0, as -f is
    if kind == "gradient_flow":
        if c1 is None:
            raise ValueError("gradient_flow needs c1")
        c = c1
    elif kind == "bandwidth_drift":
        if cloud.intrinsic_dim is None:
            raise ValueError("bandwidth_drift needs the intrinsic dimension")
        c = cloud.intrinsic_dim + 2
    theta = cloud.latent[:, 0]
    f, g = CHECK_F(theta), CHECK_G(theta)
    return -c * f * g - f
