"""Closed-form eigenfunctions and reference operators for validation.

Discrete estimates are compared against these exact objects evaluated at
the sample points. Derivatives for the reference operators are taken
symbolically in the latent coordinates, so references are never polluted by
finite-difference error.
"""

from dataclasses import dataclass
from math import factorial
from typing import Callable

import numpy as np

from .errors import NoLatent

MAX_HERMITE = 6
_KINDS = ("laplacian", "gradient_flow", "bandwidth_drift")


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

    label: str
    eigenvalue: float
    evaluate: Callable


def _latent_or_points(cloud):
    return cloud.latent if cloud.latent is not None else cloud.points


def hermite_target(n):
    return AnalyticTarget(
        label=f"hermite-{n}", eigenvalue=float(-n),
        evaluate=lambda cloud: hermite(n, _latent_or_points(cloud)[:, 0]))


def ou2d_target(nx, ny):
    return AnalyticTarget(
        label=f"ou2d-{nx}{ny}", eigenvalue=float(-(nx + ny)),
        evaluate=lambda cloud: ou2d_eigenfunction(nx, ny, _latent_or_points(cloud)))


def circle_target(k, parity):
    def _eval(cloud):
        if cloud.latent is None:
            raise NoLatent("circle eigenfunctions need the angular latent")
        return circle_eigenfunction(k, parity, cloud.latent[:, 0])
    return AnalyticTarget(label=f"circle-{parity}{k}", eigenvalue=float(-k * k),
                          evaluate=_eval)


def sphere_coordinate_target(axis):
    return AnalyticTarget(
        label=f"sphere-x{axis + 1}", eigenvalue=-2.0,
        evaluate=lambda cloud: cloud.points[:, axis])


def reference_operator(kind, f_expr, cloud, symbols, c1=None, rho_expr=None,
                       q_expr=None):
    """Exact limiting operator applied to f, evaluated at the latent points.

    ``kind`` selects the drift: 'laplacian' gives lap f; 'gradient_flow'
    gives lap f + c1 grad(log q) . grad f; 'bandwidth_drift' gives
    lap f + (d+2) grad(log rho) . grad f. Expressions are sympy expressions
    in ``symbols``, one symbol per latent coordinate (the latent coordinates
    of every generator in this package are arc-length, so the Laplacian is
    the flat sum of second derivatives).
    """
    import sympy as sym  # loaded here: only reference operators need it

    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}")
    if cloud.latent is None:
        raise NoLatent("reference operators are evaluated in latent coordinates")
    symbols = tuple(symbols)
    if len(symbols) != cloud.latent.shape[1]:
        raise ValueError("need one symbol per latent coordinate")
    expr = sum(sym.diff(f_expr, s, 2) for s in symbols)
    if kind == "gradient_flow":
        if c1 is None or q_expr is None:
            raise ValueError("gradient_flow needs c1 and q_expr")
        log_q = sym.log(q_expr)
        expr = expr + c1 * sum(sym.diff(log_q, s) * sym.diff(f_expr, s)
                               for s in symbols)
    elif kind == "bandwidth_drift":
        if rho_expr is None:
            raise ValueError("bandwidth_drift needs rho_expr")
        d = cloud.intrinsic_dim
        if d is None:
            raise ValueError("bandwidth_drift needs the intrinsic dimension")
        log_rho = sym.log(rho_expr)
        expr = expr + (d + 2) * sum(sym.diff(log_rho, s) * sym.diff(f_expr, s)
                                    for s in symbols)
    fn = sym.lambdify(symbols, expr, "numpy")
    cols = [cloud.latent[:, j] for j in range(cloud.latent.shape[1])]
    return np.broadcast_to(np.asarray(fn(*cols), dtype=float),
                           (cloud.n_points,)).copy()
