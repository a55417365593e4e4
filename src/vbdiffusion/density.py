"""Pilot bandwidths, kernel density estimate, and the bandwidth power law.

The pipeline is: squared-distance average over the first few neighbors gives
a pilot bandwidth rho0, a Gaussian KDE with that pilot bandwidth gives a
density estimate q0, and the final kernel bandwidth is rho = q0**beta. The
KDE normalizes by the cloud's intrinsic dimension, ``cloud.intrinsic_dim``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import squareform

from .errors import DuplicatePoints
from .kernel import kernel_products
from .neighbors import scaled_pairs


@dataclass(frozen=True)
class BandwidthProfile:
    """Per-point bandwidth data shared by every epsilon in a sweep.

    ``rho0`` is the pilot bandwidth, ``eps0`` the squared mean pilot
    bandwidth, ``q0`` the density estimate, and ``rho = q0**beta`` the final
    kernel bandwidth.
    """

    rho0: np.ndarray
    eps0: float
    q0: np.ndarray
    rho: np.ndarray


def pilot_bandwidth(graph, k0=8):
    """Root mean square distance to neighbors 2..k0 (self excluded).

    Raises :class:`DuplicatePoints` when any pilot bandwidth is exactly zero,
    which happens only when a point is repeated at least k0 - 1 times.
    """
    if graph.k < k0:
        raise ValueError(f"graph has k={graph.k} < k0={k0} neighbors")
    if k0 < 2:
        raise ValueError("k0 must be at least 2")
    rho0 = np.sqrt(np.mean(graph.distances[:, 1:k0] ** 2, axis=1))
    if np.any(rho0 == 0.0):
        raise DuplicatePoints(np.nonzero(rho0 == 0.0)[0])
    return rho0


def kde_pilot(cloud, rho0, support=None):
    """Variable-bandwidth Gaussian density estimate at the sample points.

    Returns ``(q0, eps0)`` where eps0 is the squared mean pilot bandwidth.
    The estimate at point i is

        q0_i = (2 pi)^(-d/2) / (rho0_i^d N) * sum_l exp(-r_il^2 / (2 rho0_i rho0_l))

    with d the cloud's intrinsic dimension and the l = i term included.
    Without a ``support`` (:class:`neighbors.SupportPairs`) the sum runs
    over all pairs; with one it is truncated to the support, whose strict
    upper triangle is stored with the diagonal implicit. Either way each pair is computed once and
    added to both of its points' sums.
    """
    d = cloud.intrinsic_dim
    if d is None:
        raise ValueError("the cloud's intrinsic dimension is unknown")
    n = cloud.n_points
    eps0 = float(np.mean(rho0)) ** 2
    if support is None:
        vals = np.exp(scaled_pairs(cloud, rho0) / -2.0)
        sums = squareform(vals).sum(axis=1) + 1.0  # + the l = i term
    else:
        # exp(-r^2 / (2 rho0_i rho0_l)) is the generator kernel at eps = 1/2
        sums, = kernel_products(cloud, rho0, 0.5, "symmetric", np.ones(n),
                                support=support)
    q0 = (2.0 * np.pi) ** (-d / 2.0) / (rho0**d * n) * sums
    return q0, eps0


def bandwidth_from_density(q0, beta):
    """Final kernel bandwidth rho = q0**beta (beta = 0 gives a fixed bandwidth)."""
    return np.asarray(q0, dtype=float) ** beta


def c_constants(alpha, beta, d):
    """Drift coefficients of the limiting operator for given (alpha, beta, d).

    Returns ``(c1, c2)``; the limit acts as f -> lap f + c1 grad(log q) . grad f,
    and c2 > 0 signals error-divergence on unbounded densities.
    """
    c1 = 2.0 - 2.0 * alpha + d * beta + 2.0 * beta
    c2 = 0.5 - 2.0 * alpha + 2.0 * d * alpha + d * beta / 2.0 + beta
    return c1, c2


def bandwidth_profile(cloud, graph, beta, k0=8, support=None):
    """Run the full pilot -> KDE -> power-law cascade for one cloud.

    ``support`` (:class:`neighbors.SupportPairs`) truncates the KDE; see
    :func:`kde_pilot`.
    """
    rho0 = pilot_bandwidth(graph, k0=k0)
    q0, eps0 = kde_pilot(cloud, rho0, support=support)
    rho = bandwidth_from_density(q0, beta)
    return BandwidthProfile(rho0=rho0, eps0=eps0, q0=q0, rho=rho)


def save_csv(profile, path):
    """Write per-point bandwidth columns as CSV (i, rho0, q0, rho)."""
    n = profile.rho0.shape[0]
    out = np.column_stack([np.arange(n), profile.rho0, profile.q0, profile.rho])
    np.savetxt(path, out, fmt=["%d", "%.17g", "%.17g", "%.17g"], delimiter=",",
               header="i,rho0,q0,rho", comments="")
