"""Pilot bandwidths, kernel density estimate, and the bandwidth power law.

The pipeline is: squared-distance average over the first few neighbors gives
a pilot bandwidth rho0, a Gaussian KDE with that pilot bandwidth gives a
density estimate q0, and the final kernel bandwidth is rho = q0**beta. The
KDE normalizes by the cloud's intrinsic dimension, ``cloud.intrinsic_dim``.
"""

from dataclasses import dataclass

import numpy as np

from . import neighbors
from .errors import DuplicatePoints
from .kernel import kernel_products


@dataclass(frozen=True)
class BandwidthProfile:
    """Per-point bandwidth data shared by every epsilon in a sweep.

    ``rho0`` is the pilot bandwidth, ``q0`` the density estimate, and
    ``rho = q0**beta`` the final kernel bandwidth.
    """

    rho0: np.ndarray
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

    Returns ``q0``, whose entry at point i is

        q0_i = (2 pi)^(-d/2) / (rho0_i^d N) * sum_l exp(-r_il^2 / (2 rho0_i rho0_l))

    with d the cloud's intrinsic dimension and the l = i term included.
    Without a ``support`` (:class:`neighbors.SupportPairs`) the sum runs
    over all pairs, held once in ``pdist``'s condensed array, which is
    exponentiated in place and summed into both points of each pair a block
    of rows at a time, never as a square matrix. With a support the sum is
    truncated to it, whose strict upper triangle is stored with the diagonal
    implicit. Either way each pair is computed once.
    """
    d = cloud.intrinsic_dim
    if d is None:
        raise ValueError("the cloud's intrinsic dimension is unknown")
    n = cloud.n_points
    if support is None:
        vals = neighbors.scaled_pairs(cloud, rho0)
        vals /= -2.0
        sums = _row_sums(np.exp(vals, out=vals), n) + 1.0  # + the l = i term
    else:
        # exp(-r^2 / (2 rho0_i rho0_l)) is the generator kernel at eps = 1/2
        sums, = kernel_products(cloud, rho0, 0.5, "symmetric", np.ones(n),
                                support=support)
    return (2.0 * np.pi) ** (-d / 2.0) / (rho0**d * n) * sums


def _row_sums(vals, n):
    """Row sums of the symmetric n-by-n matrix, zero on its diagonal, whose
    pairs i < j are ``vals`` in ``pdist`` order (``squareform``'s matrix).

    Each block of rows is laid out as that matrix holds it, so numpy sums
    every row in the same pairwise order, to the same bits.
    """
    # pair (j, i), j < i, is vals[first[j] + i]
    j = np.arange(n)
    first = j * n - j * (j + 1) // 2 - j - 1
    sums = np.empty(n)
    block = np.empty((min(neighbors._SUPPORT_BLOCK, n), n))
    for start, stop in neighbors._blocks(n, neighbors._SUPPORT_BLOCK):
        rows = block[:stop - start]
        for i, row in enumerate(rows, start):
            # the indices are in range; "clip" gathers into row unbuffered
            np.take(vals, first[:i] + i, out=row[:i], mode="clip")
            row[i] = 0.0
            row[i + 1:] = vals[first[i] + i + 1:first[i] + n]
        rows.sum(axis=1, out=sums[start:stop])
    return sums


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
    q0 = kde_pilot(cloud, rho0, support=support)
    return BandwidthProfile(rho0=rho0, q0=q0, rho=q0**beta)


def save_csv(profile, path, index=None):
    """Write per-point bandwidth columns as CSV (i, rho0, q0, rho), i the
    points' ``index`` in their cloud (default 0..n-1)."""
    if index is None:
        index = np.arange(profile.rho0.shape[0])
    out = np.column_stack([index, profile.rho0, profile.q0, profile.rho])
    np.savetxt(path, out, fmt=["%d", "%.17g", "%.17g", "%.17g"], delimiter=",",
               header="i,rho0,q0,rho", comments="")
