"""Automatic epsilon selection from the kernel-sum curve.

S(eps) is the mean of all kernel entries. On a d-dimensional manifold it
behaves like (4 pi eps)^(d/2) / vol(M) for small eps, saturates at 1 for
large eps, and bottoms out at 1/N when the kernel is effectively diagonal.
The maximal slope of log S against log eps therefore sits in the usable
scaling region and estimates d/2 at the same time.

A truncated sum can move that region: on ou1d_random (N=20000) eps* is
4.8e-7 with the default k=128 support and 7.6e-6 with k_support=512.

The grid is dyadic, and exp(-t/(2 eps)) = exp(-t/(4 eps))^2, so the curve
costs one multiply per pair at most exponents: a chunk of the sorted pairs
is exponentiated at the largest eps and squared in place on the way down,
with a direct exp after every six squarings (``_REFRESH``) and wherever the
grid does not step down by exactly one. Each value then carries a relative
error of at most about 2.1e-14, against about 1.3e-16 for a direct exp.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoLinearRegion
from .neighbors import scaled_pairs

_DEFAULT_EXPONENTS = np.arange(-30, 11)
_FLAT_TOL = 1e-8
_EXP_UNDERFLOW = 746.0  # exp(-x) is exactly 0.0 in float64 for x >= 746
_CHUNK = 1 << 15  # pairs per exp pass, few enough to stay in cache
# One direct exp per _REFRESH exponents: the m <= _REFRESH - 1 = 6 squarings
# of a value with relative error delta leave at most about
# 2^m delta + (2^m - 1) 2^-53. np.exp measured delta <= 1.17 * 2^-53 over
# 1.57M arguments in [-708, 0] against 120-bit mpmath (AVX-512 numpy 2.4), so
# with delta = 2^-52 the bound is 191 * 2^-53 = 2.1e-14. A result below the
# smallest normal double (t / (4 eps) > 708) has an absolute error of at
# most 2^-1074 instead, from its square or its exp alike.
_REFRESH = 7


@dataclass(frozen=True)
class TuningCurve:
    """Kernel-sum curve over a dyadic epsilon grid with its slope summary."""

    exponents: np.ndarray
    S: np.ndarray
    slopes: np.ndarray
    eps_star: float
    a_max: float
    d_hat: float


def s_curve(cloud, rho, grid=None, support=None):
    """Kernel sums S(2^i) for each dyadic exponent i in ``grid``.

    Uses the same Gaussian kernel (4 eps denominator) as the generator
    cascade. Without a support all pairs are summed, which is exact; with
    one (:class:`neighbors.SupportPairs`, its strict upper triangle with the
    diagonal implicit) the sum is truncated to it, which distorts the
    large-eps saturation and can shift eps*. The support must hold raw r^2:
    one built with a bandwidth raises ``ValueError``.
    Each unordered pair is summed once, and a pass stops where its kernel
    underflows to exactly zero.

    The sorted pairs are visited one ``_CHUNK`` at a time, in ascending
    order, and within a chunk the exponents from the largest eps down. An
    exponent one below the last visited squares the last one's values in
    place, save after six squarings, when a direct exp refreshes them (the
    error bound is at ``_REFRESH``); every other exponent takes a direct
    exp. Each exponent's sum is its chunk sums added in chunk order.
    """
    if grid is None:
        grid = _DEFAULT_EXPONENTS
    grid = np.asarray(grid, dtype=int)
    rho = np.asarray(rho, dtype=float)
    n = cloud.n_points
    t = scaled_pairs(cloud, rho, support)
    t.sort()
    eps = 2.0 ** grid.astype(float)
    # 4 eps is a power of two, so t < 746 * 4 eps exactly when t / (4 eps) < 746
    stops = np.searchsorted(t, _EXP_UNDERFLOW * 4.0 * eps)
    order, direct = _schedule(grid)
    sums = np.zeros(grid.shape[0])
    buf = np.empty(min(_CHUNK, t.size))
    for start in range(0, int(stops.max(initial=0)), _CHUNK):
        # from the largest eps down, each prefix within the last one's
        for g, fresh in zip(order, direct):
            size = min(_CHUNK, stops[g] - start)
            if size <= 0:
                break
            part = buf[:size]
            if fresh:
                np.divide(t[start:start + size], -4.0 * eps[g], out=part)
                np.exp(part, out=part)
            else:
                np.multiply(part, part, out=part)
            sums[g] += part.sum()
    # the diagonal adds exp(0) = 1 per point, every other pair counts twice
    s_vals = (n + 2.0 * sums) / float(n) ** 2
    slopes = np.diff(np.log(s_vals)) / (np.log(2.0) * np.diff(grid))
    eps_star, a_max, d_hat = _select(grid, slopes)
    return TuningCurve(exponents=grid, S=s_vals, slopes=slopes,
                       eps_star=eps_star, a_max=a_max, d_hat=d_hat)


def _schedule(grid):
    """The exponents from the largest down, and for each whether its values
    come from a direct exp or from squaring the previous exponent's."""
    order = np.argsort(-grid, kind="stable")
    direct = np.ones(order.size, dtype=bool)
    run = 0
    for k in range(1, order.size):
        if grid[order[k]] == grid[order[k - 1]] - 1 and run < _REFRESH - 1:
            direct[k], run = False, run + 1
        else:
            run = 0
    return order, direct


def _select(grid, slopes):
    if slopes.size == 0 or np.max(slopes) < _FLAT_TOL:
        raise NoLinearRegion("kernel-sum curve has no rising region")
    best = int(np.argmax(slopes))  # first maximum = smallest eps on ties
    a_max = float(slopes[best])
    return float(2.0 ** grid[best]), a_max, 2.0 * a_max


def save_csv(curve, path):
    """Write the curve as CSV rows (i, eps, S, slope); the last slope cell is empty."""
    with open(path, "w") as fh:
        fh.write("i,eps,S,slope\n")
        for j, expo in enumerate(curve.exponents):
            slope = "%.17g" % curve.slopes[j] if j < curve.slopes.size else ""
            fh.write("%d,%.17g,%.17g,%s\n" % (expo, 2.0 ** float(expo),
                                              curve.S[j], slope))
