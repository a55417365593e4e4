"""Automatic epsilon selection from the kernel-sum curve.

S(eps) is the mean of all kernel entries. On a d-dimensional manifold it
behaves like (4 pi eps)^(d/2) / vol(M) for small eps, saturates at 1 for
large eps, and bottoms out at 1/N when the kernel is effectively diagonal.
The maximal slope of log S against log eps therefore sits in the usable
scaling region and estimates d/2 at the same time.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoLinearRegion

_DEFAULT_EXPONENTS = np.arange(-30, 11)
_FLAT_TOL = 1e-8


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
    one (:class:`neighbors.SupportPairs`), the sum is truncated, which
    distorts the large-eps saturation but not the scaling region the
    selection looks at.
    """
    if grid is None:
        grid = _DEFAULT_EXPONENTS
    grid = np.asarray(grid, dtype=int)
    pts = cloud.points
    rho = np.asarray(rho, dtype=float)
    n = pts.shape[0]
    eps_values = 2.0 ** grid.astype(float)
    sums = np.zeros(grid.shape[0])
    if support is None:
        block = max(1, int(2e7) // n)
        for start in range(0, n, block):
            stop = min(start + block, n)
            diff = pts[start:stop, None, :] - pts[None, :, :]
            r2 = np.einsum("ijk,ijk->ij", diff, diff)
            r2 /= rho[start:stop, None] * rho[None, :]
            for g, eps in enumerate(eps_values):
                sums[g] += np.exp(r2 / (-4.0 * eps)).sum()
    else:
        r2 = support.r2 / (support.rows(rho) * rho[support.indices])
        for g, eps in enumerate(eps_values):
            sums[g] = np.exp(r2 / (-4.0 * eps)).sum()
    s_vals = sums / float(n) ** 2
    slopes = np.diff(np.log(s_vals)) / (np.log(2.0) * np.diff(grid))
    eps_star, a_max, d_hat = _select(grid, slopes)
    return TuningCurve(exponents=grid, S=s_vals, slopes=slopes,
                       eps_star=eps_star, a_max=a_max, d_hat=d_hat)


def _select(grid, slopes):
    if slopes.size == 0 or np.max(slopes) < _FLAT_TOL:
        raise NoLinearRegion("kernel-sum curve has no rising region")
    best = int(np.argmax(slopes))  # first maximum = smallest eps on ties
    a_max = float(slopes[best])
    return float(2.0 ** grid[best]), a_max, 2.0 * a_max


def select_epsilon(curve):
    """(eps_star, a_max, d_hat) from the maximal forward-difference slope."""
    return _select(curve.exponents, curve.slopes)


def save_csv(curve, path):
    """Write the curve as CSV rows (i, eps, S, slope); the last slope cell is empty."""
    with open(path, "w") as fh:
        fh.write("i,eps,S,slope\n")
        for j, expo in enumerate(curve.exponents):
            slope = "%.17g" % curve.slopes[j] if j < curve.slopes.size else ""
            fh.write("%d,%.17g,%.17g,%s\n" % (expo, 2.0 ** float(expo),
                                              curve.S[j], slope))
