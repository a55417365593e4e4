"""Point cloud container and deterministic dataset generators.

All generators return a :class:`PointCloud` whose ``points`` are the ambient
coordinates fed to the kernel pipeline and whose ``latent`` coordinates (when
the construction provides them) are kept for analytic reference computations.
Deterministic grids use inverse-CDF placement so that repeated runs are
bit-identical; random generators take an explicit seed.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import erfinv

from .errors import InvalidCovariance, InversionFailure, WrongManifold

_FMT = "%.17g"
# angles at which gen_circle_from_density tabulates its CDF
_DENSITY_GRID = 200001


@dataclass(frozen=True)
class PointCloud:
    """Immutable set of sample points.

    Parameters
    ----------
    points : ndarray, shape (N, n)
        Ambient coordinates, finite, N >= 2.
    latent : ndarray, shape (N, d), optional
        Intrinsic coordinates (angles for circle/torus, the points themselves
        for flat Gaussian data). ``None`` when the construction has none.
    intrinsic_dim : int, optional
        Manifold dimension d when known. The kernel chain and the KDE take
        d from here alone, and raise without it.
    label : str
        Short name used in output files.
    """

    points: np.ndarray
    latent: np.ndarray | None = None
    intrinsic_dim: int | None = None
    label: str = "cloud"

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValueError("points must be an (N, n) array with N >= 2")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        if self.latent is not None:
            lat = np.array(self.latent, dtype=float)
            if lat.ndim == 1:
                lat = lat[:, None]
            if lat.shape[0] != pts.shape[0]:
                raise ValueError("latent must have one row per point")
            lat.setflags(write=False)
            object.__setattr__(self, "latent", lat)

    @property
    def n_points(self):
        return self.points.shape[0]

    @property
    def ambient_dim(self):
        return self.points.shape[1]


def _embed_circle(theta, label):
    pts = np.column_stack([np.cos(theta), np.sin(theta)])
    return PointCloud(pts, latent=theta[:, None], intrinsic_dim=1, label=label)


def gen_circle_uniform(N):
    """Uniform angular grid on the unit circle, theta_i = 2*pi*i/N."""
    theta = 2.0 * np.pi * np.arange(N) / N
    return _embed_circle(theta, "circle-uniform")


def gen_circle_nonuniform(N):
    """Deterministic grid on the unit circle with density (2 + cos t)/(4 pi).

    Angles are theta_i = F^{-1}(i/(N+1)) for i = 1..N where
    F(t) = (2 t + sin t)/(4 pi) is the CDF of the target density. The
    inverse is found by bisection to an angular tolerance of 1e-12.
    """
    targets = np.arange(1, N + 1) / (N + 1)
    theta = _invert_cdf_bisection(
        lambda t: (2.0 * t + np.sin(t)) / (4.0 * np.pi), targets, 0.0, 2.0 * np.pi
    )
    return _embed_circle(theta, "circle-nonuniform")


def _invert_cdf_bisection(cdf, targets, lo, hi, tol=1e-12, max_iter=80):
    lo_v = np.full_like(targets, lo, dtype=float)
    hi_v = np.full_like(targets, hi, dtype=float)
    for _ in range(max_iter):
        mid = 0.5 * (lo_v + hi_v)
        below = cdf(mid) < targets
        lo_v = np.where(below, mid, lo_v)
        hi_v = np.where(below, hi_v, mid)
        if np.max(hi_v - lo_v) <= tol:
            return 0.5 * (lo_v + hi_v)
    raise InversionFailure(
        "CDF bisection did not reach tolerance", residual=float(np.max(hi_v - lo_v))
    )


def gen_circle_from_density(N, log_density):
    """Circle points distributed with density proportional to exp(log_density).

    The points are the deterministic inverse-CDF grid at quantiles i/(N+1).
    The CDF is tabulated by trapezoidal quadrature on _DENSITY_GRID angles
    and inverted by monotone interpolation.

    Parameters
    ----------
    log_density : callable
        Log of the (unnormalized) angular density, vectorized over theta.
    """
    grid = np.linspace(0.0, 2.0 * np.pi, _DENSITY_GRID)
    dens = np.exp(log_density(grid))
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid))])
    cdf /= cdf[-1]
    targets = np.arange(1, N + 1) / (N + 1)
    theta = np.interp(targets, cdf, grid)
    return _embed_circle(theta, "circle-density")


def gen_gaussian_nice_1d(N):
    """Standard-normal quantile grid on the line, x_i = sqrt(2) erfinv(2 i/(N+1) - 1)."""
    targets = np.arange(1, N + 1) / (N + 1)
    x = np.sqrt(2.0) * erfinv(2.0 * targets - 1.0)
    return PointCloud(x[:, None], latent=x[:, None], intrinsic_dim=1, label="gauss-nice-1d")


def gen_gaussian_random(N, dim, cov=None, seed=0):
    """IID Gaussian sample with the given covariance (identity by default)."""
    rng = np.random.default_rng(seed)
    chol = _cholesky(np.eye(dim) if cov is None else cov, dim)
    pts = rng.standard_normal((N, dim)) @ chol.T
    return PointCloud(pts, latent=pts, intrinsic_dim=dim, label=f"gauss-{dim}d")


def _cholesky(cov, dim):
    """Lower Cholesky factor of a symmetric positive definite (dim, dim) ``cov``."""
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (dim, dim) or not np.allclose(cov, cov.T, atol=1e-12):
        raise InvalidCovariance(f"covariance must be a symmetric ({dim}, {dim}) matrix")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise InvalidCovariance("covariance is not positive definite") from exc


def gen_sphere_nonuniform(N, cov=None, seed=0):
    """Nonuniform sample on the unit sphere.

    Draws 3-d Gaussian vectors with the given covariance and projects them to
    unit norm. When ``cov`` is None a random covariance A^T A + 0.1 I is drawn
    from the seed, so the surface density depends on the seed as well.
    """
    rng = np.random.default_rng(seed)
    if cov is None:
        a = rng.standard_normal((3, 3))
        cov = a.T @ a + 0.1 * np.eye(3)
    chol = _cholesky(cov, 3)
    pts = rng.standard_normal((N, 3)) @ chol.T
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms == 0.0):  # measure-zero, but keep the projection total
        bad = norms == 0.0
        pts[bad] = rng.standard_normal((int(bad.sum()), 3)) @ chol.T
        norms = np.linalg.norm(pts, axis=1)
    pts /= norms[:, None]
    return PointCloud(pts, intrinsic_dim=2, label="sphere-nonuniform")


def gen_torus_grid(n_per_dim):
    """Uniform grid on the flat torus embedded in R^4 as (cos a, sin a, cos b, sin b)."""
    angles = 2.0 * np.pi * np.arange(n_per_dim) / n_per_dim
    ta, tb = np.meshgrid(angles, angles, indexing="ij")
    ta, tb = ta.ravel(), tb.ravel()
    pts = np.column_stack([np.cos(ta), np.sin(ta), np.cos(tb), np.sin(tb)])
    return PointCloud(pts, latent=np.column_stack([ta, tb]), intrinsic_dim=2,
                      label="torus-grid")


def perturb_circle(cloud, amplitude, seed=0):
    """Add uniform angular noise in [0, amplitude) to a circle cloud."""
    if cloud.latent is None or cloud.latent.shape[1] != 1:
        raise WrongManifold("perturb_circle needs a cloud with scalar angular latent")
    if cloud.points.shape[1] != 2 or not np.allclose(
        np.linalg.norm(cloud.points, axis=1), 1.0, atol=1e-9
    ):
        raise WrongManifold("perturb_circle needs points on the unit circle")
    rng = np.random.default_rng(seed)
    theta = np.mod(cloud.latent[:, 0] + amplitude * rng.uniform(size=cloud.n_points),
                   2.0 * np.pi)
    return _embed_circle(theta, cloud.label + "-perturbed")


def _latent_names(d):
    return ["theta", "phi"][:d] if d <= 2 else [f"u{i + 1}" for i in range(d)]


def save_csv(cloud, path):
    """Write the cloud as CSV: columns x1..xn, then latent columns if present."""
    names = [f"x{i + 1}" for i in range(cloud.ambient_dim)]
    cols = [cloud.points]
    if cloud.latent is not None:
        names += _latent_names(cloud.latent.shape[1])
        cols.append(cloud.latent)
    data = np.hstack(cols)
    np.savetxt(path, data, fmt=_FMT, delimiter=",", header=",".join(names), comments="")
