"""Anchors of the eigen checks: clouds whose spectrum is known exactly.

Both anchors run the generator at a fixed epsilon with rho = 1, alpha = 0
and all pairs, so no tuning rule and no density estimate is involved. The
torus grid has no sampling noise, only the kernel's bias; the uniform
sphere has no bias at the first nonzero level, only sampling noise. Each
tolerance comes from that error model, not from the computed values.
"""

import numpy as np
from scipy.special import ive

from vbdiffusion import kernel, pointcloud, spectral


def _spectrum(cloud, eps, count):
    gm = kernel.build_generator(cloud, np.ones(cloud.n_points), eps, 0.0)
    return spectral.eigs_near_zero(gm, count).eigenvalues


def test_flat_torus_grid_spectrum():
    # Flat torus, 50x50 grid: exact eigenvalues 0, -1 (x4), -2 (x4).
    #
    # The grid is invariant under both shifts, so the Fourier modes with
    # frequencies (m1, m2) are exact eigenvectors. The kernel of the
    # embedding's chord, exp(-|x - y|^2/(4 eps)), factors into
    # exp(x cos t) per angle with x = 1/(2 eps), and the mode's eigenvalue is
    # (r(m1) r(m2) - 1)/eps with r(m) the grid average of exp(x cos t)
    # cos(m t) over that of exp(x cos t). The continuum value of r(m) is
    # I_m(x)/I_0(x); the grid adds aliased terms I_(n-m)(x)/I_0(x), about
    # exp(-(n - m)^2 eps), which is 7e-9 here. Expanding I_1/I_0 =
    # 1 - 1/(2x) - 1/(8x^2) + ... gives the kernel bias: -eps/2 + O(eps^2)
    # on the -1 modes, and a first-order term that cancels on the -2 modes
    # (m1 = m2 = 1). The tolerance is twice the leading bias, eps.
    n, eps = 50, 2.0 ** -7
    got = _spectrum(pointcloud.gen_torus_grid(n), eps, 9)
    exact = np.array([0.0] + [-1.0] * 4 + [-2.0] * 4)
    np.testing.assert_allclose(got, exact, rtol=0.0, atol=eps)
    # the continuum values, with the aliasing bound and the solver's error
    x = 1.0 / (2.0 * eps)
    r1 = ive(1, x) / ive(0, x)
    model = np.array([0.0] + [(r1 - 1.0) / eps] * 4 + [(r1 * r1 - 1.0) / eps] * 4)
    alias = 2.0 * np.exp(-((n - 1) ** 2) * eps) / eps
    np.testing.assert_allclose(got, model, rtol=0.0, atol=10.0 * alias)


def test_uniform_sphere_spectrum():
    # Uniform sphere, N = 3000: exact eigenvalues 0, -2 (x3), then -6.
    #
    # On the unit sphere the chord kernel's degree-1 eigenvalue is exactly
    # (coth(x) - 1/x - 1)/eps with x = 1/(2 eps), which is -2 up to
    # exp(-1/eps): no kernel bias at this level. The error is sampling
    # noise. Its scale is the relative noise of one point's kernel degree:
    # for uniform points E[K] = eps and E[K^2] = eps/2 (up to exp(-1/eps)),
    # so sigma = sqrt((1/(2 eps) - 1)/N), 0.10 at eps = 2^-6. Each eigenvalue
    # of the triple must lie within 2 sigma (relative) of -2, and the next
    # level below the triple's band.
    N, eps = 3000, 2.0 ** -6
    cloud = pointcloud.gen_sphere_nonuniform(N, cov=np.eye(3), seed=1)
    got = _spectrum(cloud, eps, 5)
    sigma = np.sqrt((1.0 / (2.0 * eps) - 1.0) / N)
    band = 2.0 * sigma * 2.0
    assert abs(got[0]) <= 1e-8
    np.testing.assert_allclose(got[1:4], -2.0, rtol=0.0, atol=band)
    assert got[4] < -2.0 - band
