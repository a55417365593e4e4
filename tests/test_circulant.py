"""Exact finite-N oracle: uniform grids with rho = 1.

On a uniform circle grid every row of the kernel is a shift of row 0, so
the kernel's row sums qS and D are one constant c_0 = sum_j K_0j and, for
every alpha,

    Lhat = (K / c_0 - I) / eps

is circulant (block circulant on a torus grid). Its eigenvectors are the
Fourier modes, and the mode of frequency m has the eigenvalue

    lambda_m = (c_m / c_0 - 1) / eps,    c_m = sum_j K_0j cos(2 pi m j / n),

the DFT of row 0's kernel values. This holds at any n and eps, on all pairs
and on a support whose row 0 holds the same offsets as every other row, and
there the truncation is part of the oracle. On a Fourier mode f,
``apply_generator`` returns lambda_m f.

The tolerance follows from a backward-error bound, fixed before measuring,
with u = 2^-53 and m the kernel entries of a row:
- each entry of Lhat is the oracle's entry perturbed by about ten rounded
  operations (divide, exp, the alpha weights, the conjugation, 1/eps), at
  most 16u relative, so the perturbation's 1-norm is at most 16u ||Lhat||_1;
- the oracle's FFT errs by about log2(n) u relative to c_0;
- the row sums (qS, D, and the two sums of an estimate) and the
  eigensolver's backward error (Householder reduction, or a Cholesky factor
  and Lanczos) are sums of m and n terms; under independent rounding errors
  they stay within 6 sqrt(m) u and 6 sqrt(n) u (Higham & Mary, 2019,
  probability above 1 - 1e-7 each);
- the computed points lie within about 10u of the grid, so the distance
  r of a pair moves by up to 20u and its kernel c by c r 10u / eps: a
  column sum of 10u sum_j r_j c_j / (c_0 eps^2) in Lhat, 14u on a torus,
  whose points move sqrt(2) times as far; the bound takes 16u for both.
By Weyl's theorem each eigenvalue then lies within the sum, in units of
||Lhat||_1, the largest column sum; the eigenvectors of each frequency span
its Fourier modes within the angle that ``_angle_bound`` derives from it.
The oracle measured 1-2e-16 ||Lhat||_1.
"""

import math

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from vbdiffusion import kernel, neighbors, pointcloud, spectral

_U = 2.0 ** -53


def _row0(cloud, support):
    """Indices of point 0's kernel entries besides itself: all points, or
    row 0 of the support's strict upper triangle, which holds all of them."""
    if support is None:
        return np.arange(1, cloud.n_points)
    return support.indices[support.indptr[0]:support.indptr[1]]


def _oracle(r2_offsets, eps, shape):
    """Eigenvalues of every Fourier mode, from row 0's kernel values laid out
    by offset (zero off the support), and the bound of the module docstring
    without its sqrt(m) and sqrt(n) terms, both in absolute units."""
    c = np.zeros(shape)
    for offset, r2 in r2_offsets.items():
        c[offset] = math.exp(-r2 / (4.0 * eps))
    c0 = c.sum()
    lam = (np.fft.fftn(c).real / c0 - 1.0) / eps
    norm1 = 2.0 * (1.0 - 1.0 / c0) / eps
    r2 = np.array(list(r2_offsets.values()))
    c_r = float(np.sum(np.exp(-r2 / (4.0 * eps)) * np.sqrt(r2)))
    base = (16.0 + math.log2(c.size)) * _U * norm1 + 16.0 * _U * c_r / (c0 * eps**2)
    return np.sort(lam.ravel())[::-1], norm1, base


def _circle_oracle(cloud, support, eps):
    n = cloud.n_points
    offsets = {0: 0.0}
    for j in _row0(cloud, support).tolist():
        offsets[j] = 4.0 * math.sin(math.pi * j / n) ** 2
    return _oracle(offsets, eps, (n,)), len(offsets)


def _torus_oracle(side, support, eps):
    offsets = {(0, 0): 0.0}
    for j in _row0(None, support).tolist():
        a, b = divmod(j, side)
        offsets[(a, b)] = 4.0 * (math.sin(math.pi * a / side) ** 2
                                 + math.sin(math.pi * b / side) ** 2)
    return _oracle(offsets, eps, (side, side)), len(offsets)


def _tolerance(base, norm1, m, n):
    return base + 6.0 * (math.sqrt(m) + math.sqrt(n)) * _U * norm1


def _angle_bound(lam, group, atol, lanczos):
    """Bound on the sine of the angle between the computed eigenvectors of
    the modes ``group`` (indices into the descending ``lam``) and their
    Fourier modes.

    By Davis and Kahan it is the perturbation, at most ``atol``, over the
    group's gap to the other eigenvalues. A Lanczos run stops at a residual
    of ``spectral._TOL`` |theta| in theta = 1/(sigma - lambda), which adds
    that residual over the gap in theta; sigma is positive and tiny, so
    theta is -1/lambda below 0, and the top mode's theta, 1/sigma, dwarfs
    every other one, which bounds its term by ``spectral._TOL``.
    """
    value, others = lam[group[0]], np.delete(lam, group)
    bound = atol / (np.abs(others - value).min() - atol)
    if lanczos and value < 0.0:
        theta = -1.0 / value
        bound += spectral._TOL * theta / np.abs(
            -1.0 / others[others < 0.0] - theta).min()
    elif lanczos:
        bound += spectral._TOL
    return bound


def _circle(n, k):
    cloud = pointcloud.gen_circle_uniform(n)
    support = None if k is None else neighbors.symmetrized_support(cloud, k)
    if support is not None:
        # odd k keeps every shell whole: offsets +-1..+-(k - 1)/2 in row 0
        row = _row0(cloud, support)
        shell = np.minimum(row, n - row)
        assert sorted(shell.tolist()) == sorted(list(range(1, (k + 1) // 2)) * 2)
    return cloud, support


@pytest.mark.parametrize("n, k, eps, solver", [
    (500, None, 2.0 ** -7, "eigh"),
    (1500, None, 2.0 ** -9, "dense cholesky shift-invert"),
    (5000, 41, 2.0 ** -12, "banded cholesky shift-invert"),
])
def test_circle_grid_spectrum_is_the_dft_of_a_kernel_row(n, k, eps, solver):
    cloud, support = _circle(n, k)
    (lam, norm1, base), m = _circle_oracle(cloud, support, eps)
    gm = kernel.build_generator(cloud, np.ones(n), eps, 0.5, support=support)
    spec = spectral.eigs_near_zero(gm, 7)
    assert spec.solver == solver
    # 0 and the pairs of frequencies 1, 2 and 3
    atol = _tolerance(base, norm1, m, n)
    np.testing.assert_allclose(spec.eigenvalues, lam[:7], rtol=0.0, atol=atol)
    theta = cloud.latent[:, 0]
    for freq, group in [(0, [0]), (1, [1, 2]), (2, [3, 4]), (3, [5, 6])]:
        modes = np.column_stack([np.cos(freq * theta),
                                 np.sin(freq * theta)])[:, :len(group)]
        angle = subspace_angles(spec.eigenvectors[:, group], modes).max()
        assert math.sin(angle) <= _angle_bound(lam, group, atol,
                                               solver != "eigh")


@pytest.mark.parametrize("n, k, eps", [(1500, None, 2.0 ** -9),
                                       (5000, 41, 2.0 ** -12)])
def test_generator_estimate_of_a_fourier_mode_is_its_eigenvalue(n, k, eps):
    cloud, support = _circle(n, k)
    (lam, norm1, base), m = _circle_oracle(cloud, support, eps)
    c = np.zeros(n)
    for j in [0, *_row0(cloud, support).tolist()]:
        c[j] = math.exp(-4.0 * math.sin(math.pi * j / n) ** 2 / (4.0 * eps))
    theta = cloud.latent[:, 0]
    for freq in (1, 2, 3):
        want = (math.fsum(c * np.cos(2.0 * np.pi * freq * np.arange(n) / n))
                / math.fsum(c) - 1.0) / eps
        # the pair of this frequency, below 0 and the lower frequencies' pairs
        np.testing.assert_allclose(lam[2 * freq - 1:2 * freq + 1], want,
                                   rtol=0.0, atol=base)
        f = np.cos(freq * theta)
        est = kernel.apply_generator(cloud, np.ones(n), eps, 0.5, "symmetric", f,
                                     support=support)
        np.testing.assert_allclose(est, want * f, rtol=0.0,
                                   atol=_tolerance(base, norm1, m, n))


@pytest.mark.parametrize("k", [
    25,
    pytest.param(60, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="k = 60 cuts a shell of the 40 x 40 grid, and the kd-tree "
               "picks which tied points each row keeps, so rows hold "
               "different offsets and Lhat is not block circulant "
               "(ROADMAP, 'Make every result a function of the point set')")),
])
def test_torus_grid_spectrum_is_the_dft_of_a_kernel_row(k):
    side, eps = 40, 2.0 ** -6
    cloud = pointcloud.gen_torus_grid(side)
    support = neighbors.symmetrized_support(cloud, k)
    (lam, norm1, base), m = _torus_oracle(side, support, eps)
    gm = kernel.build_generator(cloud, np.ones(side * side), eps, 0.0,
                                support=support)
    spec = spectral.eigs_near_zero(gm, 5)
    assert spec.solver == "banded cholesky shift-invert"
    # 0 and the quadruple of frequencies (+-1, 0) and (0, +-1)
    np.testing.assert_allclose(spec.eigenvalues, lam[:5], rtol=0.0,
                               atol=_tolerance(base, norm1, m, side * side))
