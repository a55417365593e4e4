"""Variable-bandwidth Gaussian kernels and the discrete generator cascade.

The kernel between points i and j is exp(-r_ij^2 / (4 eps rho_i rho_j)).
Row sums divided by rho^d estimate the sampling density; a power of that
estimate removes sampling bias from the kernel; and a diagonal conjugation
turns the resulting Markov generator into a symmetric matrix whose
eigenvectors are recovered by an un-conjugation.

Matrices are dense ndarrays when no support is given. On a neighbor
support, passed as :class:`neighbors.SupportPairs` (the squared distance of
every pair i < j, cached once per cloud), each epsilon costs one elementwise
pass over the cached distances, and the kernel and its alpha-normalized
form are CSRs of their strict upper triangles with the diagonal implicit;
only Lhat is assembled whole, for the eigensolver. Both storages are exactly
symmetric: a dense kernel is the ``squareform`` of one condensed ``pdist``
array, and a sparse one evaluates each pair once. Matrix-free products
(:func:`apply_generator`, the truncated KDE) stream that pass over row
blocks; :func:`build_generator` keeps the whole upper CSR.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.spatial.distance import cdist, pdist, squareform

FORMULATIONS = ("left", "right", "symmetric")


@dataclass(frozen=True)
class ShapeConstants:
    """Moments of the kernel shape function h and of its square.

    ``m0`` and ``m2`` are the zeroth and (half) second moments of h, ``m``
    their ratio, which multiplies the generator prefactor; ``m0_hat`` and
    ``m2_hat`` are the corresponding moments of h^2 entering variance bounds.
    """

    m0: float
    m2: float
    m: float
    m0_hat: float
    m2_hat: float


def gaussian_shape_constants(d):
    """Closed-form shape moments of h(u) = exp(-u/4) in dimension d.

    With this shape, int h(|z|^2) dz = (4 pi)^(d/2) and
    (1/2) int z1^2 h(|z|^2) dz = (4 pi)^(d/2) as well, so m = m2/m0 = 1.
    For h^2 both plain moments equal (2 pi)^(d/2).
    """
    m0 = (4.0 * np.pi) ** (d / 2.0)
    m2 = m0
    m0_hat = (2.0 * np.pi) ** (d / 2.0)
    m2_hat = m0_hat
    return ShapeConstants(m0=m0, m2=m2, m=m2 / m0, m0_hat=m0_hat, m2_hat=m2_hat)


@dataclass(frozen=True)
class GeneratorMatrices:
    """Everything produced by the generator cascade at one epsilon.

    ``P``, ``D`` and ``S`` are the diagonals of the bandwidth, degree and
    conjugation matrices (S = P * sqrt(D)). ``Lhat`` is the symmetric
    conjugated generator; the Markov generator itself is
    diag(1/(eps P^2)) (diag(1/D) Kalpha - I). On a support ``Kalpha`` is
    the CSR of its strict upper triangle (its diagonal, qS^(-2 alpha), is
    not stored) and ``Lhat`` the whole symmetric CSR.
    """

    eps: float
    alpha: float
    qS: np.ndarray
    Kalpha: object
    q_eps_alpha: np.ndarray
    Lhat: object
    P: np.ndarray
    D: np.ndarray
    S: np.ndarray


def kernel_matrix(cloud, rho, eps, support=None):
    """Variable-bandwidth Gaussian kernel K_ij = exp(-r_ij^2/(4 eps rho_i rho_j)).

    Without a ``support`` the full dense matrix is computed. With one (a
    :class:`neighbors.SupportPairs`) the result is the CSR of the strict
    upper triangle on the support; the diagonal, all ones, is implicit.
    Entries that underflow to zero are dropped from the sparse structure so
    that connectivity checks see the numerical graph.
    """
    rho = np.asarray(rho, dtype=float)
    if support is None:
        k = squareform(pdist(cloud.points, "sqeuclidean"))
        k /= -4.0 * eps * np.outer(rho, rho)
        return np.exp(k, out=k)
    # eliminate_zeros compacts the index arrays in place, so they are copies
    out = sparse.csr_matrix(
        (_kernel_values(support, eps, 0, support.n, rho, rho),
         support.indices.copy(), support.indptr.copy()),
        shape=(support.n, support.n))
    out.eliminate_zeros()
    return out


def _kernel_values(support, eps, start, stop, row_bw, col_bw):
    """exp(-r_ij^2 / (4 eps row_bw_i col_bw_j)) over the entries of rows
    start:stop of ``support``; a bandwidth given as None is one."""
    lo, hi = support.indptr[start], support.indptr[stop]
    if row_bw is None:
        den = 4.0 * eps * col_bw[support.indices[lo:hi]]
    else:
        den = np.repeat(4.0 * eps * row_bw[start:stop],
                        np.diff(support.indptr[start:stop + 1]))
        if col_bw is not None:
            den *= col_bw[support.indices[lo:hi]]
    np.divide(support.r2[lo:hi], den, out=den)
    np.negative(den, out=den)
    return np.exp(den, out=den)


def support_products(support, rho, eps, formulation, *vectors):
    """K @ v for each of ``vectors``, K the kernel on ``support`` (a SupportPairs).

    K_ij and K_ji both come from the one stored pair i < j, each with the
    bandwidths ``formulation`` takes from its row and column points, and
    K_ii = 1. K is evaluated and multiplied one block of rows at a time and
    never held whole; every product entry is summed over its row in column
    order, as the whole matrix would give, whatever the blocks.
    """
    bw = {"left": (rho, None), "right": (None, rho),
          "symmetric": (rho, rho)}[formulation]
    out = [np.zeros(support.n) for _ in vectors]
    for start, stop in support.blocks():
        ptr = support.indptr[start:stop + 1] - support.indptr[start]
        cols = support.indices[support.indptr[start]:support.indptr[stop]]
        upper = _kernel_values(support, eps, start, stop, *bw)
        lower = (upper if formulation == "symmetric" else
                 _kernel_values(support, eps, start, stop, *bw[::-1]))
        for product, v in zip(out, vectors):
            _add_products(product, v, start, ptr, cols, upper, lower, 1.0)
    return out


def _add_products(out, v, start, ptr, cols, upper, lower, diag):
    """Add into ``out`` what rows start:stop of M, and their mirror images
    below the diagonal, contribute to M @ v.

    ``upper`` holds M's entries right of the diagonal on the CSR rows
    (``ptr``, ``cols``) of rows start:stop, ``lower`` their mirror images
    and ``diag`` M's diagonal. Called on consecutive row blocks from the
    first, it sums each out_i in column order, as a whole CSR row would be:
    the entries left of the diagonal add into ``out`` as their rows pass,
    then the diagonal, then the rest of the row.
    """
    stop = start + ptr.shape[0] - 1
    n = out.shape[0]
    # scipy's sparsetools products add into their output in place
    _sparsetools.csc_matvec(n, stop - start, ptr, cols, lower, v[start:stop], out)
    out[start:stop] += diag * v[start:stop]
    _sparsetools.csr_matvec(stop - start, n, ptr, cols, upper, v, out[start:stop])


def _row_sums(mat, diag):
    """Row sums of a dense matrix, or of the symmetric matrix with diagonal
    ``diag`` whose strict upper triangle the CSR ``mat`` holds."""
    if not sparse.issparse(mat):
        return mat.sum(axis=1)
    out = np.zeros(mat.shape[0])
    _add_products(out, np.ones(mat.shape[0]), 0, mat.indptr, mat.indices,
                  mat.data, mat.data, diag)
    return out


def qS_normalization(K, rho, d):
    """Density estimate from kernel row sums: qS_i = sum_j K_ij / rho_i^d.

    A sparse ``K`` is the strict upper triangle that :func:`kernel_matrix`
    returns on a support, with the unit diagonal implicit.
    """
    return _row_sums(K, 1.0) / np.asarray(rho, dtype=float) ** d


def alpha_normalize(K, qS, alpha):
    """Divide K_ij by (qS_i qS_j)^alpha; returns (Kalpha, its row sums).

    A sparse ``K`` is a strict upper triangle with the unit diagonal
    implicit, and so is the sparse Kalpha, whose diagonal is qS^(-2 alpha).
    """
    w = np.asarray(qS, dtype=float) ** (-alpha)
    if not sparse.issparse(K):
        ka = K * np.outer(w, w)
        return ka, _row_sums(ka, None)
    ka = sparse.csr_matrix(
        (K.data * np.repeat(w, np.diff(K.indptr)) * w[K.indices], K.indices,
         K.indptr), shape=K.shape)
    return ka, _row_sums(ka, w * w)


def generator_symmetric(Kalpha, q_eps_alpha, rho, eps, alpha=0.0, qS=None):
    """Conjugated symmetric generator Lhat = (S^-1 Kalpha S^-1 - P^-2)/eps.

    The conjugation diagonal is S = rho * sqrt(q_eps_alpha); eigenvectors of
    the Markov generator are recovered as S^-1 times eigenvectors of Lhat.
    A sparse ``Kalpha`` is the strict upper triangle from
    :func:`alpha_normalize`, whose diagonal qS^(-2 alpha) needs ``qS``
    unless alpha is 0; Lhat is then assembled whole, exactly symmetric.
    """
    rho = np.asarray(rho, dtype=float)
    s = rho * np.sqrt(q_eps_alpha)
    inv_s = 1.0 / s
    shift = 1.0 / rho**2
    if sparse.issparse(Kalpha):
        if qS is None and alpha != 0.0:
            raise ValueError("a sparse Kalpha needs qS for its diagonal")
        w = np.ones(rho.shape[0]) if qS is None else np.asarray(qS) ** (-alpha)
        upper = Kalpha.data * np.repeat(inv_s, np.diff(Kalpha.indptr))
        upper *= inv_s[Kalpha.indices]
        upper /= eps
        upper = sparse.csr_matrix((upper, Kalpha.indices, Kalpha.indptr),
                                  shape=Kalpha.shape)
        diag = (w * w * inv_s * inv_s - shift) / eps
        lhat = sparse.diags(diag, format="csr") + upper + upper.T
    else:
        lhat = Kalpha * np.outer(inv_s, inv_s)
        np.fill_diagonal(lhat, lhat.diagonal() - shift)
        lhat /= eps
    return GeneratorMatrices(eps=eps, alpha=alpha, qS=qS, Kalpha=Kalpha,
                             q_eps_alpha=q_eps_alpha, Lhat=lhat, P=rho,
                             D=q_eps_alpha, S=s)


def build_generator(cloud, rho, eps, alpha, d=None, support=None):
    """Run kernel -> density -> alpha -> conjugation for one epsilon."""
    if d is None:
        d = cloud.intrinsic_dim
    if d is None:
        raise ValueError("intrinsic dimension unknown; pass d explicitly")
    k = kernel_matrix(cloud, rho, eps, support=support)
    qs = qS_normalization(k, rho, d)
    kalpha, q_eps_alpha = alpha_normalize(k, qs, alpha)
    del k  # not kept: the conjugation below needs memory for its own copy
    return generator_symmetric(kalpha, q_eps_alpha, rho, eps, alpha=alpha, qS=qs)


def apply_generator(cloud, rho, eps, alpha, formulation, f, d=None, support=None):
    """Apply one kernel-ratio generator estimate to a function sample.

    ``formulation`` picks where the bandwidth enters the kernel argument:
    'left' uses eps rho_i, 'right' uses eps rho_j, and 'symmetric' uses
    eps rho_i rho_j. The estimate at point i is

        (sum_j K_ij w_j f_j / sum_j K_ij w_j - f_i) / (eps m rho_i^p)

    with p = 1 for left/right and p = 2 for symmetric. The weights w_j are
    identically one except in the symmetric formulation with alpha != 0,
    where w_j = qS_j^(-alpha) removes sampling-density bias (the i-side
    factor cancels in the ratio).
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    if alpha != 0.0 and formulation != "symmetric":
        raise ValueError("alpha-normalization applies to the symmetric formulation only")
    if d is None:
        d = cloud.intrinsic_dim
    if alpha != 0.0 and d is None:
        raise ValueError("alpha-normalization needs the intrinsic dimension")
    rho = np.asarray(rho, dtype=float)
    f = np.asarray(f, dtype=float)
    m = gaussian_shape_constants(d if d is not None else 1).m
    if support is None:
        num, den = _ratio_dense(cloud.points, rho, eps, alpha, formulation, f, d)
    else:
        num, den = _ratio_sparse(rho, eps, alpha, formulation, f, d, support)
    p = 2 if formulation == "symmetric" else 1
    return (num / den - f) / (eps * m * rho**p)


def _ratio_dense(pts, rho, eps, alpha, formulation, f, d, block=256):
    n = pts.shape[0]
    ones = np.ones(n)

    def kernel_blocks(b_row, b_col):
        for start in range(0, n, block):
            rows = slice(start, min(start + block, n))
            k = cdist(pts[rows], pts, "sqeuclidean")
            k /= -4.0 * eps * np.outer(b_row[rows], b_col)
            yield rows, np.exp(k, out=k)

    weights = ones
    if alpha != 0.0:
        # first pass: kernel row sums give the density estimate behind w_j
        sums = np.empty(n)
        for rows, k in kernel_blocks(rho, rho):
            sums[rows] = k.sum(axis=1)
        weights = (sums / rho**d) ** (-alpha)
    num = np.empty(n)
    den = np.empty(n)
    for rows, k in kernel_blocks(ones if formulation == "right" else rho,
                                 ones if formulation == "left" else rho):
        num[rows] = k @ (weights * f)
        den[rows] = k @ weights
    return num, den


def _ratio_sparse(rho, eps, alpha, formulation, f, d, support):
    weights = np.ones(support.n)
    if alpha != 0.0:
        sums, = support_products(support, rho, eps, formulation, weights)
        weights = (sums / rho**d) ** (-alpha)
    return support_products(support, rho, eps, formulation, weights * f, weights)


def save_sparse_csv(mat, path):
    """Write a sparse matrix as (i, j, value) coordinate triples."""
    coo = mat.tocoo() if sparse.issparse(mat) else sparse.coo_matrix(mat)
    out = np.column_stack([coo.row, coo.col, coo.data])
    np.savetxt(path, out, fmt=["%d", "%d", "%.17g"], delimiter=",",
               header="i,j,value", comments="")
