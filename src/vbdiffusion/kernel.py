"""Variable-bandwidth Gaussian kernels and the discrete generator cascade.

The kernel between points i and j is exp(-r_ij^2 / (4 eps rho_i rho_j)).
Its shape h(u) = exp(-u/4) has shape ratio m = m2/m0 = 1 in every
dimension, so no generator carries that factor; d is always the cloud's
``intrinsic_dim``.
:func:`build_generator` runs the cascade as one chain: kernel row sums
divided by rho^d estimate the sampling density qS; the weights qS^(-alpha)
on both sides of the kernel remove sampling bias; the row sums D of that
kernel give the Markov normalization; and the conjugation by
S = rho sqrt(D) turns the Markov generator into a symmetric matrix whose
eigenvectors are recovered by an un-conjugation.

Either storage holds one array, scaled in place from the kernel into its
alpha-normalized form and then into Lhat. Without a support it is an n-by-n
ndarray, scaled a row at a time. On a neighbor support, passed as
:class:`neighbors.SupportPairs` (the squared distance of every pair i < j,
cached once per cloud), each epsilon costs one elementwise pass over the
cached pairs into a CSR of the strict upper triangle on the support's own
index arrays: on a support scaled by the kernel's bandwidth
(``neighbors.scale_support``), one divide by -4 eps and one exp per pair; on
raw r^2, the bandwidth products of each pair besides. Each call picks its
path once, and a support scaled by any other bandwidth raises
``ValueError``, so no kernel is computed wrongly scaled. The diagonal is
implicit and a pair that underflows is kept as an explicit zero; only Lhat
is assembled whole, for the eigensolver, and that sum drops the zeros, so
its pattern is the graph whose connectivity the eigensolver checks. Both
storages run the same steps through two helpers, row sums and a symmetric
diagonal scaling, and are exactly symmetric: a dense kernel takes r_ij^2 and
r_ji^2 from one ``cdist`` formula whose terms do not change under the swap,
and a sparse one evaluates each pair once. All-pairs kernel values come from
one ``cdist`` block of rows against all points at a time, written straight
into the dense kernel or, in the matrix-free products
(:func:`kernel_products`, behind :func:`apply_generator` and the truncated
KDE), multiplied and freed; on a support the products stream over blocks of
support rows. :func:`build_generator` keeps whole matrices.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools
from scipy.spatial.distance import cdist

from . import neighbors

FORMULATIONS = ("left", "right", "symmetric")


@dataclass(frozen=True)
class GeneratorMatrices:
    """Everything produced by the generator cascade at one epsilon.

    ``qS`` is the kernel's density estimate. ``P``, ``D`` and ``S`` are the
    diagonals of the bandwidth, degree and conjugation matrices: D holds the
    row sums of the alpha-normalized kernel Kalpha and S = P * sqrt(D).
    ``Lhat`` = S^-1 (Kalpha - diag(D)) S^-1 / eps is the symmetric conjugated
    generator, a dense ndarray or, on a support, the whole symmetric CSR; the
    Markov generator itself is S^-1 Lhat S. Kalpha is not kept: off the
    diagonal Lhat is positive wherever Kalpha is, save where the scaling
    underflows, and zero elsewhere.
    """

    eps: float
    alpha: float
    qS: np.ndarray
    Lhat: object
    P: np.ndarray
    D: np.ndarray
    S: np.ndarray


def kernel_matrix(cloud, rho, eps, support=None):
    """Variable-bandwidth Gaussian kernel K_ij = exp(-r_ij^2/(4 eps rho_i rho_j)).

    Without a ``support`` the full dense matrix is computed. With one (a
    :class:`neighbors.SupportPairs`) the result is the CSR of the strict
    upper triangle on the support's own index arrays, which it shares; the
    diagonal, all ones, is implicit. A pair whose value underflows stays
    stored as an explicit zero. A support scaled by ``rho`` costs one divide
    and one exp per pair; one scaled by another bandwidth raises
    ``ValueError``.
    """
    rho = np.asarray(rho, dtype=float)
    if support is None:
        k = np.empty((rho.size, rho.size))
        for start, stop in neighbors._blocks(rho.size, neighbors._SUPPORT_BLOCK):
            _dense_rows(cloud, eps, start, stop, rho, rho, out=k[start:stop])
        return k
    row_bw, col_bw = _unscaled(support, rho, rho)
    return sparse.csr_matrix(
        (_kernel_values(support, eps, 0, support.n, row_bw, col_bw),
         support.indices, support.indptr), shape=(support.n, support.n))


def _dense_rows(cloud, eps, start, stop, row_bw, col_bw, out=None):
    """exp(-r_ij^2 / (4 eps row_bw_i col_bw_j)) of rows start:stop against
    all points, written into ``out`` when given."""
    k = cdist(cloud.points[start:stop], cloud.points, "sqeuclidean", out=out)
    # one row's divisors at a time, each the IEEE product -4 eps (a_i b_j)
    # that a whole outer product gives, so no block of divisors is held
    den = np.empty(col_bw.shape[0])
    for row, bw in zip(k, row_bw[start:stop]):
        np.multiply(col_bw, bw, out=den)
        den *= -4.0 * eps
        row /= den
    return np.exp(k, out=k)


def _unscaled(support, row_bw, col_bw):
    """The bandwidths ``_kernel_values`` still has to divide the values of
    ``support`` by: both, on raw r^2, or (None, None) on a support scaled by
    the one bandwidth both sides use. Any other pairing raises ``ValueError``,
    as its kernel would be wrongly scaled."""
    if support.bandwidth is None:
        return row_bw, col_bw
    if row_bw is not col_bw or not np.array_equal(support.bandwidth, row_bw):
        raise ValueError("the support is scaled by a bandwidth other than "
                         "the one on both sides of this kernel")
    return None, None


def _kernel_values(support, eps, start, stop, row_bw, col_bw, out=None):
    """exp(-r_ij^2 / (4 eps row_bw_i col_bw_j)) over the entries of rows
    start:stop of ``support``, or, with no bandwidths (see ``_unscaled``),
    exp(-t_ij / (4 eps)) of a scaled support's t_ij, written into ``out``."""
    lo, hi = support.indptr[start], support.indptr[stop]
    # the sign rides on the scale: IEEE products and quotients are exact in
    # sign, so r2 / -(4 eps a b) is -(r2 / (4 eps a b)) bit for bit. When
    # 4 eps is a power of two, (r2 / (a b)) / -(4 eps) is the same double
    if row_bw is None:
        den = np.divide(support.r2[lo:hi], -4.0 * eps, out=out)
    else:
        # b_j (-4 eps a_i) is the same double as (-4 eps a_i) b_j; "clip"
        # gathers into out unbuffered, and the columns are in range
        den = np.take(col_bw, support.indices[lo:hi], out=out, mode="clip")
        den *= np.repeat(-4.0 * eps * row_bw[start:stop],
                         np.diff(support.indptr[start:stop + 1]))
        np.divide(support.r2[lo:hi], den, out=den)
    return np.exp(den, out=den)


def kernel_products(cloud, rho, eps, formulation, *vectors, support=None):
    """K @ v for each of ``vectors``, K the kernel of ``formulation``.

    K_ij takes the bandwidths ``formulation`` names (see
    :func:`apply_generator`) from its row and column points. K is evaluated
    and multiplied one block of rows at a time and never held whole.
    Without a ``support`` K covers all pairs, a ``cdist`` block at a time.
    With one (a SupportPairs) K_ij and K_ji both come from the one stored
    pair i < j, and K_ii = 1; every product entry is then summed over its
    row in column order, as the whole matrix would give, whatever the blocks.
    A support scaled by ``rho`` (symmetric formulation only; anything else
    raises ``ValueError``) costs one divide and one exp per pair, into one
    block buffer reused across blocks.
    """
    n = cloud.n_points
    ones = np.ones(n)
    row_bw, col_bw = {"left": (rho, ones), "right": (ones, rho),
                      "symmetric": (rho, rho)}[formulation]
    blocks = neighbors._blocks(n, neighbors._SUPPORT_BLOCK)
    if support is not None:
        row_bw, col_bw = _unscaled(support, row_bw, col_bw)
        buf = np.empty(max(int(support.indptr[stop] - support.indptr[start])
                           for start, stop in blocks))
    out = [np.zeros(n) for _ in vectors]
    for start, stop in blocks:
        if support is None:
            k = _dense_rows(cloud, eps, start, stop, row_bw, col_bw)
            for product, v in zip(out, vectors):
                product[start:stop] = k @ v
            del k  # before the next block's distances
        else:
            lo, hi = support.indptr[start], support.indptr[stop]
            ptr = support.indptr[start:stop + 1] - lo
            cols = support.indices[lo:hi]
            upper = _kernel_values(support, eps, start, stop, row_bw, col_bw,
                                   buf[:hi - lo])
            lower = (upper if formulation == "symmetric" else
                     _kernel_values(support, eps, start, stop, col_bw, row_bw))
            for product, v in zip(out, vectors):
                _add_products(product, v, start, ptr, cols, upper, lower, 1.0)
            del upper, lower  # before the next block's values
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


def _scaled(mat, w):
    """Overwrite M with w_i M_ij w_j: a dense M a row at a time, or the data
    of the CSR of a strict upper triangle."""
    if sparse.issparse(mat):
        mat.data *= np.repeat(w, np.diff(mat.indptr))
        mat.data *= np.take(w, mat.indices)
        return mat
    scale = np.empty(w.size)
    for row, wi in zip(mat, w):
        row *= np.multiply(w, wi, out=scale)
    return mat


def build_generator(cloud, rho, eps, alpha, support=None):
    """Run kernel -> density -> alpha -> conjugation for one epsilon.

    With K the kernel: qS = K 1 / rho^d, Kalpha = W K W with
    W = diag(qS^(-alpha)), D = Kalpha 1, S = rho sqrt(D) and
    Lhat = (S^-1 Kalpha S^-1 - diag(rho^-2)) / eps, whose eigenvectors
    are S times those of the Markov generator. One array is K, then Kalpha,
    then Lhat: without a ``support`` an n-by-n array, on one the CSR of a
    strict upper triangle on the support's pattern, whose diagonals, 1 and
    qS^(-2 alpha), stay implicit. There Lhat is then assembled whole,
    exactly symmetric, and holds exactly the off-diagonal entries that do
    not underflow to zero.
    """
    if cloud.intrinsic_dim is None:
        raise ValueError("the cloud's intrinsic dimension is unknown")
    rho = np.asarray(rho, dtype=float)
    k = kernel_matrix(cloud, rho, eps, support=support)
    qs = _row_sums(k, 1.0) / rho**cloud.intrinsic_dim
    w = qs ** (-alpha)
    kalpha = _scaled(k, w)
    degree = _row_sums(kalpha, w * w)
    s = rho * np.sqrt(degree)
    inv_s = 1.0 / s
    shift = 1.0 / rho**2
    lhat = _scaled(kalpha, inv_s)
    if sparse.issparse(lhat):
        lhat.data /= eps
        diag = (w * w * inv_s * inv_s - shift) / eps
        # the sum stores no zero: the pairs that underflowed leave the pattern
        lhat = sparse.diags(diag, format="csr") + lhat + lhat.T
    else:
        np.fill_diagonal(lhat, lhat.diagonal() - shift)
        lhat /= eps
    return GeneratorMatrices(eps=eps, alpha=alpha, qS=qs, Lhat=lhat, P=rho,
                             D=degree, S=s)


def apply_generator(cloud, rho, eps, alpha, formulation, f, support=None):
    """Apply one kernel-ratio generator estimate to a function sample.

    ``formulation`` picks where the bandwidth enters the kernel argument:
    'left' uses eps rho_i, 'right' uses eps rho_j, and 'symmetric' uses
    eps rho_i rho_j. The estimate at point i is

        (sum_j K_ij w_j f_j / sum_j K_ij w_j - f_i) / (eps rho_i^p)

    with p = 1 for left/right and p = 2 for symmetric (the shape ratio m
    that would multiply eps is 1). The weights w_j are identically one
    except in the symmetric formulation with alpha != 0, where
    w_j = qS_j^(-alpha), qS as in :func:`build_generator`, removes
    sampling-density bias (the i-side factor cancels in the ratio).
    """
    if formulation not in FORMULATIONS:
        raise ValueError(f"formulation must be one of {FORMULATIONS}")
    if alpha != 0.0 and formulation != "symmetric":
        raise ValueError("alpha-normalization applies to the symmetric formulation only")
    if alpha != 0.0 and cloud.intrinsic_dim is None:
        raise ValueError("alpha-normalization needs the cloud's intrinsic "
                         "dimension")
    rho = np.asarray(rho, dtype=float)
    f = np.asarray(f, dtype=float)
    w = np.ones(cloud.n_points)
    if alpha != 0.0:
        # a first pass: kernel row sums give the density estimate behind w
        sums, = kernel_products(cloud, rho, eps, "symmetric", w, support=support)
        w = (sums / rho**cloud.intrinsic_dim) ** (-alpha)
    num, den = kernel_products(cloud, rho, eps, formulation, w * f, w,
                               support=support)
    p = 2 if formulation == "symmetric" else 1
    return (num / den - f) / (eps * rho**p)


def save_sparse_csv(mat, path):
    """Write a sparse matrix as (i, j, value) coordinate triples."""
    coo = sparse.coo_matrix(mat)
    out = np.column_stack([coo.row, coo.col, coo.data])
    np.savetxt(path, out, fmt=["%d", "%d", "%.17g"], delimiter=",",
               header="i,j,value", comments="")
