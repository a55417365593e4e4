"""Traced peak memory against bounds derived from what each stage must hold.

numpy reports its array allocations to ``tracemalloc``, so the traced peak
of a call counts every temporary it holds at once. Each bound is the output
plus what one block may hold, plus 1 MiB for small arrays and Python
objects; a whole-support temporary does not fit in it.
"""

import tracemalloc

import numpy as np
import pytest

from vbdiffusion import kernel, neighbors, pointcloud, spectral

from oracles import mirrored_spectrum, planted_generator

_SLACK = 1 << 20
_N, _K = 20_000, 128


def _traced_peak(fn):
    """fn() and the peak of its traced allocations above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def cloud():
    return pointcloud.gen_gaussian_random(_N, 2, seed=4)


@pytest.fixture(scope="module")
def pairs(cloud):
    sup = neighbors.symmetrized_support(neighbors.knn(cloud, _K))
    return neighbors.support_pairs(cloud, sup)


def _largest_block(pairs):
    return max(int(pairs.indptr[stop] - pairs.indptr[start])
               for start, stop in pairs.blocks())


def test_knn_holds_one_query_block(cloud):
    graph, peak = _traced_peak(lambda: neighbors.knn(cloud, _K))
    out = graph.indices.nbytes + graph.distances.nbytes
    rows = min(neighbors._QUERY_BLOCK, _N)
    # per block: the query's distances and indices, the sort key, and the
    # boolean masks and scratch, worth less than one more 8-byte array; the
    # kd-tree keeps a copy of the points and an index per point
    block = 4 * rows * _K * 8
    tree = _N * (cloud.points.shape[1] + 1) * 8
    assert peak <= out + block + tree + _SLACK, (peak, out)


def test_support_pairs_hold_one_row_block(cloud, pairs):
    sup = neighbors.symmetrized_support(neighbors.knn(cloud, _K))
    got, peak = _traced_peak(lambda: neighbors.support_pairs(cloud, sup))
    d = cloud.points.shape[1]
    # per block: the repeated row points and the gathered column points
    # (d values per entry each), their einsum, and one count per row
    block = _largest_block(pairs) * (2 * d + 1) * 8 + neighbors._SUPPORT_BLOCK * 8
    assert peak <= got.r2.nbytes + block + _SLACK, (peak, got.r2.nbytes)


def test_apply_generator_holds_one_row_block(cloud, pairs):
    rho = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    f = np.sin(cloud.points[:, 0])
    _, peak = _traced_peak(lambda: kernel.apply_generator(
        cloud, rho, 0.01, 0.3, "symmetric", f, support=pairs))
    # the output and its length-n companions (numerator, denominator,
    # weights, their product and temporaries), then per block the kernel
    # values, one gathered bandwidth and the rebased row pointer
    vectors = 10 * _N * 8
    block = 3 * _largest_block(pairs) * 8
    assert peak <= vectors + block + _SLACK, peak


@pytest.mark.parametrize("even, odd, lo, solver", [
    ([0.0, -1.0, -2.0], [-1.5, -3.0], 10.0, "dense cholesky shift-invert"),
    # a tight cluster at the fifth eigenvalue spends the solve budget
    ([0.0, -1.0, -2.0, -2.548], [-2.5475, -2.5481], 2.549,
     "eigh (lanczos budget spent)"),
])
def test_dense_solve_holds_one_matrix_copy(even, odd, lo, solver):
    n = 1500
    gm = planted_generator(mirrored_spectrum(even, odd, n, lo=lo))
    spec, peak = _traced_peak(lambda: spectral.eigs_near_zero(gm, 5))
    assert spec.solver == solver
    # the copy of Lhat that the Cholesky factor overwrites, or that eigh
    # reduces once the factor is freed, and ARPACK's Lanczos basis
    # (n x ncv), which it copies to Fortran order to extract eigenvectors;
    # a second n x n array does not fit
    basis = 2 * n * spectral._ncv(n, 5) * 8
    assert peak <= n * n * 8 + basis + _SLACK, (peak, n * n * 8)
