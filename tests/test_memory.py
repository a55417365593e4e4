"""Traced peak memory against bounds derived from what each stage must hold.

numpy reports its array allocations to ``tracemalloc``, so the traced peak
of a call counts every temporary it holds at once. Each bound is the output
plus what one block may hold, plus 1 MiB for small arrays and Python
objects; a whole-support temporary does not fit in it. Allocated bytes are
not resident pages, and LAPACK's and ARPACK's work arrays are not traced,
so the resident peaks of the support builder and of a whole dense run are
also bounded, each in a fresh interpreter.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse.csgraph import reverse_cuthill_mckee

import vbdiffusion
from vbdiffusion import (density, harness, kernel, neighbors, pointcloud, spectral,
                         tuning)

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
    return neighbors.symmetrized_support(cloud, _K)


def _query_rows(n, k):
    """Rows per kd-tree query block."""
    return min(neighbors._QUERY_BLOCK, neighbors._QUERY_ENTRIES // k, n)


def _largest_block(pairs):
    blocks = neighbors._blocks(pairs.n, neighbors._SUPPORT_BLOCK)
    return max(int(pairs.indptr[stop] - pairs.indptr[start]) for start, stop in blocks)


def _pairs_bytes(pairs):
    return pairs.indptr.nbytes + pairs.indices.nbytes + pairs.r2.nbytes


def test_knn_holds_one_query_block(cloud):
    graph, peak = _traced_peak(lambda: neighbors.knn(cloud, _K))
    out = graph.indices.nbytes + graph.distances.nbytes
    rows = _query_rows(_N, _K)
    # per block: the query's distances and indices, the sort key, and the
    # boolean masks and scratch, worth less than one more 8-byte array; the
    # kd-tree keeps a copy of the points and an index per point
    block = 4 * rows * _K * 8
    tree = _N * (cloud.points.shape[1] + 1) * 8
    assert peak <= out + block + tree + _SLACK, (peak, out)


def _keys_and_extras(cloud, k, got):
    """The bytes of the int64 keys that the support builder keeps, one per
    pair (i, j), i < j, that row j lists at or beyond row i's k-th distance
    R_i, and per row i the number of its extras: those pairs that row i does
    not list, inserted into its columns."""
    graph = neighbors.knn(cloud, k)
    rows = np.arange(cloud.n_points)[:, None]
    far = graph.distances >= graph.distances[graph.indices, -1]
    keys = np.count_nonzero((graph.indices < rows) & far) * 8
    return keys, np.diff(got.indptr) - np.count_nonzero(graph.indices > rows, axis=1)


def test_support_builder_holds_no_neighbor_graph(cloud):
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = neighbors.symmetrized_support(cloud, _K)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    output = _pairs_bytes(got)
    # every row lists k - 1 points other than itself: the column store has
    # room for all of them, though only the upper ones are written; beside it
    # the row pointers and each row's k-th distance R_i
    listed = _N * (_K - 1)
    store = listed * 4 + (_N + 1) * 8 + _N * 8
    keys, extras = _keys_and_extras(cloud, _K, got)
    # one query block: the distances, indices and self mask, 17 bytes per
    # entry; per block of support rows, a sorted int32 copy and a mask, or
    # the gathered R_i and two masks, at most 10 bytes per entry; the
    # kd-tree's copy of the points and an index per point
    rows = _query_rows(_N, _K)
    tree = _N * (cloud.points.shape[1] + 1) * 8
    stream = store + keys + rows * _K * 17 + neighbors._SUPPORT_BLOCK * _K * 10 + tree
    # the keys twice while they are joined; then in place, each row's shift
    # and per query block of rows its columns with their extras inserted and
    # np.insert's mask, 5 bytes per entry, and the decoded pairs, binary
    # search and insert positions, under 128 bytes per extra
    blocks = neighbors._blocks(_N, neighbors._QUERY_BLOCK)
    merge = store + 2 * keys + (_N + 1) * 8 + max(
        int(got.indptr[stop] - got.indptr[start]) * 5
        + int(extras[start:stop].sum()) * 128 for start, stop in blocks)
    d = cloud.points.shape[1]
    pair = _largest_block(got) * (2 * d + 1) * 8 + neighbors._SUPPORT_BLOCK * 8
    # one phase after another: the store with one query block; the store and
    # one block of the merge; the output and one block of pair distances
    bound = max(stream, merge, output + pair)
    assert peak <= bound + _SLACK, (peak, bound)
    # the n x k distances of a whole neighbor graph, filled in alongside the
    # column store, do not fit
    assert listed * 4 + _N * _K * 8 > bound + _SLACK
    # the output owns right-sized arrays: nothing of the column store is kept
    assert kept <= output + _SLACK, (kept, output)


_STATUS = Path("/proc/self/status")


@pytest.mark.skipif(not _STATUS.exists(), reason="no /proc/self/status")
def test_support_builder_resident_peak():
    # a grid ties many pairs at the k-th distance; the high-water mark of
    # resident pages counts what the allocator keeps of freed blocks, which
    # tracemalloc does not see. A small build first starts the kd-tree's
    # query threads, whose allocator arenas stay
    n_side, k = 150, 300
    probe = ("import sys\n"
             "from vbdiffusion import neighbors, pointcloud\n"
             "def status(key):\n"
             "    for line in open('/proc/self/status'):\n"
             "        if line.startswith(key + ':'):\n"
             "            return int(line.split()[1]) * 1024\n"
             "neighbors.symmetrized_support(pointcloud.gen_torus_grid(10), 8)\n"
             "cloud = pointcloud.gen_torus_grid(int(sys.argv[1]))\n"
             "before = status('VmRSS')\n"
             "neighbors.symmetrized_support(cloud, int(sys.argv[2]))\n"
             "print(status('VmHWM') - before)\n")
    src = str(Path(vbdiffusion.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe, str(n_side), str(k)],
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True)
    growth = int(out.stdout)
    cloud = pointcloud.gen_torus_grid(n_side)
    got = neighbors.symmetrized_support(cloud, k)
    n, d = cloud.n_points, cloud.points.shape[1]
    # the phases of test_support_builder_holds_no_neighbor_graph, but only
    # the written part of the column store is resident, fewer columns than
    # the output's: so while the query blocks stream, the columns, row
    # pointers, k-th distances and keys, one query block (17 bytes per
    # entry), one block of support rows (10) and the kd-tree; the merge
    # holds less
    keys, _ = _keys_and_extras(cloud, k, got)
    rows = _query_rows(n, k)
    stream = (got.indices.nbytes + n * 16 + keys + rows * k * 17
              + neighbors._SUPPORT_BLOCK * k * 10 + n * (d + 1) * 8)
    pair = _largest_block(got) * (2 * d + 1) * 8
    # glibc raises its mmap threshold to the largest array freed, a query
    # block's distances, so later blocks of at most that size come from the
    # heap, which keeps up to twice the threshold free and resident; and
    # 1 MiB for interpreter pages
    kept = 2 * rows * k * 8 + _SLACK
    bound = max(stream, _pairs_bytes(got) + pair) + kept
    assert growth <= bound, (growth, bound)


def test_support_pairs_hold_one_row_block(cloud, pairs):
    got, peak = _traced_peak(lambda: neighbors._sq_dists(
        cloud.points, pairs.indptr, pairs.indices))
    d = cloud.points.shape[1]
    # per block: the repeated row points and the gathered column points
    # (d values per entry each), their einsum, and one count per row
    block = _largest_block(pairs) * (2 * d + 1) * 8 + neighbors._SUPPORT_BLOCK * 8
    assert peak <= got.nbytes + block + _SLACK, (peak, got.nbytes)


def test_scaled_pairs_hold_one_row_block(cloud, pairs):
    x = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    got, peak = _traced_peak(lambda: neighbors.scaled_pairs(cloud, x, pairs))
    # the column values are gathered straight into the output; per block,
    # first the 8-byte intp copy of its int32 columns that np.take makes,
    # then the repeated row values, and one count per row. A whole-support
    # row index or gather does not fit
    block = _largest_block(pairs) * 8 + neighbors._SUPPORT_BLOCK * 8
    assert pairs.nnz * 8 > 4 * (block + _SLACK)
    assert peak <= got.nbytes + block + _SLACK, (peak, got.nbytes)


def test_scale_support_holds_one_row_block(cloud, pairs):
    x = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    twin = replace(pairs, r2=pairs.r2.copy())
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = neighbors.scale_support(twin, x)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert got is twin
    # the support's r2 is divided in place; per block, the products: their
    # gathered column values beside either the intp copy of the block's
    # int32 columns or the repeated row values, and one count per row;
    # beside them the copy of the bandwidth that the support records. A
    # second whole-support array does not fit
    block = 2 * _largest_block(pairs) * 8 + neighbors._SUPPORT_BLOCK * 8
    bound = block + _N * 8
    assert pairs.nnz * 8 > bound + _SLACK
    assert peak <= bound + _SLACK, (peak, bound)
    assert kept <= _N * 8 + _SLACK, kept


def _apply_vectors():
    """What apply_generator holds besides a block's kernel values, at most:
    the output and its length-n companions; with alpha != 0 the weights,
    the row sums and w * f beside the numerator and denominator and
    kernel_products' ones, or, at the end, the weights, the row sums, the
    numerator, the denominator and three temporaries of the estimate."""
    return 7 * _N * 8


def test_apply_generator_holds_one_row_block(cloud, pairs):
    rho = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    f = np.sin(cloud.points[:, 0])
    _, peak = _traced_peak(lambda: kernel.apply_generator(
        cloud, rho, 0.01, 0.3, "symmetric", f, support=pairs))
    # per block, one buffer of kernel values, reused, and beside it either
    # the intp copy of the block's int32 columns that np.take makes or the
    # repeated row bandwidths; and the rebased row pointer
    block = 2 * _largest_block(pairs) * 8 + neighbors._SUPPORT_BLOCK * 8
    assert peak <= _apply_vectors() + block + _SLACK, peak


def test_apply_generator_on_a_scaled_support_holds_one_block_of_values(
        cloud, pairs, monkeypatch):
    rho = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    f = np.sin(cloud.points[:, 0])
    scaled = neighbors.scale_support(replace(pairs, r2=pairs.r2.copy()), rho)
    # blocks wide enough that one more block-sized array exceeds the slack
    monkeypatch.setattr(neighbors, "_SUPPORT_BLOCK", 4096)
    _, peak = _traced_peak(lambda: kernel.apply_generator(
        cloud, rho, 0.01, 0.3, "symmetric", f, support=scaled))
    # per block, the one reused buffer of kernel values and the rebased row
    # pointer: no gathered bandwidth, nor the intp copy of a gather's index
    block = _largest_block(pairs) * 8 + neighbors._SUPPORT_BLOCK * 8
    assert _largest_block(pairs) * 8 > _SLACK
    assert peak <= _apply_vectors() + block + _SLACK, peak


def test_all_pairs_apply_holds_one_row_block():
    n = 4000
    cloud = pointcloud.gen_gaussian_random(n, 2, seed=4)
    rho = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    f = np.sin(cloud.points[:, 0])
    _, peak = _traced_peak(lambda: kernel.apply_generator(
        cloud, rho, 0.01, 0.3, "symmetric", f))
    # the length-n vectors as on a support, then per block the squared
    # distances, exponentiated in place, and the bandwidth products they are
    # divided by; a block kept alive into the next one does not fit
    vectors = 10 * n * 8
    block = 2 * neighbors._SUPPORT_BLOCK * n * 8
    assert peak <= vectors + block + _SLACK, peak


def test_operator_template_keeps_its_text_alone():
    n = 20_000
    rng = np.random.default_rng(5)

    def widest(shape):
        # negative, three-digit exponents: up to 24 characters of %.17g
        return -rng.uniform(1.0, 10.0, shape) * 10.0 ** -rng.integers(100, 300, shape)

    latent, f, ref = widest((n, 2)), widest(n), widest(n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        template = harness._operator_template(latent, f, ref)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    # per row, four values of at most 24 characters, four commas, the
    # five-character estimate field and a newline, one byte each in ASCII
    bound = n * (4 * 24 + 10)
    assert kept <= bound + _SLACK, (kept, bound)
    # the same text held as one string per row, each with its object header
    # and a list slot, does not fit
    text = sum(len(block) for block in template)
    assert text + n * (sys.getsizeof("") + 8) > bound + _SLACK


def test_dense_generator_is_built_in_one_matrix():
    n = 3000
    cloud = pointcloud.gen_sphere_nonuniform(n, seed=1)
    rho = 1.0 + 0.1 * cloud.points[:, 2]
    gm, peak = _traced_peak(lambda: kernel.build_generator(cloud, rho, 0.02, 0.5))
    # Lhat, which is the kernel scaled in place into it, and _build_vectors;
    # cdist writes each block's distances straight into the kernel, and
    # r_ij^2 and r_ji^2 come from one formula whose terms do not change under
    # the swap, so the kernel is exactly symmetric without a condensed copy.
    # A second n x n array does not fit, nor one 256 x n block beside Lhat
    bound = n * n * 8 + _build_vectors(n)
    assert neighbors._SUPPORT_BLOCK * n * 8 > _build_vectors(n) + _SLACK
    assert peak <= bound + _SLACK, (peak, bound)
    assert np.array_equal(gm.Lhat, gm.Lhat.T)


def _build_vectors(n):
    """What the dense build holds besides Lhat, at most: the length-n
    vectors of the cascade (qS, its weights, D, S, 1/S, 1/rho^2 and their
    temporaries) and one row's divisors or scale, fewer than ten."""
    return 10 * n * 8


def _solve_block(n):
    """What the dense solve holds besides Lhat and ARPACK's basis, at most:
    the connectivity check's labels, frontier and masks, the saved diagonal
    and ARPACK's start and work vectors, fewer than ten length-n vectors;
    each frontier row is compared with zero in place, and the factor is made
    and undone in place, one 256 x 256 tile at a time under one mask."""
    return 10 * n * 8 + neighbors._SUPPORT_BLOCK ** 2


def test_dense_generator_and_solve_hold_lhat_and_its_factor():
    n = 1500
    cloud = pointcloud.gen_sphere_nonuniform(n, seed=1)
    rho = 1.0 + 0.1 * cloud.points[:, 2]

    def run():
        gm = kernel.build_generator(cloud, rho, 0.02, 0.5)
        return gm, spectral.eigs_near_zero(gm, 5)

    (gm, spec), peak = _traced_peak(run)
    assert spec.solver == "dense cholesky shift-invert"
    # Lhat, which holds its own Cholesky factor while the solve runs, the
    # build's vectors (test_dense_generator_is_built_in_one_matrix), some of
    # which gm keeps, and what the solve holds
    # (test_dense_solve_holds_one_matrix_copy); a second n x n array does not
    # fit
    basis = 2 * n * spectral._ncv(n, 5) * 8
    bound = n * n * 8 + _build_vectors(n) + basis + _solve_block(n)
    assert n * n * 8 > bound - n * n * 8 + _SLACK
    assert peak <= bound + _SLACK, (peak, bound)
    rebuilt = kernel.build_generator(cloud, rho, 0.02, 0.5).Lhat
    np.testing.assert_array_equal(gm.Lhat, rebuilt)


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
    # shift-invert factors in Lhat's own array, so it holds ARPACK's Lanczos
    # basis (n x ncv), which it copies to Fortran order to extract
    # eigenvectors, and a few length-n vectors: no n x n array, nor one
    # 256 x n block of rows. eigh reduces a copy of Lhat once the factor is
    # undone: one n x n array
    basis = 2 * n * spectral._ncv(n, 5) * 8
    bound = basis + _solve_block(n)
    assert n * n * 8 > 2 * (bound + _SLACK)
    assert neighbors._SUPPORT_BLOCK * n * 9 > _solve_block(n) + _SLACK
    if solver.startswith("eigh"):
        bound = n * n * 8 + basis
    assert peak <= bound + _SLACK, (peak, bound)


def test_all_pairs_kde_holds_its_pairs_and_one_row_block():
    n = 3000
    cloud = pointcloud.gen_sphere_nonuniform(n, seed=1)
    rho0 = 0.2 + 0.1 * cloud.points[:, 0] ** 2
    _, peak = _traced_peak(lambda: density.kde_pilot(cloud, rho0))
    # pdist's condensed array, exponentiated in place, and one 256 x n block
    # of its rows laid out square; each row's gather index and the length-n
    # vectors (the pair offsets, sums, rho0^d and products), fewer than ten.
    # A second condensed array does not fit, nor the square matrix
    pairs = n * (n - 1) // 2 * 8
    bound = pairs + neighbors._SUPPORT_BLOCK * n * 8 + 10 * n * 8
    assert pairs > bound - pairs + _SLACK
    assert peak <= bound + _SLACK, (peak, bound)


def test_tuning_curve_holds_its_pairs_and_one_chunk():
    n = 3000
    cloud = pointcloud.gen_sphere_nonuniform(n, seed=1)
    rho = 1.0 + 0.1 * cloud.points[:, 2]
    grid = tuning._DEFAULT_EXPONENTS
    _, peak = _traced_peak(lambda: tuning.s_curve(cloud, rho))
    # the condensed scaled pairs, sorted in place, each divided while built
    # by one row's bandwidth products (n values); one _CHUNK buffer that each
    # exponent exponentiates or squares in place; and the grid-length
    # vectors (eps, underflow prefixes, visit order and schedule, sums, S,
    # slopes and temporaries), fewer than twenty. A per-exponent copy of the
    # pairs does not fit, nor a second chunk buffer for every exponent
    pairs = n * (n - 1) // 2 * 8
    bound = pairs + n * 8 + tuning._CHUNK * 8 + 20 * grid.size * 8
    assert pairs > bound - pairs + _SLACK
    assert grid.size * tuning._CHUNK * 8 > bound - pairs + _SLACK
    assert peak <= bound + _SLACK, (peak, bound)


@pytest.mark.skipif(not _STATUS.exists(), reason="no /proc/self/status")
def test_dense_run_resident_peak(tmp_path):
    # a whole sphere run on the dense path, after a smaller one that loads
    # every module and starts the BLAS and ARPACK code; tracemalloc does not
    # see LAPACK's or ARPACK's work arrays, resident pages do
    n = 1500
    probe = ("import sys\n"
             "from vbdiffusion import harness\n"
             "def status(key):\n"
             "    for line in open('/proc/self/status'):\n"
             "        if line.startswith(key + ':'):\n"
             "            return int(line.split()[1]) * 1024\n"
             "def run(n, out):\n"
             "    return harness.run_experiment(harness.ExperimentConfig(\n"
             "        experiment='sphere', N=n, output_dir=out))\n"
             "run(700, sys.argv[2] + '/small')\n"
             "before = status('VmRSS')\n"
             "table = run(int(sys.argv[1]), sys.argv[2] + '/run')\n"
             "print(status('VmHWM') - before)\n"
             "print(*set(table.metadata['eigensolver'].values()))\n")
    src = str(Path(vbdiffusion.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", probe, str(n), str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True)
    growth, solvers = out.stdout.splitlines()
    assert solvers == "dense cholesky shift-invert"
    # the largest stage holds one n x n array and less than two 256 x n
    # blocks beside it (the solve's basis and vectors); the KDE and the
    # tuning curve hold less, the condensed pairs and a block or a chunk.
    # Beside that, for freed arrays that the allocator keeps resident, the
    # condensed pairs' bytes, and 1 MiB for interpreter pages. Lhat and a
    # copy of it, or the condensed pairs twice beside a square matrix, do not
    # fit
    square, pairs = n * n * 8, n * (n - 1) // 2 * 8
    bound = square + pairs + 2 * neighbors._SUPPORT_BLOCK * n * 8 + _SLACK
    assert 2 * square > bound
    assert int(growth) <= bound, (int(growth), bound)


def test_banded_solve_factors_its_band_in_place():
    n = 6000
    cloud = pointcloud.gen_gaussian_random(n, 2, seed=4)
    support = neighbors.symmetrized_support(cloud, 64)
    lhat = kernel.build_generator(cloud, np.ones(n), 0.01, 0.0, support=support).Lhat
    # the half-bandwidth of Lhat with its points in reverse Cuthill-McKee order
    rank = np.empty(n, dtype=np.intp)
    rank[reverse_cuthill_mckee(lhat, symmetric_mode=True)] = np.arange(n)
    coo = lhat.tocoo()
    band = (int(np.abs(rank[coo.row] - rank[coo.col]).max()) + 1) * n * 8
    _, peak = _traced_peak(lambda: spectral._banded_solve(lhat, 1e-3))
    # the band, which LAPACK factors in place; per block of rows, the
    # renumbered rows, columns and offsets and the selected lower entries,
    # fewer than eight 8-byte arrays per entry; the order, its inverse and
    # the renumbering's work arrays, fewer than eight of length n. A copy of
    # the band does not fit
    blocks = neighbors._blocks(n, neighbors._SUPPORT_BLOCK)
    block = 8 * 8 * max(int(lhat.indptr[stop] - lhat.indptr[start])
                        for start, stop in blocks)
    assert band > 4 * (block + 8 * n * 8 + _SLACK)
    assert peak <= band + block + 8 * n * 8 + _SLACK, (peak, band)
