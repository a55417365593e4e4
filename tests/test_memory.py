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


def _extras(got, k):
    """Per row i, the number of its extras: its pairs (i, j), i < j, beyond
    its k-th smallest squared distance R_i^2, which only R_j reaches. The
    support holds every point's last shell, so R_i^2 is the (k - 1)-th
    smallest r^2 among the pairs of point i."""
    n = got.n
    rows = np.repeat(np.arange(n), np.diff(got.indptr))
    ends = np.concatenate([rows, got.indices])
    r2 = np.concatenate([got.r2, got.r2])
    r2 = r2[np.lexsort((r2, ends))]
    start = np.searchsorted(np.sort(ends), np.arange(n))
    radius = r2[start + k - 2]
    beyond = got.r2 > radius[rows]
    return np.bincount(rows[beyond], minlength=n)


def _cell_sizes(cloud, k, got):
    """Per cell of the support build, its rows times its candidates in pass
    A (pass B's lie within a smaller reach) and the entries that its rows
    hold in the output (a bound on their upper pairs); and the most
    candidates that one query of a chunk of cells returns."""
    tree, cells, centre, spread, kth = neighbors._cells(cloud.points, k)
    found = np.array([c.size for c in neighbors._candidates(
        tree, centre, kth + 2.0 * spread)])
    size = np.array([rows.size for rows in cells])
    held = np.diff(got.indptr)
    upper = np.array([int(held[rows].sum()) for rows in cells])
    chunk = max(int(found[lo:hi].sum())
                for lo, hi in neighbors._blocks(found.size, neighbors._CELL_QUERY))
    return size * found, upper, chunk


def _traced_build(cloud, **bandwidth):
    """A support of the cloud, the traced bytes it keeps and its traced peak."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = neighbors.symmetrized_support(cloud, _K, **bandwidth)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return got, kept, peak


def _builder_bound(cloud, got, k=_K):
    """What the support builder may hold at once: the output arrays, which it
    allocates once at their size, beside one of its phases, plus the
    length-n vectors."""
    n, d = cloud.points.shape
    entries, upper, chunk = _cell_sizes(cloud, k, got)
    extras = _extras(got, k)
    # pass A: a cell's distance block and its partitioned copy, or the block
    # and three masks; pass B: the block and four masks, and per upper pair
    # its slot and that slot's offset, column, value and repeated row, 32
    # bytes, and on a scaled build the two gathered bandwidths and their
    # product, 24 more. Beside them the candidates of one chunk of cells, a
    # Python int and a list slot each and then an int32, and the extras'
    # keys and values, 16 bytes each
    per_pair = 32 if got.bandwidth is None else 56
    cell = int(np.max(np.maximum(16 * entries, 12 * entries + per_pair * upper)))
    passes = cell + chunk * 44 + int(extras.sum()) * 16
    # then the extras sorted: the keys, values, order and one sorted copy;
    # and per block of the merge, its entries moved (an int32, a double and
    # np.insert's mask, 13 bytes each) and per extra its decoded pair and
    # binary search, under 128 bytes
    blocks = neighbors._blocks(n, neighbors._SUPPORT_BLOCK)
    merge = int(extras.sum()) * 32 + max(
        int(got.indptr[stop] - got.indptr[start]) * 13
        + int(extras[start:stop].sum()) * 128 for start, stop in blocks)
    # the length-n vectors (each R_i^2, the int64 row pointers, the shifts
    # and the int32 row pointers), the kd-tree's copy of the points and an
    # index per point, the tree order, and per cell its centre, radius, R_c,
    # largest R_i^2 and its rows' view
    cells = entries.size
    vectors = 40 * (n + 1) + n * (d + 1) * 8 + 4 * n + cells * ((d + 3) * 8 + 128)
    return _pairs_bytes(got) + max(passes, merge) + vectors


def test_support_builder_holds_no_neighbor_graph(cloud):
    got, kept, peak = _traced_build(cloud)
    bound = _builder_bound(cloud, got)
    assert peak <= bound + _SLACK, (peak, bound)
    # the n x k distances of a neighbor graph do not fit beside the output
    assert _N * _K * 8 > bound - _pairs_bytes(got) + _SLACK
    # a second array of the pair distances, as a build that grows them by
    # copying would hold, does not fit
    assert got.r2.nbytes > bound - _pairs_bytes(got) + _SLACK
    # the output owns right-sized arrays: nothing of the build is kept
    assert kept <= _pairs_bytes(got) + _SLACK, (kept, _pairs_bytes(got))


def test_scaled_support_build_holds_one_row_block_and_the_bandwidth(cloud):
    x = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    got, kept, peak = _traced_build(cloud, bandwidth=x)
    assert got.bandwidth is not None
    # the raw build's phases, each upper pair's bandwidth products beside
    # it, and the copy of the bandwidth that the support records; the output
    # owns that copy and right-sized arrays
    bound = _builder_bound(cloud, got) + _N * 8
    assert peak <= bound + _SLACK, (peak, bound)
    assert got.r2.nbytes > bound - _pairs_bytes(got) - _N * 8 + _SLACK
    assert kept <= _pairs_bytes(got) + _N * 8 + _SLACK, kept


_STATUS = Path("/proc/self/status")


@pytest.mark.skipif(not _STATUS.exists(), reason="no /proc/self/status")
def test_support_builder_resident_peak():
    # a grid at a large k; the high-water mark of resident pages counts what
    # the allocator keeps of freed blocks, which tracemalloc does not see. A
    # small build first loads the code the build runs
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
    # the phases of test_support_builder_holds_no_neighbor_graph; and
    # for freed blocks that the allocator keeps resident, twice the largest
    # cell's distance block (glibc raises its mmap threshold to the largest
    # array freed and keeps up to twice that free in the heap), and 1 MiB
    # for interpreter pages. A second array of the pair distances does not
    # fit
    bound = _builder_bound(cloud, got, k)
    kept = 2 * int(np.max(_cell_sizes(cloud, k, got)[0])) * 8 + _SLACK
    assert got.r2.nbytes > bound - _pairs_bytes(got) + kept
    assert growth <= bound + kept, (growth, bound + kept)


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


def test_sparse_kernel_holds_its_data_and_one_row_block(cloud, pairs):
    rho = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    got, peak = _traced_peak(lambda: kernel.kernel_matrix(cloud, rho, 0.01,
                                                          support=pairs))
    # the CSR shares the support's read-only index arrays
    assert np.shares_memory(got.indices, pairs.indices)
    assert np.shares_memory(got.indptr, pairs.indptr)
    # the CSR's data, into which each block's column bandwidths are
    # gathered; per block, first the intp copy of its int32 columns that
    # np.take makes, then the repeated row bandwidths, and per row its
    # scaled bandwidth and count. A whole-pattern intp copy or repeat does
    # not fit
    block = _largest_block(pairs) * 8 + 2 * neighbors._SUPPORT_BLOCK * 8
    assert pairs.nnz * 8 > block + _SLACK
    assert peak <= got.data.nbytes + block + _SLACK, (peak, got.data.nbytes)


def test_sparse_scaling_holds_one_row_block(cloud, pairs):
    w = 1.0 + 0.1 * cloud.points[:, 0] ** 2
    mat = kernel.kernel_matrix(cloud, w, 0.01, support=pairs)
    got, peak = _traced_peak(lambda: kernel._scaled(mat, w))
    assert got is mat
    # the data is scaled in place; per block, the repeated row weights, or
    # the gathered column weights beside the intp copy of the block's int32
    # columns, and one count per row. A whole-pattern temporary does not fit
    block = 2 * _largest_block(pairs) * 8 + neighbors._SUPPORT_BLOCK * 8
    assert pairs.nnz * 8 > block + _SLACK
    assert peak <= block + _SLACK, peak


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
    scaled = neighbors.symmetrized_support(cloud, _K, bandwidth=rho)
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
