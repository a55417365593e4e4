import math

import numpy as np
import pytest

from vbdiffusion import neighbors, pointcloud, tuning
from vbdiffusion.errors import NoLinearRegion
from vbdiffusion.pointcloud import PointCloud


def _pair_cloud():
    # two points at distance 2: S(2^i) = (1 + exp(-2^-i))/2 exactly
    pts = np.array([[0.0], [2.0]])
    return PointCloud(points=pts, intrinsic_dim=1)


def test_two_point_curve_matches_closed_form():
    curve = tuning.s_curve(_pair_cloud(), np.ones(2), grid=[-1, 0, 1])
    assert curve.S == pytest.approx([0.56766764161830641, 0.68393972058572117,
                                     0.80326532985631671], rel=1e-14)
    assert curve.slopes == pytest.approx([0.26882267100145202,
                                          0.2320074309931873], rel=1e-12)
    # steepest slope sits on the first interval; eps_star is its left endpoint
    assert curve.eps_star == 0.5
    assert curve.a_max == pytest.approx(0.26882267100145202, rel=1e-12)
    assert curve.d_hat == 2.0 * curve.a_max


def test_curve_limits():
    curve = tuning.s_curve(_pair_cloud(), np.ones(2), grid=[-40, 40])
    # diagonal-only kernel at tiny eps, full saturation at huge eps
    assert curve.S[0] == pytest.approx(0.5, abs=1e-15)
    assert curve.S[-1] == pytest.approx(1.0, rel=1e-12)


def test_first_argmax_wins_on_ties():
    eps_star, a_max, d_hat = tuning._select(np.array([0, 1, 2]),
                                            np.array([0.5, 0.5]))
    assert eps_star == 1.0
    assert a_max == 0.5
    assert d_hat == 1.0


def test_flat_curve_raises():
    coincident = PointCloud(points=np.zeros((2, 1)), intrinsic_dim=1)
    with pytest.raises(NoLinearRegion):
        tuning.s_curve(coincident, np.ones(2), grid=[-2, -1, 0])
    with pytest.raises(NoLinearRegion):
        tuning._select(np.array([0, 1]), np.array([1e-9]))


def test_truncated_sum_matches_dense_with_full_support():
    cloud = pointcloud.gen_circle_uniform(50)
    rho = 1.0 + 0.1 * cloud.points[:, 0]
    support = neighbors.symmetrized_support(cloud, 50)
    dense = tuning.s_curve(cloud, rho, grid=[-6, -5, -4])
    trunc = tuning.s_curve(cloud, rho, grid=[-6, -5, -4], support=support)
    assert np.allclose(trunc.S, dense.S, rtol=1e-13)


def _naive_s(points, rho, exponents):
    # independent oracle: every ordered pair, one math.exp each, exact sum
    n = len(points)
    out = []
    for expo in exponents:
        eps = 2.0 ** expo
        terms = []
        for i in range(n):
            for j in range(n):
                r2 = sum((a - b) ** 2 for a, b in zip(points[i], points[j]))
                terms.append(math.exp(-r2 / (4.0 * eps * rho[i] * rho[j])))
        out.append(math.fsum(terms) / n**2)
    return np.array(out)


def test_curve_matches_naive_double_loop():
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((40, 2))
    rho = np.exp(0.3 * rng.standard_normal(40))
    cloud = PointCloud(points=pts, intrinsic_dim=2)
    support = neighbors.symmetrized_support(cloud, 40)
    perm = rng.permutation(40)
    shuffled = PointCloud(points=pts[perm], intrinsic_dim=2)
    # -40..10 runs from a diagonal-only kernel, across the underflow edge of
    # exp, to saturation; the second grid is unsorted, gapped and has a
    # repeat, so it mixes runs of squarings with direct exps
    for grid in (np.arange(-40, 11), np.array([3, -7, -6, -5, 0, 1, -30, 10, 1])):
        want = _naive_s(pts.tolist(), rho.tolist(), grid)
        for got in (tuning.s_curve(cloud, rho, grid=grid),
                    tuning.s_curve(cloud, rho, grid=grid, support=support),
                    tuning.s_curve(shuffled, rho[perm], grid=grid)):
            np.testing.assert_allclose(got.S, want, rtol=1e-13, atol=0.0)


def _direct_sums(t, grid):
    # the curve without squaring: every exponent its own exp of its own
    # underflow prefix, summed a chunk at a time in the same order
    t = np.sort(t)
    sums = np.zeros(len(grid))
    for g, eps in enumerate(2.0 ** np.asarray(grid, dtype=float)):
        stop = int(np.searchsorted(t, tuning._EXP_UNDERFLOW * 4.0 * eps))
        for start in range(0, stop, tuning._CHUNK):
            part = t[start:min(start + tuning._CHUNK, stop)] / (-4.0 * eps)
            sums[g] += np.exp(part, out=part).sum()
    return sums


def test_squared_curve_stays_within_its_bound_of_direct_exps():
    n = 500
    cloud = pointcloud.gen_sphere_nonuniform(n, seed=3)
    rho = 1.0 + 0.2 * cloud.points[:, 2]
    grid = tuning._DEFAULT_EXPONENTS
    got = tuning.s_curve(cloud, rho)
    t = neighbors.scaled_pairs(cloud, rho)
    assert t.size > 3 * tuning._CHUNK  # several chunks
    want = (n + 2.0 * _direct_sums(t, grid)) / float(n) ** 2
    # per value, m <= _REFRESH - 1 squarings of an exp with relative error
    # at most 2^-52 (tuning._REFRESH) leave 2^m 2^-52 + (2^m - 1) 2^-53;
    # positive terms keep that bound on each sum. The two sums round in the
    # same order but on other values: each of numpy's pairwise chunk sums
    # rounds at most 16 + 3 + log2(_CHUNK / 128) = 27 times along a path,
    # then one addition per chunk and four for S
    u = 2.0**-53
    m = tuning._REFRESH - 1
    chunks = -(-t.size // tuning._CHUNK)
    rtol = (2**m * 2 + 2**m - 1) * u + 2 * (27 + chunks + 4) * u
    np.testing.assert_allclose(got.S, want, rtol=rtol, atol=0.0)
    slopes = np.diff(np.log(want)) / (np.log(2.0) * np.diff(grid))
    assert got.eps_star == tuning._select(grid, slopes)[0]


def test_circle_slope_estimates_dimension():
    cloud = pointcloud.gen_circle_uniform(300)
    curve = tuning.s_curve(cloud, np.ones(300))
    assert curve.d_hat == pytest.approx(1.0, abs=0.2)
    # selection lands below the curvature scale, not in the saturated region
    assert 2.0**-30 < curve.eps_star <= 1.0


def test_save_csv_layout(tmp_path):
    curve = tuning.s_curve(_pair_cloud(), np.ones(2), grid=[-1, 0, 1])
    path = tmp_path / "tuning.csv"
    tuning.save_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,eps,S,slope"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "-1" and float(first[1]) == 0.5
    assert lines[3].endswith(",")
