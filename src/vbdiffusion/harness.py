"""End-to-end experiments: sweeps, alignment against analytic answers, output.

Each experiment fixes a dataset generator, a default (alpha, beta) pair, a
set of analytic reference eigenfunctions (or a reference operator), and a
primary quantity whose error goes into the result table. The per-epsilon
pipeline shares one set of support pairs and one bandwidth profile; only the
kernel and everything after it depend on epsilon.
"""

import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import sympy as sym

from . import analytic, density, kernel, neighbors, pointcloud, spectral, tuning
from .errors import PipelineError

# dense all-pairs kernels are exact and affordable up to this many points;
# beyond it the kernel is truncated to the symmetrized k_support pattern
_DENSE_MAX = 4000

DEFAULT_SWEEP = tuple(np.logspace(-5.0, 0.0, 65))

EXPERIMENTS = ("ou1d_nice", "ou1d_random", "ou2d", "circle", "circle_random",
               "sphere", "torus_operator", "circle_operator", "outlier_study")

# alpha may depend on the intrinsic dimension, so presets store (fn(d), beta)
PRESETS = {
    "laplacian-vb": (lambda d: 0.5 - d / 4.0, -0.5),
    "gradientflow-vb": (lambda d: -d / 4.0, -0.5),
    "laplacian-fixed": (lambda d: 1.0, 0.0),
    "gradientflow-fixed": (lambda d: 0.5, 0.0),
}

# per-experiment defaults: size, (alpha, beta), eigenfunction count
_DEFAULT_N = {"ou1d_nice": 2000, "ou1d_random": 20000, "ou2d": 10000,
              "circle": 1500, "circle_random": 1500, "sphere": 3000,
              "torus_operator": 62500, "circle_operator": 8000,
              "outlier_study": 100000}
_DEFAULT_AB = {"ou1d_nice": (-0.25, -0.5), "ou1d_random": (-0.25, -0.5),
               "ou2d": (-0.5, -0.5), "circle": (0.25, -0.5),
               "circle_random": (0.25, -0.5), "sphere": (0.0, -0.5),
               "torus_operator": (0.0, 0.0), "circle_operator": (0.25, -0.5),
               "outlier_study": (0.5, 0.0)}
_DEFAULT_M = {"ou1d_nice": 5, "ou1d_random": 5, "ou2d": 6, "circle": 5,
              "circle_random": 5, "sphere": 4}
_OPERATOR_SWEEPS = {"torus_operator": (0.001, 0.01, 0.1),
                    "circle_operator": (0.005, 0.01, 0.1)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one run; defaults follow the experiment."""

    experiment: str
    N: int | None = None
    alpha: float | None = None
    beta: float | None = None
    preset: str | None = None
    eps: object = "auto"
    eps_multiplier: float = 1.0
    k_support: int | None = None
    k0: int = 8
    seed: int = 1
    eigenfunctions: int | None = None
    formulation: str = "symmetric"
    output_dir: str = "out"

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.preset is not None and self.preset not in PRESETS:
            raise ValueError(f"unknown preset {self.preset!r}")
        if self.N is not None and self.N < 2:
            raise ValueError("N must be at least 2")
        for name in ("k_support", "eigenfunctions"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive")
        if self.k0 < 2:
            raise ValueError("k0 must be at least 2")
        if self.eps_multiplier <= 0.0:
            raise ValueError("eps_multiplier must be positive")
        eps = self.eps
        if isinstance(eps, str):
            if eps not in ("auto", "sweep"):
                raise ValueError("eps must be a number, a list, 'auto' "
                                 "or 'sweep'")
        elif np.iterable(eps):
            arr = np.asarray(list(eps), dtype=float)
            if arr.size == 0 or np.any(arr <= 0.0) or np.any(np.diff(arr) <= 0.0):
                raise ValueError("eps sweep must be strictly increasing and positive")
        elif not float(eps) > 0.0:
            raise ValueError("eps must be positive")
        return self


@dataclass(frozen=True)
class ResultTable:
    """Rows of (eps, mse, eigenvalue_error, wall_time_s) plus run metadata."""

    rows: np.ndarray
    metadata: dict = field(default_factory=dict)


def _resolved(config):
    """Fill in experiment-dependent defaults, returning a concrete config."""
    config.validate()
    exp = config.experiment
    updates = {}
    if config.N is None:
        updates["N"] = _DEFAULT_N[exp]
    if config.eigenfunctions is None:
        updates["eigenfunctions"] = _DEFAULT_M.get(exp, 5)
    if isinstance(config.eps, str):
        pass  # resolved against the tuning curve later
    elif np.iterable(config.eps):
        updates["eps"] = tuple(float(e) for e in config.eps)
    else:
        updates["eps"] = (float(config.eps),)
    return replace(config, **updates) if updates else config


def _resolve_alpha_beta(config, d):
    if config.preset is not None:
        fn, beta = PRESETS[config.preset]
        return float(fn(d)), float(beta)
    alpha, beta = _DEFAULT_AB[config.experiment]
    if config.alpha is not None:
        alpha = float(config.alpha)
    if config.beta is not None:
        beta = float(config.beta)
    return alpha, beta


def generate_cloud(config):
    """Dataset for a config; deterministic grids ignore the seed."""
    exp, n, seed = config.experiment, config.N, config.seed
    if exp in ("ou1d_nice", "outlier_study"):
        return pointcloud.gen_gaussian_nice_1d(n)
    if exp == "ou1d_random":
        return pointcloud.gen_gaussian_random(n, 1, seed=seed)
    if exp == "ou2d":
        return pointcloud.gen_gaussian_random(n, 2, seed=seed)
    if exp == "circle":
        return pointcloud.gen_circle_nonuniform(n)
    if exp == "circle_random":
        return pointcloud.perturb_circle(pointcloud.gen_circle_nonuniform(n),
                                         0.5, seed=seed)
    if exp == "sphere":
        return pointcloud.gen_sphere_nonuniform(n, seed=seed)
    if exp == "torus_operator":
        per_dim = int(round(np.sqrt(n)))
        return pointcloud.gen_torus_grid(per_dim)
    if exp == "circle_operator":
        return pointcloud.gen_circle_from_density(n, np.cos)
    raise ValueError(f"unknown experiment {exp!r}")


def experiment_targets(experiment, count):
    """Analytic eigenfunctions in descending-eigenvalue order."""
    if experiment in ("ou1d_nice", "ou1d_random", "outlier_study"):
        return [analytic.hermite_target(k) for k in range(count)]
    if experiment == "ou2d":
        orders = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                  (3, 0), (2, 1), (1, 2), (0, 3)]
        return [analytic.ou2d_target(*o) for o in orders[:count]]
    if experiment in ("circle", "circle_random"):
        pairs = [("cos", 0)] + [(p, k) for k in range(1, (count + 2) // 2 + 1)
                                for p in ("sin", "cos")]
        return [analytic.circle_target(k, p) for p, k in pairs[:count]]
    if experiment == "sphere":
        return ([analytic.AnalyticTarget("const", 0.0,
                                         lambda c: np.ones(c.n_points))]
                + [analytic.sphere_coordinate_target(a) for a in range(3)])[:count]
    raise ValueError(f"no analytic eigenfunctions for {experiment!r}")


_PRIMARY_INDEX = {"ou1d_nice": 3, "ou1d_random": 3, "ou2d": 4,
                  "circle": 1, "circle_random": 1}


def reference_matrix(targets, cloud):
    """Target columns scaled to norm sqrt(N), plus their eigenvalues."""
    cols = np.column_stack([t.evaluate(cloud) for t in targets])
    cols *= np.sqrt(cloud.n_points) / np.linalg.norm(cols, axis=0)
    return cols, np.array([t.eigenvalue for t in targets])


def align_to_targets(spectrum, reference, ref_eigenvalues):
    """Block-Procrustes alignment, one block per repeated analytic eigenvalue."""
    est = np.array(spectrum.eigenvectors)
    for group in spectral.group_by_eigenvalue(ref_eigenvalues):
        est[:, group] = spectral.align_orthogonal(est[:, group],
                                                  reference[:, group])
    return est


def _eps_str(eps):
    return "%.6g" % eps


def run_experiment(config):
    """Run a full experiment sweep, writing CSV output to the output dir."""
    config = _resolved(config)
    if config.experiment == "outlier_study":
        return outlier_study(config.N, config.seed, k_support=config.k_support,
                             eps=None if isinstance(config.eps, str) else config.eps,
                             output_dir=config.output_dir, k0=config.k0)
    if config.experiment in ("torus_operator", "circle_operator"):
        return _operator_experiment(config)
    return _eigen_experiment(config)


def _pipeline_setup(config, cloud, beta):
    """Bandwidth profile and support pairs shared by every epsilon.

    The support pairs are None on the dense path. The neighbor graph is
    needed only until both exist and is not kept.
    """
    n = cloud.n_points
    if config.k_support is not None:
        graph = neighbors.knn(cloud, min(n, max(config.k_support, config.k0)))
    elif n > _DENSE_MAX:
        graph = neighbors.knn(cloud, min(n, max(128, config.k0)))
    else:
        graph = neighbors.knn(cloud, min(n, max(config.k0, 8)))
    pairs = None
    if config.k_support is not None or n > _DENSE_MAX:
        pairs = _support_pairs(cloud, graph)
    profile = density.bandwidth_profile(cloud, graph, beta, k0=config.k0,
                                        support=pairs)
    return profile, pairs


def _support_pairs(cloud, graph):
    return neighbors.support_pairs(cloud, neighbors.symmetrized_support(graph))


def _resolve_eps(config, cloud, rho, support, out):
    """Sweep list, running the tuning module when eps is 'auto'."""
    if config.eps == "sweep":
        return [e * config.eps_multiplier for e in DEFAULT_SWEEP], None
    if not isinstance(config.eps, str):
        sweep = [e * config.eps_multiplier for e in config.eps]
        return sweep, None
    curve = tuning.s_curve(cloud, rho, support=support)
    if out is not None:
        tuning.save_csv(curve, out / "tuning.csv")
    return [curve.eps_star * config.eps_multiplier], curve


def _eigen_experiment(config):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud = generate_cloud(config)
    d = cloud.intrinsic_dim
    alpha, beta = _resolve_alpha_beta(config, d)
    profile, support = _pipeline_setup(config, cloud, beta)
    sweep, curve = _resolve_eps(config, cloud, profile.rho, support, out)
    targets = experiment_targets(config.experiment, config.eigenfunctions)
    reference, ref_vals = reference_matrix(targets, cloud)
    primary = _PRIMARY_INDEX.get(config.experiment)
    rows, errors = [], {}
    for eps in sweep:
        t0 = time.perf_counter()
        try:
            gm = kernel.build_generator(cloud, profile.rho, eps, alpha, d=d,
                                        support=support)
            spec = spectral.scale_sqrtN(
                spectral.eigs_near_zero(gm, len(targets)))
            if config.experiment == "sphere":
                block = spec.eigenvectors[:, 1:4]
                coords = cloud.points
                bmap = spectral.least_squares_map(block, coords)
                fitted = block @ bmap
                err = float(np.mean([(spectral.mse(fitted[:, j], coords[:, j]))
                                     for j in range(3)]))
                eig_err = float(np.mean(np.abs(spec.eigenvalues[1:4] + 2.0) / 2.0))
            else:
                est = align_to_targets(spec, reference, ref_vals)
                err = spectral.mse(est[:, primary], reference[:, primary])
                lam = ref_vals[primary]
                eig_err = float(abs(spec.eigenvalues[primary] - lam) / abs(lam))
            spectral.save_csv(spec, out / f"eigvecs_{_eps_str(eps)}.csv",
                              latent=cloud.latent)
        except PipelineError as exc:
            errors[eps] = f"{type(exc).__name__}: {exc}"
            continue
        rows.append((eps, err, eig_err, time.perf_counter() - t0))
    table = ResultTable(np.array(rows, dtype=float).reshape(-1, 4),
                        metadata=_metadata(config, alpha, beta, d, sweep, curve,
                                           errors, cloud))
    _write_outputs(table, out)
    return table


def _operator_experiment(config):
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud = generate_cloud(config)
    d = cloud.intrinsic_dim
    alpha, beta = _resolve_alpha_beta(config, d)
    theta = cloud.latent[:, 0]
    f = np.sin(theta)
    f_expr = sym.sin(analytic.THETA)
    if config.experiment == "torus_operator":
        rho = np.exp(np.cos(theta))
        if config.formulation == "left":
            ref = analytic.reference_operator(
                "laplacian", f_expr, cloud, (analytic.THETA, analytic.PHI))
        else:
            ref = analytic.reference_operator(
                "bandwidth_drift", f_expr, cloud, (analytic.THETA, analytic.PHI),
                rho_expr=sym.exp(sym.cos(analytic.THETA)))
        support_k = config.k_support if config.k_support is not None else 500
        support = _support_pairs(
            cloud, neighbors.knn(cloud, min(cloud.n_points, support_k)))
    else:
        rho = np.exp(np.cos(theta)) ** beta
        c1, _ = density.c_constants(alpha, beta, d)
        ref = analytic.reference_operator(
            "gradient_flow", f_expr, cloud, (analytic.THETA,), c1=c1,
            q_expr=sym.exp(sym.cos(analytic.THETA)))
        support = None
    if isinstance(config.eps, str):
        # operator checks come with the figure's epsilon values, not tuning
        base = _OPERATOR_SWEEPS[config.experiment]
    else:
        base = config.eps
    sweep = [float(e) * config.eps_multiplier for e in base]
    rows, errors = [], {}
    for eps in sweep:
        t0 = time.perf_counter()
        try:
            est = kernel.apply_generator(cloud, rho, eps, alpha,
                                         config.formulation, f, d=d,
                                         support=support)
        except PipelineError as exc:
            errors[eps] = f"{type(exc).__name__}: {exc}"
            continue
        err = spectral.mse(est, ref)
        _write_operator_csv(out / f"operator_{_eps_str(eps)}.csv", cloud, f,
                            est, ref)
        rows.append((eps, err, 0.0, time.perf_counter() - t0))
    table = ResultTable(np.array(rows, dtype=float).reshape(-1, 4),
                        metadata=_metadata(config, alpha, beta, d, sweep, None,
                                           errors, cloud))
    _write_outputs(table, out)
    return table


def operator_check(config):
    """Pointwise generator check against the exact reference operator.

    ``circle_operator`` and ``torus_operator`` run their usual protocol;
    ``circle`` runs the uniform-grid variant with the fixed bandwidth
    function rho = exp(cos theta), which isolates the bandwidth-induced
    drift term from sampling effects.
    """
    config = _resolved(config)
    if config.experiment in ("torus_operator", "circle_operator"):
        return _operator_experiment(config)
    if config.experiment != "circle":
        raise ValueError("operator checks exist for circle, circle_operator "
                         "and torus_operator")
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    cloud = pointcloud.gen_circle_uniform(config.N)
    theta = cloud.latent[:, 0]
    rho = np.exp(np.cos(theta))
    f = np.sin(theta)
    f_expr = sym.sin(analytic.THETA)
    if config.formulation == "left":
        ref = analytic.reference_operator("laplacian", f_expr, cloud,
                                          (analytic.THETA,))
    else:
        ref = analytic.reference_operator("bandwidth_drift", f_expr, cloud,
                                          (analytic.THETA,),
                                          rho_expr=sym.exp(sym.cos(analytic.THETA)))
    if isinstance(config.eps, str):
        base = (0.001, 0.01, 0.1)
    else:
        base = config.eps
    sweep = [float(e) * config.eps_multiplier for e in base]
    rows = []
    for eps in sweep:
        t0 = time.perf_counter()
        est = kernel.apply_generator(cloud, rho, eps, 0.0, config.formulation,
                                     f, d=1)
        err = spectral.mse(est, ref)
        _write_operator_csv(out / f"operator_{_eps_str(eps)}.csv", cloud, f,
                            est, ref)
        rows.append((eps, err, 0.0, time.perf_counter() - t0))
    table = ResultTable(np.array(rows, dtype=float).reshape(-1, 4),
                        metadata=_metadata(config, 0.0, 0.0, 1, sweep, None,
                                           {}, cloud))
    _write_outputs(table, out)
    return table


def outlier_study(N, seed, eps=None, k_support=None, output_dir=None, k0=8):
    """Fixed-bandwidth pipeline with density-based outlier removal.

    For each decade size up to N: estimate the density, drop the
    floor(sqrt(n)) lowest-density points, rebuild the pipeline on the rest
    with a fixed bandwidth, sweep epsilon, and keep the best masked error of
    the fourth eigenvector against the fourth Hermite function on [-2, 2].
    Fits log(best mse) against log(n) across the sizes at the end.
    """
    sizes = [n for n in (1000, 10000, 100000) if n <= N] or [N]
    alpha = 0.5
    rows, removed, per_size = [], [], {}
    for n in sizes:
        t0 = time.perf_counter()
        eps_grid = tuple(eps) if eps is not None else _outlier_default_eps(n)
        cloud = pointcloud.gen_gaussian_nice_1d(n)
        k = min(n, k_support if k_support is not None else
                _outlier_default_k(n))
        graph = neighbors.knn(cloud, min(n, max(k0, 128)))
        rho0 = density.pilot_bandwidth(graph, k0=k0)
        q0, _ = density.kde_pilot(cloud, rho0, 1,
                                  support=_support_pairs(cloud, graph))
        del graph
        drop = int(np.floor(np.sqrt(n)))
        keep = np.sort(np.argsort(q0, kind="stable")[drop:])
        removed.append(drop)
        kept = pointcloud.PointCloud(cloud.points[keep], latent=cloud.latent[keep],
                                     intrinsic_dim=1, label=cloud.label)
        support = _support_pairs(
            kept, neighbors.knn(kept, min(kept.n_points, max(k, k0))))
        rho = np.ones(kept.n_points)
        target = analytic.hermite_target(3).evaluate(kept)
        target *= np.sqrt(kept.n_points) / np.linalg.norm(target)
        mask = np.abs(kept.points[:, 0]) <= 2.0
        best = None
        for eps_val in eps_grid:
            try:
                gm = kernel.build_generator(kept, rho, eps_val, alpha, d=1,
                                            support=support)
                spec = spectral.scale_sqrtN(spectral.eigs_near_zero(gm, 5))
            except PipelineError:
                continue
            finally:
                # the largest sizes cannot hold two generators at once
                gm = None
            est = spec.eigenvectors[:, 3]
            if est @ target < 0.0:
                est = -est
            err = spectral.mse(est, target, mask=mask)
            lam_err = abs(spec.eigenvalues[3] + 3.0) / 3.0
            if best is None or err < best[1]:
                best = (eps_val, err, lam_err)
        if best is None:
            per_size[n] = "no epsilon value completed"
            continue
        rows.append((best[0], best[1], best[2], time.perf_counter() - t0))
        per_size[n] = {"removed": drop, "remaining": kept.n_points,
                       "eps_grid": list(eps_grid), "best_eps": best[0],
                       "best_mse": best[1]}
    rows = np.array(rows, dtype=float).reshape(-1, 4)
    meta = {"experiment": "outlier_study", "N": N, "seed": seed,
            "sizes": sizes, "removed": removed, "alpha": alpha, "beta": 0.0,
            "per_size": per_size}
    if rows.shape[0] >= 2:
        slope, intercept = np.polyfit(np.log(np.array(sizes[:rows.shape[0]])),
                                      np.log(rows[:, 1]), 1)
        meta["power_law_slope"] = float(slope)
        meta["power_law_intercept"] = float(intercept)
    table = ResultTable(rows, metadata=meta)
    if output_dir is not None:
        out = Path(output_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_outputs(table, out)
    return table


def _outlier_default_k(n):
    # support wide enough that the kernel is not visibly truncated in the
    # bulk at the working epsilon, capped where banded factorization cost
    # (which grows with the cube of the support width) stops being worth it
    return int(min(n, max(128.0, min(632.0, 4.0 * np.sqrt(n)))))


def _outlier_default_eps(n):
    # the usable window sits just above the connectivity scale of the
    # thinned tails, whose squared spacing shrinks like 1/n
    base = 0.1 / n
    return (base, float(np.sqrt(10.0)) * base, 10.0 * base)


def _metadata(config, alpha, beta, d, sweep, curve, errors, cloud):
    meta = {"experiment": config.experiment, "N": cloud.n_points,
            "alpha": alpha, "beta": beta, "d": d, "seed": config.seed,
            "k0": config.k0, "k_support": config.k_support,
            "eigenfunctions": config.eigenfunctions,
            "formulation": config.formulation, "preset": config.preset,
            "eps_multiplier": config.eps_multiplier,
            "eps_list": [float(e) for e in sweep]}
    if curve is not None:
        meta["eps_star"] = curve.eps_star
        meta["a_max"] = curve.a_max
        meta["d_hat"] = curve.d_hat
    if errors:
        meta["errors"] = {float(k): v for k, v in errors.items()}
    return meta


def save_results_csv(table, path):
    """Write the result rows under the fixed header."""
    with open(path, "w") as fh:
        fh.write("eps,mse,eig_err,wall_time_s\n")
        for row in table.rows:
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _write_outputs(table, out):
    save_results_csv(table, out / "results.csv")
    with open(out / "meta.txt", "w") as fh:
        for key, value in table.metadata.items():
            fh.write(f"{key} = {value}\n")


def _write_operator_csv(path, cloud, f, est, ref):
    names = ["theta", "phi"][: cloud.latent.shape[1]]
    cols = [cloud.latent[:, j] for j in range(cloud.latent.shape[1])]
    data = np.column_stack(cols + [f, est, ref])
    np.savetxt(path, data, fmt="%.17g", delimiter=",",
               header=",".join(names + ["f", "estimate", "reference"]),
               comments="")
