"""End-to-end experiments: sweeps, alignment against analytic answers, output.

``EXPERIMENTS`` holds one frozen :class:`Experiment` per name: defaults,
dataset, and either analytic target eigenfunctions with a scoring rule, a
reference operator with the figure's epsilon values, or neither
(``outlier_study``). Every run goes through :func:`run_experiment`, which
resolves the config (:func:`resolve`, then :func:`_alpha_beta` once the
cloud exists) into the one object every stage reads and ``meta.txt``
records, and hands it to one runner per kind; each runner scores its
epsilons through one row loop, which records failures instead of rows. Eigen
runs and the CLI stage commands start from :func:`setup`, which shares one
set of support pairs and one bandwidth profile across epsilon; operator runs
apply the generator to ``analytic.CHECK_F`` with a bandwidth from
``analytic.CHECK_G``, skip the KDE and compare against the closed-form
``analytic.reference_operator``.
"""

import math
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import analytic, density, kernel, neighbors, pointcloud, spectral, tuning
from .errors import PipelineError

# the one dense/support decision: up to this many points, without a set
# k_support, the KDE, tuning curve and kernel sum over all pairs; beyond it,
# or with k_support, they are truncated to the symmetrized kNN support
_ALL_PAIRS_MAX = 4000

# rows per block of an operator CSV's formatted text
_CSV_BLOCK = 4096

DEFAULT_SWEEP = tuple(np.logspace(-5.0, 0.0, 65))

# alpha may depend on the intrinsic dimension, so presets store (fn(d), beta)
PRESETS = {
    "laplacian-vb": (lambda d: 0.5 - d / 4.0, -0.5),
    "gradientflow-vb": (lambda d: -d / 4.0, -0.5),
    "laplacian-fixed": (lambda d: 1.0, 0.0),
    "gradientflow-fixed": (lambda d: 0.5, 0.0),
}


class ConfigError(ValueError):
    """A config that the chosen experiment cannot run as written."""


@dataclass(frozen=True)
class Experiment:
    """Defaults, dataset and scoring of one registered experiment.

    ``cloud`` maps (N, seed) to the dataset. Eigen experiments set
    ``targets`` (count -> up to count analytic eigenfunctions, eigenvalues
    descending), ``primary``, the highest index the ``score`` ((primary,
    spectrum, cloud, reference, eigenvalues) -> (mse, eig_err)) reads.
    Operator experiments set ``reference``, the
    ``analytic.reference_operator`` kind, with the figure's ``eps`` (taken
    for eps = auto) and a default ``k_support`` (None sums all pairs).
    An experiment with neither is the outlier-removal study.
    """

    N: int
    alpha_beta: tuple
    cloud: Callable
    eigenfunctions: int = 5
    targets: Callable | None = None
    score: Callable | None = None
    primary: int = 0
    reference: str | None = None
    eps: tuple = ()
    k_support: int | None = None


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
            raise ConfigError(f"unknown experiment {self.experiment!r}")
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.formulation not in kernel.FORMULATIONS:
            raise ConfigError(f"formulation must be one of {kernel.FORMULATIONS}")
        if self.N is not None and self.N < 2:
            raise ConfigError("N must be at least 2")
        for name in ("k_support", "eigenfunctions"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be positive")
        if self.k0 < 2:
            raise ConfigError("k0 must be at least 2")
        if self.eps_multiplier <= 0.0:
            raise ConfigError("eps_multiplier must be positive")
        if isinstance(self.eps, str):
            if self.eps not in ("auto", "sweep"):
                raise ConfigError("eps must be a number, a list, 'auto' "
                                  "or 'sweep'")
            return self
        eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        if not (eps.size and np.all(eps > 0.0) and np.all(np.diff(eps) > 0.0)):
            raise ConfigError("eps must be positive, and a list strictly "
                              "increasing")
        return self


@dataclass(frozen=True)
class ResultTable:
    """Rows of (eps, mse, eig_err, wall_time_s) plus run metadata."""

    rows: np.ndarray
    metadata: dict = field(default_factory=dict)


def resolve(config):
    """Validated config with every setting that needs no data set, and the spec.

    'sweep' becomes the grid, an operator check's 'auto' its figure's values
    and ``k_support`` the width stored (None: all pairs). Idempotent.
    """
    config.validate()
    spec = EXPERIMENTS[config.experiment]
    operator, eigen = spec.reference is not None, spec.targets is not None
    keyword = config.eps if isinstance(config.eps, str) else None
    if operator and keyword == "sweep":
        raise ConfigError("operator checks take eps = auto (the figure's "
                          "values) or a list, not 'sweep'")
    alpha = spec.alpha_beta[0] if config.alpha is None else config.alpha
    if config.formulation != "symmetric" and (
            not operator or config.preset is not None or alpha != 0.0):
        raise ConfigError("eigen runs build the symmetric generator; left and "
                          "right have no alpha step and take operator checks "
                          "at alpha 0 with no preset")
    if not eigen and config.eigenfunctions is not None:
        raise ConfigError("eigenfunctions sets the analytic targets of an "
                          f"eigen run; {config.experiment} takes none")
    if not (operator or eigen) and (
            keyword == "sweep" or config.preset is not None
            or config.alpha is not None or config.beta is not None):
        raise ConfigError("outlier_study is fixed-bandwidth with alpha "
                          "1/2 and its own epsilon grid: it takes no "
                          "preset, alpha, beta or eps = sweep")
    eps = {"sweep": DEFAULT_SWEEP, "auto": spec.eps if operator else "auto",
           None: config.eps}[keyword]
    if not isinstance(eps, str):  # eigen 'auto' is tuned on the data
        eps = tuple(float(e) for e in np.atleast_1d(eps))
    N = spec.N if config.N is None else config.N
    k = spec.k_support if config.k_support is None else config.k_support
    if eigen:
        k = _storage_k(N, k, config.k0)
    count = config.eigenfunctions
    if eigen and count is None:  # the others take none
        count = spec.eigenfunctions
    config = replace(config, N=N, eps=eps, k_support=k, eigenfunctions=count)
    if eigen and count <= spec.primary:
        raise ConfigError(f"{config.experiment} scores eigenfunction "
                          f"{spec.primary} (from 0): take more than that")
    if eigen and len(spec.targets(count)) < count:
        raise ConfigError(f"{config.experiment} has fewer than {count} "
                          "analytic eigenfunctions")
    return config, spec


def _storage_k(n, k_support, k0):
    """Support width (None: all pairs) of the KDE, curve and kernel of n points."""
    if k_support is None and n <= _ALL_PAIRS_MAX:
        return None
    return max(128 if k_support is None else k_support, k0)


def _alpha_beta(config, d):
    """Config with alpha and beta set: a preset's at dimension d, else its own."""
    if config.preset is not None:
        fn, beta = PRESETS[config.preset]
        return replace(config, alpha=float(fn(d)), beta=float(beta))
    alpha, beta = EXPERIMENTS[config.experiment].alpha_beta
    return replace(config,
                   alpha=float(alpha if config.alpha is None else config.alpha),
                   beta=float(beta if config.beta is None else config.beta))


def generate_cloud(config):
    """Dataset of a resolved config."""
    return EXPERIMENTS[config.experiment].cloud(config.N, config.seed)


def _torus_grid(n):
    """The torus grid of n points, which must be a square."""
    side = math.isqrt(n)
    if side * side != n:
        raise ConfigError(f"torus_operator takes a square N; {n} lies "
                          f"between {side * side} and {(side + 1) ** 2}")
    return pointcloud.gen_torus_grid(side)


def _support(cloud, k):
    """Pairs of the symmetrized kNN graph (k at most N); None for all pairs."""
    return None if k is None else neighbors.symmetrized_support(
        cloud, min(cloud.n_points, k))


def _bandwidth(cloud, beta, k, k0):
    """Bandwidth profile and support pairs (None: all pairs) of one cloud."""
    if cloud.n_points < k0:
        raise ConfigError(f"N = {cloud.n_points} points is fewer than k0 = "
                          f"{k0}, the neighbors the pilot bandwidth reads")
    support = _support(cloud, k)
    # the pilot bandwidth reads a graph of its own, k0 neighbors wide
    graph = neighbors.knn(cloud, k0)
    profile = density.bandwidth_profile(cloud, graph, beta, k0=k0,
                                        support=support)
    return profile, support


def setup(config):
    """What the epsilons of an eigen run, or of a stage command, share.

    Returns ``(config, cloud, profile, support)``: the config resolved with
    alpha and beta set and the storage rule on the cloud's size for a width
    the spec leaves None; ``support`` is None on the all-pairs path.
    """
    config, _ = resolve(config)
    cloud = generate_cloud(config)
    config = replace(_alpha_beta(config, cloud.intrinsic_dim),
                     k_support=_storage_k(cloud.n_points, config.k_support,
                                          config.k0))
    profile, support = _bandwidth(cloud, config.beta, config.k_support,
                                  config.k0)
    return config, cloud, profile, support


def epsilons(config, cloud, rho, support, out=None):
    """Epsilons of a resolved config, scaled by eps_multiplier, and the curve.

    'auto' runs the tuning curve (None otherwise) and writes ``tuning.csv``
    into ``out`` when given.
    """
    if not isinstance(config.eps, str):
        return [e * config.eps_multiplier for e in config.eps], None
    curve = tuning.s_curve(cloud, rho, support=support)
    if out is not None:
        tuning.save_csv(curve, out / "tuning.csv")
    return [curve.eps_star * config.eps_multiplier], curve


def ensure_dir(path):
    """The directory ``path``, created when missing."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def eigvecs_path(out, eps):
    """Where the eigenvectors of one epsilon go."""
    return Path(out) / f"eigvecs_{eps:.6g}.csv"


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


def run_experiment(config):
    """Run a full experiment sweep, writing CSV output to the output dir."""
    config, spec = resolve(config)
    if spec.reference is not None:
        return _operator_experiment(config, spec)
    if spec.targets is not None:
        return _eigen_experiment(config, spec)
    return _outlier_study(config, spec)


def _eigen_experiment(config, spec):
    config, cloud, profile, support = setup(config)
    out = ensure_dir(config.output_dir)
    sweep, curve = epsilons(config, cloud, profile.rho, support, out)
    targets = spec.targets(config.eigenfunctions)
    reference, ref_vals = reference_matrix(targets, cloud)
    solvers = {}

    def one_eps(eps):
        gm = kernel.build_generator(cloud, profile.rho, eps, config.alpha,
                                    support=support)
        spectrum = spectral.scale_sqrtN(
            spectral.eigs_near_zero(gm, len(targets)))
        solvers[float(eps)] = spectrum.solver
        scores = spec.score(spec.primary, spectrum, cloud, reference, ref_vals)
        spectral.save_csv(spectrum, eigvecs_path(out, eps), latent=cloud.latent)
        return scores

    return _sweep(config, cloud, sweep, curve, out, one_eps,
                  {"eigensolver": solvers})


def _operator_experiment(config, spec):
    cloud = generate_cloud(config)
    d = cloud.intrinsic_dim
    config = _alpha_beta(config, d)
    out = ensure_dir(config.output_dir)
    theta = cloud.latent[:, 0]
    f = analytic.CHECK_F(theta)
    # drift checks fix rho = exp(g), and their left formulation sees lap f
    # alone; gradient-flow checks sample q = exp(g), rho = q^beta
    drift = spec.reference == "bandwidth_drift"
    rho = np.exp(analytic.CHECK_G(theta)) ** (1.0 if drift else config.beta)
    ref = analytic.reference_operator(
        "laplacian" if drift and config.formulation == "left" else spec.reference,
        cloud, c1=density.c_constants(config.alpha, config.beta, d)[0])
    support = _support(cloud, config.k_support)

    def one_eps(eps):
        est = kernel.apply_generator(cloud, rho, eps, config.alpha,
                                     config.formulation, f, support=support)
        _write_operator_csv(out / f"operator_{eps:.6g}.csv", cloud, f, est, ref)
        return spectral.mse(est, ref), 0.0

    return _sweep(config, cloud, epsilons(config, cloud, rho, support)[0], None,
                  out, one_eps)


def _rows(sweep, one_eps):
    """Rows (eps, mse, eig_err, wall_time_s) of ``one_eps(eps) -> (mse,
    eig_err)`` over ``sweep``, and the errors of the epsilons that failed."""
    rows, errors = [], {}
    for eps in sweep:
        t0 = time.perf_counter()
        try:
            err, eig_err = one_eps(eps)
        except PipelineError as exc:
            errors[eps] = f"{type(exc).__name__}: {exc}"
            continue
        rows.append((eps, err, eig_err, time.perf_counter() - t0))
    return np.array(rows, dtype=float).reshape(-1, 4), errors


def _sweep(config, cloud, sweep, curve, out, one_eps, record=None):
    """Rows of ``one_eps`` over ``sweep``, written with the run's metadata.

    ``record`` holds further metadata entries that ``one_eps`` fills in.
    """
    rows, errors = _rows(sweep, one_eps)
    return _write_outputs(rows, _metadata(config, sweep, curve, errors, cloud)
                          | (record or {}), out)


def _outlier_study(config, spec):
    """Fixed-bandwidth pipeline with density-based outlier removal.

    For each decade size n up to N: estimate the density, drop the
    floor(sqrt(n)) lowest-density points, rebuild the pipeline on the rest
    with the spec's fixed bandwidth, sweep epsilon (``eps`` or a grid that
    follows n, scaled by ``eps_multiplier``), and keep the row of the best
    masked error of the fourth eigenvector against the fourth Hermite
    function on [-2, 2]. Fits log(best mse) against log(n) across the sizes
    with a row at the end.
    """
    sizes = [n for n in (1000, 10000, 100000) if n <= config.N] or [config.N]
    rows, fitted, removed, per_size, eps_list = [], [], [], {}, []
    for n in sizes:
        cloud = spec.cloud(n, config.seed)
        config = _alpha_beta(config, cloud.intrinsic_dim)
        q0 = _bandwidth(cloud, config.beta, _storage_k(n, None, config.k0),
                        config.k0)[0].q0
        drop = int(np.floor(np.sqrt(n)))
        keep = np.sort(np.argsort(q0, kind="stable")[drop:])
        removed.append(drop)
        kept = replace(cloud, points=cloud.points[keep],
                       latent=cloud.latent[keep])
        k = min(kept.n_points, _storage_k(
            n, config.k_support or _outlier_default_k(n), config.k0))
        support = _support(kept, k)
        rho = np.ones(kept.n_points)
        target = analytic.hermite_target(3).evaluate(kept)
        target *= np.sqrt(kept.n_points) / np.linalg.norm(target)
        mask = np.abs(kept.points[:, 0]) <= 2.0
        grid = [e * config.eps_multiplier for e in
                (_outlier_default_eps(n) if config.eps == "auto"
                 else config.eps)]

        def one_eps(eps):
            # the generator goes with this frame: the largest sizes cannot
            # hold two at once
            gm = kernel.build_generator(kept, rho, eps, config.alpha,
                                        support=support)
            spectrum = spectral.scale_sqrtN(
                spectral.eigs_near_zero(gm, spec.eigenfunctions))
            est = spectrum.eigenvectors[:, 3]
            if est @ target < 0.0:
                est = -est
            return (spectral.mse(est, target, mask=mask),
                    abs(spectrum.eigenvalues[3] + 3.0) / 3.0)

        size_rows, errors = _rows(grid, one_eps)
        eps_list += grid
        per_size[n] = {"removed": drop, "remaining": kept.n_points,
                       "k_support": k, "eps_grid": grid}
        if size_rows.shape[0]:
            best = size_rows[np.argmin(size_rows[:, 1])]
            rows.append(best)
            fitted.append(n)
            # at either end of the grid, the minimum may lie outside it
            per_size[n] |= {"best_eps": float(best[0]),
                            "best_mse": float(best[1]),
                            "best_at_edge": bool(best[0] in (grid[0], grid[-1]))}
        if errors:
            per_size[n]["errors"] = errors
    rows = np.array(rows, dtype=float).reshape(-1, 4)
    # N is the study's top size; the cloud of each size holds n points
    meta = _metadata(config, eps_list, None, {}, cloud) | {
        "N": config.N, "eigenfunctions": spec.eigenfunctions, "sizes": sizes,
        "removed": removed, "per_size": per_size}
    if len(fitted) >= 2:
        slope, intercept = np.polyfit(np.log(fitted), np.log(rows[:, 1]), 1)
        meta["power_law_slope"] = float(slope)
        meta["power_law_intercept"] = float(intercept)
    return _write_outputs(rows, meta, ensure_dir(config.output_dir))


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


def _metadata(config, sweep, curve, errors, cloud):
    meta = {"experiment": config.experiment, "N": cloud.n_points,
            "alpha": config.alpha, "beta": config.beta, "d": cloud.intrinsic_dim,
            "seed": config.seed,
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
    np.savetxt(path, table.rows, fmt="%.17g", delimiter=",",
               header="eps,mse,eig_err,wall_time_s", comments="")


def write_meta(path, meta):
    """Write every entry of a mapping as a ``key = value`` line, in order."""
    with open(path, "w") as fh:
        for key, value in meta.items():
            fh.write(f"{key} = {value}\n")


def _write_outputs(rows, metadata, out):
    table = ResultTable(rows, metadata)
    save_results_csv(table, out / "results.csv")
    write_meta(out / "meta.txt", metadata)
    return table


def _write_operator_csv(path, cloud, f, est, ref):
    names = ["theta", "phi"][: cloud.latent.shape[1]]
    data = np.column_stack([cloud.latent, f, est, ref])
    # the bytes of np.savetxt(fmt="%.17g", delimiter=","), formatted a block
    # of rows at a time rather than one call per row or the whole table
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names + ["f", "estimate", "reference"]) + "\n")
        for start, stop in neighbors._blocks(data.shape[0], _CSV_BLOCK):
            fh.write((row * (stop - start)) % tuple(data[start:stop].ravel().tolist()))


def _hermite_targets(count):
    return [analytic.hermite_target(k) for k in range(min(count, analytic.MAX_HERMITE + 1))]


def _circle_targets(count):
    pairs = [("cos", 0)] + [(p, k) for k in range(1, (count + 2) // 2 + 1)
                            for p in ("sin", "cos")]
    return [analytic.circle_target(k, p) for p, k in pairs[:count]]


_OU2D_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                (3, 0), (2, 1), (1, 2), (0, 3)]
_CONSTANT = analytic.AnalyticTarget(0.0, lambda c: np.ones(c.n_points))


def _score_target(index, spectrum, cloud, reference, ref_vals):
    """Errors of one aligned target eigenfunction and of its eigenvalue."""
    est = align_to_targets(spectrum, reference, ref_vals)
    lam = ref_vals[index]
    return (spectral.mse(est[:, index], reference[:, index]),
            float(abs(spectrum.eigenvalues[index] - lam) / abs(lam)))


def _score_coordinates(last, spectrum, cloud, reference, ref_vals):
    """Least-squares fit of the coordinates by the sphere's -2 eigenspace, 1..last."""
    block = spectrum.eigenvectors[:, 1:last + 1]
    coords = cloud.points
    fitted = block @ spectral.least_squares_map(block, coords)
    err = float(np.mean([spectral.mse(fitted[:, j], coords[:, j])
                         for j in range(3)]))
    return err, float(np.mean(np.abs(spectrum.eigenvalues[1:last + 1] + 2.0) / 2.0))


EXPERIMENTS = {
    "ou1d_nice": Experiment(
        2000, (-0.25, -0.5), lambda n, seed: pointcloud.gen_gaussian_nice_1d(n),
        targets=_hermite_targets, score=_score_target, primary=3),
    "ou1d_random": Experiment(
        20000, (-0.25, -0.5),
        lambda n, seed: pointcloud.gen_gaussian_random(n, 1, seed=seed),
        targets=_hermite_targets, score=_score_target, primary=3),
    "ou2d": Experiment(
        10000, (-0.5, -0.5),
        lambda n, seed: pointcloud.gen_gaussian_random(n, 2, seed=seed),
        eigenfunctions=6, score=_score_target, primary=4,
        targets=lambda m: [analytic.ou2d_target(*o) for o in _OU2D_ORDERS[:m]]),
    "circle": Experiment(
        1500, (0.25, -0.5), lambda n, seed: pointcloud.gen_circle_nonuniform(n),
        targets=_circle_targets, score=_score_target, primary=1),
    "circle_random": Experiment(
        1500, (0.25, -0.5),
        lambda n, seed: pointcloud.perturb_circle(
            pointcloud.gen_circle_nonuniform(n), 0.5, seed=seed),
        targets=_circle_targets, score=_score_target, primary=1),
    "sphere": Experiment(
        3000, (0.0, -0.5),
        lambda n, seed: pointcloud.gen_sphere_nonuniform(n, seed=seed),
        eigenfunctions=4, score=_score_coordinates, primary=3,
        targets=lambda m: ([_CONSTANT] + [analytic.sphere_coordinate_target(a)
                                          for a in range(3)])[:m]),
    "torus_operator": Experiment(
        62500, (0.0, 0.0),
        lambda n, seed: _torus_grid(n),
        reference="bandwidth_drift", eps=(0.001, 0.01, 0.1), k_support=500),
    "circle_operator": Experiment(
        8000, (0.25, -0.5),
        lambda n, seed: pointcloud.gen_circle_from_density(n, analytic.CHECK_G),
        reference="gradient_flow", eps=(0.005, 0.01, 0.1)),
    # a uniform grid with the fixed bandwidth rho = exp(cos theta), alpha 0:
    # the bandwidth-induced drift alone, free of sampling effects
    "circle_grid_operator": Experiment(
        1500, (0.0, 0.0), lambda n, seed: pointcloud.gen_circle_uniform(n),
        reference="bandwidth_drift", eps=(0.001, 0.01, 0.1)),
    "outlier_study": Experiment(
        100000, (0.5, 0.0), lambda n, seed: pointcloud.gen_gaussian_nice_1d(n)),
}
