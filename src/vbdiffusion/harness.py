"""End-to-end experiments: sweeps, alignment against analytic answers, output.

``EXPERIMENTS`` holds one frozen :class:`Experiment` per name: defaults,
dataset, and either analytic target eigenfunctions with a scoring rule or a
reference operator with the figure's epsilon values. Every run goes through
:func:`run_experiment`, which resolves the config (:func:`resolve`, then
:func:`_alpha_beta` once the cloud exists) into the one object every stage
reads and ``meta.txt`` records, and hands it to one runner per kind (an
eigen spec with ``sizes`` to one eigen run per size); each runner scores its
epsilons through one row loop, which records failures instead of rows. Eigen
runs and the CLI stage commands start from :func:`setup`, which shares one
set of support pairs and one bandwidth profile across epsilon and names the
points of the generated cloud that a trim kept. Operator runs
apply the generator to ``analytic.CHECK_F`` with a bandwidth from
``analytic.CHECK_G``, skip the KDE and compare against the closed-form
``analytic.reference_operator``. In the symmetric formulation an operator
run builds its support with rho, so that the support holds
r^2 / (rho_i rho_j) and each epsilon's kernel costs one divide and one exp
per pair. An operator run formats the columns of its CSVs that do not
depend on epsilon once, during setup, so each epsilon's ``wall_time_s``
covers the estimate, its column and the file write.
"""

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
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
    ``trim`` drops the floor(sqrt(N)) points of lowest density estimate q0
    in :func:`setup`, and ``sizes`` runs the experiment once per size up to
    N (see :func:`_over_sizes`). Operator experiments set ``reference``, the
    ``analytic.reference_operator`` kind, with the figure's ``eps`` (taken
    for eps = auto) and a default ``k_support`` (None sums all pairs).
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
    trim: bool = False
    sizes: tuple = ()


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
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if not (math.isfinite(self.eps_multiplier) and self.eps_multiplier > 0.0):
            raise ConfigError("eps_multiplier must be finite and positive")
        if isinstance(self.eps, str):
            if self.eps not in ("auto", "sweep"):
                raise ConfigError("eps must be a number, a list, 'auto' "
                                  "or 'sweep'")
            return self
        eps = np.atleast_1d(np.asarray(self.eps, dtype=float))
        # the run's epsilons: each times eps_multiplier, in floats that
        # overflow to inf and underflow to 0 without a warning
        scaled = [e * self.eps_multiplier for e in eps.tolist()]
        if not (scaled and all(0.0 < e < math.inf for e in scaled)
                and np.all(np.diff(eps) > 0.0)):
            raise ConfigError("eps, and eps times eps_multiplier, must be "
                              "finite and positive; a list strictly increasing")
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


def _support(cloud, k, bandwidth=None):
    """Pairs of the symmetrized kNN graph (k at most N), divided by
    bandwidth_i bandwidth_j when one is given; None for all pairs."""
    if k is None:
        return None
    scale = {} if bandwidth is None else {"bandwidth": bandwidth}
    return neighbors.symmetrized_support(cloud, min(cloud.n_points, k), **scale)


def support_record(support):
    """What ``meta.txt`` records of a support: its count of pairs i < j,
    which shows the pairs that whole last shells add; nothing on all pairs."""
    return {} if support is None else {"support_pairs": support.nnz}


def setup(config):
    """What the epsilons of an eigen run, or of a stage command, share.

    Returns ``(config, cloud, profile, support, kept)``: the config resolved
    with alpha and beta set and the storage rule on the cloud's size for a
    width the spec leaves None; ``support`` is None on the all-pairs path;
    ``kept`` the indices of the cloud's points in the generated one. A spec
    that trims drops the floor(sqrt(N)) points of lowest q0 (ties by index):
    the cloud and profile are then those of the points kept, and the
    support is rebuilt on them at the same width.
    """
    config, spec = resolve(config)
    cloud = generate_cloud(config)
    if cloud.n_points < config.k0:
        raise ConfigError(f"N = {cloud.n_points} points is fewer than k0 = "
                          f"{config.k0}, the neighbors the pilot bandwidth reads")
    config = replace(_alpha_beta(config, cloud.intrinsic_dim),
                     k_support=_storage_k(cloud.n_points, config.k_support,
                                          config.k0))
    support = _support(cloud, config.k_support)
    # the pilot bandwidth reads a graph of its own, k0 neighbors wide
    profile = density.bandwidth_profile(
        cloud, neighbors.knn(cloud, config.k0), config.beta, k0=config.k0,
        support=support)
    kept = np.arange(cloud.n_points)
    if spec.trim:
        kept = np.sort(np.argsort(profile.q0, kind="stable")[
            math.isqrt(cloud.n_points):])
        cloud = replace(cloud, points=cloud.points[kept],
                        latent=cloud.latent[kept])
        profile = density.BandwidthProfile(profile.rho0[kept], profile.q0[kept],
                                           profile.rho[kept])
        support = None  # the whole cloud's pairs go before the kept ones come
        support = _support(cloud, config.k_support)
    return config, cloud, profile, support, kept


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
    resolved, spec = resolve(config)
    if spec.reference is not None:
        return _operator_experiment(resolved, spec)
    if spec.sizes:
        return _over_sizes(config, spec)
    return _eigen_experiment(resolved, spec)


def _eigen_experiment(config, spec):
    config, cloud, profile, support, _ = setup(config)
    # a trimmed run's N is the points it kept
    record = {"removed": config.N - cloud.n_points} if spec.trim else {}
    record |= support_record(support)
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
                  {"eigensolver": solvers} | record)


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
    # left and right put rho on one side only: they read raw r^2
    support = _support(cloud, config.k_support,
                       rho if config.formulation == "symmetric" else None)
    template = _operator_template(cloud.latent, f, ref)

    def one_eps(eps):
        est = kernel.apply_generator(cloud, rho, eps, config.alpha,
                                     config.formulation, f, support=support)
        _write_operator_csv(out / f"operator_{eps:.6g}.csv", template, est)
        return spectral.mse(est, ref), 0.0

    return _sweep(config, cloud, epsilons(config, cloud, rho, support)[0], None,
                  out, one_eps, support_record(support))


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
    return _write_outputs(rows, _metadata(config, sweep, curve, errors,
                                          cloud.n_points, cloud.intrinsic_dim)
                          | (record or {}), out)


def _over_sizes(config, spec):
    """An eigen run per size of ``spec.sizes`` up to N (N alone below them).

    Each size runs into the subdirectory ``n<size>`` of the output
    directory, at the width and epsilon grid that follow its size unless
    the config sets them (``eps_multiplier`` scales either grid), and keeps
    its row of lowest mse. Fits log(mse) against log(size) across the sizes
    with a row.
    """
    top, _ = resolve(config)
    sizes = [n for n in spec.sizes if n <= top.N] or [top.N]
    rows, fitted, per_size, eps_list = [], [], {}, []
    for n in sizes:
        table = _eigen_experiment(*resolve(replace(
            top, N=n, output_dir=str(Path(top.output_dir) / f"n{n}"),
            k_support=config.k_support or _outlier_default_k(n),
            eps=_outlier_default_eps(n) if top.eps == "auto" else top.eps)))
        meta = table.metadata
        grid = meta["eps_list"]
        eps_list += grid
        per_size[n] = {"removed": meta["removed"], "remaining": meta["N"],
                       "k_support": meta["k_support"],
                       "support_pairs": meta.get("support_pairs"),
                       "eps_grid": grid}
        if table.rows.shape[0]:
            best = table.rows[np.argmin(table.rows[:, 1])]
            rows.append(best)
            fitted.append(n)
            # at either end of the grid, the minimum may lie outside it
            per_size[n] |= {"best_eps": float(best[0]),
                            "best_mse": float(best[1]),
                            "best_at_edge": bool(best[0] in (grid[0], grid[-1]))}
        if "errors" in meta:
            per_size[n]["errors"] = meta["errors"]
    rows = np.array(rows, dtype=float).reshape(-1, 4)
    # N is the top size; k_support the width set for every size, None when
    # each size takes its own
    meta = _metadata(replace(_alpha_beta(top, meta["d"]),
                             k_support=config.k_support),
                     eps_list, None, {}, top.N, meta["d"]) | {
        "sizes": sizes, "removed": [per_size[n]["removed"] for n in sizes],
        "per_size": per_size}
    if len(fitted) >= 2:
        slope, intercept = np.polyfit(np.log(fitted), np.log(rows[:, 1]), 1)
        meta["power_law_slope"] = float(slope)
        meta["power_law_intercept"] = float(intercept)
    return _write_outputs(rows, meta, ensure_dir(top.output_dir))


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


def _metadata(config, sweep, curve, errors, n, d):
    meta = {"experiment": config.experiment, "N": n,
            "alpha": config.alpha, "beta": config.beta, "d": d,
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


def _operator_template(latent, f, ref):
    """Header and row blocks of an operator CSV, all but the estimate written.

    The latent columns, f and the reference are formatted with ``%.17g``,
    one text per ``_CSV_BLOCK`` rows, in which the estimate stays a
    ``%.17g`` field: ``%.17g`` writes no ``%`` that could be taken for one.
    """
    names = ["theta", "phi"][: latent.shape[1]]
    fields = ["%.17g"] * (latent.shape[1] + 1) + ["%%.17g", "%.17g"]
    row = ",".join(fields) + "\n"
    data = np.column_stack([latent, f, ref])
    return [",".join(names + ["f", "estimate", "reference"]) + "\n"] + [
        (row * (stop - start)) % tuple(data[start:stop].ravel().tolist())
        for start, stop in neighbors._blocks(data.shape[0], _CSV_BLOCK)]


def _write_operator_csv(path, template, est):
    """The bytes of np.savetxt(fmt="%.17g", delimiter=",") of the columns of
    ``template`` (from :func:`_operator_template`) with ``est`` filled in."""
    header, *blocks = template
    with open(path, "w") as fh:
        fh.write(header)
        for start, text in zip(range(0, est.shape[0], _CSV_BLOCK), blocks):
            fh.write(text % tuple(est[start:start + _CSV_BLOCK].tolist()))


def _hermite_targets(count):
    return [analytic.hermite_target(k) for k in range(min(count, analytic.MAX_HERMITE + 1))]


def _circle_targets(count):
    pairs = [("cos", 0)] + [(p, k) for k in range(1, (count + 2) // 2 + 1)
                            for p in ("sin", "cos")]
    return [analytic.circle_target(k, p) for p, k in pairs[:count]]


_OU2D_ORDERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2),
                (3, 0), (2, 1), (1, 2), (0, 3)]
_CONSTANT = analytic.AnalyticTarget(0.0, lambda c: np.ones(c.n_points))


def _score_target(index, spectrum, cloud, reference, ref_vals, window=None):
    """Errors of one aligned target eigenfunction, over the points whose
    first coordinate lies within ``window`` of 0 when given, and of its
    eigenvalue."""
    est = align_to_targets(spectrum, reference, ref_vals)
    lam = ref_vals[index]
    mask = None if window is None else np.abs(cloud.points[:, 0]) <= window
    return (spectral.mse(est[:, index], reference[:, index], mask=mask),
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
    # fixed bandwidth loses the tails: drop the lowest-density points, and
    # score the fourth eigenfunction on [-2, 2] only
    "outlier_study": Experiment(
        100000, (0.5, 0.0), lambda n, seed: pointcloud.gen_gaussian_nice_1d(n),
        targets=_hermite_targets, score=partial(_score_target, window=2.0),
        primary=3, trim=True, sizes=(1000, 10000, 100000)),
}
