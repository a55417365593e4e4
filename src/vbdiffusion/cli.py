"""Command line interface.

Subcommands mirror the pipeline stages: generate, density, build, eigs,
tune; experiment runs any registered experiment end to end, the operator
checks and the outlier study included. Configuration comes from an optional
``key = value`` text file (--config) overridden by repeated --set flags; the
keys and types are ``harness.ExperimentConfig``'s fields, and the stage
commands record it resolved in ``meta.txt``. Exit codes: 0 success, 1 usage
error, 2 structured pipeline error.
"""

import argparse
import dataclasses
import sys
import typing
from pathlib import Path

from . import density, harness, kernel, pointcloud, spectral, tuning
from .errors import PipelineError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_eps(raw):
    raw = raw.strip()
    if raw in ("auto", "sweep"):
        return raw
    parts = [p for p in raw.replace(",", " ").split() if p]
    values = [float(p) for p in parts]
    return values[0] if len(values) == 1 else sorted(values)


def _coerce(field, raw):
    """``raw`` as the type of one config field (``int`` for ``int | None``)."""
    if field.name == "eps":
        return _parse_eps(raw)
    (kind,) = set(typing.get_args(field.type) or (field.type,)) - {type(None)}
    return kind(raw)


def load_config(config_path=None, sets=()):
    """Build an ExperimentConfig from a key-value file plus overrides."""
    entries = []
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise _UsageError(f"config file not found: {path}")
        lines = [line.split("#", 1)[0] for line in path.read_text().splitlines()]
        entries = [(f"{path}:{n}", line) for n, line in enumerate(lines, 1)
                   if line.strip()]
    entries += [("--set", item) for item in sets]
    fields = {f.name: f for f in dataclasses.fields(harness.ExperimentConfig)}
    kwargs = {}
    for where, entry in entries:
        key, eq, value = (part.strip() for part in entry.partition("="))
        if not eq:
            raise _UsageError(f"{where}: expected 'key = value', got {entry!r}")
        if key not in fields:
            raise _UsageError(f"unknown config key {key!r}")
        try:
            kwargs[key] = _coerce(fields[key], value)
        except ValueError as exc:
            raise _UsageError(f"bad value for {key!r}: {exc}") from exc
    if "experiment" not in kwargs:
        raise _UsageError("config must set 'experiment'")
    config = harness.ExperimentConfig(**kwargs)
    try:
        config.validate()
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    return config


def _generator(config):
    """Shared setup plus the generator at the run's single epsilon."""
    config, _ = harness.resolve(config)
    # one matrix takes one epsilon; a list or a grid would be cut silently
    if not isinstance(config.eps, str) and len(config.eps) > 1:
        raise _UsageError("build and eigs take one eps value, or 'auto' on "
                          "an eigen run")
    config, cloud, profile, support = harness.setup(config)
    (eps,), _ = harness.epsilons(config, cloud, profile.rho, support)
    gm = kernel.build_generator(cloud, profile.rho, eps, config.alpha,
                                support=support)
    return config, cloud, eps, gm


def _cmd_generate(config):
    config, _ = harness.resolve(config)
    out = harness.ensure_dir(config.output_dir)
    cloud = harness.generate_cloud(config)
    pointcloud.save_csv(cloud, out / "cloud.csv")
    harness.write_meta(out / "meta.txt",
                       vars(config) | {"n_points": cloud.n_points})
    print(f"wrote {out / 'cloud.csv'} ({cloud.n_points} points)")
    return 0


def _cmd_density(config):
    config, cloud, profile, support = harness.setup(config)
    out = harness.ensure_dir(config.output_dir)
    density.save_csv(profile, out / "bandwidth.csv")
    harness.write_meta(out / "meta.txt", vars(config) | {"eps0": profile.eps0})
    print(f"wrote {out / 'bandwidth.csv'} (eps0={profile.eps0:.6g})")
    return 0


def _cmd_build(config):
    config, cloud, eps, gm = _generator(config)
    out = harness.ensure_dir(config.output_dir)
    kernel.save_sparse_csv(gm.Lhat, out / "lhat.csv")
    harness.write_meta(out / "meta.txt", vars(config) | {"eps_used": eps})
    print(f"wrote {out / 'lhat.csv'} (eps={eps:.6g})")
    return 0


def _cmd_eigs(config):
    if harness.EXPERIMENTS[config.experiment].targets is None:
        raise _UsageError(f"eigs takes an eigen run, not {config.experiment}")
    config, cloud, eps, gm = _generator(config)
    out = harness.ensure_dir(config.output_dir)
    spec = spectral.scale_sqrtN(
        spectral.eigs_near_zero(gm, config.eigenfunctions))
    path = harness.eigvecs_path(out, eps)
    spectral.save_csv(spec, path, latent=cloud.latent)
    harness.write_meta(out / "meta.txt", vars(config) | {
        "eps_used": eps, "eigenvalues": list(spec.eigenvalues),
        "eigensolver": {eps: spec.solver}})
    print(f"wrote {path}")
    print("eigenvalues:", " ".join("%.6g" % v for v in spec.eigenvalues))
    return 0


def _cmd_tune(config):
    config, cloud, profile, support = harness.setup(config)
    out = harness.ensure_dir(config.output_dir)
    curve = tuning.s_curve(cloud, profile.rho, support=support)
    tuning.save_csv(curve, out / "tuning.csv")
    harness.write_meta(out / "meta.txt", vars(config) | {
        "eps_star": curve.eps_star, "a_max": curve.a_max, "d_hat": curve.d_hat})
    print(f"wrote {out / 'tuning.csv'}")
    print(f"eps_star={curve.eps_star:.6g} a_max={curve.a_max:.4f} "
          f"d_hat={curve.d_hat:.4f}")
    return 0


def _cmd_experiment(config):
    table = harness.run_experiment(config)
    for eps, err, eig_err, wall in table.rows:
        print(f"eps={eps:.6g} mse={err:.6g} eig_err={eig_err:.6g} ({wall:.2f}s)")
    for eps, message in table.metadata.get("errors", {}).items():
        print(f"eps={eps:.6g} failed: {message}")
    # outlier_study records its failures per size
    for n, size in table.metadata.get("per_size", {}).items():
        for eps, message in size.get("errors", {}).items():
            print(f"N={n} eps={eps:.6g} failed: {message}")
    print(f"wrote {Path(config.output_dir) / 'results.csv'}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "density": _cmd_density,
    "build": _cmd_build,
    "eigs": _cmd_eigs,
    "tune": _cmd_tune,
    "experiment": _cmd_experiment,
}


def main(argv=None):
    parser = _Parser(prog="vbdiff", description=__doc__)
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=None, help="key = value text file")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config entry (repeatable)")
    try:
        args = parser.parse_args(argv)
        config = load_config(args.config, args.set)
        return _COMMANDS[args.command](config)
    except (_UsageError, harness.ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PipelineError as exc:
        print(f"pipeline error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
