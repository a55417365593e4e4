import ast
import dataclasses
import importlib
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vbdiffusion
from vbdiffusion import (analytic, cli, density, harness, kernel, neighbors,
                         pointcloud, spectral)


def test_defaults_fill_in():
    config = harness.ExperimentConfig(experiment="ou1d_nice", eps=0.01)
    resolved, _ = harness.resolve(config)
    assert resolved.N == 2000
    assert resolved.eigenfunctions == 5
    assert resolved.eps == (0.01,)
    listed, _ = harness.resolve(harness.ExperimentConfig(
        experiment="ou1d_nice", eps=[0.01, 0.02]))
    assert listed.eps == (0.01, 0.02)


def _alpha_beta(d, **kwargs):
    config = harness._alpha_beta(harness.ExperimentConfig(
        experiment="ou1d_nice", **kwargs), d)
    return config.alpha, config.beta


def test_alpha_beta_resolution():
    assert _alpha_beta(1) == (-0.25, -0.5)
    assert _alpha_beta(1, alpha=0.1) == (0.1, -0.5)
    for preset, d, want in [("laplacian-vb", 1, (0.25, -0.5)),
                            ("laplacian-vb", 2, (0.0, -0.5)),
                            ("gradientflow-vb", 2, (-0.5, -0.5)),
                            ("laplacian-fixed", 3, (1.0, 0.0)),
                            ("gradientflow-fixed", 1, (0.5, 0.0))]:
        # a preset wins over explicit alpha/beta
        assert _alpha_beta(d, preset=preset, alpha=9.0, beta=9.0) == want


@pytest.mark.parametrize("kwargs", [
    {"experiment": "nonsense"},
    {"experiment": "ou1d_nice", "preset": "nonsense"},
    {"experiment": "ou1d_nice", "N": 1},
    {"experiment": "ou1d_nice", "k0": 1},
    {"experiment": "ou1d_nice", "eps_multiplier": 0.0},
    {"experiment": "ou1d_nice", "eps": "bogus"},
    {"experiment": "ou1d_nice", "eps": [0.2, 0.1]},
    {"experiment": "ou1d_nice", "eps": -1.0},
    {"experiment": "ou1d_nice", "eigenfunctions": 0},
    {"experiment": "ou1d_nice", "formulation": "bogus"},
    # the scored eigenfunction is index 3, and Hermite targets end at 6
    {"experiment": "ou1d_nice", "eigenfunctions": 3},
    {"experiment": "ou1d_nice", "eigenfunctions": 8},
    {"experiment": "sphere", "eigenfunctions": 5},
    # settings the run would ignore
    {"experiment": "sphere", "formulation": "left", "alpha": 0.0},
    # the outlier study scores eigenfunction 3 like ou1d_nice
    {"experiment": "outlier_study", "eigenfunctions": 3},
    # epsilons that are not finite and positive, given or after the
    # multiplier, and seeds the generators cannot take
    {"experiment": "ou1d_nice", "eps": math.inf},
    {"experiment": "ou1d_nice", "eps": math.nan},
    {"experiment": "circle_operator", "eps": [0.01, math.inf]},
    {"experiment": "ou1d_nice", "eps_multiplier": math.nan},
    {"experiment": "ou1d_nice", "eps_multiplier": math.inf},
    {"experiment": "ou1d_nice", "eps_multiplier": -2.0},
    {"experiment": "ou1d_nice", "eps": 1e300, "eps_multiplier": 1e10},
    {"experiment": "ou1d_nice", "eps": [1e-3, 1e300], "eps_multiplier": 1e10},
    {"experiment": "ou1d_nice", "eps": 1e-300, "eps_multiplier": 1e-300},
    {"experiment": "ou1d_nice", "seed": -1},
])
def test_validate_rejects(kwargs):
    with pytest.raises(harness.ConfigError):
        harness.resolve(harness.ExperimentConfig(**kwargs))


def test_eps_sweep_keyword():
    config = harness.ExperimentConfig(experiment="ou1d_nice", eps="sweep",
                                      eps_multiplier=2.0)
    sweep, curve = harness.epsilons(harness.resolve(config)[0], None, None, None)
    assert curve is None
    assert sweep == [2.0 * e for e in harness.DEFAULT_SWEEP]


def _tiny_config(tmp_path, name, **kwargs):
    return harness.ExperimentConfig(experiment="ou1d_nice", N=300,
                                    output_dir=str(tmp_path / name), **kwargs)


def test_run_experiment_outputs(tmp_path):
    table = harness.run_experiment(_tiny_config(tmp_path, "a", eps=(0.01, 0.02)))
    assert table.rows.shape == (2, 4)
    assert np.array_equal(table.rows[:, 0], [0.01, 0.02])
    out = tmp_path / "a"
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "eps,mse,eig_err,wall_time_s"
    assert len(lines) == 3
    assert (out / "eigvecs_0.01.csv").is_file()
    assert (out / "eigvecs_0.02.csv").is_file()
    assert not (out / "tuning.csv").exists()
    meta = (out / "meta.txt").read_text()
    assert "experiment = ou1d_nice" in meta
    assert "eps_list = [0.01, 0.02]" in meta


def test_run_experiment_deterministic(tmp_path):
    first = harness.run_experiment(_tiny_config(tmp_path, "r1", eps=(0.01,)))
    second = harness.run_experiment(_tiny_config(tmp_path, "r2", eps=(0.01,)))
    a = (tmp_path / "r1" / "eigvecs_0.01.csv").read_bytes()
    b = (tmp_path / "r2" / "eigvecs_0.01.csv").read_bytes()
    assert a == b
    # wall time is the only column allowed to differ
    assert np.array_equal(first.rows[:, :3], second.rows[:, :3])


def test_auto_eps_runs_tuning(tmp_path):
    table = harness.run_experiment(_tiny_config(tmp_path, "auto", eps="auto"))
    assert table.rows.shape == (1, 4)
    assert (tmp_path / "auto" / "tuning.csv").is_file()
    assert "eps_star" in table.metadata
    assert table.rows[0, 0] == table.metadata["eps_star"]


def _outlier(tmp_path, tag, **kwargs):
    return harness.run_experiment(harness.ExperimentConfig(
        experiment="outlier_study", N=100, output_dir=str(tmp_path / tag),
        **kwargs))


def test_outlier_study_small(tmp_path):
    table = _outlier(tmp_path, "o")
    assert table.metadata["removed"] == [10]
    assert table.metadata["sizes"] == [100]
    assert table.metadata["per_size"][100]["remaining"] == 90
    assert table.rows.shape == (1, 4)
    assert "power_law_slope" not in table.metadata
    assert (tmp_path / "o" / "results.csv").is_file()


def test_outlier_study_records_failed_epsilons(tmp_path):
    # eps far below the spacing scale disconnects the kernel support
    for tag, eps, completed in [("mixed", [1e-12, 1e-3], [1e-3]),
                                ("failed", [1e-12], [])]:
        table = _outlier(tmp_path, tag, eps=eps)
        assert list(table.rows[:, 0]) == completed
        errors = table.metadata["per_size"][100]["errors"]
        assert list(errors) == [1e-12]
        assert errors[1e-12].startswith("DisconnectedGraph: ")
        meta = (tmp_path / tag / "meta.txt").read_text()
        assert "{1e-12: 'DisconnectedGraph: " in meta


def test_cli_prints_outlier_failures_per_size(tmp_path, capsys):
    code = cli.main(["experiment", "--set", "experiment=outlier_study",
                     "--set", "N=100", "--set", "eps=1e-12,1e-3",
                     "--set", f"output_dir={tmp_path}"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if "failed" in line]
    assert len(failed) == 1
    assert failed[0].startswith("N=100 eps=1e-12 failed: DisconnectedGraph: ")
    assert sum(line.startswith("eps=0.001 mse=") for line in lines) == 1


def test_operator_checks_run_with_sympy_blocked(tmp_path):
    # a None entry in sys.modules makes every import of sympy fail, so a
    # fresh interpreter shows that no operator check needs it
    src = str(Path(vbdiffusion.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    probe = ("import sys; sys.modules['sympy'] = None\n"
             "from vbdiffusion import harness\n"
             "for name in sys.argv[2:]:\n"
             "    table = harness.run_experiment(harness.ExperimentConfig(\n"
             "        experiment=name, N=400, output_dir=sys.argv[1] + name))\n"
             "    print(name, table.rows.shape[0], sys.modules['sympy'] is None)\n")
    names = ["circle_grid_operator", "circle_operator", "torus_operator"]
    out = subprocess.run([sys.executable, "-c", probe, f"{tmp_path}/", *names],
                         env=env, check=True, capture_output=True, text=True)
    assert out.stdout.splitlines() == [f"{name} 3 True" for name in names]


def test_third_party_imports_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    package = Path(vbdiffusion.__file__).resolve().parent
    imported = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {package.name}
    with open(package.parents[1] / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
                for req in requirements}
    assert third_party == declared


def test_cli_exit_codes(tmp_path, capsys):
    ok = cli.main(["experiment", "--set", "experiment=ou1d_nice",
                   "--set", "N=300", "--set", "eps=0.01",
                   "--set", f"output_dir={tmp_path / 'cli'}"])
    assert ok == 0
    assert "mse=" in capsys.readouterr().out
    assert cli.main(["experiment", "--set", "bogus=1"]) == 1
    assert cli.main(["tune"]) == 1  # missing experiment key
    assert cli.main(["experiment", "--set", "experiment=ou1d_nice",
                     "--set", "N=abc"]) == 1
    capsys.readouterr()
    # epsilon far below the spacing scale disconnects the kernel support
    code = cli.main(["eigs", "--set", "experiment=ou1d_nice", "--set", "N=300",
                     "--set", "eps=1e-12",
                     "--set", f"output_dir={tmp_path / 'cli2'}"])
    assert code == 2
    assert "pipeline error" in capsys.readouterr().err
    # settings the chosen run cannot honour are usage errors, raised before
    # any output is written
    for command, sets in [("operator-check", ["experiment=circle_operator"]),
                          ("experiment", ["experiment=ou1d_nice",
                                          "formulation=bogus"]),
                          ("experiment", ["experiment=circle_grid_operator",
                                          "eps=sweep"]),
                          ("experiment", ["experiment=circle_operator",
                                          "formulation=left"]),
                          ("experiment", ["experiment=ou1d_nice", "eps=0.01",
                                          "eigenfunctions=3"]),
                          ("experiment", ["experiment=ou1d_nice", "eps=0.01",
                                          "eigenfunctions=8"]),
                          ("experiment", ["experiment=ou1d_nice", "eps=inf"]),
                          ("experiment", ["experiment=circle_operator",
                                          "eps=inf"]),
                          ("experiment", ["experiment=ou1d_nice",
                                          "eps_multiplier=nan"]),
                          ("experiment", ["experiment=ou1d_nice",
                                          "eps_multiplier=inf"]),
                          ("experiment", ["experiment=ou1d_nice", "eps=1e300",
                                          "eps_multiplier=1e10"]),
                          ("experiment", ["experiment=ou1d_nice", "seed=-1"])]:
        argv = [command, "--set", f"output_dir={tmp_path / 'bad'}", "--set", "N=300"]
        for item in sets:
            argv += ["--set", item]
        assert cli.main(argv) == 1, sets
        assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()


def test_cloud_smaller_than_k0_is_a_usage_error(tmp_path, capsys):
    # the pilot bandwidth reads k0 = 8 neighbors of each point
    for command, name, n in [("experiment", "sphere", 5),
                             ("tune", "ou1d_nice", 6),
                             ("density", "circle_operator", 5),
                             ("experiment", "outlier_study", 5)]:
        code = cli.main([command, "--set", f"experiment={name}",
                         "--set", f"N={n}",
                         "--set", f"output_dir={tmp_path / name}"])
        err = capsys.readouterr().err
        assert code == 1, (command, name)
        assert "usage error" in err and f"N = {n}" in err and "k0 = 8" in err
        assert not (tmp_path / name).exists()


def test_torus_operator_takes_a_square_n(tmp_path, capsys):
    # the grid has side x side points: any other N would silently run a
    # different one
    for command in ("experiment", "generate"):
        out = tmp_path / command
        code = cli.main([command, "--set", "experiment=torus_operator",
                         "--set", "N=3000", "--set", f"output_dir={out}"])
        err = capsys.readouterr().err
        assert code == 1, command
        assert "usage error" in err and "2916 and 3025" in err
        assert not out.exists()
    out = tmp_path / "square"
    assert cli.main(["generate", "--set", "experiment=torus_operator",
                     "--set", "N=3025", "--set", f"output_dir={out}"]) == 0
    assert len((out / "cloud.csv").read_text().splitlines()) == 1 + 3025
    assert "n_points = 3025" in (out / "meta.txt").read_text().splitlines()


def test_load_config_file_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment line\n"
                    "experiment = ou1d_nice\n"
                    "N = 500  # inline comment\n"
                    "eps = 0.02 0.01\n")
    config = cli.load_config(str(path), ["N=400"])
    assert config.experiment == "ou1d_nice"
    assert config.N == 400
    assert config.eps == [0.01, 0.02]
    assert cli.load_config(None, ["experiment=ou1d_nice", "eps=sweep"]).eps == "sweep"
    assert cli.load_config(None, ["experiment=ou1d_nice", "eps=0.5"]).eps == 0.5
    with pytest.raises(cli._UsageError):
        cli.load_config(str(tmp_path / "missing.cfg"), [])
    with pytest.raises(cli._UsageError):
        cli.load_config(None, ["experiment=ou1d_nice", "eps=-1"])


def test_single_matrix_commands_take_one_eps(tmp_path, capsys):
    # build and eigs make one matrix: a list or 'sweep' is a usage error
    # instead of a run at the first value or at the tuned epsilon
    base = ["--set", "experiment=ou1d_nice", "--set", "N=300",
            "--set", f"output_dir={tmp_path / 'one'}"]
    for command in ("build", "eigs"):
        for eps in ("0.01 0.02", "sweep"):
            assert cli.main([command, *base, "--set", f"eps={eps}"]) == 1
    assert "one eps value" in capsys.readouterr().err
    assert not (tmp_path / "one").exists()
    assert cli.main(["eigs", *base, "--set", "eps=0.01",
                     "--set", "eps_multiplier=2"]) == 0
    assert (tmp_path / "one" / "eigvecs_0.02.csv").is_file()
    meta = (tmp_path / "one" / "meta.txt").read_text()
    assert "eps_used = 0.02" in meta
    assert "eigensolver = {0.02: 'eigh'}" in meta


def test_operator_runs_reject_eps_sweep(tmp_path):
    for name in ("circle_operator", "torus_operator", "circle_grid_operator"):
        config = harness.ExperimentConfig(experiment=name, N=400, eps="sweep",
                                          output_dir=str(tmp_path / name))
        with pytest.raises(ValueError, match="sweep"):
            harness.run_experiment(config)
    assert not any(tmp_path.iterdir())


def test_outlier_study_scales_its_grid_and_takes_bandwidth_settings(tmp_path):
    def run(tag, **kwargs):
        return _outlier(tmp_path, tag, **kwargs)

    # an eigen run like any other: presets, alpha, beta and the sweep grid
    # reach every size, and its meta.txt
    for tag, kwargs, want in [
            ("preset", {"preset": "laplacian-vb"}, (0.25, -0.5)),
            ("alpha", {"alpha": 0.25, "beta": -0.5}, (0.25, -0.5))]:
        table = run(tag, eps=[1e-3], **kwargs)
        sub = (tmp_path / tag / "n100" / "meta.txt").read_text().splitlines()
        assert (table.metadata["alpha"], table.metadata["beta"]) == want
        assert f"alpha = {want[0]}" in sub and f"beta = {want[1]}" in sub
    swept = run("sweep", eps="sweep").metadata["per_size"][100]["eps_grid"]
    assert swept == list(harness.DEFAULT_SWEEP)
    grid = run("base").metadata["per_size"][100]["eps_grid"]
    scaled = run("scaled", eps_multiplier=4.0)
    assert scaled.metadata["per_size"][100]["eps_grid"] == [4.0 * e for e in grid]
    assert scaled.rows[0, 0] in [4.0 * e for e in grid]
    listed = run("listed", eps=[1e-3, 2e-3], eps_multiplier=0.5)
    assert listed.metadata["per_size"][100]["eps_grid"] == [5e-4, 1e-3]


def test_small_cloud_with_k_support_truncates_the_kde():
    config = harness.ExperimentConfig(experiment="ou1d_nice", N=300, k_support=10)
    _, cloud, profile, support = harness.setup(config)
    assert support is not None
    # oracle: per-point sums over the symmetrized 10-nearest-neighbor sets
    graph = neighbors.knn(cloud, 10)
    sets = [set(row) for row in graph.indices.tolist()]
    for i, row in enumerate(graph.indices.tolist()):
        for j in row:
            sets[j].add(i)
    x, rho0 = cloud.points[:, 0], profile.rho0
    want = [math.fsum(math.exp(-(x[i] - x[j]) ** 2 / (2.0 * rho0[i] * rho0[j]))
                      for j in sets[i]) / (math.sqrt(2.0 * math.pi) * rho0[i] * 300)
            for i in range(300)]
    np.testing.assert_allclose(profile.q0, want, rtol=1e-13, atol=0.0)
    all_pairs = density.kde_pilot(cloud, rho0)
    assert np.abs(profile.q0 / all_pairs - 1.0).max() > 1e-3


def test_k_support_above_n_is_clamped_to_the_whole_cloud(monkeypatch, tmp_path):
    build = neighbors.symmetrized_support
    calls = []

    def spy(cloud, k):
        support = build(cloud, k)
        calls.append((cloud.n_points, k, support.nnz))
        return support

    monkeypatch.setattr(neighbors, "symmetrized_support", spy)
    harness.run_experiment(harness.ExperimentConfig(
        experiment="torus_operator", N=900, k_support=2000,
        output_dir=str(tmp_path)))
    # every pair i < j, once
    assert calls == [(900, 900, 900 * 899 // 2)]


# tiny sizes, as in the benchmark self-test (a 500-point support would
# cover the whole 900-point torus grid)
_TINY = {"torus_operator": {"N": 900, "k_support": 60},
         "outlier_study": {"N": 100}}
_META_KEYS = {"experiment", "N", "alpha", "beta", "d", "seed", "k0",
              "k_support", "eigenfunctions", "formulation", "preset",
              "eps_multiplier", "eps_list"}


def _check_sweep_outputs(out, table, prefix, extra=frozenset()):
    """Output contract of one sweep: rows, files and metadata keys, besides
    the ``extra`` ones."""
    lines = (out / "results.csv").read_text().splitlines()
    assert lines[0] == "eps,mse,eig_err,wall_time_s"
    assert len(lines) == 1 + table.rows.shape[0] >= 2
    assert np.all(np.isfinite(table.rows))
    failed = table.metadata.get("errors", {})
    assert list(table.rows[:, 0]) == [e for e in table.metadata["eps_list"]
                                      if e not in failed]
    meta = dict(line.split(" = ", 1)
                for line in (out / "meta.txt").read_text().splitlines())
    tuned = {"eps_star", "a_max", "d_hat"} if "eps_star" in table.metadata else set()
    eigen = {"eigensolver"} if prefix == "eigvecs" else set()
    assert set(meta) == _META_KEYS | tuned | eigen | set(extra) | (
        {"errors"} if failed else set())
    if eigen:
        # every epsilon with a row names the eigensolver path that ran
        solvers = ast.literal_eval(meta["eigensolver"])
        assert set(table.rows[:, 0]) <= set(solvers)
        assert set(solvers.values()) <= {"eigh", "dense cholesky shift-invert",
                                         "banded cholesky shift-invert"}
    want = {"results.csv", "meta.txt"} | {f"{prefix}_{e:.6g}.csv"
                                          for e in table.rows[:, 0]}
    assert {p.name for p in out.iterdir()} == want | (
        {"tuning.csv"} if tuned else set())


@pytest.mark.parametrize("name", sorted(harness.EXPERIMENTS))
def test_every_experiment_end_to_end(tmp_path, name):
    config = harness.ExperimentConfig(experiment=name, output_dir=str(tmp_path),
                                      **_TINY.get(name, {"N": 300}))
    table = harness.run_experiment(config)
    if name == "outlier_study":
        assert table.rows.shape == (1, 4)
        assert table.metadata["sizes"] == [100]
        assert {p.name for p in tmp_path.iterdir()} == {"results.csv", "meta.txt",
                                                        "n100"}
        meta = dict(line.split(" = ", 1)
                    for line in (tmp_path / "meta.txt").read_text().splitlines())
        assert _META_KEYS <= set(meta)
        # each size is an eigen run of its own, in its own directory
        sub = tmp_path / "n100"
        size = dict(line.split(" = ", 1)
                    for line in (sub / "meta.txt").read_text().splitlines())
        rows = np.loadtxt(sub / "results.csv", delimiter=",", skiprows=1, ndmin=2)
        assert size["removed"] == "10" and size["N"] == "90"
        _check_sweep_outputs(sub, harness.ResultTable(rows, {
            "eps_list": ast.literal_eval(size["eps_list"])}), "eigvecs",
            {"removed"})
        return
    operator = harness.EXPERIMENTS[name].reference is not None
    _check_sweep_outputs(tmp_path, table, "operator" if operator else "eigvecs")
    assert ("eps_star" in table.metadata) != operator


@pytest.mark.parametrize("name", ["circle_grid_operator", "circle_operator",
                                  "torus_operator"])
def test_operator_check_end_to_end(tmp_path, name):
    assert harness.EXPERIMENTS[name].reference is not None
    config = harness.ExperimentConfig(experiment=name, output_dir=str(tmp_path),
                                      **_TINY.get(name, {"N": 300}))
    table = harness.run_experiment(config)
    # the default operator grid has three epsilons, and none fails here
    assert table.rows.shape[0] == 3
    assert "errors" not in table.metadata
    _check_sweep_outputs(tmp_path, table, "operator")


@pytest.mark.parametrize("latent_dim", [1, 2])
def test_operator_csv_matches_savetxt_bytes(tmp_path, latent_dim):
    rng = np.random.default_rng(2)
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan]
    names = ["theta", "phi"][:latent_dim] + ["f", "estimate", "reference"]
    # within one block of rows, and across two block seams into a short block
    for n in (50, 2 * harness._CSV_BLOCK + 3):
        latent = rng.uniform(0.0, 6.3, (n, latent_dim))
        f, ref = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-300, 300, (2, n))
        f[:5], ref[-5:] = specials, specials
        template = harness._operator_template(latent, f, ref)
        kept = list(template)
        # one template, filled with three estimates in turn
        for trial in range(3):
            est = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
            est[trial:trial + 5] = specials
            got = tmp_path / f"got{n}_{trial}.csv"
            want = tmp_path / f"want{n}_{trial}.csv"
            harness._write_operator_csv(got, template, est)
            np.savetxt(want, np.column_stack([latent, f, est, ref]), fmt="%.17g",
                       delimiter=",", header=",".join(names), comments="")
            assert got.read_bytes() == want.read_bytes()
            assert template == kept


def test_circle_operator_check_honours_alpha_and_k_support(tmp_path):
    def run(tag, **kwargs):
        return harness.run_experiment(harness.ExperimentConfig(
            experiment="circle_grid_operator", N=400,
            output_dir=str(tmp_path / tag), **kwargs))

    base = run("base")
    assert (base.metadata["alpha"], base.metadata["k_support"]) == (0.0, None)
    weighted = run("alpha", alpha=0.25)
    assert weighted.metadata["alpha"] == 0.25
    assert not np.array_equal(weighted.rows[:, 1], base.rows[:, 1])
    # a support holding every point sums the same terms as the dense path
    full = run("full", k_support=400)
    np.testing.assert_allclose(full.rows[:, 1], base.rows[:, 1], rtol=1e-9)
    cut = run("cut", k_support=3)
    assert cut.metadata["k_support"] == 3
    assert np.all(np.abs(cut.rows[:, 1] / base.rows[:, 1] - 1.0) > 1e-3)


@pytest.mark.parametrize("formulation", kernel.FORMULATIONS)
def test_only_symmetric_operator_runs_scale_their_support(
        tmp_path, monkeypatch, formulation):
    # left and right put the bandwidth on one side only: their kernel reads
    # raw r^2, which a scaled support no longer holds
    seen = []
    apply = kernel.apply_generator

    def spy(*args, support=None):
        seen.append(support)
        return apply(*args, support=support)
    monkeypatch.setattr(kernel, "apply_generator", spy)
    table = harness.run_experiment(harness.ExperimentConfig(
        experiment="torus_operator", N=900, k_support=60,
        formulation=formulation, output_dir=str(tmp_path)))
    assert table.rows.shape[0] == 3
    assert len(seen) == 3
    assert all((s.bandwidth is not None) == (formulation == "symmetric")
               for s in seen)


def test_outlier_study_records_its_width_and_whether_its_best_sits_at_a_grid_end(
        tmp_path, monkeypatch):
    build = neighbors.symmetrized_support
    widths = []

    def spy(cloud, k):
        widths.append((cloud.n_points, k))
        return build(cloud, k)

    monkeypatch.setattr(neighbors, "symmetrized_support", spy)
    # oracle: the masked error of each epsilon, from a run of that epsilon alone
    fine = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    alone = {e: _outlier(tmp_path, f"e{e:g}", eps=[e]).metadata["per_size"][100]
             for e in fine}
    flags = set()
    for tag, grid in [("fine", fine), ("middle", fine[1:4])]:
        widths.clear()
        size = _outlier(tmp_path, tag, eps=grid).metadata["per_size"][100]
        best = min(grid, key=lambda e: alone[e]["best_mse"])
        assert size["best_eps"] == best
        assert size["best_at_edge"] == (best in (grid[0], grid[-1]))
        flags.add(size["best_at_edge"])
        # the 100-point study's KDE and the support of the 90 points it
        # keeps both take its width of 100: all points
        assert widths == [(100, 100), (90, 90)]
        assert size["k_support"] == 100
    # both answers of the flag were exercised
    assert flags == {True, False}
    cut = _outlier(tmp_path, "cut", k_support=30).metadata["per_size"][100]
    assert cut["k_support"] == 30
    narrow = _outlier(tmp_path, "narrow", k_support=3).metadata["per_size"][100]
    assert narrow["k_support"] == 8  # never below k0


def test_trim_keeps_all_but_the_lowest_density_points_on_a_rebuilt_support():
    config = harness.ExperimentConfig(experiment="outlier_study", N=1000,
                                      k_support=40)
    config, cloud, profile, support = harness.setup(config)
    # oracle: the density stage alone on the whole cloud, at the same width
    full = pointcloud.gen_gaussian_nice_1d(1000)
    whole = density.bandwidth_profile(
        full, neighbors.knn(full, 8), 0.0, k0=8,
        support=neighbors.symmetrized_support(full, 40))
    lowest = np.argsort(whole.q0, kind="stable")[:31]  # floor(sqrt(1000))
    keep = np.setdiff1d(np.arange(1000), lowest)
    assert whole.q0[lowest].max() <= whole.q0[keep].min()
    assert (config.N, config.k_support, cloud.n_points) == (1000, 40, 969)
    np.testing.assert_array_equal(cloud.points, full.points[keep])
    np.testing.assert_array_equal(cloud.latent, full.latent[keep])
    for name in ("rho0", "q0", "rho"):
        np.testing.assert_array_equal(getattr(profile, name),
                                      getattr(whole, name)[keep])
    kept = pointcloud.PointCloud(full.points[keep], latent=full.latent[keep],
                                 intrinsic_dim=1)
    want = neighbors.symmetrized_support(kept, 40)
    for name in ("indptr", "indices", "r2"):
        np.testing.assert_array_equal(getattr(support, name), getattr(want, name))
    assert support.bandwidth is None


def test_outlier_study_scores_each_size_as_its_own_pipeline_did(tmp_path):
    # oracle: the study's former pipeline, written out: the all-pairs KDE
    # of the whole cloud, the kept points on a support of the size's width,
    # the fourth eigenvector with its sign set by the target, and the masked
    # error on [-2, 2]
    table = harness.run_experiment(harness.ExperimentConfig(
        experiment="outlier_study", N=1000, output_dir=str(tmp_path)))
    got = np.loadtxt(tmp_path / "n1000" / "results.csv", delimiter=",",
                     skiprows=1, ndmin=2)
    full = pointcloud.gen_gaussian_nice_1d(1000)
    q0 = density.kde_pilot(full, density.pilot_bandwidth(neighbors.knn(full, 8)))
    keep = np.sort(np.argsort(q0, kind="stable")[31:])
    kept = pointcloud.PointCloud(full.points[keep], latent=full.latent[keep],
                                 intrinsic_dim=1)
    support = neighbors.symmetrized_support(kept, 128)
    target = analytic.hermite_target(3).evaluate(kept)
    target *= np.sqrt(kept.n_points) / np.linalg.norm(target)
    mask = np.abs(kept.points[:, 0]) <= 2.0
    want = []
    for eps in (1e-4, 1e-4 * np.sqrt(10.0), 1e-3):
        gm = kernel.build_generator(kept, np.ones(kept.n_points), eps, 0.5,
                                    support=support)
        spec = spectral.scale_sqrtN(spectral.eigs_near_zero(gm, 5))
        est = spec.eigenvectors[:, 3]
        est = -est if est @ target < 0.0 else est
        want.append([eps, spectral.mse(est, target, mask=mask),
                     abs(spec.eigenvalues[3] + 3.0) / 3.0])
    np.testing.assert_allclose(got[:, :3], want, rtol=1e-9, atol=0.0)
    best = got[np.argmin(got[:, 1])]
    np.testing.assert_array_equal(table.rows[:, :3], [best[:3]])


# a value for every ExperimentConfig field, as typed on the command line and
# as the resolved config records it; a new field needs a line here
_FIELD_SAMPLES = {
    "experiment": ("circle", "circle"),
    "N": ("50", "50"),
    "alpha": ("0.125", "0.125"),
    "beta": ("-0.375", "-0.375"),
    "preset": ("laplacian-fixed", "laplacian-fixed"),
    "eps": ("0.02 0.01", "(0.01, 0.02)"),
    "eps_multiplier": ("2.5", "2.5"),
    "k_support": ("20", "20"),
    "k0": ("5", "5"),
    "seed": ("3", "3"),
    "eigenfunctions": ("6", "6"),
    "formulation": ("left", "left"),
    "output_dir": (None, None),  # a directory under the test's own
}


@pytest.mark.parametrize("name", [f.name for f in
                                  dataclasses.fields(harness.ExperimentConfig)])
def test_every_config_field_is_set_through_the_cli(tmp_path, name):
    raw, recorded = _FIELD_SAMPLES[name]
    if name == "output_dir":
        raw = recorded = str(tmp_path / "elsewhere")
    sets = {"experiment": "circle_grid_operator" if name == "formulation"
            else "ou1d_nice", "N": "40", "output_dir": str(tmp_path / "out"),
            name: raw}
    argv = ["generate"]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    assert cli.main(argv) == 0
    meta = (Path(sets["output_dir"]) / "meta.txt").read_text().splitlines()
    assert f"{name} = {recorded}" in meta
    assert cli.main(argv + ["--set", "bogus=1"]) == 1


@pytest.mark.parametrize("name", sorted(harness.EXPERIMENTS))
def test_resolve_is_idempotent(name):
    checked = 0
    for preset in (None, *harness.PRESETS):
        for eps in ("auto", "sweep", 0.01, [0.01, 0.02]):
            for k_support in (None, 3, 200):
                config = harness.ExperimentConfig(experiment=name, preset=preset,
                                                  eps=eps, k_support=k_support)
                try:
                    once, _ = harness.resolve(config)
                except harness.ConfigError:
                    continue
                assert harness.resolve(once)[0] == once
                for d in (1, 2, 3):
                    both = harness._alpha_beta(once, d)
                    assert harness._alpha_beta(both, d) == both
                    assert None not in (both.alpha, both.beta)
                checked += 1
    assert checked >= 3


def test_resolved_support_widths():
    def width(name, **kwargs):
        config = harness.ExperimentConfig(experiment=name, **kwargs)
        return harness.resolve(config)[0].k_support

    # the operator spec's width, and the storage default of large eigen runs
    assert width("torus_operator") == harness.EXPERIMENTS["torus_operator"].k_support
    assert width("torus_operator") == 500
    assert width("ou1d_random") == width("ou2d") == 128
    assert width("ou2d", k_support=64) == 64
    for name in ("ou1d_nice", "circle", "circle_random", "sphere",
                 "circle_operator", "circle_grid_operator"):
        assert width(name) is None  # all pairs
    assert width("ou1d_nice", N=harness._ALL_PAIRS_MAX + 1) == 128
    # an eigen run's support is never narrower than the pilot's k0 ...
    assert width("ou1d_nice", k_support=5) == 8
    assert width("ou2d", k0=200) == 200
    # ... while an operator check takes the width it is given
    assert width("circle_grid_operator", k_support=3) == 3


@pytest.mark.parametrize("command", ["density", "build", "eigs", "tune"])
def test_stage_commands_record_what_ran(tmp_path, monkeypatch, command):
    used = {}

    def spy(module, attr, name, position):
        real = getattr(module, attr)

        def record(*args, **kwargs):
            used[name] = args[position]
            return real(*args, **kwargs)
        monkeypatch.setattr(module, attr, record)

    spy(neighbors, "symmetrized_support", "k", 1)
    spy(density, "bandwidth_profile", "beta", 2)
    spy(kernel, "build_generator", "alpha", 3)
    # laplacian-vb on the circle (d = 1): alpha = 1/2 - d/4, beta = -1/2
    for tag, sets, width in [("kept", ["k_support=5"], 8), ("all", [], None)]:
        used.clear()
        out = tmp_path / tag
        argv = [command, "--set", "experiment=circle", "--set", "N=200",
                "--set", "preset=laplacian-vb", "--set", "eps=0.02",
                "--set", f"output_dir={out}"]
        for item in sets:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        lines = (out / "meta.txt").read_text().splitlines()
        keys = [line.split(" = ", 1)[0] for line in lines]
        assert len(keys) == len(set(keys)), keys
        meta = dict(line.split(" = ", 1) for line in lines)
        assert (meta["alpha"], meta["beta"]) == ("0.25", "-0.5")
        assert meta["k_support"] == str(width)
        assert used["beta"] == -0.5
        assert used.get("k") == width  # no support built on all pairs
        if command in ("build", "eigs"):
            assert used["alpha"] == 0.25
            assert meta["eps_used"] == "0.02"



@pytest.mark.parametrize("name, command", [("outlier_study", "density"),
                                           ("circle_operator", "build")])
def test_stage_commands_store_large_clouds_on_a_support(tmp_path, monkeypatch,
                                                        name, command):
    # neither spec sets a width: above the all-pairs limit the stage commands
    # take the storage rule's, never an n x n array; the outlier study builds
    # a second support, of the points its trim keeps
    widths = []
    build = neighbors.symmetrized_support
    monkeypatch.setattr(neighbors, "symmetrized_support",
                        lambda cloud, k: widths.append(k) or build(cloud, k))
    n = harness._ALL_PAIRS_MAX + 1
    assert cli.main([command, "--set", f"experiment={name}", "--set", f"N={n}",
                     "--set", "eps=0.01", "--set", f"output_dir={tmp_path}"]) == 0
    assert widths == [128] * (2 if name == "outlier_study" else 1)
    meta = dict(line.split(" = ", 1)
                for line in (tmp_path / "meta.txt").read_text().splitlines())
    assert meta["k_support"] == "128"

def test_readme_config_table_matches_the_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = readme.splitlines()
    start = lines.index("| key | meaning | default |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, meaning = (cell.strip() for cell in line.split("|")[1:3])
        rows[key] = meaning
    assert list(rows) == [f.name for f in dataclasses.fields(harness.ExperimentConfig)]
    assert sorted(re.findall(r"`(\w+)`", rows["experiment"])) == sorted(
        harness.EXPERIMENTS)


def test_readme_names_only_attributes_that_exist():
    # every backticked `module.attr` of a package module, called or not, must
    # resolve, so that README cannot name a deleted function; file names such
    # as `tuning.csv` share the form and are told apart by their suffix
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    modules = {m.name for m in pkgutil.iter_modules(vbdiffusion.__path__)}
    named = [(module, attr) for module, attr in
             re.findall(r"`([A-Za-z_]\w*)\.([A-Za-z_]\w*)[^`]*`", readme)
             if module in modules and attr not in ("csv", "txt")]
    assert named
    missing = [f"{module}.{attr}" for module, attr in named if not hasattr(
        importlib.import_module(f"vbdiffusion.{module}"), attr)]
    assert not missing
