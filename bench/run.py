"""Pipeline benchmark: end-to-end time, memory and output checks for vbdiffusion.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout; it uses the checkout's
``src/vbdiffusion`` and writes only under ``.bench_out/`` at the checkout
root. Every experiment run is a fresh child interpreter (``bench/child.py``)
started one after another by this script: a closed loop with one client.
An untimed child at a tiny size warms the page cache first. A timed
child is started only if one like the last would end within ``--seconds``
(the first always runs). Child ``i`` gets experiment seed
``seed + 1000 * i``, so one run takes medians over a few inputs drawn from
``--seed``.

With ``--trace 0`` the children run untraced and the last stdout line
carries the end-to-end metrics. With ``--trace 1`` each untraced child is
followed by a traced child on the same config; the last line then carries
the per-layer metrics, and the traced results must equal the untraced ones
apart from ``wall_time_s``. Lines before the last one repeat every metric
by name and unit, the accuracy figures, the environment and the checks.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``attempted`` counts requested
epsilons plus child runs; ``failed`` counts epsilons the pipeline reported
under ``errors`` plus child runs that exited nonzero or failed a check, so
``failed / attempted`` is the fail ratio.
"""

import argparse
import ast
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CHILD = BENCH_DIR / "child.py"

# ``config`` is passed to harness.ExperimentConfig with the child's seed,
# which the torus grid ignores; ``tiny`` overrides it for the self-test only,
# never for numbers. ``eigen`` workloads write eigenvalues to check.
# ``ou2d_sparse`` (the SuperLU shift-invert path) is not in BENCHMARK.json:
# its times follow the shared host's scalar speed, which drifts by 20-35%
# over minutes, so its run medians spread too far for a 25% bound. It runs
# by hand, for figures reported without a gate.
WORKLOADS = {
    "sphere_dense": {
        "config": {"experiment": "sphere"},
        "tiny": {"N": 300},
        "eigen": True,
    },
    "ou2d_sparse": {
        "config": {"experiment": "ou2d", "N": 6000},
        "tiny": {"N": 800, "k_support": 40},
        "eigen": True,
    },
    "torus_operator": {
        "config": {"experiment": "torus_operator"},
        "tiny": {"N": 900, "k_support": 60},
        "eigen": False,
    },
}

# eps=auto picks an epsilon in the saturated regime on these workloads
# (ROADMAP open item 2), so their accuracy is far from the analytic answer
KNOWN_ACCURACY_DEFECT = ("sphere_dense", "ou2d_sparse")

END_TO_END = (("run_s", "s"), ("setup_s", "s"), ("eps_s", "s"),
              ("peak_rss_mb", "MB"))
ACCURACY = (("mse", "1"), ("eig_err", "1"))

# self time of each span, summed over the run
LAYER_TIMES = ("pointcloud.generate", "neighbors.knn", "neighbors.support",
               "density.profile", "tuning.s_curve", "kernel.build",
               "kernel.apply", "spectral.eigs", "spectral.align",
               "analytic.reference", "harness.write", "harness.experiment")
LAYER_COUNTS = (("neighbors.support_nnz", "count"), ("tuning.pairs", "count"),
                ("tuning.eps_star", "1"), ("kernel.lhat_nnz", "count"),
                ("kernel.gm_bytes", "B"), ("spectral.residual_max", "1"),
                ("spectral.failed", "count"), ("harness.output_bytes", "B"),
                ("cli.import_s", "s"), ("trace.overhead_s", "s"),
                ("result.mse_max", "1"), ("result.eig_err_max", "1"))
PER_LAYER = tuple((f"{name}_s", "s") for name in LAYER_TIMES) + LAYER_COUNTS

# a relative residual above this means the eigensolver returned something
# that is not an eigenpair of Lhat (converged ARPACK and eigh give < 1e-12)
RESIDUAL_BOUND = 1e-8
# eigenvalues within ZERO_TOL / eps of zero count as zero. Lhat has entries
# of order 1/(eps rho^2) and every eigen workload has rho >= 1, so this is
# about 1e4 times the rounding error of its eigenvalues
ZERO_TOL = 1e-12
# one BLAS/OpenMP thread per child: on a shared two-core machine two threads
# spread dense eigh times by 17% across runs, one thread by 5%
BLAS_THREADS = 1
# no child is started that would end after RUN_BUDGET_S, and any child still
# running at KILL_AFTER_S is killed, so a run ends within 180 s
RUN_BUDGET_S = 150.0
KILL_AFTER_S = 170.0
SEED_STRIDE = 1000


def child_config(workload, seed, index, tiny):
    spec = WORKLOADS[workload]
    config = dict(spec["config"])
    if tiny:
        config.update(spec["tiny"])
    config["seed"] = seed + SEED_STRIDE * index
    return config


def run_child(config, out, trace, timeout):
    """Run one experiment in a fresh interpreter; returns its raw figures."""
    out.mkdir(parents=True)
    record_path = out / "record.json"
    spec = {"src": str(ROOT / "src"), "trace": trace,
            "record": str(record_path),
            "config": dict(config, output_dir=str(out / "result"))}
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OMP_NUM_THREADS=threads,
               OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
               PYTHONDONTWRITEBYTECODE="1")
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                                stdout=so, stderr=se, env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            # wait4 gives this child's own peak RSS, which Popen.wait drops
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        run_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = {"config": config, "trace": trace, "dir": str(out),
             "returncode": proc.returncode, "run_s": run_s,
             "cpu_s": usage.ru_utime + usage.ru_stime,
             "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if record_path.is_file():
        child["record"] = json.loads(record_path.read_text())
    return child


def read_meta(path):
    meta = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition(" = ")
        try:
            meta[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            meta[key] = value
    return meta


def read_results(path):
    lines = path.read_text().splitlines()
    if lines[0] != "eps,mse,eig_err,wall_time_s":
        raise ValueError(f"unexpected results header {lines[0]!r}")
    return [[float(v) for v in line.split(",")] for line in lines[1:]]


def check_eigenvalues(path, eps):
    """Problems with the eigenvalue row of one eigvecs file, if any."""
    with open(path) as fh:
        first = fh.readline()
    vals = [float(v) for v in first.split(",") if v]
    if not vals:
        return [f"{path.name}: no eigenvalues"]
    problems = []
    tol = ZERO_TOL / eps
    if any(a < b for a, b in zip(vals, vals[1:])):
        problems.append(f"{path.name}: eigenvalues not descending {vals}")
    if abs(vals[0]) > tol:
        problems.append(f"{path.name}: first eigenvalue {vals[0]:.3g} is not ~0")
    if max(vals) > tol:
        problems.append(f"{path.name}: positive eigenvalue {max(vals):.3g}")
    return problems


def inspect_child(child, workload):
    """Read a child's outputs into ``child`` and list failed output checks."""
    result = Path(child["dir"]) / "result"
    child["requested_eps"] = 0
    child["failed_eps"] = 0
    if child["returncode"] != 0:
        return [f"exit code {child['returncode']}"]
    try:
        meta = read_meta(result / "meta.txt")
        rows = read_results(result / "results.csv")
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if "eps_list" not in meta:
        return ["meta.txt lists no eps_list"]
    errors = meta.get("errors", {})
    child["requested_eps"] = len(meta["eps_list"])
    child["failed_eps"] = len(errors)
    child["rows"] = rows
    child["output_bytes"] = sum(p.stat().st_size for p in result.rglob("*")
                                if p.is_file())
    problems = []
    expected = [e for e in meta["eps_list"] if e not in errors]
    if [row[0] for row in rows] != expected:
        problems.append(f"results.csv eps {[r[0] for r in rows]} != {expected}")
    if not all(math.isfinite(row[1]) for row in rows):
        problems.append("non-finite mse in results.csv")
    if WORKLOADS[workload]["eigen"]:
        for row in rows:
            path = result / f"eigvecs_{row[0]:.6g}.csv"
            if path.is_file():
                problems += check_eigenvalues(path, row[0])
            else:
                problems.append(f"{path.name} missing")
    counts = child.get("record", {}).get("counts", {})
    if counts.get("spectral.residual_max", 0.0) > RESIDUAL_BOUND:
        problems.append(f"spectral.residual_max {counts['spectral.residual_max']:.3g}"
                        f" > {RESIDUAL_BOUND:g}")
    return problems


def self_times(spans):
    """Summed self time per span name: duration minus child span durations."""
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    totals = {}
    for span, t in zip(spans, own):
        totals[span["name"]] = totals.get(span["name"], 0.0) + t
    return totals


def accuracy(child):
    rows = child.get("rows") or [[math.nan] * 4]
    return {"mse": max(r[1] for r in rows), "eig_err": max(r[2] for r in rows)}


def end_to_end(children):
    """Per-child samples of every end-to-end figure."""
    samples = {"run_s": [], "setup_s": [], "eps_s": [], "peak_rss_mb": [],
               "mse": [], "eig_err": []}
    for child in children:
        if not child.get("rows"):
            continue
        walls = [row[3] for row in child["rows"]]
        samples["run_s"].append(child["run_s"])
        samples["setup_s"].append(child["run_s"] - sum(walls))
        # one sample per child, the mean over its epsilons: a median over
        # pooled rows of a sweep would fall between the epsilons' costs
        samples["eps_s"].append(sum(walls) / len(walls))
        samples["peak_rss_mb"].append(child["peak_rss_mb"])
        for key, value in accuracy(child).items():
            samples[key].append(value)
    return samples


def per_layer(pairs):
    """Per-pair values of every per-layer metric, from (plain, traced) pairs."""
    samples = {name: [] for name, _ in PER_LAYER}
    for plain, traced in pairs:
        record = traced.get("record", {})
        if "spans" not in record or "rows" not in traced:
            continue
        times = self_times(record["spans"])
        counts = record["counts"]
        values = {f"{name}_s": times.get(name, 0.0) for name in LAYER_TIMES}
        values.update({name: counts.get(name, 0) for name, _ in LAYER_COUNTS})
        values["spectral.failed"] = counts.get("spectral.eigs.raised", 0)
        values["harness.output_bytes"] = traced["output_bytes"]
        values["cli.import_s"] = record["import_s"]
        values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
        acc = accuracy(traced)
        values["result.mse_max"] = acc["mse"]
        values["result.eig_err_max"] = acc["eig_err"]
        for name, value in values.items():
            samples[name].append(value)
    return samples


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples above."""
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0):
        if len(ordered) * (100.0 - pct) / 100.0 >= 10.0:
            return pct, ordered[math.ceil(pct / 100.0 * len(ordered)) - 1]
    return None


def describe(name, unit, values):
    if not values:
        return f"{name:24s} n/a {unit} (no sample)"
    line = f"{name:24s} {statistics.median(values):.6g} {unit} (median, n={len(values)}"
    high = tail(values)
    if high is not None:
        line += f", p{high[0]:g} {high[1]:.6g}"
    return line + ")"


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(workload, seed, children):
    versions = next((c["record"]["versions"] for c in children if "record" in c), {})
    return {"workload": workload, "seed": seed, "git_sha": git_sha(),
            "src_sha256": source_digest(), **versions,
            "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "child_seeds": [c["config"]["seed"] for c in children]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny problem sizes, for the self-test only")
    parser.add_argument("--out", default=str(ROOT / ".bench_out"),
                        help="directory for child outputs and the run record")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    # turn SIGTERM into SystemExit so that a running child is killed first
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "vbdiffusion" / "__init__.py").is_file():
        print(f"no vbdiffusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = Path(args.out) / tag
    shutil.rmtree(base, ignore_errors=True)

    start = time.monotonic()
    kill_at = start + KILL_AFTER_S
    # an untimed tiny child first loads the interpreter, numpy, scipy and
    # sympy into the page cache, so the first timed child does not pay that
    warmup = child_config(args.workload, args.seed, 0, True)
    run_child(warmup, base / "warmup", False, kill_at - time.monotonic())
    shutil.rmtree(base / "warmup")
    children, pairs, problems = [], [], {}
    index = 0
    while True:
        config = child_config(args.workload, args.seed, index, args.tiny)
        batch = [run_child(config, base / f"child{index}", False,
                           kill_at - time.monotonic())]
        if args.trace:
            batch.append(run_child(config, base / f"child{index}-traced", True,
                                   kill_at - time.monotonic()))
        for child in batch:
            problems[child["dir"]] = inspect_child(child, args.workload)
        if args.trace:
            plain, traced = batch
            pairs.append((plain, traced))
            if "rows" in plain and "rows" in traced:
                strip = [[r[:3] for r in c["rows"]] for c in batch]
                if strip[0] != strip[1]:
                    problems[traced["dir"]].append(
                        "traced results.csv differs from the untraced run")
        children += batch
        index += 1
        # start another batch only if one like this one ends within --seconds
        ends = time.monotonic() - start + sum(c["run_s"] for c in batch)
        if ends > args.seconds or ends > RUN_BUDGET_S:
            break

    plain_children = [c for c in children if not c["trace"]]
    e2e = end_to_end(plain_children)
    layers = per_layer(pairs)
    attempted = sum(c["requested_eps"] + 1 for c in children)
    bad_runs = [d for d, p in problems.items() if p]
    failed = sum(c["failed_eps"] for c in children) + len(bad_runs)

    env = environment(args.workload, args.seed, children)
    print("env " + json.dumps(env))
    print(f"workload {args.workload}: {len(plain_children)} untraced and "
          f"{len(pairs)} traced child runs in {time.monotonic() - start:.1f} s")
    for name, unit in END_TO_END + ACCURACY:
        print(describe(name, unit, e2e[name]))
    print(f"{'fail_ratio':24s} {failed / attempted:.6g} 1 "
          f"({failed} failed of {attempted} attempted)")
    if args.workload in KNOWN_ACCURACY_DEFECT:
        print("note: eps=auto is known to pick a saturated epsilon here, so mse "
              "and eig_err are far from the analytic answer; recorded, not gated")
    if not WORKLOADS[args.workload]["eigen"]:
        print("note: operator workload, no eigensolve; eig_err is 0 by definition")
    if args.trace:
        for name, unit in PER_LAYER:
            print(describe(name, unit, layers[name]))
    for directory, found in problems.items():
        for problem in found:
            print(f"check failed: {directory}: {problem}")

    record = {"env": env,
              "children": children, "problems": problems,
              "end_to_end": e2e, "per_layer": layers}
    (Path(args.out) / f"{tag}.json").write_text(json.dumps(record, indent=1))
    for child in children:
        if not problems[child["dir"]]:
            shutil.rmtree(child["dir"])

    chosen = PER_LAYER if args.trace else END_TO_END
    source = layers if args.trace else e2e
    metrics = {name: {"value": statistics.median(source[name]), "unit": unit}
               for name, unit in chosen if source[name]}
    correct = not bad_runs and len(metrics) == len(chosen)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
