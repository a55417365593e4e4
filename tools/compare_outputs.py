"""Run the shipped experiments from a source tree, or compare two such runs.

    python tools/compare_outputs.py run SRC OUT [NAME ...]
    python tools/compare_outputs.py diff A B

``run`` runs every registry experiment of the ``vbdiffusion`` package under
``SRC`` with its default config at seed 1 (``outlier_study`` at N = 10000),
and the extra configs in ``EXTRA``, each into ``OUT/<name>``. Every run is a
child interpreter with one BLAS thread, since outputs depend on the thread
count. With NAMEs only those runs go.

``diff`` compares two such trees file by file: ``results.csv`` without its
``wall_time_s`` column, ``meta.txt`` without its ``output_dir`` line and
every other file byte for byte. It prints each file that differs or exists
on one side only, and exits 1 if any does.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# config overrides per run name; a registry experiment not named here runs
# its defaults at seed 1
DEFAULTS = {"outlier_study": {"N": 10000}}
EXTRA = {
    "torus_operator-left": {"experiment": "torus_operator",
                            "formulation": "left"},
    "circle_operator-k64": {"experiment": "circle_operator", "k_support": 64},
    "ou2d-n3000-k64": {"experiment": "ou2d", "N": 3000, "k_support": 64},
}
_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_CHILD = """\
import json, sys
sys.path.insert(0, sys.argv[1])
from vbdiffusion import harness
if sys.argv[2] == "--list":
    print(json.dumps(sorted(harness.EXPERIMENTS)))
else:
    harness.run_experiment(harness.ExperimentConfig(**json.loads(sys.argv[2])))
"""


def _child(src, arg):
    env = dict(os.environ) | {name: "1" for name in _THREADS}
    return subprocess.run([sys.executable, "-c", _CHILD, str(src), arg],
                          env=env, check=True, stdout=subprocess.PIPE, text=True)


def run(src, out, names=()):
    registry = json.loads(_child(src, "--list").stdout)
    runs = {name: {"experiment": name} | DEFAULTS.get(name, {})
            for name in registry} | EXTRA
    for name in names or runs:
        config = runs[name] | {"seed": 1, "output_dir": str(Path(out) / name)}
        print(name, flush=True)
        _child(src, json.dumps(config))


def _results(path):
    """The lines of a results.csv without its wall_time_s column."""
    lines = [line.split(",") for line in path.read_text().splitlines()]
    if not lines or "wall_time_s" not in lines[0]:
        return lines
    drop = lines[0].index("wall_time_s")
    return [line[:drop] + line[drop + 1:] for line in lines]


def _meta(path):
    return [line for line in path.read_text().splitlines()
            if not line.startswith("output_dir = ")]


def _same(a, b):
    if a.name == "results.csv":
        return _results(a) == _results(b)
    if a.name == "meta.txt":
        return _meta(a) == _meta(b)
    return a.read_bytes() == b.read_bytes()


def diff(a, b):
    """Relative paths of the files that differ between trees a and b, or
    that only one of them holds."""
    a, b = Path(a), Path(b)
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for root in (a, b)]
    return sorted(str(rel) for rel in files[0] | files[1]
                  if rel not in files[0] or rel not in files[1]
                  or not _same(a / rel, b / rel))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run_p = sub.add_parser("run", help="run the experiments from SRC into OUT")
    run_p.add_argument("src")
    run_p.add_argument("out")
    run_p.add_argument("names", nargs="*")
    diff_p = sub.add_parser("diff", help="compare two trees of outputs")
    diff_p.add_argument("a")
    diff_p.add_argument("b")
    args = parser.parse_args(argv)
    if args.mode == "run":
        run(args.src, args.out, args.names)
        return 0
    changed = diff(args.a, args.b)
    for rel in changed:
        print(rel)
    print(f"{len(changed)} files differ")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
