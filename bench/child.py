"""One benchmark child: a single experiment run in a fresh interpreter.

    python3 bench/child.py '<spec json>'

The spec holds ``src`` (directory that contains the ``vbdiffusion``
package), ``config`` (keyword arguments of ``harness.ExperimentConfig``),
``record`` (path of the JSON record this child writes) and ``trace``.

The child imports the package, calls the public ``harness.run_experiment``
exactly as ``vbdiff experiment`` does, and writes its record. With ``trace``
it first wraps public functions on their module objects: the harness calls
them through module attributes or module globals, so every call of the real
pipeline passes through a wrapper that records a span (name, start, end,
parent) and the counts at that layer boundary. Spans are kept in memory and
written once the run ends; run.py derives self times from them.
"""

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path

# numpy and scipy are imported inside functions, after the timed import of
# the package, so that the import time a CLI user pays is measured whole

# (module, attribute, span name) of every wrapped public function
WRAPPED = (
    ("harness", "generate_cloud", "pointcloud.generate"),
    ("neighbors", "knn", "neighbors.knn"),
    ("neighbors", "symmetrized_support", "neighbors.support"),
    ("density", "bandwidth_profile", "density.profile"),
    ("tuning", "s_curve", "tuning.s_curve"),
    ("kernel", "build_generator", "kernel.build"),
    ("kernel", "apply_generator", "kernel.apply"),
    ("spectral", "eigs_near_zero", "spectral.eigs"),
    ("spectral", "align_orthogonal", "spectral.align"),
    ("spectral", "least_squares_map", "spectral.align"),
    ("analytic", "reference_operator", "analytic.reference"),
    ("spectral", "save_csv", "harness.write"),
    ("tuning", "save_csv", "harness.write"),
    ("harness", "save_results_csv", "harness.write"),
)
ROOT_SPAN = "harness.experiment"
BOOKKEEPING_SPAN = "trace.bookkeeping"


class Tracer:
    """Spans and layer counts of one run, kept in memory."""

    def __init__(self, pipeline_error):
        self.spans = []
        self.counts = {}
        self._open = []
        self._pipeline_error = pipeline_error

    @contextlib.contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append({"name": name, "start": time.perf_counter(),
                           "end": None,
                           "parent": self._open[-1] if self._open else None})
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index]["end"] = time.perf_counter()
            self._open.pop()

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def peak(self, key, value):
        self.counts[key] = max(self.counts.get(key, value), value)

    def wrap(self, module, attr, name, after):
        original = getattr(module, attr)
        signature = inspect.signature(original)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            try:
                with self.span(name):
                    result = original(*args, **kwargs)
            except self._pipeline_error:
                self.add(f"{name}.raised", 1)
                raise
            if after is not None:
                # work the benchmark adds is a span of its own, so it is
                # not charged to the enclosing layer's self time
                with self.span(BOOKKEEPING_SPAN):
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    after(self, bound.arguments, result)
            return result

        setattr(module, attr, traced)


def _array_bytes(values):
    """Summed nbytes of the distinct arrays among ``values`` (CSR counts three)."""
    import numpy as np
    from scipy import sparse

    arrays = {}
    for value in values:
        if sparse.issparse(value):
            parts = (value.data, value.indices, value.indptr)
        elif isinstance(value, np.ndarray):
            parts = (value,)
        else:
            parts = ()
        arrays.update((id(arr), arr) for arr in parts)
    return sum(arr.nbytes for arr in arrays.values())


def _after_support(tracer, args, support):
    tracer.counts["neighbors.support_nnz"] = int(support.nnz)


def _after_s_curve(tracer, args, curve):
    support = args["support"]
    n = args["cloud"].n_points
    pairs = n * n if support is None else int(support.nnz)
    tracer.add("tuning.pairs", pairs * len(curve.exponents))
    tracer.counts["tuning.eps_star"] = float(curve.eps_star)


def _after_build(tracer, args, gm):
    from dataclasses import fields

    lhat = gm.Lhat
    tracer.add("kernel.lhat_nnz", int(getattr(lhat, "nnz", lhat.size)))
    held = [getattr(gm, f.name) for f in fields(gm)]
    tracer.peak("kernel.gm_bytes", _array_bytes(held))


def _after_eigs(tracer, args, spectrum):
    """Largest relative residual ||Lhat v - lambda v|| / ||Lhat||_1.

    The returned vectors are the Markov eigenvectors S^-1 v; multiplying by
    S recovers the eigenvectors of the symmetric Lhat. The 1-norm bounds
    the 2-norm of the symmetric Lhat from above.
    """
    import numpy as np
    from scipy import sparse

    gm = args["gm"]
    vecs = spectrum.eigenvectors * gm.S[:, None]
    vecs /= np.linalg.norm(vecs, axis=0)
    lhat = gm.Lhat
    if sparse.issparse(lhat):
        norm = float(abs(lhat).sum(axis=0).max())
    else:
        norm = float(np.abs(lhat).sum(axis=0).max())
    res = np.linalg.norm(lhat @ vecs - vecs * spectrum.eigenvalues[None, :], axis=0)
    tracer.peak("spectral.residual_max", float(res.max() / norm))


AFTER = {
    "neighbors.support": _after_support,
    "tuning.s_curve": _after_s_curve,
    "kernel.build": _after_build,
    "spectral.eigs": _after_eigs,
}


def _versions():
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


def main(argv):
    spec = json.loads(argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import vbdiffusion
    from vbdiffusion import harness
    from vbdiffusion.errors import PipelineError
    import_s = time.perf_counter() - t0
    if src not in Path(vbdiffusion.__file__).resolve().parents:
        print(f"imported vbdiffusion from {vbdiffusion.__file__}, not {src}",
              file=sys.stderr)
        return 3
    config = dict(spec["config"])
    if isinstance(config.get("eps"), list):
        config["eps"] = tuple(config["eps"])
    config = harness.ExperimentConfig(**config)

    record = {"import_s": import_s, "versions": _versions()}
    tracer = None
    if spec["trace"]:
        tracer = Tracer(PipelineError)
        for module, attr, name in WRAPPED:
            tracer.wrap(importlib.import_module(f"vbdiffusion.{module}"), attr,
                        name, AFTER.get(name))
    try:
        if tracer is None:
            harness.run_experiment(config)
        else:
            with tracer.span(ROOT_SPAN):
                harness.run_experiment(config)
    finally:
        if tracer is not None:
            record.update(spans=tracer.spans, counts=tracer.counts)
        Path(spec["record"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
