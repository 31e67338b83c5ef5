"""Outside-in spans around the package's layer boundaries.

The package is not edited: the tracer replaces the module-level names that
callers look up at call time (``loire.factorization.truncated_svd`` is what
``rrf_solve`` calls) with timing wrappers.  Each span is named after the
module that defines the function, which is the layer.  Spans are kept in
memory and summarised when the process ends; a layer's self time is its
span's duration minus the time covered by its direct child spans.  Names a
module does not have are skipped, so the tracer keeps working when code
moves, and the metric of a skipped name reads 0.
"""

from __future__ import annotations

import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

import numpy as np

# (module whose global is replaced, attribute, span name)
WRAPPED = (
    ("loire.cli", "main", "cli.main"),
    ("loire.cli", "rrf_solve", "factorization.rrf_solve"),
    ("loire.cli", "default_matrix_lambda", "factorization.default_matrix_lambda"),
    ("loire.cli", "generate_sim", "benchmark.generate_sim"),
    ("loire.cli", "detect_matrix_support", "benchmark.detect_matrix_support"),
    ("loire.cli", "compute_metrics", "benchmark.compute_metrics"),
    ("loire.cli", "baseline_lad", "benchmark.baseline_lad"),
    ("loire.cli", "baseline_ols", "benchmark.baseline_ols"),
    ("loire.cli", "app_bem", "bernoulli.app_bem"),
    ("loire.cli", "loire_solve", "regression.loire_solve"),
    ("loire.cli", "default_lambda", "regression.default_lambda"),
    ("loire.cli", "read_pgm", "pgm.read_pgm"),
    ("loire.cli", "write_pgm", "pgm.write_pgm"),
    ("loire", "app_bem", "bernoulli.app_bem"),
    ("loire", "default_lambda", "regression.default_lambda"),
    ("loire.factorization", "truncated_svd", "linalg.truncated_svd"),
    ("loire.factorization", "soft_threshold", "linalg.soft_threshold"),
    ("loire.factorization", "rrf_objective", "factorization.rrf_objective"),
    ("loire.regression", "least_squares_solve", "linalg.least_squares_solve"),
    ("loire.regression", "soft_threshold", "linalg.soft_threshold"),
    ("loire.regression", "loire_objective", "regression.loire_objective"),
    ("loire.bernoulli", "loire_solve", "regression.loire_solve"),
    ("loire.bernoulli", "least_squares_solve", "linalg.least_squares_solve"),
    ("loire.benchmark", "least_squares_solve", "linalg.least_squares_solve"),
    ("loire.benchmark", "soft_threshold", "linalg.soft_threshold"),
)

# classmethods are replaced on the class, which every module shares
WRAPPED_CLASSMETHODS = (
    ("loire.pgm", "FrameStack", "from_frames", "pgm.FrameStack.from_frames"),
)

# spans whose peak traced allocation is recorded (tracemalloc sees numpy buffers)
ALLOC_SPANS = ("factorization.rrf_solve",)


def _svd(counts, args, result):
    # thin SVD (sigma, U1, V) by R-SVD: 6 q p^2 + 20 p^3 flops, q >= p
    # (Golub & Van Loan, Matrix Computations, SVD work table); computed
    # from the shape, not counted by hardware
    q, p = max(args[0].shape), min(args[0].shape)
    counts["linalg.truncated_svd.flop"] += 6.0 * q * p * p + 20.0 * p ** 3
    counts["linalg.truncated_svd.kept_sum"] += args[1] / p


def _shrink(counts, args, result):
    # computed traffic: the input read once and the output written once
    counts["linalg.soft_threshold.bytes"] += 2.0 * getattr(args[0], "nbytes", 8)


def _read_pgm(counts, args, result):
    counts["pgm.bytes_read"] += result.size


def _write_pgm(counts, args, result):
    counts["pgm.bytes_written"] += np.asarray(args[1]).size


def _solver(layer):
    def count(counts, args, result):
        counts[f"{layer}.solves"] += 1
        counts[f"{layer}.iterations"] += result.iterations
        counts[f"{layer}.converged"] += bool(result.converged)
    return count


COUNTERS = {
    "linalg.truncated_svd": _svd,
    "linalg.soft_threshold": _shrink,
    "pgm.read_pgm": _read_pgm,
    "pgm.write_pgm": _write_pgm,
    "factorization.rrf_solve": _solver("factorization"),
    "regression.loire_solve": _solver("regression"),
    "benchmark.baseline_lad": _solver("benchmark.baseline_lad"),
}


class Tracer:
    """Records (name, start, end, parent) spans and shape-derived counts."""

    def __init__(self):
        self.spans: list = []
        self.counts: defaultdict = defaultdict(float)
        self.alloc_peak: defaultdict = defaultdict(float)
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        alloc = name in ALLOC_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._open[-1] if self._open else -1
            self._open.append(idx)
            start = time.perf_counter()
            if alloc:
                tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.alloc_peak[name] = max(self.alloc_peak[name], peak)
                self.spans[idx] = (name, start, time.perf_counter(), parent)
                self._open.pop()
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def install(self) -> None:
        for module, attr, name in WRAPPED:
            mod = importlib.import_module(module)
            fn = getattr(mod, attr, None)
            if callable(fn):
                setattr(mod, attr, self.wrap(name, fn))
        for module, cls_name, attr, name in WRAPPED_CLASSMETHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            method = getattr(cls, "__dict__", {}).get(attr)
            if isinstance(method, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, method.__func__)))

    def summary(self) -> dict:
        """Per span name: calls, total seconds and self seconds; plus counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        layers: dict = {}
        root_s = 0.0
        for (name, start, end, parent), inner in zip(self.spans, child):
            entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - inner
            if parent < 0:
                root_s += end - start
        return {"layers": layers, "counts": dict(self.counts),
                "alloc_peak_bytes": dict(self.alloc_peak), "root_s": root_s}
