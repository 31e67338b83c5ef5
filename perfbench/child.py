"""One measured process of the benchmark.

    child.py setup <workload> <seed> <work dir> <smoke 0|1>
    child.py cli <result.json> <trace 0|1> <loire CLI arguments...>
    child.py batch <result.json> <trace 0|1> <seed> <smoke 0|1>

`setup` imports the package, writes the workload's inputs under <work dir>
and records the environment (numpy, BLAS and its thread count) there.
`cli` runs the public entry point ``loire.cli.main`` once; `batch` runs the
regress-batch library loop.  Both write their timestamps (time.monotonic,
comparable across processes) and, when traced, the span summary to
<result.json>.  The package is imported from <checkout>/src.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402

REFERENCE_PARTS = 10  # regress-batch times the reference round in 10 slices


def blas_threads():
    """Threads of the OpenBLAS numpy loaded, or None if it cannot be queried."""
    import ctypes
    import glob
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": blas_threads(),
            "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS")}


def peak_rss_mb() -> float:
    """High-water mark of this process's resident memory since exec, in 10^6
    bytes.  (ru_maxrss would also count the parent's memory, which the
    forked child held until exec.)"""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def start_tracer(trace: bool):
    if not trace:
        return None
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def run_cli(argv) -> dict:
    import loire.cli
    ready = time.monotonic()
    code = loire.cli.main(argv)
    return {"ready": ready, "exit_code": code}


def run_batch(seed: int, cfg: dict) -> dict:
    import loire
    latencies, errors = [], []
    attempted = failed = 0
    f_sum = coef_sum = flagged = rows_total = ref_s = 0.0
    ref = reference.Reference(REFERENCE_PARTS)
    slice_every = cfg["solves"] // REFERENCE_PARTS
    ready = time.monotonic()
    for a, y, x_true, outliers in workloads.batch_problems(seed, cfg):
        if attempted % slice_every == 0:
            ref_s += ref.seconds()
        attempted += 1
        t0 = time.perf_counter()
        try:
            lam = loire.default_lambda(a, y)
            sol = loire.app_bem(a, y, loire.LoireConfig(lam=lam))
        except Exception as exc:  # a solve that raises is a failed operation
            failed += 1
            errors.append(f"solve {attempted - 1}: {type(exc).__name__}: {exc}")
            continue
        latencies.append(time.perf_counter() - t0)
        problems = workloads.check_bem(a, y, sol.x, sol.b, sol.support,
                                       sol.loire.objective_trace, sol.loire.iterations)
        if problems:
            failed += 1
            errors.append(f"solve {attempted - 1}: {'; '.join(problems)}")
            continue
        detected = np.zeros(y.size, dtype=bool)
        detected[list(sol.support)] = True
        f_sum += workloads.detection_f(detected, outliers)
        coef_sum += float(np.linalg.norm(sol.x - x_true) / np.linalg.norm(x_true))
        flagged += detected.sum()
        rows_total += y.size
    ok = max(attempted - failed, 1)
    return {"ready": ready, "latencies": latencies, "ref_s": ref_s, "attempted": attempted,
            "failed": failed, "errors": errors[:5],
            "quality": {"f": f_sum / ok, "coef_err": coef_sum / ok,
                        "flagged_frac": flagged / max(rows_total, 1.0)}}


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        name, seed, work, smoke = argv[1], int(argv[2]), argv[3], argv[4] == "1"
        import loire  # noqa: F401  set-up includes importing the package
        workloads.write_inputs(name, seed, workloads.sizes(name, smoke), work)
        with open(os.path.join(work, "env.json"), "w", encoding="utf-8") as fh:
            json.dump(environment(), fh)
        return 0
    result_path, tracer = argv[1], start_tracer(argv[2] == "1")
    if mode == "cli":
        result = run_cli(argv[3:])
    elif mode == "batch":
        result = run_batch(int(argv[3]), workloads.sizes("regress-batch", argv[4] == "1"))
    else:
        print(f"child.py: unknown mode {mode!r}", file=sys.stderr)
        return 2
    result.update(ended=time.monotonic(), trace=tracer.summary() if tracer else None,
                  peak_rss_mb=peak_rss_mb())
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
