#!/usr/bin/env python3
"""Benchmark of the loire solvers through the CLI and the library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--smoke]

A run sets the workload up five times (set-up time is their median), then
repeats one closed-loop pass (one caller, one process at a time) until the
next pass would end after --seconds.  Each pass runs in a fresh process
with the BLAS thread count pinned, and its outputs are checked against the
truth the benchmark planted.  Everything runs on one CPU, and a fixed
reference computation is timed between passes (in slices within each
regress-batch pass): pass times are reported in units of the reference
time measured around them (see reference.py).  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics.  The last line of
standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

`--workload all` runs every workload untraced and then traced; with
--smoke it uses tiny inputs and fails unless every metric is emitted and
finite, every check passes, the bypass checks hold and the spans account
for the traced wall time.  See perfbench/README.md.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import csv  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NPROC = len(os.sched_getaffinity(0))  # before the runner binds itself to one CPU
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5
MIN_ROUNDS = 3           # untraced runs: at least 3 passes for a median
MIN_TRACED_ROUNDS = 2    # traced runs: at least 2 (untraced, traced) pairs
HARD_LIMIT_S = 150.0     # stop before a run could exceed the 180 s limit
CHILD_TIMEOUT_S = 120.0
MAX_UNATTRIBUTED = 0.02  # --smoke: spans must account for the traced wall

# A traced run checks that each workload bypasses the layer another one
# stresses: (workload, per-layer count that must be 0).
BYPASS = {
    "sim-square": "regression.loire_solve.calls",
    "bgmodel-video": "regression.loire_solve.calls",
    "regress-csv": "linalg.truncated_svd.calls",
    "regress-batch": "linalg.truncated_svd.calls",
}


def pin_cpu() -> None:
    """Bind this process, and so every process it starts, to one CPU.

    On a shared machine each CPU is slowed by its own neighbours, so the
    passes and the reference computation between them must run on the same
    one for the reference to cancel the slowdown.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def spawn(args, log_path):
    """Run child.py to completion; returns (spawned, exited, exit code)."""
    with open(log_path, "wb") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, *args], cwd=ROOT, env=child_env(),
                                stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        exited = time.monotonic()
    return spawned, exited, proc.returncode


def log_tail(path, lines=5) -> str:
    with open(path, "rb") as fh:
        return " | ".join(fh.read().decode("utf-8", "replace").strip().splitlines()[-lines:])


@dataclass
class Pass:
    """What one measured process did."""

    attempted: int
    failed: int = 0
    wall: float = math.nan
    ref: float = math.nan    # reference seconds measured around the pass
    rss_mb: float = math.nan
    solve_ms: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    layers: dict | None = None


class Workload:
    """One seeded workload: its set-up, its pass command and its output checks."""

    name = ""
    times_reference = False  # the pass times the reference itself

    def __init__(self, seed: int, smoke: bool, work: str):
        self.seed, self.smoke, self.work = seed, smoke, work
        self.cfg = workloads.sizes(self.name, smoke)
        self.ops_per_pass = 1  # one CLI invocation
        self.out = os.path.join(work, "out")
        self.result_path = os.path.join(work, "result.json")

    def pass_args(self, trace: bool) -> list[str]:
        raise NotImplementedError

    def check(self, result: dict, p: Pass) -> None:
        """Check the pass's outputs, filling p.quality and p.problems."""
        raise NotImplementedError

    def latencies_ms(self, result: dict, p: Pass) -> list[float]:
        """Latencies of the pass's operations; a CLI pass is one invocation."""
        return [1e3 * p.wall]

    def wall(self, spawned, exited, result) -> tuple[float, float]:
        """(wall seconds, seconds attributed to process start-up and exit)."""
        return exited - spawned, (result["ready"] - spawned) + (exited - result["ended"])

    def run_pass(self, trace: bool) -> Pass:
        p = Pass(attempted=self.ops_per_pass)
        shutil.rmtree(self.out, ignore_errors=True)
        if os.path.exists(self.result_path):
            os.remove(self.result_path)
        log = os.path.join(self.work, "pass.log")
        spawned, exited, code = spawn(self.pass_args(trace), log)
        result = None
        if code != 0:
            p.problems.append(f"process exited {code}: {log_tail(log)}")
        else:
            with open(self.result_path, encoding="utf-8") as fh:
                result = json.load(fh)
            p.rss_mb = result["peak_rss_mb"]
            if result.get("exit_code", 0) != 0:
                p.problems.append(f"loire exited {result['exit_code']}: {log_tail(log)}")
        if result is not None and not p.problems:
            try:
                self.check(result, p)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                p.problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
        if result is not None:
            p.wall, startup_exit = self.wall(spawned, exited, result)
            if not p.problems:
                p.solve_ms = self.latencies_ms(result, p)
            if trace and result.get("trace"):
                p.layers = layer_values(result["trace"], p.wall, startup_exit,
                                        result["ready"] - spawned)
        if p.problems and not p.failed:
            p.failed = p.attempted
        return p


class SimSquare(Workload):
    name = "sim-square"

    def pass_args(self, trace):
        c = self.cfg
        return ["cli", self.result_path, str(int(trace)), "simulate",
                "--n", str(c["n"]), "--seed", str(self.first_seed),
                "--num-seeds", str(c["num_seeds"]), "--lambda", repr(c["lam"]),
                "--tol", "1e-300", "--max-iter", str(c["max_iter"]), "--out", self.out]

    @property
    def first_seed(self):
        return workloads.sim_first_seed(self.seed, self.cfg["num_seeds"])

    def check(self, result, p):
        c = self.cfg
        with open(os.path.join(self.out, "report.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != c["num_seeds"]:
            p.problems.append(f"report.csv has {len(rows)} rows, expected {c['num_seeds']}")
            return
        f_scores = []
        for k, row in enumerate(rows):
            dr, pre, f = float(row["DR"]), float(row["Pre"]), float(row["F"])
            expect_f = 2 * dr * pre / (dr + pre) if dr + pre > 0 else 0.0
            if (row["method"] != "rrf" or int(row["N"]) != c["n"]
                    or int(row["seed"]) != self.first_seed + k
                    or float(row["lambda"]) != c["lam"]
                    or not 1 <= int(row["iterations"]) <= c["max_iter"]
                    or not all(0.0 <= v <= 1.0 for v in (dr, pre, f))
                    or abs(f - expect_f) > 1e-12):
                p.problems.append(f"report.csv row {k} is inconsistent: {row}")
            f_scores.append(f)
        p.quality = {"f": statistics.fmean(f_scores)}


class BgmodelVideo(Workload):
    name = "bgmodel-video"

    def __init__(self, *args):
        super().__init__(*args)
        _, self.background, self.masks = workloads.video(self.seed, self.cfg)

    def pass_args(self, trace):
        c = self.cfg
        return ["cli", self.result_path, str(int(trace)), "bgmodel",
                os.path.join(self.work, "frames", "f_*.pgm"), "--rank", str(c["rank"]),
                "--lambda", repr(c["lam"]), "--out", self.out]

    def check(self, result, p):
        c = self.cfg
        with open(os.path.join(self.out, "timing.json"), encoding="utf-8") as fh:
            timing = json.load(fh)
        expect = {"frames": c["frames"], "width": c["width"], "height": c["height"],
                  "rank": c["rank"], "lambda": c["lam"]}
        if any(timing[k] != v for k, v in expect.items()) or timing["iterations"] < 1:
            p.problems.append(f"timing.json is inconsistent: {timing}")
        detected = np.zeros_like(self.masks)
        bg_err = 0
        for j in range(c["frames"]):
            bg = workloads.read_pgm(os.path.join(self.out, f"background_{j:04d}.pgm"))
            fg = workloads.read_pgm(os.path.join(self.out, f"foreground_{j:04d}.pgm"))
            if bg.shape != self.background.shape or fg.shape != self.background.shape:
                p.problems.append(f"frame {j} has shape {bg.shape}/{fg.shape}")
                return
            detected[j] = fg > 0
            bg_err = max(bg_err, int(np.max(np.abs(bg.astype(int) - self.background))))
        p.quality = {"f": workloads.detection_f(detected, self.masks), "bg_err": bg_err}


class RegressCsv(Workload):
    name = "regress-csv"

    def __init__(self, *args):
        super().__init__(*args)
        self.a, self.y, self.x_true, self.outliers = workloads.csv_problem(self.seed, self.cfg)

    def pass_args(self, trace):
        return ["cli", self.result_path, str(int(trace)), "regress",
                os.path.join(self.work, "data.csv"), "--target", "y",
                "--method", "appbem,lad", "--out", self.out]

    def check(self, result, p):
        with open(os.path.join(self.out, "solution.json"), encoding="utf-8") as fh:
            sol = json.load(fh)
        names = [f"a{i}" for i in range(self.a.shape[1])]
        methods = {e["method"]: e for e in sol["methods"]}
        if sol["predictors"] != names or sorted(methods) != ["appbem", "lad"]:
            p.problems.append("solution.json lists the wrong predictors or methods")
            return
        bem, lad = methods["appbem"], methods["lad"]
        p.problems += [f"appbem: {msg}" for msg in workloads.check_bem(
            self.a, self.y, bem["x"], bem["b"], bem["support"], bem["objective_trace"],
            bem["iterations"])]
        x_lad, b_lad = np.asarray(lad["x"]), np.asarray(lad["b"])
        if (x_lad.shape != self.x_true.shape or not np.all(np.isfinite(x_lad))
                or np.max(np.abs(b_lad - (self.y - self.a @ x_lad)))
                > 1e-9 * (1 + np.max(np.abs(self.y))) or lad["iterations"] < 1):
            p.problems.append("lad: x is not finite or b is not y - A x")
        if p.problems:
            return
        detected = np.zeros(self.y.size, dtype=bool)
        detected[bem["support"]] = True
        norm = np.linalg.norm(self.x_true)
        p.quality = {"f": workloads.detection_f(detected, self.outliers),
                     "coef_err": float(np.linalg.norm(np.asarray(bem["x"]) - self.x_true) / norm),
                     "lad_coef_err": float(np.linalg.norm(x_lad - self.x_true) / norm),
                     "lad_converged": bool(lad["converged"])}


class RegressBatch(Workload):
    name = "regress-batch"
    # a pass is one process looping over many short solves, so it times the
    # reference in slices between them, which follows the machine's speed
    # through the pass more closely than a round before and after
    times_reference = True

    def __init__(self, *args):
        super().__init__(*args)
        self.ops_per_pass = self.cfg["solves"]

    def pass_args(self, trace):
        return ["batch", self.result_path, str(int(trace)), str(self.seed),
                str(int(self.smoke))]

    def wall(self, spawned, exited, result):
        # the measured phase is the solves themselves; process start-up and
        # input generation are set-up
        return sum(result["latencies"]), 0.0

    def check(self, result, p):
        p.attempted, p.failed = result["attempted"], result["failed"]
        p.problems += result["errors"]
        p.ref = result["ref_s"]
        p.quality = result["quality"]

    def latencies_ms(self, result, p):
        return [1e3 * t for t in result["latencies"]]


WORKLOADS = {cls.name: cls for cls in (SimSquare, BgmodelVideo, RegressCsv, RegressBatch)}


def layer_values(trace: dict, wall: float, startup_exit: float, startup: float) -> dict:
    """Flatten one traced pass into per-layer values (see README.md)."""
    v: dict = {}
    for span, e in trace["layers"].items():
        v[f"{span}.s"], v[f"{span}.calls"], v[f"{span}.self_s"] = e["s"], e["calls"], e["self_s"]
    c = trace["counts"]
    svd_calls = v.get("linalg.truncated_svd.calls", 0)
    v["linalg.truncated_svd.kept_frac"] = (
        c.get("linalg.truncated_svd.kept_sum", 0.0) / svd_calls if svd_calls else 0.0)
    v["linalg.truncated_svd.gflop_computed"] = c.get("linalg.truncated_svd.flop", 0.0) / 1e9
    v["linalg.soft_threshold.mbytes_computed"] = c.get("linalg.soft_threshold.bytes", 0.0) / 1e6
    v["factorization.rrf_solve.alloc_peak_mb"] = (
        trace["alloc_peak_bytes"].get("factorization.rrf_solve", 0.0) / 1e6)
    for layer in ("factorization", "regression", "benchmark.baseline_lad"):
        solves = c.get(f"{layer}.solves", 0)
        v[f"{layer}.iterations"] = c.get(f"{layer}.iterations", 0) / solves if solves else 0.0
        v[f"{layer}.converged_frac"] = c.get(f"{layer}.converged", 0) / solves if solves else 0.0
    v["pgm.mbytes_read"] = c.get("pgm.bytes_read", 0.0) / 1e6
    v["pgm.mbytes_written"] = c.get("pgm.bytes_written", 0.0) / 1e6
    v["proc.startup_s"] = startup
    v["trace.wall_s"] = wall
    v["trace.unattributed_frac"] = (wall - startup_exit - trace["root_s"]) / wall
    return v


def known_layer_names() -> set:
    spans = {w[-1] for w in tracing.WRAPPED + tracing.WRAPPED_CLASSMETHODS}
    names = {f"{s}.{k}" for s in spans for k in ("s", "calls", "self_s")}
    empty = {"layers": {}, "counts": {}, "alloc_peak_bytes": {}, "root_s": 0.0}
    return names | set(layer_values(empty, 1.0, 0.0, 0.0)) | {"trace.overhead_frac"}


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def percentile(values, q) -> float:
    return float(np.percentile(values, q)) if values else math.nan


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.name, self.seed, self.seconds, self.trace, self.smoke = name, seed, seconds, trace, smoke
        self.work = os.path.join(WORK, f"{name}-{os.getpid()}")
        self.setup_s: list[float] = []
        self.untraced: list[Pass] = []
        self.traced: list[Pass] = []
        self.env: dict = {}

    def setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(self.work, ignore_errors=True)
            os.makedirs(self.work)
            log = os.path.join(self.work, "setup.log")
            spawned, exited, code = spawn(
                ["setup", self.name, str(self.seed), self.work, str(int(self.smoke))], log)
            if code != 0:
                raise RuntimeError(f"set-up of {self.name} failed: {log_tail(log)}")
            self.setup_s.append(exited - spawned)
        with open(os.path.join(self.work, "env.json"), encoding="utf-8") as fh:
            self.env = json.load(fh)
        self.env["nproc"], self.env["cpus"] = NPROC, sorted(os.sched_getaffinity(0))

    def measure(self) -> None:
        wl = WORKLOADS[self.name](self.seed, self.smoke, self.work)
        ref = None if wl.times_reference else reference.Reference()
        min_rounds = MIN_TRACED_ROUNDS if self.trace else MIN_ROUNDS
        start = time.monotonic()
        before = ref.seconds() if ref else math.nan

        def timed_pass(trace: bool) -> Pass:
            nonlocal before
            p = wl.run_pass(trace)
            if ref:
                after = ref.seconds()
                p.ref, before = (before + after) / 2, after
            return p

        while True:
            self.untraced.append(timed_pass(False))
            if self.trace:
                self.traced.append(timed_pass(True))
            rounds = len(self.untraced)
            elapsed = time.monotonic() - start
            next_end = elapsed * (rounds + 1) / rounds
            if next_end > HARD_LIMIT_S or (rounds >= min_rounds and next_end > self.seconds):
                break

    def passes(self) -> list[Pass]:
        return self.untraced + self.traced

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes())

    @property
    def failed(self) -> int:
        return sum(p.failed for p in self.passes())

    def end_to_end(self) -> dict:
        ok = [p for p in self.untraced if not p.problems]
        solve_ref = [t / 1e3 / p.ref for p in ok for t in p.solve_ms]
        f = median([p.quality["f"] for p in ok])
        return {
            "wall_ref": median([p.wall / p.ref for p in ok]),
            "setup_s": median(self.setup_s),
            "peak_rss_mb": median([p.rss_mb for p in ok]),
            "solve_ref.p50": percentile(solve_ref, 50),
            "quality.f_gap": 1.0 - f,
        }

    def details(self) -> dict:
        """Figures printed beside the metrics: quality, failures, sample counts."""
        ok = [p for p in self.untraced if not p.problems]
        # every pass of a run solves the same inputs, so any pass's quality will do
        quality = {f"quality.{k}": v for k, v in ok[-1].quality.items()} if ok else {}
        solve_ms = [t for p in ok for t in p.solve_ms]
        solve_ref = [t / 1e3 / p.ref for p in ok for t in p.solve_ms]
        return {"ops_failed_frac": self.failed / max(self.attempted, 1),
                "passes": len(self.untraced), "traced_passes": len(self.traced),
                "wall_s": median([p.wall for p in ok]), "ref_s": median([p.ref for p in ok]),
                "solve_ms.p50": percentile(solve_ms, 50), "solve_ms.p99": percentile(solve_ms, 99),
                "solve_ref.p99": percentile(solve_ref, 99),
                "pass_wall_s": [round(p.wall, 4) for p in self.untraced],
                "pass_ref_s": [round(p.ref, 4) for p in self.untraced],
                "solve_samples": len(solve_ms), **quality}

    def per_layer(self) -> dict:
        traced = [p.layers for p in self.traced if p.layers is not None and not p.problems]
        keys = set().union(*traced) if traced else set()
        values = {k: statistics.fmean(t.get(k, 0.0) for t in traced) for k in keys}
        untraced = median([p.wall / p.ref for p in self.untraced if not p.problems])
        values["trace.overhead_frac"] = (
            median([p.wall / p.ref for p in self.traced if not p.problems]) / untraced - 1.0)
        return values

    def bypass_problems(self, layer: dict) -> list[str]:
        name = BYPASS[self.name]
        if layer.get(name, 0) != 0:
            return [f"bypass check: {name} = {layer[name]} on {self.name}, expected 0"]
        return []


def select(values: dict, specs: list, known: set | None = None) -> dict:
    """The metrics BENCHMARK.json names; a per-layer name absent from *values*
    belongs to a layer the workload never called and reads 0."""
    known = set(values) if known is None else known
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in known:
            raise KeyError(f"BENCHMARK.json names {name!r}, which the benchmark does not produce")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": spec["unit"]}
    return out


def run_one(name, seed, seconds, trace, smoke, bench) -> dict:
    run = Run(name, seed, seconds, trace, smoke)
    try:
        run.setup()
        run.measure()
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    problems = [msg for p in run.passes() for msg in p.problems]
    if trace:
        values = run.per_layer()
        metrics = select(values, bench["per_layer"], known_layer_names())
        problems += run.bypass_problems(values)
    else:
        metrics = select(run.end_to_end(), bench["end_to_end"])
    correct = not problems and run.failed == 0 and all(
        math.isfinite(m["value"]) for m in metrics.values())
    print(f"== {name}  seed={seed}  trace={int(trace)}  "
          f"{'smoke  ' if smoke else ''}correct={correct}")
    print("env " + json.dumps(run.env, sort_keys=True))
    print("details " + json.dumps(run.details(), sort_keys=True))
    for msg in problems[:10]:
        print(f"problem: {msg}", file=sys.stderr)
    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        print(f"  {key:<{width}}  {m['value']:.6g} {m['unit']}")
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def run_all(seed, seconds, smoke, bench) -> tuple[int, dict]:
    results, failures = {}, []
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_one(name, seed, seconds, trace, smoke, bench)
            results[f"{name}/trace{int(trace)}"] = res
            if not res["correct"]:
                failures.append(f"{name} trace={int(trace)}: incorrect or a metric is not finite")
            unattributed = res["metrics"].get("trace.unattributed_frac", {"value": 0.0})["value"]
            if abs(unattributed) > MAX_UNATTRIBUTED:
                failures.append(f"{name}: spans leave {unattributed:.1%} of the wall unattributed")
    summary = {"correct": not failures,
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "workloads": results}
    for msg in failures:
        print(f"FAIL {msg}", file=sys.stderr)
    return (1 if smoke and failures else 0), summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per run (default: run_seconds of BENCHMARK.json, "
                             "or 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; with --workload all, fail unless every metric is emitted")
    args = parser.parse_args(argv)

    pin_cpu()
    # on SIGTERM unwind like on an exception: kill the running pass and
    # remove the work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "loire", "__init__.py")) \
            or not os.path.isfile(bench_path):
        print(f"perfbench: {ROOT} lacks src/loire or BENCHMARK.json; run from a checkout",
              file=sys.stderr)
        return 2
    with open(bench_path, encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = args.seconds if args.seconds is not None else \
        (1.0 if args.smoke else float(bench["run_seconds"]))
    try:
        if args.workload == "all":
            code, result = run_all(args.seed, seconds, args.smoke, bench)
        else:
            code, result = 0, run_one(args.workload, args.seed, seconds, bool(args.trace),
                                      args.smoke, bench)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if os.path.isdir(WORK) and not os.listdir(WORK):
            os.rmdir(WORK)
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
