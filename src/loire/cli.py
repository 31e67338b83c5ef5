"""Command-line front end: dataset ingestion, experiment runs, report emission.

Exit codes: 0 success, 1 usage/validation error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import csv
import glob
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .benchmark import (BenchmarkReport, REPORT_COLUMNS, SimSpec, baseline_lad,
                        baseline_ols, compute_metrics, detect_matrix_support,
                        generate_sim)
from .bernoulli import (AllRowsOutliers, ENUMERATION_CAP, InfeasibleRadius,
                        OracleConfig, app_bem, bernoulli_oracle, default_zero_tol,
                        detect_support)
from .factorization import FactorizationConfig, default_matrix_lambda, rrf_solve
from .pgm import FrameStack, PgmError, read_pgm, write_pgm
from .regression import LoireConfig, default_lambda, loire_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

REGRESS_METHODS = ("loire", "appbem", "ols", "lad", "oracle")


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code contract."""

    def error(self, message):
        raise UsageError(message)


def _add_solver_flags(sub):
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="penalty weight (default: data-driven heuristic)")
    sub.add_argument("--tol", type=float, default=None,
                     help="convergence tolerance (default: scale-aware rule)")
    sub.add_argument("--max-iter", type=int, default=None)
    sub.add_argument("--zero-tol", type=float, default=None,
                     help="support-detection cutoff (default: 1e-6*(1+max |y|))")
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument("--timing", choices=("wall", "none"), default="wall",
                     help="'none' writes wall_time_s as 0 for byte-reproducible reports")


def build_parser() -> _Parser:
    parser = _Parser(prog="loire", description="Robust regression and low-rank recovery toolkit")
    sub = parser.add_subparsers(dest="command")

    p_reg = sub.add_parser("regress", help="robust regression on a CSV dataset")
    p_reg.add_argument("csv_path")
    p_reg.add_argument("--target", required=True, help="response column name")
    p_reg.add_argument("--intercept", action="store_true",
                       help="append a constant ones column to the predictors")
    p_reg.add_argument("--method", default="appbem",
                       help="comma list from: " + ",".join(REGRESS_METHODS))
    p_reg.add_argument("--radius", type=float, default=None,
                       help="residual radius t for the oracle (default: from appBEM fit)")
    p_reg.add_argument("--max-support", type=int, default=None,
                       help="oracle support-size cap (default: m)")
    _add_solver_flags(p_reg)

    p_sim = sub.add_parser("simulate", help="synthetic corruption benchmark")
    p_sim.add_argument("--n", default="100", help="comma list of square dimensions")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--num-seeds", type=int, default=1,
                       help="run seeds seed..seed+num-1")
    p_sim.add_argument("--rank-frac", type=float, default=0.05)
    p_sim.add_argument("--density", type=float, default=0.05)
    p_sim.add_argument("--amplitude", type=float, default=10.0)
    p_sim.add_argument("--dense-scale", type=float, default=2.0)
    p_sim.add_argument("--lambda-mult", type=float, default=1.0,
                       help="multiplier on the heuristic matrix lambda")
    p_sim.add_argument("--method", default="rrf")
    _add_solver_flags(p_sim)

    p_bg = sub.add_parser("bgmodel", help="background/foreground split of a PGM sequence")
    p_bg.add_argument("frames", help="glob pattern matching the input PGM frames")
    p_bg.add_argument("--rank", type=int, default=1,
                      help="background rank (1 static, ~3 for illumination changes)")
    p_bg.add_argument("--lambda-mult", type=float, default=1.0)
    _add_solver_flags(p_bg)

    p_ver = sub.add_parser("version", help="print version")
    p_ver.add_argument("--json", action="store_true", dest="as_json")

    sub.add_parser("help", help="show this help")
    return parser


def _read_regression_csv(path: str, target: str, intercept: bool):
    """Parse the CSV into (A, y, predictor names); raises DataError with line numbers."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required")
            header = [h.strip() for h in header]
            if target not in header:
                raise DataError(f"{path}: target column {target!r} not in header {header}")
            t_idx = header.index(target)
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not c.strip() for c in row):
                    continue
                if len(row) != len(header):
                    raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
                try:
                    rows.append([float(c) for c in row])
                except ValueError:
                    raise DataError(f"{path}:{lineno}: non-numeric field in {row}")
    except OSError as exc:
        raise DataError(f"{path}: {exc}")
    if not rows:
        raise DataError(f"{path}: no data rows")
    data = np.asarray(rows)
    y = data[:, t_idx]
    a = np.delete(data, t_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != t_idx]
    if intercept or a.shape[1] == 0:
        a = np.hstack([a, np.ones((a.shape[0], 1))])
        names.append("(intercept)")
    return a, y, names


def _wall(t0: float, timing: str) -> float:
    return 0.0 if timing == "none" else time.perf_counter() - t0


def _warn_unconverged(sol, what: str) -> None:
    """One stderr line for an rrf solve that stopped at max_iter unconverged."""
    if not sol.converged:
        print(f"loire: warning: {what}: rrf solve stopped at max_iter={sol.iterations} "
              f"without reaching tol={sol.tol:.6g}", file=sys.stderr)


def _regress_one(method: str, a, y, args):
    """Run one regression method; returns the solution.json entry."""
    m = y.shape[0]
    lam = args.lam if args.lam is not None else default_lambda(a, y)
    zero_tol = args.zero_tol if args.zero_tol is not None else default_zero_tol(y)
    max_iter = args.max_iter if args.max_iter is not None else 1000
    cfg = LoireConfig(lam=lam, tol=args.tol, max_iter=max_iter)

    t0 = time.perf_counter()
    trace: list[float] = []
    iterations = 0
    converged = True
    if method == "loire":
        sol = loire_solve(a, y, cfg)
        x, b = sol.x, sol.b
        support = list(detect_support(sol, zero_tol))
        trace, iterations, converged = sol.objective_trace, sol.iterations, sol.converged
    elif method == "appbem":
        sol = app_bem(a, y, cfg, zero_tol)
        x, b = sol.x, sol.b
        support = list(sol.support)
        trace = sol.loire.objective_trace
        iterations, converged = sol.loire.iterations, sol.loire.converged
    elif method == "ols":
        x = baseline_ols(a, y)
        b = np.zeros(m)
        support = []
        iterations = 1
    elif method == "lad":
        res = baseline_lad(a, y, max_iter=max_iter)
        x = res.x
        b = y - a @ x
        support = [int(i) for i in np.flatnonzero(np.abs(b) > zero_tol)]
        iterations, converged = res.iterations, res.converged
    elif method == "oracle":
        max_support = args.max_support if args.max_support is not None else m
        total = sum(math.comb(m, k) for k in range(min(max_support, m) + 1))
        if total > ENUMERATION_CAP:
            raise UsageError(
                f"oracle refused: {total} candidate supports exceed the {ENUMERATION_CAP} cap "
                "(reduce the row count or --max-support)")
        if args.radius is not None:
            t_radius = args.radius
        else:
            ref = app_bem(a, y, cfg, zero_tol)
            clean = np.setdiff1d(np.arange(m), np.asarray(ref.support, dtype=int))
            t_radius = 1.05 * float(np.linalg.norm(y[clean] - a[clean] @ ref.x)) + 1e-12
        sol = bernoulli_oracle(a, y, OracleConfig(t=t_radius, max_support=max_support))
        x, b = sol.x, sol.b
        support = list(sol.support)
        iterations = 1
    else:
        raise UsageError(f"unknown method {method!r}; choose from {','.join(REGRESS_METHODS)}")
    return {
        "method": method,
        "x": [float(v) for v in x],
        "b": [float(v) for v in b],
        "support": support,
        "objective_trace": trace,
        "iterations": iterations,
        "converged": bool(converged),
        "wall_time_s": _wall(t0, args.timing),
    }


def cmd_regress(args) -> int:
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    for m in methods:
        if m not in REGRESS_METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {','.join(REGRESS_METHODS)}")
    a, y, names = _read_regression_csv(args.csv_path, args.target, args.intercept)
    try:
        entries = [_regress_one(m, a, y, args) for m in methods]
    except (AllRowsOutliers, InfeasibleRadius) as exc:
        raise DataError(str(exc))
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "solution.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"predictors": names, "methods": entries}, fh, indent=2)
        fh.write("\n")
    print(out_path)
    return EXIT_OK


def cmd_simulate(args) -> int:
    try:
        dims = [int(s) for s in args.n.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"--n expects a comma list of integers, got {args.n!r}")
    if not dims:
        raise UsageError("--n must name at least one dimension")
    if args.num_seeds < 1:
        raise UsageError("--num-seeds must be at least 1")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    for m in methods:
        if m != "rrf":
            raise UsageError(f"unknown simulate method {m!r}; only 'rrf' is built in")

    reports = []
    for n in dims:
        for seed in range(args.seed, args.seed + args.num_seeds):
            spec = SimSpec(n=n, rank_frac=args.rank_frac,
                           dense_noise_scale=args.dense_scale,
                           spike_amplitude=args.amplitude,
                           spike_density=args.density, seed=seed)
            try:
                inst = generate_sim(spec)
            except ValueError as exc:
                raise UsageError(str(exc))
            lam = args.lam if args.lam is not None else \
                default_matrix_lambda(inst.y, args.lambda_mult)
            max_iter = args.max_iter if args.max_iter is not None else 500
            cfg = FactorizationConfig(rank=spec.rank, lam=lam, tol=args.tol,
                                      max_iter=max_iter)
            t0 = time.perf_counter()
            sol = rrf_solve(inst.y, cfg)
            wall = _wall(t0, args.timing)
            _warn_unconverged(sol, f"simulate N={n} seed={seed}")
            zero_tol = args.zero_tol if args.zero_tol is not None else \
                default_zero_tol(inst.y)
            detected = detect_matrix_support(sol.b, zero_tol)
            metrics = compute_metrics(detected, inst.true_support, n * n)
            reports.append(BenchmarkReport(method="rrf", spec=spec, metrics=metrics,
                                           wall_time_s=wall, lam=lam, tol=sol.tol,
                                           iterations=sol.iterations))
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "report.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(REPORT_COLUMNS))
        writer.writeheader()
        for rep in reports:
            writer.writerow(rep.to_row())
    print(out_path)
    return EXIT_OK


def cmd_bgmodel(args) -> int:
    paths = sorted(glob.glob(args.frames))
    if len(paths) < 2:
        raise DataError(f"need at least 2 frames, glob {args.frames!r} matched {len(paths)}")
    frames = []
    first_shape = None
    for p in paths:
        fr = read_pgm(p)
        if first_shape is None:
            first_shape = fr.shape
        elif fr.shape != first_shape:
            raise DataError(f"{p}: frame shape {fr.shape} differs from {first_shape} "
                            f"of {paths[0]}")
        frames.append(fr)
    stack = FrameStack.from_frames(frames)
    if not 1 <= args.rank <= min(stack.matrix.shape):
        raise UsageError(f"--rank {args.rank} out of range for a "
                         f"{stack.matrix.shape[0]}x{stack.matrix.shape[1]} stack")
    lam = args.lam if args.lam is not None else \
        default_matrix_lambda(stack.matrix, args.lambda_mult)
    max_iter = args.max_iter if args.max_iter is not None else 500
    cfg = FactorizationConfig(rank=args.rank, lam=lam, tol=args.tol, max_iter=max_iter)
    t0 = time.perf_counter()
    sol = rrf_solve(stack.matrix, cfg)
    wall = _wall(t0, args.timing)
    _warn_unconverged(sol, "bgmodel")

    background = sol.low_rank()
    fg = np.abs(sol.b)
    scale = float(np.percentile(fg, 99.0))
    fg_scaled = np.clip(fg * (255.0 / scale), 0, 255) if scale > 0 else np.zeros_like(fg)

    os.makedirs(args.out, exist_ok=True)
    for j in range(stack.frames):
        bg_frame = np.clip(np.rint(stack.column_to_frame(background[:, j])), 0, 255)
        write_pgm(os.path.join(args.out, f"background_{j:04d}.pgm"), bg_frame.astype(np.uint8))
        fg_frame = np.rint(stack.column_to_frame(fg_scaled[:, j]))
        write_pgm(os.path.join(args.out, f"foreground_{j:04d}.pgm"), fg_frame.astype(np.uint8))
    timing = {
        "frames": stack.frames,
        "width": stack.width,
        "height": stack.height,
        "rank": args.rank,
        "lambda": lam,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "wall_time_s": wall,
    }
    out_path = os.path.join(args.out, "timing.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(timing, fh, indent=2)
        fh.write("\n")
    print(out_path)
    return EXIT_OK


def cmd_version(args) -> int:
    if args.as_json:
        print(json.dumps({"name": "loire", "version": __version__}))
    else:
        print(f"loire {__version__}")
    return EXIT_OK


def _validate_flags(args) -> None:
    """Numeric-flag sanity checks, before any computation starts."""
    checks = (
        ("lam", lambda v: v > 0, "--lambda must be positive"),
        ("tol", lambda v: v > 0, "--tol must be positive"),
        ("max_iter", lambda v: v >= 1, "--max-iter must be at least 1"),
        ("zero_tol", lambda v: v >= 0, "--zero-tol must be nonnegative"),
        ("rank", lambda v: v >= 1, "--rank must be at least 1"),
        ("rank_frac", lambda v: 0 < v <= 1, "--rank-frac must lie in (0, 1]"),
        ("density", lambda v: 0 <= v <= 1, "--density must lie in [0, 1]"),
        ("lambda_mult", lambda v: v > 0, "--lambda-mult must be positive"),
        ("radius", lambda v: v >= 0, "--radius must be nonnegative"),
        ("max_support", lambda v: v >= 0, "--max-support must be nonnegative"),
    )
    for name, ok, message in checks:
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise UsageError(message)


def run(argv) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None or args.command == "help":
        parser.print_help()
        return EXIT_OK
    _validate_flags(args)
    if args.command == "regress":
        return cmd_regress(args)
    if args.command == "simulate":
        return cmd_simulate(args)
    if args.command == "bgmodel":
        return cmd_bgmodel(args)
    if args.command == "version":
        return cmd_version(args)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        return run(argv)
    except UsageError as exc:
        print(f"loire: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, PgmError) as exc:
        print(f"loire: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"loire: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
