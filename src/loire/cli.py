"""Command-line front end: dataset ingestion, experiment runs, report emission.

Exit codes: 0 success, 1 usage/validation error, 2 runtime/data error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import glob
import json
import math
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .benchmark import SimSpec, baseline_lad, compute_metrics, generate_sim
from .bernoulli import (ZERO_TOL_FRAC, OracleConfig, app_bem, bernoulli_oracle,
                        default_zero_tol, detect_support, enumeration_count)
from .factorization import FactorizationConfig, rrf_solve
from .linalg import MAD_C, MAD_FLOOR, MAD_NORMAL, as_matrix, check_zero_tol, least_squares_solve
from .pgm import FrameStack, read_pgm, write_pgm
from .regression import LoireConfig, loire_solve

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

REGRESS_METHODS = ("loire", "appbem", "ols", "lad", "oracle")

REPORT_COLUMNS = ("method", "N", "seed", "lambda", "tol", "iterations", "DR", "Pre", "F",
                  "wall_time_s", "converged")

# array entries per json.dumps call: 4096 wrote solution.json no faster and
# held 0.65 MB of a chunk's Python numbers and text, against 0.17 MB here
JSON_CHUNK = 1 << 10


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code contract."""

    def error(self, message):
        raise UsageError(message)


def _add_solver_flags(sub, config):
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="penalty weight; the shrink threshold is 1/lambda (default: "
                     f"1/lambda = {MAD_NORMAL:g}*max({MAD_C:g}*median|r|, {MAD_FLOOR:g}*"
                     "median|y-median(y)|) on the residual r of the first least-squares or "
                     "rank-r fit)")
    sub.add_argument("--tol", type=float, default=None,
                     help=f"stop when ||b_k+1 - b_k|| <= tol (default: {config.REL_TOL:g} "
                     "times the data's 2-norm, Frobenius for a matrix)")
    sub.add_argument("--max-iter", type=int, default=config.max_iter)
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
                       help="comma list from: " + ",".join(REGRESS_METHODS) + "; lad ignores "
                       "--lambda and --tol: it pivots between vertices of min ||y - Ax||_1 until "
                       "one's dual proves it optimal, --max-iter vertices at most")
    p_reg.add_argument("--radius", type=float, default=None,
                       help="residual radius t for the oracle (default: from appBEM fit)")
    p_reg.add_argument("--max-support", type=int, default=None,
                       help="oracle support-size cap (default: m)")
    _add_solver_flags(p_reg, LoireConfig)

    p_sim = sub.add_parser("simulate", help="synthetic corruption benchmark")
    p_sim.add_argument("--n", default="100", help="comma list of square dimensions")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--num-seeds", type=int, default=1,
                       help="run seeds seed..seed+num-1")
    p_sim.add_argument("--rank-frac", type=float, default=0.05)
    p_sim.add_argument("--density", type=float, default=0.05)
    p_sim.add_argument("--amplitude", type=float, default=10.0)
    p_sim.add_argument("--dense-scale", type=float, default=2.0)
    _add_solver_flags(p_sim, FactorizationConfig)
    for p in (p_reg, p_sim):  # bgmodel reports |B| itself, not a support
        p.add_argument("--zero-tol", type=float, default=None,
                       help="flag entries with |b| above this "
                       f"(default: {ZERO_TOL_FRAC:g}*max|y|)")

    p_bg = sub.add_parser("bgmodel", help="background/foreground split of a PGM sequence")
    p_bg.add_argument("frames", help="glob pattern matching the input PGM frames")
    p_bg.add_argument("--rank", type=int, default=1,
                      help="background rank (1 static, ~3 for illumination changes)")
    _add_solver_flags(p_bg, FactorizationConfig)

    p_ver = sub.add_parser("version", help="print version")
    p_ver.add_argument("--json", action="store_true", dest="as_json")

    sub.add_parser("help", help="show this help")
    return parser


def _read_regression_csv(path: str, target: str, intercept: bool):
    """Parse the CSV into (A, y, predictor names); raises DataError with line numbers.

    The data rows are parsed in bulk; when that fails or yields a non-finite
    value they are read again row by row, which names the offending line.
    """
    try:
        # utf-8-sig drops the byte-order mark spreadsheet programs write
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required")
            header = [h.strip() for h in header]
            if len(set(header)) < len(header):
                twice = next(h for i, h in enumerate(header) if h in header[:i])
                raise DataError(f"{path}: column {twice!r} repeated in header {header}")
            if target not in header:
                raise DataError(f"{path}: target column {target!r} not in header {header}")
            t_idx = header.index(target)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # loadtxt only warns on no rows
                    data = np.loadtxt(path, delimiter=",", comments=None, ndmin=2,
                                      skiprows=reader.line_num, encoding="utf-8-sig")
            except (ValueError, UserWarning):
                data = None
            if data is None or data.shape[1] != len(header) or not np.isfinite(data).all():
                fh.seek(0)
                reader = csv.reader(fh)
                next(reader)
                data = _read_rows(reader, path, len(header))
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}")
    y = data[:, t_idx].copy()  # a view would keep all of data alive through every solve
    names = [h for i, h in enumerate(header) if i != t_idx]
    if intercept or not names:
        names.append("(intercept)")
    # column-major, the layout every solve takes, so none copies A; ones last
    a = np.ones((data.shape[0], len(names)), order="F")
    for j, i in enumerate(k for k in range(len(header)) if k != t_idx):
        a[:, j] = data[:, i]
    return a, y, names


def _read_rows(reader, path: str, width: int) -> np.ndarray:
    """The data rows after the header, one at a time; blank rows are skipped."""
    rows = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != width:
            raise DataError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            values = [float(c) for c in row]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric field in {row}")
        if not all(map(math.isfinite, values)):
            raise DataError(f"{path}:{lineno}: non-finite field in {row}")
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows)


@contextlib.contextmanager
def _settings():
    """The flags build library objects, which hold every rule on a setting: a
    ValueError from one is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _dump(value, fh, pad: str = "") -> None:
    """Write *value* to *fh* byte for byte as json.dumps(value, indent=2) lays
    it out, with each 1-d ndarray given as its .tolist(); dict keys are str.

    With indent set, json runs its pure-Python encoder.  Here each key, each
    scalar and each JSON_CHUNK entries of an array go through json.dumps
    without indent, whose C encoder writes numbers as the Python one does
    (float.__repr__, NaN, Infinity); ", " occurs in no number, so replace
    lays a chunk out one entry per line."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            fh.write((sep if i else "{\n" + inner) + json.dumps(key) + ": ")
            _dump(item, fh, inner)
        fh.write("\n" + pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        for i, item in enumerate(value):
            fh.write(sep if i else "[\n" + inner)
            _dump(item, fh, inner)
        fh.write("\n" + pad + "]")
    elif isinstance(value, np.ndarray) and value.size:
        for i in range(0, len(value), JSON_CHUNK):
            text = json.dumps(value[i:i + JSON_CHUNK].tolist())[1:-1]
            fh.write((sep if i else "[\n" + inner) + text.replace(", ", sep))
        fh.write("\n" + pad + "]")
    else:  # a scalar or an empty container
        fh.write(json.dumps(value.tolist() if isinstance(value, np.ndarray) else value))


def _write_json(path: str, value) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        _dump(value, fh)
        fh.write("\n")


def _wall(t0: float, timing: str) -> float:
    return 0.0 if timing == "none" else time.perf_counter() - t0


def _warn_unconverged(sol, what: str, target: str | None = None) -> None:
    """One stderr line for a solve that stopped at max_iter unconverged,
    naming the *target* it did not reach (default: its tol)."""
    if not sol.converged:
        print(f"loire: warning: {what}: solve stopped at max_iter={sol.iterations} "
              f"without reaching {target or f'tol={sol.tol:.6g}'}", file=sys.stderr)


def _regress_one(method: str, a, y, cfg: LoireConfig, zero_tol: float, args):
    """Run one regression method; returns the solution.json entry.  Its x, b
    and support are arrays (support as row indices), which _dump writes in
    chunks; trace, iterations and converged are those of the method's solve,
    and [], 1 and true for ols and the oracle, which iterate none; gap is
    LAD's relative duality gap, None for every other method."""
    m = y.shape[0]
    t0 = time.perf_counter()
    run, target, gap = None, None, None
    if method == "loire":
        run = loire_solve(a, y, cfg)
        x, b = run.x, run.b
        support = np.flatnonzero(detect_support(b, zero_tol))
    elif method == "appbem":
        sol = app_bem(a, y, cfg, zero_tol)
        x, b, run = sol.x, sol.b, sol.loire
        support = np.array(sol.support, dtype=np.intp)
    elif method == "ols":
        x, b, support = least_squares_solve(a, y), np.zeros(m), []
    elif method == "lad":
        run = baseline_lad(a, y, max_iter=cfg.max_iter)
        x, b, gap = run.x, run.b, run.gap
        target = f"a vertex its dual proves optimal; (f - f*)/f <= {gap:.3g}"
        support = np.flatnonzero(detect_support(b, zero_tol))
    elif method == "oracle":
        max_support = args.max_support if args.max_support is not None else m
        try:
            enumeration_count(m, max_support)
        except ValueError as exc:
            raise UsageError(f"oracle refused: {exc}")
        if args.radius is not None:
            t_radius = args.radius
        else:
            ref = app_bem(a, y, cfg, zero_tol)
            # the floor keeps an exact fit feasible and scales with the data
            t_radius = (1.05 * float(np.linalg.norm(y - a @ ref.x - ref.b))
                        + 1e-12 * float(np.linalg.norm(y)))
        sol = bernoulli_oracle(a, y, OracleConfig(t=t_radius, max_support=max_support))
        x, b, support = sol.x, sol.b, np.array(sol.support, dtype=np.intp)
    if run is not None:
        _warn_unconverged(run, f"regress method={method}", target)
    return {
        "method": method,
        "x": x,
        "b": b,
        "support": support,
        "objective_trace": [] if run is None else run.objective_trace,
        "iterations": 1 if run is None else run.iterations,
        "converged": True if run is None else run.converged,
        "gap": gap,
        "wall_time_s": _wall(t0, args.timing),
    }


def cmd_regress(args) -> int:
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise UsageError("--method must name at least one method")
    for i, m in enumerate(methods):
        if m not in REGRESS_METHODS:
            raise UsageError(f"unknown method {m!r}; choose from {','.join(REGRESS_METHODS)}")
        if m in methods[:i]:
            raise UsageError(f"--method names {m!r} more than once")
    with _settings():
        cfg = LoireConfig(lam=args.lam, tol=args.tol, max_iter=args.max_iter)
        # 0 stands in for the radius and cap that default to values read off the data
        OracleConfig(t=0.0 if args.radius is None else args.radius,
                     max_support=0 if args.max_support is None else args.max_support)
        if args.zero_tol is not None:
            check_zero_tol(args.zero_tol)
    a, y, names = _read_regression_csv(args.csv_path, args.target, args.intercept)
    zero_tol = args.zero_tol if args.zero_tol is not None else default_zero_tol(y)
    # AllRowsOutliers and InfeasibleRadius are ValueErrors, so main reports them as data errors
    entries = [_regress_one(m, a, y, cfg, zero_tol, args) for m in methods]
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "solution.json")
    _write_json(out_path, {"predictors": names, "methods": entries})
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
    with _settings():  # the whole --n x seed grid, before the first solve
        specs = [SimSpec(n=n, rank_frac=args.rank_frac, dense_noise_scale=args.dense_scale,
                         spike_amplitude=args.amplitude, spike_density=args.density, seed=seed)
                 for n in dims for seed in range(args.seed, args.seed + args.num_seeds)]
        cfgs = [FactorizationConfig(rank=spec.rank, lam=args.lam, tol=args.tol,
                                    max_iter=args.max_iter) for spec in specs]
        if args.zero_tol is not None:
            check_zero_tol(args.zero_tol)

    # floats by repr, so each parses back to the same float; converged reads
    # true or false, as in the JSON outputs
    rows = []
    for spec, cfg in zip(specs, cfgs):
        inst = generate_sim(spec)
        t0 = time.perf_counter()
        y = as_matrix(inst.y)  # column-major once, for the solve and the zero-tol alike
        sol = rrf_solve(y, cfg)
        wall = _wall(t0, args.timing)
        _warn_unconverged(sol, f"simulate N={spec.n} seed={spec.seed}")
        zero_tol = args.zero_tol if args.zero_tol is not None else default_zero_tol(y)
        metrics = compute_metrics(detect_support(sol.b, zero_tol), inst.true_support)
        rows.append({"method": "rrf", "N": str(spec.n), "seed": str(spec.seed),
                     "lambda": repr(sol.lam), "tol": repr(sol.tol),
                     "iterations": str(sol.iterations), "DR": repr(metrics.dr),
                     "Pre": repr(metrics.pre), "F": repr(metrics.f), "wall_time_s": repr(wall),
                     "converged": "true" if sol.converged else "false"})
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "report.csv")
    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(out_path)
    return EXIT_OK


def cmd_bgmodel(args) -> int:
    with _settings():
        cfg = FactorizationConfig(rank=args.rank, lam=args.lam, tol=args.tol,
                                  max_iter=args.max_iter)
    paths = sorted(glob.glob(args.frames))
    if len(paths) < 2:
        raise DataError(f"need at least 2 frames, glob {args.frames!r} matched {len(paths)}")
    frames = [read_pgm(p) for p in paths]
    for p, fr in zip(paths, frames):
        if fr.shape != frames[0].shape:
            raise DataError(f"{p}: frame shape {fr.shape} differs from {frames[0].shape} "
                            f"of {paths[0]}")
    stack = FrameStack.from_frames(frames)
    if cfg.rank > min(stack.matrix.shape):
        raise UsageError(f"--rank {args.rank} out of range for a "
                         f"{stack.matrix.shape[0]}x{stack.matrix.shape[1]} stack")
    t0 = time.perf_counter()
    sol = rrf_solve(stack.matrix, cfg)
    wall = _wall(t0, args.timing)
    _warn_unconverged(sol, "bgmodel")

    # scaled by the 99th percentile of the nonzero |B| only: over all pixels it
    # is 0 whenever the foreground covers under 1% of them, which blanked every frame
    moving = np.abs(sol.b[sol.b != 0])
    scale = 255.0 / float(np.percentile(moving, 99.0)) if moving.size else 1.0
    del moving

    # frame by frame, so no full-size A X or |B| is formed
    os.makedirs(args.out, exist_ok=True)
    for j in range(stack.frames):
        bg_frame = np.clip(np.rint(stack.column_to_frame(sol.a @ sol.x[:, j])), 0, 255)
        write_pgm(os.path.join(args.out, f"background_{j:04d}.pgm"), bg_frame.astype(np.uint8))
        fg_frame = np.rint(stack.column_to_frame(np.clip(np.abs(sol.b[:, j]) * scale, 0, 255)))
        write_pgm(os.path.join(args.out, f"foreground_{j:04d}.pgm"), fg_frame.astype(np.uint8))
    timing = {
        "frames": stack.frames,
        "width": stack.width,
        "height": stack.height,
        "rank": args.rank,
        "lambda": sol.lam,
        "iterations": sol.iterations,
        "converged": sol.converged,
        "wall_time_s": wall,
    }
    out_path = os.path.join(args.out, "timing.json")
    _write_json(out_path, timing)
    print(out_path)
    return EXIT_OK


def cmd_version(args) -> int:
    if args.as_json:
        print(json.dumps({"name": "loire", "version": __version__}))
    else:
        print(f"loire {__version__}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        if args.command is None or args.command == "help":
            parser.print_help()
            return EXIT_OK
        # argparse admits only the commands build_parser defines
        commands = {"regress": cmd_regress, "simulate": cmd_simulate, "bgmodel": cmd_bgmodel,
                    "version": cmd_version}
        return commands[args.command](args)
    except UsageError as exc:
        print(f"loire: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, ValueError, OSError) as exc:  # PgmError is a ValueError
        print(f"loire: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:  # numpy's names the allocation it refused
        print(f"loire: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
