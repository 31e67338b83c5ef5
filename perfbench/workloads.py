"""Seeded inputs and planted truth for the benchmark workloads.

Uses numpy only, never the package under test, so the inputs and the
ground truth that outputs are checked against do not depend on the code
being measured.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import os

import numpy as np

# Full sizes, and the tiny sizes of --smoke.
SIZES = {
    "sim-square": (
        # criterion-5 protocol (rank 10, dense noise 2, 5% spikes of amplitude
        # 10) at the lambda of criterion 5; a fixed step budget keeps the work
        # per run independent of how fast each seeded instance converges
        dict(n=200, num_seeds=5, lam=0.625, max_iter=60),
        dict(n=30, num_seeds=2, lam=0.625, max_iter=10)),
    "bgmodel-video": (
        dict(height=120, width=160, frames=100, square=12, rank=1, lam=0.1),
        dict(height=24, width=32, frames=16, square=4, rank=1, lam=0.1)),
    "regress-csv": (dict(m=50000, n=20), dict(m=2000, n=5)),
    "regress-batch": (
        dict(solves=1000, m_lo=200, m_hi=2000, n_lo=2, n_hi=20),
        dict(solves=40, m_lo=40, m_hi=200, n_lo=2, n_hi=5)),
}

OUTLIER_FRAC = 0.05
OUTLIER_AMPLITUDE = (10.0, 50.0)  # in units of the unit-variance noise


def sizes(name: str, smoke: bool) -> dict:
    return SIZES[name][1 if smoke else 0]


def sim_first_seed(seed: int, num_seeds: int) -> int:
    """First generator seed of a sim-square run; seed 0 gives criterion 5's 1..5."""
    return 1 + seed * num_seeds


def regression_problem(rng, m: int, n: int):
    """A ~ N(0,1), x* ~ N(0,1), unit Gaussian noise, 5% rows with gross outliers.

    Returns (A, y, x*, outlier row mask).
    """
    a = rng.normal(size=(m, n))
    x = rng.normal(size=n)
    rows = rng.random(m) < OUTLIER_FRAC
    lo, hi = OUTLIER_AMPLITUDE
    b = np.where(rows, rng.choice([-1.0, 1.0], size=m) * rng.uniform(lo, hi, size=m), 0.0)
    y = a @ x + rng.normal(size=m) + b
    return a, y, x, rows


def batch_problems(seed: int, cfg: dict):
    """Yield the regress-batch problems (A, y, x*, outlier rows) in order."""
    rng = np.random.default_rng(seed)
    for _ in range(cfg["solves"]):
        m = int(rng.integers(cfg["m_lo"], cfg["m_hi"] + 1))
        n = int(rng.integers(cfg["n_lo"], cfg["n_hi"] + 1))
        yield regression_problem(rng, m, n)


def csv_problem(seed: int, cfg: dict):
    return regression_problem(np.random.default_rng(seed), cfg["m"], cfg["n"])


def write_csv(path: str, a: np.ndarray, y: np.ndarray) -> None:
    header = ",".join([f"a{i}" for i in range(a.shape[1])] + ["y"])
    with open(path, "w", encoding="ascii") as fh:
        np.savetxt(fh, np.column_stack([a, y]), fmt="%.17g", delimiter=",",
                   header=header, comments="")
        fh.flush()
        # write the file back during set-up, not during the measured passes
        os.fsync(fh.fileno())


def video(seed: int, cfg: dict):
    """Static textured background plus a 12x12 square of level 250 that moves
    one pixel right per frame and one pixel down every second frame.

    Returns (frames uint8 [k, h, w], background uint8 [h, w], masks bool [k, h, w]).
    """
    rng = np.random.default_rng(seed)
    h, w, k, s = cfg["height"], cfg["width"], cfg["frames"], cfg["square"]
    background = rng.integers(40, 120, size=(h, w)).astype(np.uint8)
    top0 = int(rng.integers(0, h - s - (k - 1) // 2 + 1))
    left0 = int(rng.integers(0, w - s - (k - 1) + 1))
    masks = np.zeros((k, h, w), dtype=bool)
    for j in range(k):
        top, left = top0 + j // 2, left0 + j
        masks[j, top:top + s, left:left + s] = True
    frames = np.where(masks, np.uint8(250), background[None, :, :])
    return frames, background, masks


def write_pgm(path: str, frame: np.ndarray) -> None:
    h, w = frame.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(frame, dtype=np.uint8).tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Parse a P5 PGM with a plain 'P5 w h 255' header (as loire writes it)."""
    with open(path, "rb") as fh:
        data = fh.read()
    parts = data.split(maxsplit=4)
    if len(parts) < 5 or parts[0] != b"P5" or parts[3] != b"255":
        raise ValueError(f"{path}: not an 8-bit P5 PGM")
    w, h = int(parts[1]), int(parts[2])
    raster = data[len(data) - w * h:]
    if len(data) < w * h or len(raster) != w * h:
        raise ValueError(f"{path}: truncated raster")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def write_inputs(name: str, seed: int, cfg: dict, work: str) -> None:
    """Make a workload's inputs: the files the CLI reads go under *work*;
    the batch problems are only generated, since the batch process
    regenerates them from the seed."""
    if name == "bgmodel-video":
        frames, _, _ = video(seed, cfg)
        os.makedirs(os.path.join(work, "frames"), exist_ok=True)
        for j, frame in enumerate(frames):
            write_pgm(os.path.join(work, "frames", f"f_{j:04d}.pgm"), frame)
    elif name == "regress-csv":
        a, y, _, _ = csv_problem(seed, cfg)
        write_csv(os.path.join(work, "data.csv"), a, y)
    elif name == "regress-batch":
        for _ in batch_problems(seed, cfg):
            pass


def detection_f(detected: np.ndarray, truth: np.ndarray) -> float:
    """F-measure of boolean detections, with DR = 1 when nothing is planted,
    Pre = 1 when nothing is claimed and F = 0 when DR + Pre = 0."""
    tp = int(np.count_nonzero(detected & truth))
    n_truth = int(np.count_nonzero(truth))
    n_det = int(np.count_nonzero(detected))
    dr = tp / n_truth if n_truth else 1.0
    pre = tp / n_det if n_det else 1.0
    return 2.0 * dr * pre / (dr + pre) if dr + pre > 0 else 0.0


def non_increasing(trace, rel: float = 1e-12) -> bool:
    """True when each objective value is at most the previous one, up to
    rounding: f[k+1] - f[k] <= rel * max(1, |f[k]|)."""
    f = np.asarray(trace, dtype=np.float64)
    if f.size < 2:
        return True
    return bool(np.all(np.diff(f) <= rel * np.maximum(1.0, np.abs(f[:-1]))))


def check_bem(a, y, x, b, support, objective_trace, iterations) -> list[str]:
    """Check a two-stage (appBEM) result against its contract; return the problems.

    x is a least-squares fit on the rows outside the support (normal
    equations hold there), b equals y - A x on the support and 0 elsewhere,
    and the stage-1 objective trace never increases.
    """
    m, n = a.shape
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    idx = np.asarray(support, dtype=np.int64)
    problems = []
    if x.shape != (n,) or b.shape != (m,):
        return [f"shapes x{x.shape} b{b.shape}, expected ({n},) and ({m},)"]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(b))):
        return ["non-finite x or b"]
    if idx.size and (idx[0] < 0 or idx[-1] >= m or np.any(np.diff(idx) <= 0)):
        return ["support is not a sorted set of row indices"]
    clean = np.ones(m, dtype=bool)
    clean[idx] = False
    resid = y - a @ x
    scale = 1.0 + float(np.max(np.abs(y)))
    if np.any(np.abs(b[clean]) > 0) or np.any(np.abs(b[idx] - resid[idx]) > 1e-9 * scale):
        problems.append("b is not y - A x on the support and 0 elsewhere")
    if clean.any():
        grad = np.linalg.norm(a[clean].T @ resid[clean])
        if grad > 1e-9 * np.linalg.norm(a[clean]) * (1.0 + np.linalg.norm(y[clean])):
            problems.append(f"refit violates the normal equations (|A'r| = {grad:.3g})")
    if iterations < 1:
        problems.append(f"iterations={iterations}")
    if not non_increasing(objective_trace):
        problems.append("objective trace increases")
    return problems
