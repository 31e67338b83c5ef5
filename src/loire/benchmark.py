"""Synthetic corruption benchmark: generators, detection metrics, baselines.

Instances follow the square-matrix protocol: a low-rank part L = P P^T with
P an n x r uniform(0,1) factor, dense uniform noise G, and sparse positive
spikes B.  All randomness flows through numpy's default_rng (PCG64) seeded
from the spec, so instances are bit-reproducible across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (_mad_lambda, as_matrix, as_system, check_solver_settings, check_zero_tol,
                     data_norm, least_squares_solve, range_projector, soft_threshold)


@dataclass(frozen=True)
class SimSpec:
    """Generator parameters; the seed fully determines the instance."""

    n: int
    rank_frac: float = 0.05
    dense_noise_scale: float = 2.0
    spike_amplitude: float = 10.0
    spike_density: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not self.n >= 1:
            raise ValueError(f"n={self.n} must be positive")
        if not 0 < self.rank_frac <= 1:
            raise ValueError(f"rank_frac={self.rank_frac} must lie in (0, 1]")
        if not 0 <= self.dense_noise_scale < math.inf:
            raise ValueError(f"dense_noise_scale={self.dense_noise_scale} must be finite and >= 0")
        if not 0 <= self.spike_amplitude < math.inf:
            raise ValueError(f"spike_amplitude={self.spike_amplitude} must be finite and >= 0")
        if not 0 <= self.spike_density <= 1:
            raise ValueError(f"spike_density={self.spike_density} must lie in [0, 1]")
        if not self.seed >= 0:
            raise ValueError(f"seed={self.seed} must be nonnegative")

    @property
    def rank(self) -> int:
        return max(1, math.ceil(self.rank_frac * self.n))


@dataclass
class SimInstance:
    """Observed matrix and its ground-truth components (y = l + g + b_true)."""

    y: np.ndarray
    l: np.ndarray
    g: np.ndarray
    b_true: np.ndarray
    true_support: set


def generate_sim(spec: SimSpec) -> SimInstance:
    """Draw one instance; deterministic for a fixed spec."""
    rng = np.random.default_rng(spec.seed)
    n, r = spec.n, spec.rank
    p = rng.uniform(0.0, 1.0, size=(n, r))
    l = p @ p.T
    g = rng.uniform(0.0, spec.dense_noise_scale, size=(n, n))
    mask = rng.random(size=(n, n)) < spec.spike_density
    b_true = np.where(mask, spec.spike_amplitude * rng.uniform(0.0, 1.0, size=(n, n)), 0.0)
    support = {(int(i), int(j)) for i, j in zip(*np.nonzero(mask))}
    return SimInstance(y=l + g + b_true, l=l, g=g, b_true=b_true, true_support=support)


@dataclass(frozen=True)
class DetectionMetrics:
    tp: int
    fn: int
    fp: int
    dr: float
    pre: float
    f: float


def compute_metrics(detected: set, truth: set) -> DetectionMetrics:
    """Detection rate, precision, and F-measure over corrupted-entry detection.

    Empty-denominator conventions: DR = 1 when there is nothing to find,
    Pre = 1 when nothing was claimed, F = 0 when DR + Pre = 0.
    """
    detected = set(detected)
    truth = set(truth)
    tp = len(detected & truth)
    fn = len(truth - detected)
    fp = len(detected - truth)
    dr = tp / (tp + fn) if tp + fn > 0 else 1.0
    pre = tp / (tp + fp) if tp + fp > 0 else 1.0
    f = 2.0 * dr * pre / (dr + pre) if dr + pre > 0 else 0.0
    return DetectionMetrics(tp=tp, fn=fn, fp=fp, dr=dr, pre=pre, f=f)


def detect_matrix_support(b, zero_tol: float) -> set:
    """Positions (i, j) with |B_ij| > zero_tol."""
    b = as_matrix(b)
    ii, jj = np.nonzero(np.abs(b) > check_zero_tol(zero_tol))
    return {(int(i), int(j)) for i, j in zip(ii, jj)}


def baseline_ols(a, y) -> np.ndarray:
    """Non-robust least-squares reference."""
    return least_squares_solve(a, y)


@dataclass
class LadSolution:
    x: np.ndarray
    iterations: int
    converged: bool


def baseline_lad(a, y, max_iter: int = 5000) -> LadSolution:
    """Least-absolute-deviations fit min_x ||y - A x||_1 by ADMM splitting.

    Splits z = y - A x; the x-update is a least-squares fit through the
    range projector, the z-update a soft threshold at 1/rho.  rho is the
    default penalty weight of the loire solvers (linalg._mad_lambda) on the
    first least-squares residual y - P(y), and the run stops when ||r|| and
    ||Δz|| are both at most 1e-10 ||y||, so scaling y by s scales x by s.
    Non-convergence is flagged on the result, not raised.
    """
    check_solver_settings(None, None, max_iter)
    a, y = as_system(a, y)
    stop = 1e-10 * data_norm(y)
    project, x = range_projector(a)
    z = np.zeros_like(y)
    u = np.zeros_like(y)
    thresh = None
    for it in range(1, max_iter + 1):
        ax = y - z + u
        project(ax)
        v = y - ax + u
        if thresh is None:  # z = u = 0, so v is the least-squares residual
            thresh = 1.0 / _mad_lambda(y, v, np.empty_like(y))
        z_new = soft_threshold(v, thresh)
        r_primal = y - ax - z_new
        u = u + r_primal
        if np.linalg.norm(r_primal) <= stop and np.linalg.norm(z_new - z) <= stop:
            return LadSolution(x=x, iterations=it, converged=True)
        z = z_new
    return LadSolution(x=x, iterations=max_iter, converged=False)


REPORT_COLUMNS = ("method", "N", "seed", "lambda", "tol", "iterations",
                  "DR", "Pre", "F", "wall_time_s")


@dataclass
class BenchmarkReport:
    """One benchmark run; serializes losslessly to the report.csv row schema."""

    method: str
    spec: SimSpec
    metrics: DetectionMetrics
    wall_time_s: float
    lam: float
    tol: float
    iterations: int

    def to_row(self) -> dict:
        return {
            "method": self.method,
            "N": str(self.spec.n),
            "seed": str(self.spec.seed),
            "lambda": repr(self.lam),
            "tol": repr(self.tol),
            "iterations": str(self.iterations),
            "DR": repr(self.metrics.dr),
            "Pre": repr(self.metrics.pre),
            "F": repr(self.metrics.f),
            "wall_time_s": repr(self.wall_time_s),
        }

    @classmethod
    def from_row(cls, row: dict) -> "BenchmarkReport":
        """Rebuild from a report.csv row; generator fields beyond (N, seed)
        are not part of the row schema and come back as SimSpec defaults."""
        tp = fn = fp = 0  # counts are not serialized; rates are
        return cls(
            method=row["method"],
            spec=SimSpec(n=int(row["N"]), seed=int(row["seed"])),
            metrics=DetectionMetrics(tp=tp, fn=fn, fp=fp, dr=float(row["DR"]),
                                     pre=float(row["Pre"]), f=float(row["F"])),
            wall_time_s=float(row["wall_time_s"]),
            lam=float(row["lambda"]),
            tol=float(row["tol"]),
            iterations=int(row["iterations"]),
        )
