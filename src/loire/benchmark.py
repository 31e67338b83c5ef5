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

from .linalg import (GAP_TOL, ShrinkRun, _shrink_project, as_system, least_squares_solve,
                     range_projector)
from .regression import LoireConfig


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
    true_support: np.ndarray  # the boolean mask of the drawn spikes


def generate_sim(spec: SimSpec) -> SimInstance:
    """Draw one instance; deterministic for a fixed spec."""
    rng = np.random.default_rng(spec.seed)
    n, r = spec.n, spec.rank
    p = rng.uniform(0.0, 1.0, size=(n, r))
    l = p @ p.T
    g = rng.uniform(0.0, spec.dense_noise_scale, size=(n, n))
    mask = rng.random(size=(n, n)) < spec.spike_density
    b_true = np.where(mask, spec.spike_amplitude * rng.uniform(0.0, 1.0, size=(n, n)), 0.0)
    return SimInstance(y=l + g + b_true, l=l, g=g, b_true=b_true, true_support=mask)


@dataclass(frozen=True)
class DetectionMetrics:
    tp: int
    fn: int
    fp: int
    dr: float
    pre: float
    f: float


def compute_metrics(detected: np.ndarray, truth: np.ndarray) -> DetectionMetrics:
    """Detection rate, precision, and F-measure over corrupted-entry detection.

    Both supports are boolean masks of the same shape; anything else raises
    TypeError.  Empty-denominator conventions: DR = 1 when there is nothing
    to find, Pre = 1 when nothing was claimed, F = 0 when DR + Pre = 0.
    """
    if not all(isinstance(s, np.ndarray) and s.dtype == bool for s in (detected, truth)) \
            or detected.shape != truth.shape:
        raise TypeError("compute_metrics takes two boolean masks of the same shape")
    tp = int(np.count_nonzero(detected & truth))
    fn = int(np.count_nonzero(truth)) - tp
    fp = int(np.count_nonzero(detected)) - tp
    dr = tp / (tp + fn) if tp + fn > 0 else 1.0
    pre = tp / (tp + fp) if tp + fp > 0 else 1.0
    f = 2.0 * dr * pre / (dr + pre) if dr + pre > 0 else 0.0
    return DetectionMetrics(tp=tp, fn=fn, fp=fp, dr=dr, pre=pre, f=f)


def baseline_ols(a, y) -> np.ndarray:
    """Non-robust least-squares reference."""
    return least_squares_solve(a, y)


@dataclass
class LadSolution(ShrinkRun):
    """b is the split variable z, lam the ADMM penalty rho, objective_trace
    ||z||_1 + (rho/2) ||y - A x - z||^2, tol the stop on ||r|| and ||Δz||,
    and gap the relative duality gap of x last measured; after a vertex step
    x is that vertex, b = y - A x and gap its own certificate's."""

    x: np.ndarray


def _lad_vertex(a: np.ndarray, y: np.ndarray, x: np.ndarray):
    """The LP vertex beside the LAD fit x, when it is provably optimal.

    The basis B is the n rows of smallest |y - A x|; x_B solves A_B x = y_B.
    With r = y - A x_B, d_N = sign(r_N) and d_B solving A_Bᵀ d_B = -A_Nᵀ d_N,
    d is dual feasible (Aᵀd = 0) when |d_B| <= 1, and then yᵀd = ||r||_1
    proves x_B optimal.  Both systems are solved by `np.linalg.lstsq`, whose
    rank rule refuses a singular A_B.  Returns (x_B, r, relative gap), or
    None when A_B is rank-deficient, |d_B| > 1, or x_B fits worse than x.
    """
    m, n = a.shape
    if m < n:
        return None
    r = a @ x  # the one residual buffer, then d: two arrays of y's size
    np.subtract(y, r, out=r)
    np.abs(r, out=r)
    f = float(r.sum())
    basis = np.sort(np.argpartition(r, n - 1)[:n])
    a_b = a[basis]
    x_b, _, rank, _ = np.linalg.lstsq(a_b, y[basis], rcond=None)
    if rank < n:
        return None
    np.matmul(a, x_b, out=r)
    np.subtract(y, r, out=r)
    d = np.abs(r)
    f_b = float(d.sum())
    np.sign(r, out=d)
    d[basis] = 0.0
    d[basis] = np.linalg.lstsq(a_b.T, -(a.T @ d), rcond=None)[0]
    if not (np.all(np.abs(d[basis]) <= 1.0) and f_b <= f):  # NaN fails
        return None
    return x_b, r, ((f_b - float(y @ d)) / f_b if f_b > 0.0 else 0.0)


def baseline_lad(a, y, max_iter: int = 5000) -> LadSolution:
    """Least-absolute-deviations fit min_x ||y - A x||_1 by ADMM splitting.

    Splits z = y - A x and runs the loire solvers' shrink-project loop
    (linalg._shrink_project) with its scaled dual on: the x-update is a
    least-squares fit through the range projector, the z-update a soft
    threshold at 1/rho.  rho is the default penalty weight of the loire
    solvers (linalg._mad_lambda) on the first least-squares residual
    y - P(y), so it equals default_lambda(a, y).  The run stops when a dual
    certificate proves ||y - A x||_1 within GAP_TOL = 1e-4 of the LP optimum
    (linalg._l1_gap, every 5 steps), or when ||r|| and ||Δz|| are both at
    most LoireConfig's default tol 1e-10 ||y||; both tests are scale-free,
    so scaling y by s scales x by s.  After a gap stop one vertex
    (crossover) step returns the exact LP optimum when its dual proves it
    (`_lad_vertex`).  Non-convergence is flagged on the result, not raised.
    """
    cfg = LoireConfig(max_iter=max_iter)
    a, y = as_system(a, y)
    project, x, null = range_projector(a)
    run = _shrink_project(y, project, cfg, dual=null)
    if run.gap is not None and run.gap <= GAP_TOL:  # a gap stop
        vertex = _lad_vertex(a, y, x)
        if vertex is not None:
            x, run.b, run.gap = vertex
    return LadSolution(**vars(run), x=x)
