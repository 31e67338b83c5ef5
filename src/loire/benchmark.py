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

from .linalg import as_system, check_solver_settings, data_norm, is_count, range_factors
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
        if not is_count(self.n, 1):
            raise ValueError(f"n={self.n} must be a positive integer")
        if not 0 < self.rank_frac <= 1:
            raise ValueError(f"rank_frac={self.rank_frac} must lie in (0, 1]")
        if not 0 <= self.dense_noise_scale < math.inf:
            raise ValueError(f"dense_noise_scale={self.dense_noise_scale} must be finite and >= 0")
        if not 0 <= self.spike_amplitude < math.inf:
            raise ValueError(f"spike_amplitude={self.spike_amplitude} must be finite and >= 0")
        if not 0 <= self.spike_density <= 1:
            raise ValueError(f"spike_density={self.spike_density} must lie in [0, 1]")
        if not is_count(self.seed, 0):
            raise ValueError(f"seed={self.seed} must be a nonnegative integer")

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


@dataclass
class LadSolution:
    """A least-absolute-deviations fit: x, b = y - A x, ||b||_1 at each vertex
    visited, the vertex count, whether the last vertex's dual proved it optimal,
    and that dual's gap (f - yᵀd) / f, f = ||b||_1, with d scaled into
    |d| <= 1.  The gap is an upper bound on (f - f*) / f, f* the optimum, and
    at a cap it can be loose: on a 40-row line fit with three gross outliers,
    a cap of one vertex reports 0.997 while f is 7.7% above f*."""

    x: np.ndarray
    b: np.ndarray
    objective_trace: list[float]
    iterations: int
    converged: bool
    gap: float


# BASIS_CUT: least norm of a start-basis U-row orthogonalized against those
# in (absolute, as ||u_i|| <= 1); EDGE_CUT: |w_i| <= EDGE_CUT max|δ| is 0 but
# for rounding, no breakpoint (U_B would be singular); DUAL_TOL: |d_B| <= 1 +
# DUAL_TOL is optimal, as an exact |d_j| = 1 rounds either way and pivots on
# rounding cycle; ZERO_TOL: |r_i| <= ZERO_TOL ||A x||_2 is fit exactly
BASIS_CUT, EDGE_CUT, DUAL_TOL, ZERO_TOL = 1e-6, 1e-9, 1e-10, 1e-12


def _start_basis(base: np.ndarray, mix: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The first k rows in *order* whose rows base[i] @ mix of U are
    independent (Gram-Schmidt, projected twice, against BASIS_CUT)."""
    q = np.empty((0, mix.shape[1]))  # orthonormal rows spanning the U-rows taken
    basis = []
    for i in order:
        if len(basis) == mix.shape[1]:
            break
        u_i = base[i] @ mix
        v = u_i - (q @ u_i) @ q
        v -= (q @ v) @ q
        norm = math.sqrt(float(v @ v))
        if norm > BASIS_CUT:
            q = np.vstack([q, v / norm])
            basis.append(i)
    return np.array(basis, dtype=np.intp)


def _breakpoints(t: np.ndarray, rows: np.ndarray, w: np.ndarray, need: float) -> np.ndarray:
    """Positions of the breakpoints *t* of the ascending *rows*, by t and then
    row, up to the first at which the running sum of |w_row| reaches *need*
    (or all).  Sorts only a prefix, cut by a partition and grown fourfold."""
    p = 64
    while True:
        sel = (np.flatnonzero(t <= np.partition(t, p - 1)[p - 1]) if p < t.size
               else np.arange(t.size))
        sel = sel[np.argsort(t[sel], kind="stable")]  # sel ascends, as rows do
        hit = int(np.searchsorted(np.cumsum(np.abs(w[rows[sel]])), need))
        if hit < sel.size or sel.size == t.size:
            return sel[:hit + 1]
        p *= 4


def _vertex(a: np.ndarray, y: np.ndarray, factors, basis: np.ndarray) -> np.ndarray:
    """x = V S⁻¹ U_B⁻¹ y_B, U_B the rows *basis* of U = base @ mix, fitting
    those rows, refined once on A_B x = y_B so that U's rounding does not show."""
    base, mix, vs_inv = factors
    ub = base[basis] @ mix
    x = vs_inv @ np.linalg.solve(ub, y[basis])
    x += vs_inv @ np.linalg.solve(ub, y[basis] - a[basis] @ x)
    return x


def baseline_lad(a, y, max_iter: int = LoireConfig.max_iter) -> LadSolution:
    """min_x ||y - A x||_1, exact, by edge descent over the LP's vertices
    (Barrodale & Roberts 1973), on the `range_factors` A = U S Vᵀ with
    x = V S⁻¹ z and U applied as base @ mix, so a rank-deficient A needs no
    special case.

    A vertex fits a basis B of k rows, at first the rows of least |r| at the
    least-squares fit.  A row outside B has the sign s of its residual (+-1
    if fit exactly, at first its least-squares residual's); the vertex is
    optimal when U_Bᵀ d_B = -U_Nᵀ s_N gives |d_B| <= 1.  Else row j of largest
    |d_j| leaves along w = U δ, U_B δ = -sign(d_j) e_j, on which ||r - t w||_1
    falls at slope 1 - |d_j|; a row with s_i w_i > 0 adds 2|w_i| at r_i / w_i,
    and the first such breakpoint (by t, then row) where the slope reaches 0
    enters, the rows passed flipping sign.  After a step that did not lower
    ||r||_1, j is the lowest row with |d_j| > 1 (Bland's rule).  Each test is
    a sign or a ratio of residuals, so scaling y by s scales x by s.  The
    start vertex is iteration 1, each pivot adds one, and a capped run is
    flagged, not raised.
    """
    check_solver_settings(None, None, max_iter)
    a, y = as_system(a, y)
    data_norm(y)  # every solve refuses y whose ||y||^2 over- or underflows
    factors = base, mix, _ = range_factors(a)
    r = y - base @ (mix @ (mix.T @ (base.T @ y)))  # the least-squares residual
    basis = _start_basis(base, mix, np.argsort(np.abs(r), kind="stable"))
    s = np.ones(y.shape, np.int8)  # signs, held in a byte each
    s[r < 0.0] = -1  # the least-squares side, kept by a row the vertex fits exactly
    w, scratch = np.empty_like(y), np.empty_like(y)
    np.matmul(a, _vertex(a, y, factors, basis), out=w)
    np.subtract(y, w, out=r)
    r[np.abs(r, out=scratch) <= ZERO_TOL * float(np.linalg.norm(w))] = 0.0
    s[r > 0.0] = 1
    s[r < 0.0] = -1
    s[basis], r[basis] = 0, 0.0
    g = mix.T @ (base.T @ s)  # U_Nᵀ s_N, kept current as rows change sides and signs
    trace, step, converged = [], None, False
    while True:
        inv = np.linalg.inv(base[basis] @ mix)
        zero = ZERO_TOL * float(np.linalg.norm(inv @ y[basis]))  # ||A x||_2 = ||z||
        r[np.abs(r, out=scratch) <= zero] = 0.0  # fit exactly, but for rounding
        trace.append(float(scratch.sum()))
        bland = step is not None and (step == 0.0 or trace[-1] >= trace[-2])
        d = -(inv.T @ g)
        over = np.abs(d) > 1.0 + DUAL_TOL
        if trace[-1] == 0.0 or not over.any():
            converged = True
            break
        if len(trace) == max_iter:
            break
        j = np.flatnonzero(over)[np.argmin(basis[over])] if bland else np.argmax(np.abs(d))
        sigma = -math.copysign(1.0, d[j])
        delta = sigma * inv[:, j]
        np.multiply(s, np.matmul(base, mix @ delta, out=w), out=scratch)
        rows = np.flatnonzero(scratch > EDGE_CUT * float(np.abs(delta).max()))
        if not rows.size:  # |d_j| - 1 is rounding: no edge descends
            break
        t = r[rows]
        np.maximum(np.divide(t, w[rows], out=t), 0.0, out=t)
        path = _breakpoints(t, rows, w, 0.5 * (abs(d[j]) - 1.0))
        enter, passed, step = rows[path[-1]], rows[path[:-1]], t[path[-1]]
        r -= np.multiply(w, step, out=scratch)
        g -= mix.T @ (2.0 * (base[passed].T @ s[passed]) + s[enter] * base[enter])
        s[passed] *= -1
        leave, basis[j] = basis[j], enter
        s[enter], s[leave] = 0, -sigma
        g -= sigma * (base[leave] @ mix)
        r[basis] = 0.0
    x = _vertex(a, y, factors, basis)
    b = np.subtract(y, np.matmul(a, x, out=r), out=r)
    np.abs(b, out=scratch)
    scratch[scratch <= zero] = 0.0
    f = float(scratch.sum())
    np.copyto(w, s)  # the dual off the basis, as floats
    d = -(inv.T @ (mix.T @ (base.T @ w)))
    yd = (float(y @ w) + float(y[basis] @ d)) / max(1.0, float(np.abs(d).max(initial=0.0)))
    return LadSolution(x, b, trace, len(trace), converged, (f - yd) / f if f > 0.0 else 0.0)
