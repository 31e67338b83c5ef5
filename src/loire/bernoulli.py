"""Outlier-support estimators built on the shrinkage solver.

`app_bem` detects the outlier rows with the l1 solver, drops them, and
refits by least squares.  `bernoulli_oracle` certifies the minimal outlier
support by exhaustive enumeration and is meant for small verification
instances only.  Row indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import as_matrix, as_vector, least_squares_solve
from .regression import LoireConfig, LoireSolution, loire_solve

ENUMERATION_CAP = 10**6


class AllRowsOutliers(ValueError):
    """Every measurement was flagged as an outlier; no rows left to refit."""


class InfeasibleRadius(ValueError):
    """No support within the size cap meets the residual radius."""


@dataclass(frozen=True)
class OracleConfig:
    """Residual radius t and a cap on the enumerated support size."""

    t: float
    max_support: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"t={self.t} must be nonnegative")
        if self.max_support < 0:
            raise ValueError(f"max_support={self.max_support} must be nonnegative")


@dataclass
class BemSolution:
    """Detected outlier rows, refit coefficients, and audit trail.

    b is the implied outlier vector: y - A x on the support, 0 elsewhere.
    loire carries the stage-1 solver result when the two-stage path was used.
    """

    support: tuple[int, ...]
    x: np.ndarray
    b: np.ndarray
    loire: LoireSolution | None = None


def default_zero_tol(y) -> float:
    """Support-detection cutoff 1e-6 * (1 + max |entry|) of a vector or matrix."""
    y = np.asarray(y, dtype=np.float64)
    if y.size == 0 or not np.all(np.isfinite(y)):
        raise ValueError("zero-tol rule needs a nonempty array of finite entries")
    return 1e-6 * (1.0 + float(np.max(np.abs(y))))


def detect_support(sol: LoireSolution, zero_tol: float) -> tuple[int, ...]:
    """Indices i with |b_i| > zero_tol, sorted ascending."""
    if zero_tol < 0:
        raise ValueError(f"zero_tol={zero_tol} must be nonnegative")
    return tuple(int(i) for i in np.flatnonzero(np.abs(sol.b) > zero_tol))


def _refit(a: np.ndarray, y: np.ndarray, support) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares refit on the rows outside *support*; returns (x, b)."""
    m = y.shape[0]
    clean = np.setdiff1d(np.arange(m), np.asarray(support, dtype=int))
    if clean.size == 0:
        raise AllRowsOutliers("all rows flagged as outliers; estimation impossible")
    x = least_squares_solve(a[clean], y[clean])
    b = np.zeros(m)
    idx = np.asarray(support, dtype=int)
    if idx.size:
        # slice the full residual so y - A x - b is exactly zero on the support
        b[idx] = (y - a @ x)[idx]
    return x, b


def app_bem(a, y, cfg: LoireConfig, zero_tol: float | None = None) -> BemSolution:
    """Two-stage estimate: shrinkage-based support detection, then clean refit."""
    a = as_matrix(a)
    y = as_vector(y)
    if zero_tol is None:
        zero_tol = default_zero_tol(y)
    stage1 = loire_solve(a, y, cfg)
    support = detect_support(stage1, zero_tol)
    x, b = _refit(a, y, support)
    return BemSolution(support=support, x=x, b=b, loire=stage1)


def bernoulli_oracle(a, y, cfg: OracleConfig) -> BemSolution:
    """Certified minimal outlier support by exhaustive enumeration.

    Candidate supports are visited in order of increasing size, ties broken
    lexicographically; the first one whose complement refit leaves residual
    norm <= t wins.  Guarded so the total candidate count stays below 1e6.
    """
    a = as_matrix(a)
    y = as_vector(y)
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a.shape}, y has length {y.shape[0]}")
    m = y.shape[0]
    max_support = min(cfg.max_support, m)
    total = sum(math.comb(m, k) for k in range(max_support + 1))
    if total > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration of {total} supports exceeds the cap of {ENUMERATION_CAP}; "
            "reduce m or max_support")
    rows = np.arange(m)
    for k in range(max_support + 1):
        for cand in combinations(range(m), k):
            clean = np.setdiff1d(rows, np.asarray(cand, dtype=int))
            if clean.size == 0:
                x = np.zeros(a.shape[1])
                resid = 0.0
            else:
                x = least_squares_solve(a[clean], y[clean])
                resid = float(np.linalg.norm(y[clean] - a[clean] @ x))
            if resid <= cfg.t:
                b = np.zeros(m)
                idx = np.asarray(cand, dtype=int)
                if idx.size:
                    # slice the full residual so y - A x - b vanishes exactly
                    # on the accepted support
                    b[idx] = (y - a @ x)[idx]
                return BemSolution(support=tuple(cand), x=x, b=b, loire=None)
    raise InfeasibleRadius(f"infeasible at this t: no support of size <= {max_support} "
                           f"leaves residual within {cfg.t}")


def bernoulli_log_likelihood(outlier_count: int, m: int, p: float) -> float:
    """(m - k) ln p + k ln(1 - p) for k flagged rows out of m.

    p is the probability of a normal measurement and must lie in (1/2, 1);
    the value is strictly decreasing in outlier_count.
    """
    if not 0.5 < p < 1.0:
        raise ValueError(f"p={p} must lie in the open interval (1/2, 1)")
    if not 0 <= outlier_count <= m:
        raise ValueError(f"outlier_count={outlier_count} out of range [0, {m}]")
    return (m - outlier_count) * math.log(p) + outlier_count * math.log(1.0 - p)
