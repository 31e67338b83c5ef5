"""Outlier-support estimators built on the shrinkage solver.

`app_bem` detects the outlier rows with the l1 solver, drops them, and
refits the clean rows by least squares (`linalg.clean_solve`).
`bernoulli_oracle` certifies the minimal outlier support by exhaustive
enumeration and is meant for small verification instances only.  A support
is a boolean mask over the rows; BemSolution keeps the flagged rows as
sorted 0-based indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import (as_matrix, as_system, as_vector, check_zero_tol, clean_solve, data_norm,
                     is_count, range_factors)
from .regression import LoireConfig, LoireSolution, _loire_solve

ENUMERATION_CAP = 10**6
# the default support cutoff, as a fraction of max |y|
ZERO_TOL_FRAC = 1e-6


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
        if not self.t >= 0:
            raise ValueError(f"residual radius t={self.t} must be nonnegative")
        if not is_count(self.max_support, 0):
            raise ValueError(f"max_support={self.max_support} must be nonnegative and an integer")


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


def _as_data(y) -> np.ndarray:
    """*y* validated as a matrix when 2-d, else as a vector: finite, not empty."""
    y = np.asarray(y)
    return as_matrix(y) if y.ndim == 2 else as_vector(y)


def default_zero_tol(y) -> float:
    """Support-detection cutoff ZERO_TOL_FRAC * max |entry| of a vector or matrix."""
    return _zero_tol(_as_data(y))


def _zero_tol(y: np.ndarray) -> float:
    """`default_zero_tol` of a validated array, which it reads without writing |y|."""
    return ZERO_TOL_FRAC * max(float(y.max()), -float(y.min()))


def detect_support(b: np.ndarray, zero_tol: float) -> np.ndarray:
    """The support of a vector or matrix *b*: the boolean mask |b| > zero_tol."""
    return np.abs(_as_data(b)) > check_zero_tol(zero_tol)


def enumeration_count(m: int, max_support: int) -> int:
    """Number of supports of size <= max_support among m rows.

    Raises ValueError as soon as the running total passes ENUMERATION_CAP, so
    a refusal costs a few terms however large m is.
    """
    total = 0
    for k in range(min(max_support, m) + 1):
        total += math.comb(m, k)
        if total > ENUMERATION_CAP:
            raise ValueError(f"more than {ENUMERATION_CAP} candidate supports exceed the "
                             "enumeration cap; reduce the row count or max_support")
    return total


def app_bem(a, y, cfg: LoireConfig, zero_tol: float | None = None) -> BemSolution:
    """Two-stage estimate: shrinkage-based support detection, then clean refit.

    The stage-1 solve and the refit share one validation and one
    factorization of A: the refit is the clean-row fit `_loire_solve`
    returns, taken on the flagged rows, which reuses the finish's solve when
    its latest attempt set apart exactly those rows.
    """
    a, y = as_system(a, y)
    zero_tol = _zero_tol(y) if zero_tol is None else check_zero_tol(zero_tol)
    stage1, fit = _loire_solve(a, y, cfg)
    flagged = np.abs(stage1.b) > zero_tol
    if flagged.all():
        raise AllRowsOutliers("all rows flagged as outliers; estimation impossible")
    rows = np.flatnonzero(flagged)
    x = fit(rows)[0](np.where(flagged, 0.0, y))  # z = y on the clean rows, 0 on the flagged
    # b is formed once the refit's temporaries are freed and reuses their
    # heap space; formed among them it pins the heap top (+3 MB peak for a
    # later solve on 50000 x 20)
    b = y - a @ x
    b[~flagged] = 0.0
    return BemSolution(support=tuple(rows.tolist()), x=x, b=b, loire=stage1)


def bernoulli_oracle(a, y, cfg: OracleConfig) -> BemSolution:
    """Certified minimal outlier support by exhaustive enumeration.

    Candidate supports are visited in order of increasing size, ties broken
    lexicographically; the first one whose complement refit leaves residual
    norm <= t wins.  Refused by enumeration_count above ENUMERATION_CAP
    candidates.
    """
    a, y = as_system(a, y)
    data_norm(y)  # every solve refuses y whose ||y||^2 over- or underflows
    m = y.shape[0]
    max_support = min(cfg.max_support, m)
    enumeration_count(m, max_support)
    factors = range_factors(a)
    for k in range(max_support + 1):
        for cand in combinations(range(m), k):
            rows = np.array(cand, dtype=np.intp)
            clean = np.ones(m, dtype=bool)
            clean[rows] = False
            solve = clean_solve(a, factors, rows)[0]
            x = solve(np.where(clean, y, 0.0))
            r = y - a @ x
            # the residual y - A x - b: r on the clean rows, 0 on the flagged
            if float(np.linalg.norm(np.where(clean, r, 0.0))) <= cfg.t:
                r[clean] = 0.0  # b: y - A x on the flagged rows
                return BemSolution(support=cand, x=x, b=r, loire=None)
    raise InfeasibleRadius(f"infeasible at this t: no support of size <= {max_support} "
                           f"leaves residual within {cfg.t}")
