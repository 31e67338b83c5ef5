"""Outlier-support estimators built on the shrinkage solver.

`app_bem` detects the outlier rows with the l1 solver, drops them, and
refits by least squares from the stage-1 factors of A.  `bernoulli_oracle`
certifies the minimal outlier support by exhaustive enumeration and is meant
for small verification instances only.  A support is a boolean mask over the
rows; BemSolution keeps the flagged rows as sorted 0-based indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .linalg import (as_matrix, as_system, as_vector, check_zero_tol, downdate,
                     least_squares_solve, range_factors)
from .regression import LoireConfig, LoireSolution, _loire_solve

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
        if not self.t >= 0:
            raise ValueError(f"residual radius t={self.t} must be nonnegative")
        if not self.max_support >= 0:
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


def _as_data(y) -> np.ndarray:
    """*y* validated as a matrix when 2-d, else as a vector: finite, not empty."""
    y = np.asarray(y)
    return as_matrix(y) if y.ndim == 2 else as_vector(y)


def default_zero_tol(y) -> float:
    """Support-detection cutoff 1e-6 * max |entry| of a vector or matrix."""
    return _zero_tol(_as_data(y))


def _zero_tol(y: np.ndarray) -> float:
    """`default_zero_tol` of a validated array."""
    return 1e-6 * float(np.max(np.abs(y)))


def detect_support(b: np.ndarray, zero_tol: float) -> np.ndarray:
    """The support of a vector or matrix *b*: the boolean mask |b| > zero_tol."""
    return _support(_as_data(b), check_zero_tol(zero_tol))


def _support(b: np.ndarray, zero_tol: float) -> np.ndarray:
    """`detect_support` of a validated array and a checked cutoff."""
    return np.abs(b) > zero_tol


def _refit(a: np.ndarray, y: np.ndarray, clean: np.ndarray, factors, solve=None) -> np.ndarray:
    """Least-squares x on the rows where *clean* is True.

    *factors* are the `range_factors` U S Vᵀ of A.  The fit downdates them
    (`downdate`), x = V S⁻¹ G⁻¹ U_cᵀ y_c, unless that refuses: then
    `least_squares_solve` fits A[clean], whose minimum-norm rule covers a
    rank-deficient A and other rows that carry a direction of A; x = 0 when
    no row is clean.  *solve*, when given, is the `downdate` of the other
    rows, already taken.
    """
    if solve is None:
        solve = downdate(factors, np.flatnonzero(~clean))
    if solve is not None:
        return solve(np.where(clean, y, 0.0))  # U_cᵀ y_c as Uᵀ z, z = y_c and 0
    return least_squares_solve(a[clean], y[clean]) if clean.any() else np.zeros(a.shape[1])


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
    `range_factors` of A, and, when stage 1 ended on a certified minimizer
    whose outlier rows are the flagged rows, one `downdate`.
    """
    a, y = as_system(a, y)
    zero_tol = _zero_tol(y) if zero_tol is None else check_zero_tol(zero_tol)
    factors = range_factors(a)
    stage1, certified = _loire_solve(a, y, cfg, factors)
    flagged = _support(stage1.b, zero_tol)
    if flagged.all():
        raise AllRowsOutliers("all rows flagged as outliers; estimation impossible")
    # after a certified finish every flagged row is among its outlier rows,
    # so when as many rows are flagged they are those rows, whose downdate
    # the finish took
    solve = None
    if certified is not None and certified[0] == np.count_nonzero(flagged):
        solve = certified[1]
    x = _refit(a, y, ~flagged, factors, solve)
    # b is formed once the refit's temporaries are freed and reuses their
    # heap space; formed among them it pins the heap top (+3 MB peak for a
    # later solve on 50000 x 20)
    b = y - a @ x
    b[~flagged] = 0.0
    return BemSolution(support=tuple(np.flatnonzero(flagged).tolist()), x=x, b=b, loire=stage1)


def bernoulli_oracle(a, y, cfg: OracleConfig) -> BemSolution:
    """Certified minimal outlier support by exhaustive enumeration.

    Candidate supports are visited in order of increasing size, ties broken
    lexicographically; the first one whose complement refit leaves residual
    norm <= t wins.  Refused by enumeration_count above ENUMERATION_CAP
    candidates.
    """
    a, y = as_system(a, y)
    m = y.shape[0]
    max_support = min(cfg.max_support, m)
    enumeration_count(m, max_support)
    factors = range_factors(a)
    for k in range(max_support + 1):
        for cand in combinations(range(m), k):
            clean = np.ones(m, dtype=bool)
            clean[list(cand)] = False
            x = _refit(a, y, clean, factors)
            r = y - a @ x
            # the residual y - A x - b: r on the clean rows, 0 on the flagged
            if float(np.linalg.norm(np.where(clean, r, 0.0))) <= cfg.t:
                r[clean] = 0.0  # b: y - A x on the flagged rows
                return BemSolution(support=cand, x=x, b=r, loire=None)
    raise InfeasibleRadius(f"infeasible at this t: no support of size <= {max_support} "
                           f"leaves residual within {cfg.t}")
