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

from .linalg import (as_matrix, as_system, as_vector, check_zero_tol,
                     least_squares_solve, range_factors)
from .regression import LoireConfig, LoireSolution, _loire_solve

ENUMERATION_CAP = 10**6

# the least lambda_min(U_cᵀU_c) at which a refit downdates the factors of A:
# its error, eps cond(A) / lambda_min, is then within 2x of a fresh solve's
# eps cond(A) / sqrt(lambda_min)
REFIT_FLOOR = 0.25


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
    return 1e-6 * float(np.max(np.abs(_as_data(y))))


def detect_support(b: np.ndarray, zero_tol: float) -> np.ndarray:
    """The support of a vector or matrix *b*: the boolean mask |b| > zero_tol."""
    return np.abs(_as_data(b)) > check_zero_tol(zero_tol)


def _refit(a: np.ndarray, y: np.ndarray, clean: np.ndarray, factors) -> np.ndarray:
    """Least-squares x on the rows where *clean* is True.

    *factors* are the `range_factors` U S Vᵀ of A.  When A keeps all n
    directions and G = U_cᵀU_c = I - U_oᵀU_o (o the other rows) has
    lambda_min(G) >= REFIT_FLOOR, the fit downdates them (Golub & Van Loan,
    Matrix Computations, section 6.5): x = V S⁻¹ G⁻¹ U_cᵀ y_c.  The n x n
    eigh(U_oᵀU_o) = Q sigma² Qᵀ gives U_o's squared singular values and right
    vectors without an SVD of U_o, and G = I - Q sigma² Qᵀ, so
    lambda_min(G) = 1 - sigma_max² and G⁻¹ = I + Q (sigma² / (1 - sigma²)) Qᵀ.
    Otherwise `least_squares_solve` fits A[clean], whose minimum-norm rule
    covers a rank-deficient A and other rows that carry a direction of A;
    x = 0 when no row is clean.
    """
    u, s, vt = factors
    if s.size == a.shape[1]:
        uo = u[~clean]
        sq, q = np.linalg.eigh(uo.T @ uo)  # ascending
        if 1.0 - sq[-1] >= REFIT_FLOOR:
            coef = u.T @ np.where(clean, y, 0.0)  # U_cᵀ y_c
            coef += q @ (sq / (1.0 - sq) * (q.T @ coef))
            return vt.T @ (coef / s)
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
    `range_factors` of A.
    """
    a, y = as_system(a, y)
    zero_tol = default_zero_tol(y) if zero_tol is None else check_zero_tol(zero_tol)
    factors = range_factors(a)
    stage1 = _loire_solve(a, y, cfg, factors)
    flagged = detect_support(stage1.b, zero_tol)
    if flagged.all():
        raise AllRowsOutliers("all rows flagged as outliers; estimation impossible")
    x = _refit(a, y, ~flagged, factors)
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
