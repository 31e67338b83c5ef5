"""Dense linear-algebra primitives shared by every solver.

Matrices are plain float64 numpy arrays in column-major (Fortran) order so
that frame stacking is a contiguous copy; vectors are 1-d float64 arrays.
Constructors reject non-finite entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def as_matrix(a) -> np.ndarray:
    """Validate and return *a* as a column-major float64 matrix."""
    a = np.asfortranarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got ndim={a.ndim}")
    if a.size == 0:
        raise ValueError(f"zero-size matrix of shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def as_vector(y) -> np.ndarray:
    """Validate and return *y* as a 1-d float64 vector."""
    y = np.ascontiguousarray(y, dtype=np.float64)
    if y.ndim != 1:
        raise ValueError(f"expected a 1-d vector, got ndim={y.ndim}")
    if y.size == 0:
        raise ValueError("zero-length vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return y


def as_system(a, y) -> tuple[np.ndarray, np.ndarray]:
    """Validate a linear system: *a* as a matrix, *y* as a vector of as many rows."""
    a, y = as_matrix(a), as_vector(y)
    if a.shape[0] != y.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a.shape}, y has length {y.shape[0]}")
    return a, y


def check_solver_settings(lam: float | None, tol: float | None, max_iter: int) -> None:
    """Every solve's settings rule: lam and tol are None (the default rule) or
    finite and positive, as the shrink threshold is 1/lam; max_iter >= 1."""
    if lam is not None and not 0 < lam < math.inf:
        raise ValueError(f"lam={lam} must be finite and positive")
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"tol={tol} must be finite and positive")
    if not max_iter >= 1:
        raise ValueError(f"max_iter={max_iter} must be at least 1")


def check_zero_tol(zero_tol: float) -> float:
    """The support cut-off rule, zero_tol >= 0 (NaN fails); returns zero_tol."""
    if not zero_tol >= 0:
        raise ValueError(f"zero_tol={zero_tol} must be nonnegative")
    return zero_tol


def data_norm(y: np.ndarray) -> float:
    """||y||_2 (Frobenius for a matrix), without a full-size temporary.

    Raises ValueError when ||y||^2 is not a finite normal float and y is not
    0: a default tol would read inf or 0 and ||Δb|| round to 0, so a solve
    would stop after one step at a wrong answer.
    """
    flat = y.ravel(order="K")  # a view of a validated array
    with np.errstate(over="ignore", under="ignore"):
        sq = float(np.dot(flat, flat))
    if not math.isfinite(sq) or (sq < np.finfo(np.float64).tiny and flat.any()):
        raise ValueError(f"||y||^2 = {sq!r}: float64 overflow or underflow; rescale the data")
    return math.sqrt(sq)


def least_squares_solve(a, y) -> np.ndarray:
    """Minimum-norm x minimizing ||y - A x||_2.

    Uses a rank-revealing SVD solve; directions with singular value below
    max(m, n) * eps * sigma_max are excluded, so rank-deficient systems get
    the Moore-Penrose (minimum-norm) solution.
    """
    a, y = as_system(a, y)
    x, _, _, _ = np.linalg.lstsq(a, y, rcond=None)
    return x


def range_factors(a: np.ndarray):
    """The thin SVD A = U S Vᵀ cut to the numerical range of *a*.

    Directions with singular value at most max(m, n) * eps * sigma_max are
    dropped, the rule of `least_squares_solve`.  Returns (u_r, sigma_r,
    vt_r); A keeps every direction when sigma_r has n entries.
    """
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    keep = s > max(a.shape) * np.finfo(np.float64).eps * s[0]
    return u[:, keep], s[keep], vt[keep]


def range_projector(a: np.ndarray, factors=None):
    """Projector onto the numerical range of *a*, from its `range_factors`.

    *factors* are those of *a* when a caller already holds them, else they
    are computed here.  Returns (project, x, null):
    project(res) overwrites res with A x, where x = vt_rᵀ ((u_rᵀ res) / sigma_r)
    is the minimum-norm fit of res, and leaves that fit in the array x;
    null(d, scratch) overwrites d with d - u_r u_rᵀ d, its part orthogonal to
    the range, through scratch (an array of d's shape) and without touching x.
    """
    ur, sr, vr = range_factors(a) if factors is None else factors
    coef = np.empty(sr.shape[0])
    x = np.zeros(a.shape[1])

    def project(res):
        np.matmul(ur.T, res, out=coef)
        np.divide(coef, sr, out=coef)
        np.matmul(vr.T, coef, out=x)
        np.matmul(a, x, out=res)

    def null(d, scratch):
        np.matmul(ur.T, d, out=coef)
        np.matmul(ur, coef, out=scratch)
        d -= scratch

    return project, x, null


# 1/lam = MAD_NORMAL * max(MAD_C * median|r|, MAD_FLOOR * median|y - median(y)|)
# on the residual r = y - P(y) of the first projection (Hampel's robust scale)
MAD_NORMAL = 1.4826
MAD_C = 3.0
MAD_FLOOR = 0.1


def _median(flat: np.ndarray) -> float:
    """Median of the 1-d array *flat*, which it partitions in place."""
    h = flat.size // 2
    if flat.size % 2:
        flat.partition(h)
        return float(flat[h])
    flat.partition((h - 1, h))
    return 0.5 * (float(flat[h - 1]) + float(flat[h]))


def _mad_lambda(y: np.ndarray, res: np.ndarray, scratch: np.ndarray) -> float:
    """The default penalty weight from the first residual *res* = y - P(y).

    The threshold 1/lam is MAD_NORMAL * max(MAD_C * median|res|,
    MAD_FLOOR * median|y - median(y)|): the uncentred median because the
    shrink thresholds about 0, the floor for noiseless or exactly fitted
    data.  When both terms are 0 the threshold is MAD_NORMAL * MAD_FLOOR *
    max|y|, and lam = 1 when that is 0 too (y = 0) or 1/threshold overflows.
    Every median is taken in *scratch*, an array of y's layout that is
    overwritten.
    """
    flat = scratch.ravel(order="K")  # a view: scratch keeps y's layout
    np.abs(res, out=scratch)
    spread = MAD_C * _median(flat)
    np.copyto(scratch, y)
    np.subtract(y, _median(flat), out=scratch)
    np.abs(scratch, out=scratch)
    thresh = MAD_NORMAL * max(spread, MAD_FLOOR * _median(flat))
    if thresh == 0.0:
        np.abs(y, out=scratch)
        thresh = MAD_NORMAL * MAD_FLOOR * float(scratch.max())
    lam = 1.0 / thresh if thresh > 0.0 else 1.0
    return lam if math.isfinite(lam) else 1.0


@dataclass
class ShrinkRun:
    """What one run of `_shrink_project` did: the final b, the objective at
    each iteration, the iteration count, whether a stop rule was met, the tol
    and lam it applied, and the relative duality gap a run with a dual last
    measured (None without a dual or before its first check).  Each
    iterative solver's result extends it."""

    b: np.ndarray
    objective_trace: list[float]
    iterations: int
    converged: bool
    tol: float
    lam: float
    gap: float | None


# a run with a dual checks its duality gap every GAP_EVERY steps and stops
# once it is at most GAP_TOL relative (the default tolerance of ADMM conic
# solvers such as SCS)
GAP_EVERY = 5
GAP_TOL = 1e-4


def _l1_gap(y, r, z, u, rho, null, v, scratch) -> float:
    """Relative duality gap of min ||y - A x||_1 at the step's x, where
    y - A x = r + z: f = ||r + z||_1 against the dual max yᵀd subject to
    Aᵀd = 0, |d| <= 1, at the feasible d = rho u with its range part removed
    (*null*) and divided by max(1, ||d||_inf).  Returns (f - yᵀd) / f, and 0
    for f = 0, an exact fit.  v and scratch (of y's shape) are overwritten."""
    np.add(r, z, out=v)
    np.abs(v, out=v)
    f = float(v.sum())
    np.multiply(u, rho, out=v)
    null(v, scratch)
    np.abs(v, out=scratch)
    yd = float(np.dot(y, v)) / max(1.0, float(scratch.max()))
    return (f - yd) / f if f > 0.0 else 0.0


def _shrink_project(y: np.ndarray, project, cfg, dual=None) -> ShrinkRun:
    """Alternate b <- shrink(y - P(y - b), 1/lam) from b = 0 until ||Δb|| <= tol.

    *project(res)* overwrites res with P(res).  lam, tol and max_iter come
    from the solver config *cfg*: lam=None applies `_mad_lambda` to the first
    residual y - P(y), and tol=None applies cfg.REL_TOL * ||y|| (`data_norm`,
    which also refuses y whose ||y||^2 over- or underflows).  Besides y the
    loop holds three arrays of y's layout (b, b_new, one residual) and
    computes the shrink, the objective ||b||_1 + (lam/2) ||y - P(y - b) - b||^2
    and ||Δb|| in place.

    A vector y with *dual*, the `null` operator of P's `range_projector`,
    runs LAD-ADMM with scaled dual u instead, min ||b||_1 subject to
    b = y - (a point in P's range) (Boyd et al. 2011, section 6.1): two more
    arrays hold u and the shrink's input, u is added to the residual before
    the projection and before the shrink, and the primal residual
    r = y - P(y - b + u) - b_new is added into u.  It stops when ||r|| and
    ||Δb|| are both at most tol, or when `_l1_gap`, checked every GAP_EVERY
    steps in the two arrays then free, is at most GAP_TOL.
    """
    norm = data_norm(y)
    tol = cfg.tol if cfg.tol is not None else cfg.REL_TOL * norm
    lam = cfg.lam
    b = np.zeros_like(y)
    b_new = np.empty_like(y)
    res = np.empty_like(y)
    u = None if dual is None else np.zeros_like(y)
    v = res if dual is None else np.empty_like(y)  # the array the shrink reads
    trace: list[float] = []
    gap = None
    thresh = None if lam is None else 1.0 / lam
    for it in range(1, cfg.max_iter + 1):
        np.subtract(y, b, out=res)
        if dual is not None:
            res += u
        project(res)
        np.subtract(y, res, out=res)
        if thresh is None:  # u = 0 on the first step
            lam = _mad_lambda(y, res, b_new)  # b_new is free until the shrink
            thresh = 1.0 / lam
        if dual is not None:
            np.add(res, u, out=v)
        # b_new <- sign(v) max(|v| - thresh, 0), without -0.0
        np.abs(v, out=b_new)
        b_new -= thresh
        np.maximum(b_new, 0.0, out=b_new)
        l1 = float(b_new.sum())
        np.copysign(b_new, v, out=b_new)
        b_new += 0.0
        res -= b_new
        if dual is not None:
            u += res
        flat = res.ravel(order="K")  # a view: every buffer keeps y's layout
        rr = float(np.dot(flat, flat))
        trace.append(l1 + 0.5 * lam * rr)
        b -= b_new
        flat = b.ravel(order="K")
        delta = math.sqrt(float(np.dot(flat, flat)))
        b, b_new = b_new, b
        if delta <= tol and (dual is None or math.sqrt(rr) <= tol):
            return ShrinkRun(b, trace, it, True, tol, lam, gap)
        if dual is not None and it % GAP_EVERY == 0:
            gap = _l1_gap(y, res, b, u, lam, dual, v, b_new)  # v, b_new are free
            if gap <= GAP_TOL:
                return ShrinkRun(b, trace, it, True, tol, lam, gap)
    return ShrinkRun(b, trace, cfg.max_iter, False, tol, lam, gap)
