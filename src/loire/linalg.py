"""Dense linear-algebra primitives shared by every solver.

Matrices are plain float64 numpy arrays in column-major (Fortran) order so
that frame stacking is a contiguous copy; vectors are 1-d float64 arrays.
Constructors reject non-finite entries.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

EPS, TINY = np.finfo(np.float64).eps, np.finfo(np.float64).tiny


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


def is_count(value, least: int) -> bool:
    """Whether *value* is an integer, Python's or numpy's but not a float,
    of at least *least*: the rule of every count setting."""
    try:
        return operator.index(value) >= least
    except TypeError:
        return False


def check_solver_settings(lam: float | None, tol: float | None, max_iter: int) -> None:
    """Every solve's settings rule: lam and tol are None (the default rule) or
    finite and positive, as the shrink threshold is 1/lam; max_iter is an
    integer >= 1."""
    if lam is not None and not 0 < lam < math.inf:
        raise ValueError(f"lam={lam} must be finite and positive")
    if tol is not None and not 0 < tol < math.inf:
        raise ValueError(f"tol={tol} must be finite and positive")
    if not is_count(max_iter, 1):
        raise ValueError(f"max_iter={max_iter} must be an integer of at least 1")


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
        sq = float(np.einsum("i,i->", flat, flat))  # not BLAS: one sum for any thread count
    if not math.isfinite(sq) or (sq < TINY and flat.any()):
        raise ValueError(f"||y||^2 = {sq!r}: float64 overflow or underflow; rescale the data")
    return math.sqrt(sq)


# GRAM_FLOOR: a tall A whose Gram eigenvalues keep w_min > GRAM_FLOOR w_max,
# so cond(A) < 10, is factored from eigh(AᵀA).  Its U is then orthonormal to
# about eps cond(A)²: ||UᵀU - I||_2 <= 3.3e-14 at cond 10 and 6.3e-15 at
# cond 3, against the SVD's 3.6e-15 (200 to 50000 x 20, 5 draws each).  And
# sigma_min > 0.1 sigma_max, so the rank rule keeps every direction
GRAM_FLOOR = 1e-2


def range_factors(a: np.ndarray):
    """The thin SVD A = U S Vᵀ cut to the numerical range of *a*, as
    (base, mix, vs_inv) with U = base @ mix and vs_inv = V S⁻¹: the one rank
    rule of every least-squares fit.

    Directions with singular value at most max(m, n) * eps * sigma_max are
    dropped; A has full column rank when vs_inv has n columns.  A tall A
    (m >= n) whose Gram matrix AᵀA is finite, with eigenvalues w_min >
    GRAM_FLOOR * w_max and w_min * eps at least the least normal float, is
    factored from eigh(AᵀA) = V diag(w) Vᵀ: U = A V S⁻¹ for S = sqrt(w), so
    base is *a* and mix = vs_inv, and U is never formed (Golub & Van Loan,
    Matrix Computations, section 5.3).  Every other A takes a Householder
    SVD, whose kept directions lead, as sigma descends: base = U_k, a
    slice, and mix = I_k.
    """
    if a.shape[0] >= a.shape[1]:
        with np.errstate(over="ignore", invalid="ignore"):
            gram = a.T @ a
        if np.isfinite(gram).all():  # eigh raises on inf or nan
            w, v = np.linalg.eigh(gram)  # ascending
            if w[0] * EPS >= TINY and w[0] > GRAM_FLOOR * w[-1]:
                vs_inv = v[:, ::-1] / np.sqrt(w[::-1])
                return a, vs_inv, vs_inv
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    k = np.count_nonzero(s > max(a.shape) * EPS * s[0])
    return u[:, :k], np.eye(k), vt[:k].T / s[:k]


def least_squares_solve(a, y) -> np.ndarray:
    """Minimum-norm x minimizing ||y - A x||_2: x = V S⁻¹ Uᵀ y on the
    `range_factors` of A, the Moore-Penrose solution when A is rank-deficient."""
    a, y = as_system(a, y)
    base, mix, vs_inv = range_factors(a)
    return vs_inv @ (mix.T @ (base.T @ y))


# the least lambda_min(G), G = U_cᵀU_c = I - U_oᵀU_o, at which a solve on the
# clean rows c downdates the factors of A: its error, eps cond(A) / lambda_min,
# is then within 2x of a fresh solve's eps cond(A) / sqrt(lambda_min)
REFIT_FLOOR = 0.25


def clean_solve(a: np.ndarray, factors, rows: np.ndarray):
    """The fit of A's clean rows c, all but *rows* (ascending indices), for
    A and its `range_factors`, U = base @ mix: returns (solve, exact).

    solve(z), for a length-m z, is x = (A_cᵀA_c)⁻¹ Aᵀz when *exact*, that is
    when A_c has full column rank; with z = y on the clean rows and 0 on
    *rows* it is the least-squares fit of the clean rows, minimum-norm when
    A_c is rank-deficient, as `least_squares_solve` forms it.  A full-rank A
    whose lambda_min(G) >= REFIT_FLOOR is downdated: one n x n
    eigh(U_oᵀU_o) = Q sigma² Qᵀ gives lambda_min(G) = 1 - sigma_max² and
    G⁻¹ = I + Q (sigma² / (1 - sigma²)) Qᵀ without an SVD of U_o (Golub &
    Van Loan, Matrix Computations, section 6.5), and x = V S⁻¹ G⁻¹ Uᵀz.
    Otherwise, as when the rows carry most of a direction of A, A_c is
    gathered once, straight into column-major order, and factored afresh
    as `least_squares_solve` factors A; x = W_c (U_cᵀ z_c + W_cᵀ A_oᵀ z_o),
    W_c = V_c S_c⁻¹, and x = 0 when no row is clean.
    """
    base, mix, vs_inv = factors
    n = a.shape[1]
    if vs_inv.shape[1] == n:
        u_o = base[rows] @ mix
        sq, q = np.linalg.eigh(u_o.T @ u_o)  # ascending
        if 1.0 - sq[-1] >= REFIT_FLOOR:
            gain = sq / (1.0 - sq)

            def solve(z):
                coef = mix.T @ (base.T @ z)
                coef += q @ (gain * (q.T @ coef))
                return vs_inv @ coef

            return solve, True
    if rows.size == a.shape[0]:
        return (lambda z: np.zeros(n)), False
    clean = np.ones(a.shape[0], dtype=bool)
    clean[rows] = False
    base_c, mix_c, vs_inv_c = range_factors(a.T.compress(clean, axis=1).T)  # one column-major copy
    a_o = a[rows]

    def solve(z):
        coef = mix_c.T @ (base_c.T @ z[clean])
        coef += vs_inv_c.T @ (a_o.T @ z[rows])
        return vs_inv_c @ coef

    return solve, vs_inv_c.shape[1] == n


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


def _mad_lambda(y: np.ndarray, factors, work: np.ndarray) -> float:
    """The default penalty weight from the first residual r = y - P(y),
    P(y) = left @ right for *factors* = (left, right), which `_residual`
    forms in *work*, an array of y's layout that is overwritten.

    The threshold 1/lam is MAD_NORMAL * max(MAD_C * median|r|,
    MAD_FLOOR * median|y - median(y)|): the uncentred median because the
    shrink thresholds about 0, the floor for noiseless or exactly fitted
    data.  A residual at rounding level, median|r| <= max(y.shape) * eps *
    max|y|, is an exact fit and counts as 0.  When both terms are 0 the
    threshold is MAD_NORMAL * MAD_FLOOR * max|y|, and lam = 1 when that is 0
    too (y = 0) or 1/threshold overflows.  max|y| is read as
    max(max y, -min y), and every median is taken in *work*; no |y| is
    written.
    """
    flat = work.ravel(order="K")  # a view: work keeps y's layout
    y_max = max(float(y.max()), -float(y.min()))
    _residual(y, factors, work)
    np.abs(work, out=work)
    r_med = _median(flat)
    spread = MAD_C * r_med if r_med > max(y.shape) * EPS * y_max else 0.0
    np.copyto(work, y)
    np.subtract(y, _median(flat), out=work)
    np.abs(work, out=work)
    thresh = MAD_NORMAL * max(spread, MAD_FLOOR * _median(flat))
    if thresh == 0.0:
        thresh = MAD_NORMAL * MAD_FLOOR * y_max
    lam = 1.0 / thresh if thresh > 0.0 else 1.0
    return lam if math.isfinite(lam) else 1.0


@dataclass
class ShrinkRun:
    """What one run of `_shrink_project` did: the final b, the objective at
    each iteration, the iteration count, whether a stop rule was met, and
    the tol and lam it applied.  Each iterative solver's result extends it."""

    b: np.ndarray
    objective_trace: list[float]
    iterations: int
    converged: bool
    tol: float
    lam: float


# elements per product tile: P(M) = left @ right is formed one tile at a time,
# each by one BLAS call, and each tile is shrunk as soon as it is formed.  A
# tile each of y, M, the product and the shrink is 2 MB, which a core's L2
# cache holds.  BLAS rounds the entries of a product split one way
# differently in the last bits from the same entries split another way, so
# the grid is fixed by y's shape and TILE alone: every pass over the tiles
# then reproduces the same P(M) to the bit
TILE = 1 << 16


def _tiles(shape: tuple[int, ...]):
    """The product grid of a vector or column-major matrix of *shape*, as
    (lo, hi, rows, cols): flat elements lo:hi hold rows x cols.  A tile is
    TILE rows of one column when a column has at least TILE rows, and
    otherwise as many whole columns as TILE elements hold (at least one)."""
    m = shape[0]
    n = shape[1] if len(shape) == 2 else 1
    height, width = min(m, TILE), max(1, TILE // m)
    tiles = []
    for j in range(0, n, width):
        cols = slice(j, min(j + width, n))
        for i in range(0, m, height):
            rows = slice(i, min(i + height, m))
            lo = j * m + i
            tiles.append((lo, lo + (rows.stop - i) * (cols.stop - j), rows, cols))
    return tiles


def _tile_product(factors, rows: slice, cols: slice, out: np.ndarray) -> None:
    """out <- (left @ right)[rows, cols], column-major, for *factors* =
    (left, right); a vector right gives the rows of a vector."""
    left, right = factors
    if right.ndim == 1:
        np.matmul(left[rows], right, out=out)
    else:  # through its transpose, so BLAS fills the column-major tile directly
        np.matmul(right[:, cols].T, left[rows].T, out=out.reshape(cols.stop - cols.start, -1))


def _residual(y: np.ndarray, factors, out: np.ndarray) -> np.ndarray:
    """out <- y - left @ right for *factors* = (left, right), the product
    formed on y's tile grid, so it equals the sweep's to the bit; *out* has
    y's layout.  Returns *out*."""
    flat = out.ravel(order="K")
    for lo, hi, rows, cols in _tiles(y.shape):
        _tile_product(factors, rows, cols, flat[lo:hi])
    return np.subtract(y, out, out=out)


def _shrink_project(y: np.ndarray, project, cfg, finish=None) -> ShrinkRun:
    """Alternate b <- shrink(y - P(y - b), 1/lam) from b = 0 until ||Δb|| <= tol.

    Besides y the loop holds one array of y's layout and two tiles of at
    most TILE elements, a product and a shrink.  The array holds b after
    each step and M = y - b, formed in place, while the next step projects:
    *project(M)* returns factors (left, right) with P(M) = left @ right and
    writes nothing of y's size.  Each sweep forms P(M) tile by tile on the
    grid of `_tiles` and shrinks each tile as soon as it is formed: b =
    shrink(r, 1/lam) for r = y - P(M), the objective ||b||_1 + (lam/2)
    ||r - b||^2, ||Δb|| with the previous b read as y - M, and b written
    over M.  The objective and ||Δb|| are sums of per-tile sums.  lam, tol
    and max_iter come from the solver config *cfg*: lam=None applies
    `_mad_lambda` to the first residual y - P(y), formed in M's buffer, and
    tol=None applies cfg.REL_TOL * ||y|| (`data_norm`, which also refuses y
    whose ||y||^2 over- or underflows).

    *finish(b, thresh)*, when given, is tried after each step but the first
    that does not meet tol, so a one-step run tries none, on the step's b in
    the loop's array, which the finish may use as its workspace.  It returns
    the factors of the exact minimizer once it has certified it for the
    support and signs of b: then one sweep from those factors writes b and
    the step's objective becomes the minimizer's, and the run stops
    converged.  Else it returns None with b as it was.
    """
    norm = data_norm(y)
    tol = cfg.tol if cfg.tol is not None else cfg.REL_TOL * norm
    lam = cfg.lam
    m_arr = y.copy(order="K")  # M = y - b at b = 0; "K" keeps y's layout, so the flat views align
    y_flat, m_flat = y.ravel(order="K"), m_arr.ravel(order="K")
    tiles = _tiles(y.shape)
    prod, shrunk = np.empty(tiles[0][1]), np.empty(tiles[0][1])  # the first tile is the largest
    grid = [(rows, cols, y_flat[lo:hi], m_flat[lo:hi], prod[:hi - lo], shrunk[:hi - lo])
            for lo, hi, rows, cols in tiles]

    def sweep(factors):
        """b <- shrink(y - P, thresh) for P = left @ right, written over M;
        returns the objective and ||b - (y - M)||²."""
        l1 = sq = step = 0.0
        for rows, cols, y_t, m_t, r, nb in grid:
            _tile_product(factors, rows, cols, r)
            np.subtract(y_t, r, out=r)
            # nb <- sign(r) max(|r| - thresh, 0) to the bit, never -0.0
            r.clip(-thresh, thresh, out=nb)
            np.subtract(r, nb, out=nb)
            r -= nb
            sq += float(np.dot(r, r))
            np.subtract(y_t, m_t, out=r)  # the previous b
            r -= nb
            step += float(np.dot(r, r))
            np.copyto(m_t, nb)
            np.abs(nb, out=r)
            l1 += float(r.sum())
        return l1 + 0.5 * lam * sq, step

    trace: list[float] = []
    for it in range(1, cfg.max_iter + 1):
        if it > 1:
            np.subtract(y, m_arr, out=m_arr)  # M = y - b
        factors = project(m_arr)
        if lam is None:
            lam = _mad_lambda(y, factors, m_arr)
            np.copyto(m_arr, y)  # M = y again, at b = 0
        thresh = 1.0 / lam
        objective, step = sweep(factors)
        trace.append(objective)
        converged = math.sqrt(step) <= tol
        if converged:
            break
        if finish is not None and it > 1:
            exact = finish(m_arr, thresh)
            if exact is not None:
                trace[-1], converged = sweep(exact)[0], True
                break
    return ShrinkRun(m_arr, trace, it, converged, tol, lam)
