"""Robust regression by l1 outlier isolation.

Minimizes  f(x, b) = ||b||_1 + (lam/2) ||y - A x - b||_2^2  by block
coordinate descent: a least-squares update for the coefficients x followed
by an elementwise soft-threshold update for the outlier vector b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (ShrinkRun, _shrink_project, as_system, check_solver_settings, clean_solve,
                     range_factors)


@dataclass(frozen=True)
class LoireConfig:
    """Solver settings.

    lam is the quadratic penalty weight (the shrinkage threshold is 1/lam);
    None selects default_lambda(A, y), computed inside the solve.  The loop
    stops when ||b_{k+1} - b_k||_2 drops to tol or at an exact minimizer it
    certifies (see `_loire_solve`).  tol=None selects the default
    REL_TOL * ||y||_2, tight enough that the lasso subgradient certificate
    holds to 1e-6 at the returned point.
    """

    REL_TOL = 1e-10  # unannotated, so not a field

    lam: float | None = None
    tol: float | None = None
    max_iter: int = 1000

    def __post_init__(self):
        check_solver_settings(self.lam, self.tol, self.max_iter)


@dataclass
class LoireSolution(ShrinkRun):
    """A `ShrinkRun` with the coefficients x: the minimum-norm least-squares
    fit of y - b at the last step's previous b, so that b = shrink(y - A x),
    or the exact minimizer the finish certified."""

    x: np.ndarray


def default_lambda(a, y) -> float:
    """The penalty weight a solve with lam=None applies.

    1/lam = 1.4826 * max(3 median|r|, 0.1 median|y - median(y)|) on the
    least-squares residual r = y - A pinv(A) y (see linalg._mad_lambda), so
    lam scales as 1/s when (A, y) is scaled by s.  Computed by one solver
    step, through the projector the solve uses, so it equals
    loire_solve(a, y, LoireConfig()).lam exactly.
    """
    return loire_solve(a, y, LoireConfig(max_iter=1)).lam


def loire_solve(a, y, cfg: LoireConfig) -> LoireSolution:
    """Run the alternating-descent solver from b_0 = 0.

    Each iteration applies x <- pinv(A)(y - b) and then the shrink
    b <- sign(v) max(|v| - 1/lam, 0) on v = y - A x.  Stops when
    ||b_{k+1} - b_k||_2 drops to cfg.tol or on a certified exact minimizer;
    hitting max_iter first returns converged=False.
    The pseudoinverse factors of A are computed once and reused.
    """
    a, y = as_system(a, y)
    return _loire_solve(a, y, cfg)[0]


def _loire_solve(a: np.ndarray, y: np.ndarray, cfg: LoireConfig):
    """`loire_solve` on a system `as_system` validated.

    Factors A once (`range_factors`); the projector P(res) = A x, for the
    minimum-norm fit x = V S⁻¹ Uᵀ res with Uᵀ = mixᵀ baseᵀ (no m x n U on
    the Gram route), leaves x in the solution.  Returns the solution and
    *fit*: fit(rows) is the (solve, exact) of the `clean_solve` of *rows*
    (ascending indices) on those factors, kept for the last rows asked, so
    a caller that refits the rows the finish last tried factors nothing
    again.

    Minimizing f(x, b) over b leaves Huber's loss of r = y - A x at
    tau = 1/lam (She & Owen, JASA 2011).  So once the loop's outlier rows O
    and signs s are right, the exact minimizer solves the normal equations
    A_cᵀA_c x = A_cᵀy_c + tau A_oᵀs_o, fit(O)'s solve of z = y on the clean
    rows and tau s on O (Madsen & Nielsen, BIT 1990).  The loop tries this
    finish after every step but the first, with O and s from b, and accepts
    it only on the certificate |r_c| <= tau and s_o r_o >= tau; it works in
    the loop's residual and, where the solve downdates the factors of A,
    holds no other array of y's size.  It refuses where the clean rows leave
    A_c rank-deficient, as the normal equations may then have no solution,
    and at once, factoring nothing, when A is rank-deficient.
    """
    factors = base, mix, vs_inv = range_factors(a)
    inner, coef = np.empty(base.shape[1]), np.empty(mix.shape[1])
    x = np.zeros(a.shape[1])
    last = None

    def fit(rows):
        nonlocal last
        if last is None or not np.array_equal(last[0], rows):
            last = rows, *clean_solve(a, factors, rows)
        return last[1:]

    def project(res):
        np.matmul(base.T, res, out=inner)
        np.matmul(mix.T, inner, out=coef)
        np.matmul(vs_inv, coef, out=x)
        np.matmul(a, x, out=res)

    def finish(b, res, tau):
        if vs_inv.shape[1] < a.shape[1]:
            return False
        rows = np.flatnonzero(b)
        solve, exact = fit(rows)
        if not exact:
            return False
        s = np.sign(b[rows])
        np.copyto(res, y)
        res[rows] = tau * s
        x_exact = solve(res)
        np.matmul(a, x_exact, out=res)
        np.subtract(y, res, out=res)
        r_o = res[rows]
        res[rows] = 0.0
        clean_ok = res.max() <= tau and res.min() >= -tau  # |r_c| <= tau
        s *= r_o
        if clean_ok and (s >= tau).all():
            res[rows] = r_o
            np.copyto(x, x_exact)
            return True
        np.subtract(y, b, out=res)
        return False

    run = _shrink_project(y, project, cfg, finish)
    return LoireSolution(**vars(run), x=x), fit
