"""Robust regression by l1 outlier isolation.

Minimizes  f(x, b) = ||b||_1 + (lam/2) ||y - A x - b||_2^2  by block
coordinate descent: a least-squares update for the coefficients x followed
by an elementwise soft-threshold update for the outlier vector b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (ShrinkRun, _shrink_project, as_matrix, as_system, as_vector,
                     check_solver_settings, range_projector)


@dataclass(frozen=True)
class LoireConfig:
    """Solver settings.

    lam is the quadratic penalty weight (the shrinkage threshold is 1/lam);
    None selects default_lambda(A, y), computed inside the solve.  tol
    bounds ||b_{k+1} - b_k||_2 at convergence; None selects the default
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
    x: np.ndarray


def loire_objective(a, y, x, b, lam: float) -> float:
    """||b||_1 + (lam/2) ||y - A x - b||_2^2."""
    a = as_matrix(a)
    y = as_vector(y)
    x = as_vector(x) if np.ndim(x) else np.atleast_1d(np.float64(x))
    b = as_vector(b)
    if a.shape[0] != y.shape[0] or a.shape[1] != x.shape[0] or b.shape[0] != y.shape[0]:
        raise ValueError("inconsistent dimensions for objective evaluation")
    r = y - a @ x - b
    return float(np.sum(np.abs(b)) + 0.5 * lam * np.dot(r, r))


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

    Each iteration applies x <- pinv(A)(y - b) and then
    b <- soft_threshold(y - A x, 1/lam).  Stops when ||b_{k+1} - b_k||_2
    drops to cfg.tol; hitting max_iter first returns converged=False.
    The pseudoinverse factors of A are computed once and reused.
    """
    a, y = as_system(a, y)
    project, x, _ = range_projector(a)
    return LoireSolution(**vars(_shrink_project(y, project, cfg)), x=x)
