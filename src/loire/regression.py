"""Robust regression by l1 outlier isolation.

Minimizes  f(x, b) = ||b||_1 + (lam/2) ||y - A x - b||_2^2  by block
coordinate descent: a least-squares update for the coefficients x followed
by an elementwise soft-threshold update for the outlier vector b.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (ShrinkRun, _shrink_project, as_system, check_solver_settings,
                     range_factors, range_projector)


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
    ||b_{k+1} - b_k||_2 drops to cfg.tol; hitting max_iter first returns
    converged=False.
    The pseudoinverse factors of A are computed once and reused.
    """
    a, y = as_system(a, y)
    return _loire_solve(a, y, cfg, range_factors(a))


def _loire_solve(a: np.ndarray, y: np.ndarray, cfg: LoireConfig, factors) -> LoireSolution:
    """`loire_solve` on a system `as_system` validated, with the
    `range_factors` of *a* given, so a caller that reuses them factors A once."""
    project, x = range_projector(a, factors)
    return LoireSolution(**vars(_shrink_project(y, project, cfg)), x=x)
