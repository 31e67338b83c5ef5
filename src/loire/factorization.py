"""Robust rank factorization Y ~ A X + B.

Alternates a rank-r update for the unit-column dictionary A and the
coefficients X (a full SVD on the first iteration, a warm-started
Rayleigh-Ritz step after that) with an elementwise shrinkage update for the
sparse corruption B, minimizing  ||B||_1 + (lam/2) ||Y - A X - B||_F^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import as_matrix, truncated_svd


@dataclass(frozen=True)
class FactorizationConfig:
    """Target rank, penalty weight, and stopping rule.

    tol bounds ||B_{k+1} - B_k||_F at convergence; None selects the default
    1e-7 * (1 + ||Y||_F).
    """

    rank: int
    lam: float
    tol: float | None = None
    max_iter: int = 500

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank={self.rank} must be at least 1")
        if self.lam <= 0:
            raise ValueError(f"lam={self.lam} must be positive")
        if self.tol is not None and self.tol <= 0:
            raise ValueError(f"tol={self.tol} must be positive")
        if self.max_iter < 1:
            raise ValueError(f"max_iter={self.max_iter} must be at least 1")


@dataclass
class FactorizationSolution:
    a: np.ndarray
    x: np.ndarray
    b: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    tol: float | None = None  # the stopping tolerance the solve applied

    def low_rank(self) -> np.ndarray:
        """The recovered low-rank component A X."""
        return self.a @ self.x


def rrf_objective(y, a, x, b, lam: float) -> float:
    """||B||_1 (entrywise) + (lam/2) ||Y - A X - B||_F^2."""
    y = as_matrix(y)
    a = as_matrix(a)
    x = as_matrix(x)
    b = as_matrix(b)
    if a.shape[0] != y.shape[0] or x.shape[1] != y.shape[1] \
            or a.shape[1] != x.shape[0] or b.shape != y.shape:
        raise ValueError("inconsistent dimensions for objective evaluation")
    r = y - a @ x - b
    return float(np.sum(np.abs(b)) + 0.5 * lam * np.sum(r * r))


def default_matrix_lambda(y, multiplier: float = 1.0) -> float:
    """Heuristic penalty weight sqrt(max(m, n)) / ||Y||_F, times *multiplier*."""
    y = as_matrix(y)
    fro = float(np.linalg.norm(y))
    if fro <= 1e-300:
        return 1e6 * multiplier
    return multiplier * math.sqrt(max(y.shape)) / fro


def _warm_rank_step(m_mat: np.ndarray, a_prev: np.ndarray, rank: int):
    """Best rank-r factors of *m_mat* within span([A_prev, M Mᵀ A_prev]).

    One step of Rayleigh-Ritz subspace iteration: the thin SVD of the small
    projection QᵀM gives A = Q U_s[:, :r] and X = sigma[:r] Vt[:r].  Since the
    span contains A_prev, the fit is never worse than A_prev with its best X.
    """
    q, _ = np.linalg.qr(np.hstack([a_prev, m_mat @ (m_mat.T @ a_prev)]))
    u_s, sigma, vt = np.linalg.svd(q.T @ m_mat, full_matrices=False)
    return q @ u_s[:, :rank], sigma[:rank, None] * vt[:rank]


def rrf_solve(y, cfg: FactorizationConfig) -> FactorizationSolution:
    """Alternating descent from B_0 = 0.

    Each iteration takes rank-r factors of Y - B (A with orthonormal columns,
    X = sigma * Vt rows) and then shrinks the residual:
    B <- soft_threshold(Y - A X, 1/lam).  The first iteration factors by a
    full SVD; later ones by a warm-started rank-r step from the previous A.
    Stops when ||B_{k+1} - B_k||_F drops to cfg.tol.
    """
    y = as_matrix(y)
    m, n = y.shape
    if cfg.rank > min(m, n):
        raise ValueError(f"rank={cfg.rank} out of range [1, {min(m, n)}] for shape {y.shape}")
    tol = cfg.tol if cfg.tol is not None else 1e-7 * (1.0 + float(np.linalg.norm(y)))

    # the only full-size buffers besides y; every step below works in place
    b = np.zeros_like(y)
    b_new = np.empty_like(y)
    res = np.empty_like(y)
    trace: list[float] = []
    converged = False
    iterations = 0
    thresh = 1.0 / cfg.lam
    a_fac = x_fac = None
    for _ in range(cfg.max_iter):
        np.subtract(y, b, out=res)
        if a_fac is None:
            svd = truncated_svd(res, cfg.rank)
            a_fac, x_fac = svd.u, svd.sigma[:, None] * svd.vt
        else:
            a_fac, x_fac = _warm_rank_step(res, a_fac, cfg.rank)
        # res <- Y - A X, written through its transpose so BLAS fills it directly
        np.matmul(x_fac.T, a_fac.T, out=res.T)
        np.subtract(y, res, out=res)
        # b_new <- soft_threshold(res, thresh), without -0.0
        np.abs(res, out=b_new)
        b_new -= thresh
        np.maximum(b_new, 0.0, out=b_new)
        l1 = float(b_new.sum())
        np.copysign(b_new, res, out=b_new)
        b_new += 0.0
        res -= b_new
        flat = res.ravel(order="K")  # a view: y's layout is kept by every buffer
        trace.append(l1 + 0.5 * cfg.lam * float(np.dot(flat, flat)))
        b -= b_new
        delta = float(np.linalg.norm(b))
        b, b_new = b_new, b
        iterations += 1
        if delta <= tol:
            converged = True
            break
    return FactorizationSolution(a=a_fac, x=x_fac, b=b, objective_trace=trace,
                                 iterations=iterations, converged=converged, tol=tol)
