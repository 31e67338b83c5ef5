"""Robust rank factorization Y ~ A X + B.

Alternates a rank-r update for the unit-column dictionary A and the
coefficients X (one Rayleigh-Ritz step each iteration, started on the first
from the Gram matrix of Y's shorter side and warm after that) with an
elementwise shrinkage update for the sparse corruption B, minimizing
||B||_1 + (lam/2) ||Y - A X - B||_F^2.  Each Rayleigh-Ritz step takes its
Ritz vectors V_r from the eigh of a 2r x 2r Gram matrix, or from the SVD of
the 2r-row projection P only when that Gram cannot resolve the kept
directions (RITZ_FLOOR); X = V_rᵀ P on either route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import EPS, ShrinkRun, _shrink_project, as_matrix, check_solver_settings, is_count


@dataclass(frozen=True)
class FactorizationConfig:
    """Target rank, penalty weight, and stopping rule.

    lam=None sets the threshold 1/lam from the residual of the best rank-r
    fit of Y that the first iteration takes, by the rule of
    loire.default_lambda (see linalg._mad_lambda).
    tol bounds ||B_{k+1} - B_k||_F at convergence; None selects the default
    REL_TOL * ||Y||_F.
    """

    REL_TOL = 1e-7  # unannotated, so not a field

    rank: int
    lam: float | None = None
    tol: float | None = None
    max_iter: int = 500

    def __post_init__(self):
        if not is_count(self.rank, 1):
            raise ValueError(f"rank={self.rank} must be an integer of at least 1")
        check_solver_settings(self.lam, self.tol, self.max_iter)


@dataclass
class FactorizationSolution(ShrinkRun):
    """A `ShrinkRun` with the last step's rank-r factors of Y - B: the m x r
    a, with orthonormal columns, and the r x n x = aᵀ(Y - B), B the previous
    iterate.  a @ x is the recovered low-rank part, and b = shrink(Y - a @ x)."""

    a: np.ndarray
    x: np.ndarray


def _top_left_start(m_mat: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the top-r left singular subspace of *m_mat*.

    Takes the eigenvectors of the Gram matrix of the shorter side, so no full
    SVD is formed; the qr keeps the tall branch's basis at unit scale.
    """
    if m_mat.shape[0] >= m_mat.shape[1]:
        _, v = np.linalg.eigh(m_mat.T @ m_mat)  # eigenvalues ascending
        return np.linalg.qr(m_mat @ v[:, -rank:])[0]
    return np.linalg.eigh(m_mat @ m_mat.T)[1][:, -rank:]


# RITZ_FLOOR: the warm step takes its Ritz vectors from eigh(P Pᵀ) while the
# r-th eigenvalue keeps w_r > RITZ_FLOOR w_1, i.e. sigma_r > eps^(1/4) sigma_1.
# With no floor, the first fit of TestFirstStep's matrices missed the SVD's
# tail energy by more than 1e-12 ||Y|| only at w_r/w_1 <= 2.3e-14, and by at
# most 2e-16 ||Y|| from 1.5e-7 up.  Criterion 5's iterates sit at 8e-4 to
# 2.5e-3, so linalg.GRAM_FLOOR (1e-2) would send every step to the SVD
RITZ_FLOOR = EPS ** 0.5


def _warm_rank_step(m_mat: np.ndarray, a_prev: np.ndarray):
    """Best rank-r factors of *m_mat* within span([A_prev, M Mᵀ A_prev]),
    r the column count of A_prev.

    One step of Rayleigh-Ritz subspace iteration on the small projection
    P = QᵀM: V_r, the top-r left singular vectors of P, descending, give
    A = Q V_r and X = V_rᵀ P = Aᵀ M, so A X is the orthogonal projection of
    M onto an r-dimensional subspace of span(Q) and A has orthonormal
    columns.  V_r comes from the eigh of the 2r x 2r Gram matrix P Pᵀ, or
    from the thin SVD of P when that Gram cannot resolve the kept
    directions, w_r <= RITZ_FLOOR * w_1.  Since the span contains A_prev,
    the fit is never worse than A_prev with its best X.
    """
    rank = a_prev.shape[1]
    q, _ = np.linalg.qr(np.hstack([a_prev, m_mat @ (m_mat.T @ a_prev)]))
    p = q.T @ m_mat
    w, v = np.linalg.eigh(p @ p.T)  # eigenvalues ascending
    if w[-rank] > RITZ_FLOOR * w[-1]:
        v_r = v[:, :-rank - 1:-1]  # the top r, descending
    else:
        v_r = np.linalg.svd(p, full_matrices=False)[0][:, :rank]
    return q @ v_r, v_r.T @ p


def rrf_solve(y, cfg: FactorizationConfig) -> FactorizationSolution:
    """Alternating descent from B_0 = 0.

    Each iteration takes rank-r factors of Y - B (A with orthonormal columns,
    X = Aᵀ(Y - B)) and then shrinks the residual V = Y - A X:
    B <- sign(V) max(|V| - 1/lam, 0).  Every iteration factors by one
    Rayleigh-Ritz rank-r step from a start A: on the first, the top-r
    eigenvectors of the Gram matrix of Y's shorter side, so the first fit is
    the best rank-r fit of Y without a full SVD; later, the previous A.  The
    step's Ritz vectors are the top-r eigenvectors of the 2r x 2r Gram of the
    projection P = Qᵀ(Y - B), or the SVD of P where the r-th eigenvalue
    falls to RITZ_FLOOR times the first (`_warm_rank_step`).
    Stops when ||B_{k+1} - B_k||_F drops to cfg.tol.  The projector returns
    the factors (A, X) and writes no A X: the loop forms A X tile by tile
    (`linalg._shrink_project`), so besides Y it holds one array of Y's size,
    in which each step's sweep writes B and the next step forms Y - B.
    """
    y = as_matrix(y)
    if cfg.rank > min(y.shape):
        raise ValueError(f"rank={cfg.rank} out of range [1, {min(y.shape)}] for shape {y.shape}")
    a_fac = x_fac = None

    def project(m_mat):
        nonlocal a_fac, x_fac
        if a_fac is None:
            a_fac = _top_left_start(m_mat, cfg.rank)
        a_fac, x_fac = _warm_rank_step(m_mat, a_fac)
        return a_fac, x_fac

    run = _shrink_project(y, project, cfg)
    return FactorizationSolution(**vars(run), a=a_fac, x=x_fac)
