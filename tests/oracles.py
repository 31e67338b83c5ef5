"""Independent brute-force oracles used only by the tests.

Deliberately avoids the library's solve paths: eigenvalues come from
classical Jacobi rotations, not LAPACK's SVD driver.
"""

import numpy as np


def jacobi_eigh(sym, tol=1e-13, max_sweeps=100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues descending, eigenvectors as columns).
    """
    a = np.array(sym, dtype=np.float64)
    n = a.shape[0]
    v = np.eye(n)
    scale = max(1.0, float(np.abs(a).max()))
    for _ in range(max_sweeps):
        off = np.sqrt(2.0 * np.sum(np.triu(a, 1) ** 2))
        if off <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(a[p, q]) <= 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                v = v @ rot
    w = np.diag(a).copy()
    order = np.argsort(w)[::-1]
    return w[order], v[:, order]


def singular_values_bruteforce(mat):
    """All singular values of *mat*, descending, via Jacobi on the Gram matrix."""
    mat = np.asarray(mat, dtype=np.float64)
    gram = mat.T @ mat if mat.shape[0] >= mat.shape[1] else mat @ mat.T
    w, _ = jacobi_eigh(gram)
    return np.sqrt(np.clip(w, 0.0, None))


def threshold_ceiling(score, mask):
    """Best detection any single cut ``score > t`` can reach against *mask*.

    Scans every distinct cut of the sorted scores, including the empty
    detection, and returns ``(f, dr, pre, t)`` at the first cut (from the
    top) with the highest F.  Empty-denominator conventions follow
    ``loire.compute_metrics``: DR = 1 with nothing to find, Pre = 1 with
    nothing claimed.
    """
    score = np.asarray(score, dtype=np.float64).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    order = np.argsort(-score)
    s, hit = score[order], mask[order]
    positives = int(hit.sum())
    # cut k detects the top k scores; only cuts between distinct values are
    # reachable by a threshold
    k = np.concatenate(([0], np.flatnonzero(np.diff(s) != 0) + 1, [s.size]))
    tp = np.concatenate(([0], np.cumsum(hit)))[k]
    dr = tp / positives if positives else np.ones(k.size)
    pre = np.where(k > 0, tp / np.maximum(k, 1), 1.0)
    denom = dr + pre
    f = np.where(denom > 0, 2.0 * dr * pre / np.where(denom > 0, denom, 1.0), 0.0)
    best = int(np.argmax(f))
    t = s[k[best]] if k[best] < s.size else -np.inf
    return float(f[best]), float(dr[best]), float(pre[best]), float(t)


def svd_residual_detector(y, rank, mask):
    """Non-robust reference: rank-*rank* SVD fit of Y, best cut of the residual.

    Fits L by a plain truncated SVD of the corrupted matrix (no outlier
    model), then thresholds the signed residual Y - L at the cut with the
    best F against *mask*.  Returns ``threshold_ceiling``'s tuple.
    """
    y = np.asarray(y, dtype=np.float64)
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    l_hat = (u[:, :rank] * s[:rank]) @ vt[:rank]
    return threshold_ceiling(y - l_hat, mask)


def rrf_full_svd_alternation(y, rank, lam, tol=None, max_iter=500):
    """Reference robust rank factorization: a full thin SVD every iteration.

    Alternates the best rank-*rank* fit of Y - B (numpy's SVD, no warm
    start) with B <- sign(R) max(|R| - 1/lam, 0) on R = Y - A X, from B = 0,
    until ||B_new - B||_F <= tol (default 1e-7 ||Y||_F).  Returns the
    objective ||B||_1 + (lam/2) ||Y - A X - B||_F^2 of the last iterate.
    """
    y = np.asarray(y, dtype=np.float64)
    if tol is None:
        tol = 1e-7 * np.linalg.norm(y)
    b = np.zeros_like(y)
    for _ in range(max_iter):
        u, s, vt = np.linalg.svd(y - b, full_matrices=False)
        low = (u[:, :rank] * s[:rank]) @ vt[:rank]
        r = y - low
        b_new = np.sign(r) * np.maximum(np.abs(r) - 1.0 / lam, 0.0)
        delta = np.linalg.norm(b_new - b)
        b = b_new
        if delta <= tol:
            break
    return float(np.abs(b).sum() + 0.5 * lam * np.sum((y - low - b) ** 2))


def loire_plain_alternation(a, y, lam, tol=None, max_iter=1000):
    """Reference regression alternation: a fresh least-squares fit every iteration.

    From b = 0, alternates x <- lstsq(A, y - b) (numpy's minimum-norm solve)
    with b <- sign(r) max(|r| - 1/lam, 0) on r = y - A x, until
    ||b_new - b||_2 <= tol (default 1e-10 ||y||_2).  Returns
    (x, b, objective trace, iterations, converged), the objective being
    ||b||_1 + (lam/2) ||y - A x - b||_2^2 after each iteration.
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if tol is None:
        tol = 1e-10 * np.linalg.norm(y)
    b = np.zeros_like(y)
    trace = []
    for it in range(1, max_iter + 1):
        x = np.linalg.lstsq(a, y - b, rcond=None)[0]
        r = y - a @ x
        b_new = np.sign(r) * np.maximum(np.abs(r) - 1.0 / lam, 0.0)
        trace.append(float(np.abs(b_new).sum() + 0.5 * lam * np.sum((r - b_new) ** 2)))
        delta = np.linalg.norm(b_new - b)
        b = b_new
        if delta <= tol:
            return x, b, trace, it, True
    return x, b, trace, max_iter, False
