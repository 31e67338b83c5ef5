"""Independent brute-force oracles used only by the tests.

Deliberately avoids the library's solve paths: eigenvalues come from
classical Jacobi rotations, not LAPACK's SVD driver, and the LAD optimum
from enumerating vertices.  `ialm_rpca` and `svd_residual_detector` are
references for the paper's comparisons, and take numpy's SVD as the
methods they stand for do.
"""

import contextlib
import itertools

import numpy as np


def shrink(v, tau):
    """The proximal operator of tau |.|: sign(v) max(|v| - tau, 0), elementwise."""
    return np.sign(v) * np.maximum(np.abs(v) - tau, 0.0)


def loire_objective(a, y, x, b, lam):
    """The regression objective ||b||_1 + (lam/2) ||y - A x - b||_2^2."""
    r = y - np.matmul(a, x) - b
    return float(np.sum(np.abs(b)) + 0.5 * lam * np.dot(r, r))


def rrf_objective(y, a, x, b, lam):
    """The factorization objective ||B||_1 (entrywise) + (lam/2) ||Y - A X - B||_F^2."""
    r = y - np.matmul(a, x) - b
    return float(np.sum(np.abs(b)) + 0.5 * lam * np.sum(r * r))


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


def huber_finish(a, y, b, lam):
    """The exact regression minimizer for the outlier rows and signs of *b*.

    With O = {b != 0}, s = sign(b_O), C the other rows and tau = 1/lam,
    solves the Huber normal equations A_Cᵀ A_C x = A_Cᵀ y_C + tau A_Oᵀ s_O
    by numpy's lstsq.  Refuses (None) when A is rank-deficient, when A_C is
    (the rows O carry a whole direction of A), or when x fails the
    certificate |r_C| <= tau and s_O r_O >= tau, r = y - A x.  Otherwise
    returns (x, shrink(r, tau), objective).
    """
    tau = 1.0 / lam
    out = b != 0
    if np.linalg.matrix_rank(a) < a.shape[1] or np.linalg.matrix_rank(a[~out]) < a.shape[1]:
        return None
    s = np.sign(b[out])
    ac = a[~out]
    x = np.linalg.lstsq(ac.T @ ac, ac.T @ y[~out] + tau * (a[out].T @ s), rcond=None)[0]
    r = y - a @ x
    if not (np.all(np.abs(r[~out]) <= tau) and np.all(s * r[out] >= tau)):
        return None
    b = shrink(r, tau)
    return x, b, float(np.abs(b).sum() + 0.5 * lam * np.sum((r - b) ** 2))


def loire_plain_alternation(a, y, lam, tol=None, max_iter=1000):
    """Reference regression alternation: a fresh least-squares fit every iteration.

    From b = 0, alternates x <- lstsq(A, y - b) (numpy's minimum-norm solve)
    with b <- sign(r) max(|r| - 1/lam, 0) on r = y - A x, until
    ||b_new - b||_2 <= tol (default 1e-10 ||y||_2).  After every iteration
    but the first that does not meet tol, tries `huber_finish`, and stops on
    the minimizer it certifies, whose objective replaces that iteration's.
    Returns (x, b, objective trace, iterations, converged), the objective
    being ||b||_1 + (lam/2) ||y - A x - b||_2^2 after each iteration.
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
        exact = huber_finish(a, y, b, lam) if it > 1 else None
        if exact is not None:
            x, b, trace[-1] = exact
            return x, b, trace, it, True
    return x, b, trace, max_iter, False


def lad_vertex_enumeration(a, y):
    """min ||y - A x||_1 by brute force, for small m.

    An LP optimum is attained at a vertex, an x that fits k rows of rank
    k = rank(A) exactly; this is the least ||y - A x||_1 over every such
    k-row subset, each solved by numpy's least squares (and ||y||_1 when
    A = 0, whose only fit is x = 0).
    """
    a = np.asarray(a, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    k = np.linalg.matrix_rank(a)
    best = float(np.abs(y).sum())
    for rows in map(list, itertools.combinations(range(a.shape[0]), k)):
        if k and np.linalg.matrix_rank(a[rows]) == k:
            x = np.linalg.lstsq(a[rows], y[rows], rcond=None)[0]
            best = min(best, float(np.abs(y - a @ x).sum()))
    return best


def ialm_rpca(d, tol=1e-7, max_iter=1000):
    """Robust PCA, min ||L||_* + lam ||S||_1 s.t. L + S = D, by inexact ALM.

    The inexact augmented Lagrange multiplier method of Lin, Chen & Ma
    (arXiv:1009.5055), with their defaults: lam = 1/sqrt(N) for the longer
    side N, mu_0 = 1.25/||D||_2, rho = 1.5, mu capped at 1e7 mu_0, and the
    dual Y started at D / max(||D||_2, ||D||_inf / lam).  Each step shrinks S
    at lam/mu, thresholds the singular values of D - S + Y/mu at 1/mu for L
    (a full thin SVD), and the run stops once ||D - L - S||_F <= tol ||D||_F.
    Returns (L, iterations, rank of L).
    """
    d = np.asarray(d, dtype=np.float64)
    lam = 1.0 / np.sqrt(max(d.shape))
    norm_two = np.linalg.norm(d, 2)
    norm_fro = np.linalg.norm(d)
    y = d / max(norm_two, np.abs(d).max() / lam)
    mu = 1.25 / norm_two
    mu_bar = 1e7 * mu
    low = np.zeros_like(d)
    for it in range(1, max_iter + 1):
        sparse = shrink(d - low + y / mu, lam / mu)
        u, s, vt = np.linalg.svd(d - sparse + y / mu, full_matrices=False)
        rank = int(np.count_nonzero(s > 1.0 / mu))
        low = (u[:, :rank] * (s[:rank] - 1.0 / mu)) @ vt[:rank]
        z = d - low - sparse
        y = y + mu * z
        mu = min(1.5 * mu, mu_bar)
        if np.linalg.norm(z) <= tol * norm_fro:
            break
    return low, it, rank


@contextlib.contextmanager
def counting_svd():
    """Record the shape of every matrix passed to ``numpy.linalg.svd``.

    Inside the ``with`` block, ``numpy.linalg.svd`` appends its argument's
    shape to the yielded list before it runs; the original is restored on
    exit.  Code that looks the function up at call time is counted.
    """
    shapes = []
    real = np.linalg.svd

    def svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    np.linalg.svd = svd
    try:
        yield shapes
    finally:
        np.linalg.svd = real
