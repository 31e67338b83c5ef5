"""Independent brute-force oracles used only by the tests.

Deliberately avoids the library's solve paths: eigenvalues come from
classical Jacobi rotations, not LAPACK's SVD driver.  The one exception,
`lad_admm_reference`, shares the library's projector and threshold rule on
purpose, so that a comparison isolates the iteration.
"""

import contextlib

import numpy as np

from loire.linalg import _mad_lambda, range_projector


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


def lad_admm_reference(a, y, max_iter):
    """Reference LAD-ADMM (Boyd et al. 2011, section 6.1), a fresh array per step.

    Splits z = y - A x with scaled dual u, from z = u = 0: A x <- P(y - z + u)
    through `linalg.range_projector`, z <- sign(v) max(|v| - 1/rho, 0) on
    v = y - A x + u, u <- u + r with r = y - A x - z.  rho is `_mad_lambda` on
    the first residual y - P(y).  Stops when ||r|| and ||z_new - z|| are both
    at most 1e-10 ||y||, or, every 5th step, when f = ||y - A x||_1 (taken as
    ||r + z||_1) is within 1e-4 f of yᵀd, with d = rho u minus its
    least-squares fit by A, divided by max(1, ||d||_inf); a gap stop then
    takes `lad_vertex_reference`.  Returns (x, iterations, converged).
    """
    a = np.asfortranarray(a, dtype=np.float64)  # the layout the library's SVD sees
    y = np.asarray(y, dtype=np.float64)
    tol = 1e-10 * np.linalg.norm(y)
    project, x, _ = range_projector(a)
    z = np.zeros_like(y)
    u = np.zeros_like(y)
    rho = None
    for it in range(1, max_iter + 1):
        ax = y - z + u
        project(ax)
        v = y - ax + u
        if rho is None:
            rho = _mad_lambda(y, v, np.empty_like(y))
        z_new = np.sign(v) * np.maximum(np.abs(v) - 1.0 / rho, 0.0) + 0.0
        r = y - ax - z_new
        u = u + r
        if np.linalg.norm(r) <= tol and np.linalg.norm(z_new - z) <= tol:
            return x.copy(), it, True
        z = z_new
        if it % 5 == 0:
            f = np.abs(r + z).sum()
            d = rho * u
            d = d - a @ np.linalg.lstsq(a, d, rcond=None)[0]
            d = d / max(1.0, np.abs(d).max())
            if f - y @ d <= 1e-4 * f:
                return lad_vertex_reference(a, y, x.copy()), it, True
    return x.copy(), max_iter, False


def lad_vertex_reference(a, y, x):
    """The vertex on the n rows of smallest |y - A x| if it is LP-optimal, else x.

    x_B solves A_B x = y_B (by `np.linalg.lstsq`, refused when A_B is
    rank-deficient); it is returned when d_N = sign(y_N - A_N x_B) and d_B
    from A_Bᵀ d_B = -A_Nᵀ d_N give |d_B| <= 1 and x_B fits no worse than x.
    """
    m, n = a.shape
    if m < n:
        return x
    r = y - a @ x
    basis = np.sort(np.argsort(np.abs(r), kind="stable")[:n])
    rest = np.setdiff1d(np.arange(m), basis)
    x_b, _, rank, _ = np.linalg.lstsq(a[basis], y[basis], rcond=None)
    if rank < n:
        return x
    r_b = y - a @ x_b
    d_b = np.linalg.lstsq(a[basis].T, -a[rest].T @ np.sign(r_b[rest]), rcond=None)[0]
    if np.all(np.abs(d_b) <= 1.0) and np.abs(r_b).sum() <= np.abs(r).sum():
        return x_b
    return x


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
