import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (lad_vertex_enumeration, loire_objective, rrf_objective, shrink,
                     threshold_ceiling)


def _scan_every_threshold(score, mask):
    """Brute force: evaluate ``score > t`` for every threshold that matters."""
    score = [float(v) for v in np.ravel(score)]
    mask = [bool(v) for v in np.ravel(mask)]
    truth = {i for i, hit in enumerate(mask) if hit}
    best = None
    for t in sorted(set(score), reverse=True) + [-np.inf]:
        detected = {i for i, v in enumerate(score) if v > t}
        tp = len(detected & truth)
        dr = tp / len(truth) if truth else 1.0
        pre = tp / len(detected) if detected else 1.0
        f = 2 * dr * pre / (dr + pre) if dr + pre > 0 else 0.0
        if best is None or f > best[0]:
            best = (f, dr, pre, t)
    return best


def test_hand_built_instance():
    # entries a-f in order; cuts (t: detected -> F): 0.9: {} -> 0; 0.8: {a} -> 1/2;
    # 0.5: {a, b, c} -> 2/3; 0.3: {a, b, c, d} -> 6/7; 0.1: -> 3/4; -inf: -> 2/3
    score = [0.9, 0.8, 0.8, 0.5, 0.3, 0.1]
    mask = [True, False, True, True, False, False]
    assert threshold_ceiling(score, mask) == pytest.approx((6 / 7, 1.0, 0.75, 0.3))
    assert threshold_ceiling(score, mask) == _scan_every_threshold(score, mask)


@pytest.mark.parametrize("mask", [[False] * 4, [True] * 4])
def test_degenerate_masks(mask):
    score = [3.0, 1.0, 1.0, 2.0]
    assert threshold_ceiling(score, mask) == _scan_every_threshold(score, mask)
    assert threshold_ceiling(score, mask)[0] == 1.0


def test_matches_scan_on_small_tied_instances():
    rng = np.random.default_rng(0)
    for _ in range(200):
        size = int(rng.integers(1, 12))
        score = rng.integers(-3, 4, size=(size, 2)).astype(float)
        mask = rng.random((size, 2)) < 0.4
        assert threshold_ceiling(score, mask) == _scan_every_threshold(score, mask)


class TestShrink:
    @pytest.mark.parametrize("v,tau,expected", [
        (1.2, 0.5, 0.7),
        (-0.3, 0.5, 0.0),
        (0.0, 0.0, 0.0),
    ])
    def test_analytic_values(self, v, tau, expected):
        assert shrink(v, tau) == pytest.approx(expected)

    def test_elementwise_on_arrays(self):
        out = shrink(np.array([[1.2, -0.3], [0.0, -2.0]]), 0.5)
        np.testing.assert_allclose(out, [[0.7, 0.0], [0.0, -1.5]])

    def test_is_proximal_operator(self):
        # minimizes tau*|z| + (z - v)^2/2 versus a dense grid scan
        rng = np.random.default_rng(42)
        grid = np.linspace(-15.0, 15.0, 30001)
        for _ in range(1000):
            v = float(rng.uniform(-10, 10))
            tau = float(rng.uniform(0, 5))
            z = shrink(v, tau)
            obj = tau * abs(z) + 0.5 * (z - v) ** 2
            best = np.min(tau * np.abs(grid) + 0.5 * (grid - v) ** 2)
            assert obj <= best + 1e-6

    @given(st.floats(-1e6, 1e6), st.floats(0, 1e6))
    def test_shrinks_toward_zero(self, v, tau):
        z = shrink(v, tau)
        assert abs(z) <= abs(v)
        assert z * v >= 0


class TestLoireObjective:
    def test_pure_quadratic_term(self):
        val = loire_objective(np.eye(2), [1.0, 1.0], [0.0, 0.0], [0.0, 0.0], 2.0)
        assert val == pytest.approx(2.0)

    def test_zero_residual_leaves_l1_term(self):
        a = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0]])
        x = np.array([0.5, -1.0])
        y = np.array([4.0, -1.0, 2.0])
        b = y - a @ x
        assert loire_objective(a, y, x, b, 7.0) == pytest.approx(np.abs(b).sum())

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        x = rng.normal(size=2)
        b = rng.normal(size=6)
        lam = 1.7
        acc = 0.0
        for i in range(6):
            acc += abs(b[i])
        for i in range(6):
            r = y[i] - b[i]
            for j in range(2):
                r -= a[i, j] * x[j]
            acc += 0.5 * lam * r * r
        assert loire_objective(a, y, x, b, lam) == pytest.approx(acc, rel=1e-12)


class TestRrfObjective:
    def test_exact_factorization_is_zero(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 2))
        x = rng.normal(size=(2, 4))
        y = a @ x
        assert rrf_objective(y, a, x, np.zeros((5, 4)), 3.0) == pytest.approx(0.0)

    def test_corruption_absorbs_everything(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=(4, 3))
        val = rrf_objective(y, np.zeros((4, 2)), np.zeros((2, 3)), y, 2.0)
        assert val == pytest.approx(np.abs(y).sum())

    def test_matches_naive_recomputation(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=(5, 4))
        a = rng.normal(size=(5, 2))
        x = rng.normal(size=(2, 4))
        b = rng.normal(size=(5, 4))
        lam = 0.7
        acc = 0.0
        for i in range(5):
            for j in range(4):
                acc += abs(b[i, j])
                r = y[i, j] - b[i, j]
                for k in range(2):
                    r -= a[i, k] * x[k, j]
                acc += 0.5 * lam * r * r
        assert rrf_objective(y, a, x, b, lam) == pytest.approx(acc, rel=1e-12)


class TestLadVertexEnumeration:
    def test_hand_built_instances(self):
        # a constant fit is the median; A = 0 leaves ||y||_1
        assert lad_vertex_enumeration(np.ones((3, 1)), [1.0, 2.0, 9.0]) == 8.0
        assert lad_vertex_enumeration(np.zeros((3, 2)), [1.0, -2.0, 3.0]) == 6.0

    def test_matches_linear_program(self):
        # min 1ᵀt s.t. -t <= y - A x <= t, by scipy's HiGHS, on small full-rank,
        # rank-deficient and integer problems
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(41)
        for trial in range(30):
            m, n = int(rng.integers(2, 9)), int(rng.integers(1, 4))
            a = rng.normal(size=(m, n))
            if trial % 3 == 1:
                a[:, -1] = a[:, 0]
            elif trial % 3 == 2:
                a = np.rint(2.0 * a)
            y = np.rint(3.0 * rng.normal(size=m)) if trial % 3 == 2 else rng.normal(size=m)
            lp = linprog(np.concatenate([np.zeros(n), np.ones(m)]),
                         A_ub=np.block([[a, -np.eye(m)], [-a, -np.eye(m)]]),
                         b_ub=np.concatenate([y, -y]),
                         bounds=[(None, None)] * n + [(0, None)] * m)
            assert lp.status == 0
            assert lad_vertex_enumeration(a, y) == pytest.approx(lp.fun, rel=1e-9, abs=1e-12)
