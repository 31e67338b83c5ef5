import math

import numpy as np
import pytest

from loire import LoireConfig, default_lambda, least_squares_solve, loire_solve
from oracles import loire_objective, loire_plain_alternation, shrink


def random_instance(seed, m_hi=60, n_hi=8, y_scale=3.0):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(5, m_hi + 1))
    n = int(rng.integers(1, n_hi + 1))
    m = max(m, n)
    a = rng.normal(size=(m, n))
    y = rng.normal(size=m) * y_scale
    return a, y


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"lam": 0.0}, {"lam": -1.0}, {"lam": 1.0, "tol": 0.0},
        {"lam": 1.0, "max_iter": 0},
        # lam = inf makes the threshold 1/lam 0 and the objective NaN; a NaN
        # tol never stops the loop, an inf one stops it after one step
        {"lam": math.nan}, {"lam": math.inf}, {"tol": math.nan}, {"tol": math.inf},
        {"lam": 1.0, "max_iter": 2.5},
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            LoireConfig(**kwargs)


class TestSolver:
    def test_exact_fit_converges_immediately(self):
        sol = loire_solve(np.ones((3, 1)), [2.0, 2.0, 2.0], LoireConfig(lam=1.0))
        np.testing.assert_allclose(sol.x, [2.0])
        np.testing.assert_allclose(sol.b, np.zeros(3))
        assert sol.converged
        assert sol.iterations == 1

    def test_single_gross_outlier(self):
        a = np.ones((4, 1))
        y = np.array([1.0, 1.0, 1.0, 11.0])
        sol = loire_solve(a, y, LoireConfig(lam=1.0))
        nz = np.flatnonzero(np.abs(sol.b) > 1e-8)
        assert list(nz) == [3]
        assert abs(sol.x[0] - 1.0) <= 0.5
        # matches an independent convex solver on the same objective
        cp = pytest.importorskip("cvxpy")
        x_v = cp.Variable(1)
        b_v = cp.Variable(4)
        obj = cp.Minimize(cp.norm1(b_v) + 0.5 * cp.sum_squares(y - a @ x_v - b_v))
        cp.Problem(obj).solve()
        ours = loire_objective(a, y, sol.x, sol.b, 1.0)
        assert ours == pytest.approx(obj.value, abs=1e-7)
        np.testing.assert_allclose(sol.x, x_v.value, atol=1e-4)

    def test_shrinkage_dead_zone_gives_plain_least_squares(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(8, 2))
        y = rng.normal(size=8)
        lam = 1e-3  # threshold 1/lam far above every residual
        assert 1.0 / lam > np.abs(y).max()
        sol = loire_solve(a, y, LoireConfig(lam=lam))
        np.testing.assert_allclose(sol.b, np.zeros(8))
        np.testing.assert_allclose(sol.x, least_squares_solve(a, y), atol=1e-12)
        assert sol.converged and sol.iterations == 1

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            loire_solve(np.ones((3, 1)), np.ones(4), LoireConfig(lam=1.0))

    @pytest.mark.parametrize("a, y, message", [
        (np.ones(3), np.ones(3), "expected a 2-d matrix, got ndim=1"),
        (np.ones((3, 1)), np.ones((3, 1)), "expected a 1-d vector, got ndim=2"),
    ])
    def test_wrong_ndim_raises(self, a, y, message):
        # a (3, 1) y would otherwise broadcast against every (3,) residual
        with pytest.raises(ValueError, match=message):
            loire_solve(a, y, LoireConfig(lam=1.0))

    def test_solution_records_the_lam_it_applied(self):
        a, y = random_instance(24)
        assert loire_solve(a, y, LoireConfig()).lam == default_lambda(a, y)
        assert loire_solve(a, y, LoireConfig(lam=0.37)).lam == 0.37

    def test_max_iter_exhaustion_flags_not_converged(self):
        # pure noise: the default lam leaves b = 0 and converges at step 1,
        # so a threshold of 1 (y has scale 3) keeps the shrink active
        a, y = random_instance(23)
        sol = loire_solve(a, y, LoireConfig(lam=1.0, tol=1e-15, max_iter=2))
        assert not sol.converged
        assert sol.iterations == 2

    def test_trace_nonincreasing(self):
        for seed in range(1, 31):
            a, y = random_instance(seed)
            sol = loire_solve(a, y, LoireConfig(lam=default_lambda(a, y)))
            diffs = np.diff(sol.objective_trace)
            assert diffs.size == 0 or diffs.max() <= 1e-12

    def test_half_step_descent(self):
        # f(x_{k+1}, b_k) <= f(x_k, b_k) and f(x_{k+1}, b_{k+1}) <= f(x_{k+1}, b_k),
        # re-simulated with an explicit naive loop
        for seed in (2, 9, 17):
            a, y = random_instance(seed)
            lam = default_lambda(a, y)
            b = np.zeros(y.shape[0])
            x = np.zeros(a.shape[1])
            for _ in range(50):
                f_before = loire_objective(a, y, x, b, lam)
                x = least_squares_solve(a, y - b)
                f_half = loire_objective(a, y, x, b, lam)
                b_new = shrink(y - a @ x, 1.0 / lam)
                f_after = loire_objective(a, y, x, b_new, lam)
                assert f_half <= f_before + 1e-12
                assert f_after <= f_half + 1e-12
                if np.array_equal(b_new, b):
                    break
                b = b_new

    def test_fixed_point_of_update_maps(self):
        for seed in range(1, 21):
            rng = np.random.default_rng(seed)
            m, n = 30, 3
            a = rng.normal(size=(m, n))
            y = a @ rng.normal(size=n) + rng.normal(size=m)
            lam = default_lambda(a, y)
            tol = 1e-10 * np.linalg.norm(y)
            sol = loire_solve(a, y, LoireConfig(lam=lam))
            assert sol.converged
            x2 = least_squares_solve(a, y - sol.b)
            b2 = shrink(y - a @ x2, 1.0 / lam)
            change = np.sqrt(np.sum((x2 - sol.x) ** 2) + np.sum((b2 - sol.b) ** 2))
            assert change <= 2 * tol

    def test_subgradient_certificate(self):
        for seed in range(1, 51):
            a, y = random_instance(seed)
            lam = default_lambda(a, y)
            sol = loire_solve(a, y, LoireConfig(lam=lam))
            if not sol.converged:
                continue
            r = y - a @ sol.x - sol.b
            assert np.abs(a.T @ r).max() <= 1e-6
            assert np.abs(lam * r).max() <= 1 + 1e-6
            nz = np.abs(sol.b) > 0
            if nz.any():
                np.testing.assert_allclose(lam * r[nz], np.sign(sol.b[nz]),
                                           atol=1e-6)

    def test_outlier_free_recovery(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(6, 40))
            n = int(rng.integers(1, 6))
            m = max(m, 2 * n)
            a = rng.normal(size=(m, n))
            x_star = rng.normal(size=n)
            sol = loire_solve(a, a @ x_star, LoireConfig(lam=1.0))
            np.testing.assert_allclose(sol.x, x_star, atol=1e-8)
            np.testing.assert_allclose(sol.b, np.zeros(m))


class TestDefaultLambda:
    def test_clamped_on_exact_fit(self):
        # zero residual and a constant y: both MAD terms are 0, so the
        # threshold falls back to 1.4826 * 0.1 * max|y|, with no clamp
        a = np.ones((3, 1))
        assert default_lambda(a, [2.0, 2.0, 2.0]) == pytest.approx(1.0 / (1.4826 * 0.1 * 2.0))
        assert default_lambda(a, [0.0, 0.0, 0.0]) == 1.0

    @pytest.mark.parametrize("c", [0.1, 2.0, 3.7])
    @pytest.mark.parametrize("m", [3, 5, 7, 10, 100, 1000])
    def test_rounding_level_residual_is_an_exact_fit(self, m, c):
        # the fitted mean of a constant y may round off c by an ulp; that
        # residual is no spread, so the max|y| fallback sets the threshold
        assert default_lambda(np.ones((m, 1)), [c] * m) == pytest.approx(
            1.0 / (1.4826 * 0.1 * c), rel=1e-12)

    def test_scales_with_residual(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(50, 2))
        y = rng.normal(size=50)
        lam = default_lambda(a, y)
        resid = np.abs(y - a @ least_squares_solve(a, y))
        spread = np.median(np.abs(y - np.median(y)))
        assert 3 * np.median(resid) > 0.1 * spread
        assert lam == pytest.approx(1.0 / (1.4826 * 3 * np.median(resid)))

    def test_floor_on_exact_fit(self):
        # y in the range of A: the residual term is rounding noise, so the
        # floor 0.1 * 1.4826 * median|y - median(y)| sets the threshold
        rng = np.random.default_rng(1)
        a = rng.normal(size=(21, 3))
        y = a @ rng.normal(size=3)
        floor = 0.1 * 1.4826 * np.median(np.abs(y - np.median(y)))
        assert default_lambda(a, y) == pytest.approx(1.0 / floor, rel=1e-12)
        sol = loire_solve(a, y, LoireConfig())
        assert sol.converged and sol.iterations == 1 and not np.any(sol.b)


def _with_outliers(rng, m, n):
    a = rng.normal(size=(m, n))
    y = a @ rng.normal(size=n) + 0.1 * rng.normal(size=m)
    y[::7] += rng.choice([-1.0, 1.0], size=y[::7].size) * rng.uniform(5.0, 20.0, size=y[::7].size)
    return a, y


def _loop_case(name):
    """(A, y, lam) for one shape of TestInPlaceLoop."""
    rng = np.random.default_rng(7)
    if name == "wide":
        a, y = _with_outliers(rng, 6, 10)
        return a, y, 1.0
    if name == "rank_deficient":
        a, y = _with_outliers(rng, 40, 3)
        a = np.column_stack([a, a[:, 0]])
    elif name == "single_column":
        a, y = _with_outliers(rng, 30, 1)
    elif name == "zero_y":
        return rng.normal(size=(20, 3)), np.zeros(20), 1.0
    else:
        a, y = _with_outliers(rng, 50, 5)
        a = np.ascontiguousarray(a) if name == "c_order" else np.asfortranarray(a)
    return a, y, default_lambda(a, y)


LOOP_CASES = ("wide", "rank_deficient", "single_column", "zero_y", "c_order", "f_order")


class TestInPlaceLoop:
    """The in-place loop against a plain alternation with a fresh lstsq each step."""

    @pytest.mark.parametrize("name", LOOP_CASES)
    def test_matches_plain_alternation(self, name):
        a, y, lam = _loop_case(name)
        tol = 1e-10 * np.linalg.norm(y)
        sol = loire_solve(a, y, LoireConfig(lam=lam))
        x_ref, b_ref, _, iterations, converged = loire_plain_alternation(a, y, lam, tol)
        assert (sol.iterations, sol.converged) == (iterations, converged)
        assert np.linalg.norm(sol.x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
        assert np.linalg.norm(sol.b - b_ref) <= 1e-9 * np.linalg.norm(b_ref)
        assert sol.tol == tol

    @pytest.mark.parametrize("name", LOOP_CASES)
    def test_trace_descent_and_signed_zeros(self, name):
        a, y, lam = _loop_case(name)
        sol = loire_solve(a, y, LoireConfig(lam=lam))
        f = np.asarray(sol.objective_trace)
        assert f.size == sol.iterations
        # relative, floored at 1 as in the benchmark's trace check, since the
        # objective of an exact fit is rounding noise near 0
        final = loire_objective(a, y, sol.x, sol.b, lam)
        assert abs(f[-1] - final) <= 1e-12 * max(1.0, abs(final))
        assert np.all(np.diff(f) <= 1e-12 * np.maximum(1.0, np.abs(f[:-1])))
        assert not np.any(np.signbit(sol.b[sol.b == 0.0]))

    def test_memory_order_does_not_matter(self):
        a, y, lam = _loop_case("c_order")
        f_sol = loire_solve(np.asfortranarray(a), y, LoireConfig(lam=lam))
        c_sol = loire_solve(a, y, LoireConfig(lam=lam))
        np.testing.assert_array_equal(c_sol.x, f_sol.x)
        np.testing.assert_array_equal(c_sol.b, f_sol.b)

    def test_explicit_tol_recorded(self):
        a, y, lam = _loop_case("single_column")
        sol = loire_solve(a, y, LoireConfig(lam=lam, tol=1e-3))
        assert sol.tol == 1e-3
        assert sol.converged
