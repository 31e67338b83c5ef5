import math
import types
from itertools import combinations, islice
from pathlib import Path

import numpy as np
import pytest

from loire import (AllRowsOutliers, InfeasibleRadius, LoireConfig, OracleConfig,
                   app_bem, bernoulli_oracle, default_zero_tol, detect_support,
                   default_lambda, least_squares_solve, loire_solve)
from loire import linalg
from loire.linalg import range_factors
from oracles import counting_svd, loire_plain_alternation


def _loire_with_b(b):
    # detect_support takes the outlier vector a LoireSolution carries as .b
    return np.asarray(b, dtype=float)


class TestDetectSupport:
    def test_single_nonzero(self):
        np.testing.assert_array_equal(detect_support(_loire_with_b([0.0, 0.0, 3.2]), 1e-6),
                                      [False, False, True])

    def test_clean_data(self):
        np.testing.assert_array_equal(detect_support(_loire_with_b([0.0, 0.0, 0.0]), 1e-6),
                                      [False, False, False])

    def test_below_tolerance_excluded(self):
        np.testing.assert_array_equal(detect_support(_loire_with_b([1e-9, 0.5, -0.5]), 1e-6),
                                      [False, True, True])

    @pytest.mark.parametrize("shape", [(1, 4), (4, 1), (3, 5)])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matrix_support_is_a_mask_of_its_shape(self, shape, order):
        # a single row or column keeps its 2-d shape; entry (i, j) marks b[i, j]
        b = np.asarray(np.random.default_rng(1).normal(size=shape), order=order)
        b[b < 0] = 0.0
        support = detect_support(b, 1e-6)
        assert support.dtype == bool and support.shape == shape
        np.testing.assert_array_equal(support, b != 0)

    @pytest.mark.parametrize("b, message", [
        ([1.0, math.nan], "vector entries must be finite"),
        ([[1.0, math.nan]], "matrix entries must be finite"),
        ([[math.inf], [0.0]], "matrix entries must be finite"),
        ([], "zero-length vector"),
        (np.zeros((0, 2)), "zero-size matrix"),
    ])
    def test_detect_support_uses_the_array_rule(self, b, message):
        # a NaN entry would read as "not an outlier"
        with pytest.raises(ValueError, match=message):
            detect_support(b, 1e-6)

    def test_negative_tolerance_raises(self):
        with pytest.raises(ValueError):
            detect_support(_loire_with_b([1.0]), -1.0)

    def test_nan_tolerance_raises(self):
        # |b| > NaN is False everywhere, which would read as "no outliers"
        with pytest.raises(ValueError, match="zero_tol"):
            detect_support(_loire_with_b([1.0]), math.nan)

    def test_default_zero_tol_rule(self):
        assert default_zero_tol([1.0, -4.0]) == pytest.approx(4e-6)

    @pytest.mark.parametrize("y, message", [
        ([1.0, math.nan], "vector entries must be finite"),
        ([[1.0], [math.inf]], "matrix entries must be finite"),
        ([], "zero-length vector"),
    ])
    def test_default_zero_tol_uses_the_array_rule(self, y, message):
        with pytest.raises(ValueError, match=message):
            default_zero_tol(y)


class TestAppBem:
    def test_gross_outlier_dropped_before_refit(self):
        sol = app_bem(np.ones((4, 1)), [1.0, 1.0, 1.0, 11.0], LoireConfig(lam=1.0))
        assert sol.support == (3,)
        np.testing.assert_allclose(sol.x, [1.0])
        np.testing.assert_allclose(sol.b[:3], np.zeros(3))
        assert sol.b[3] == pytest.approx(10.0)
        assert sol.loire is not None and sol.loire.converged

    def test_clean_system_degenerates_to_least_squares(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(12, 3))
        x_star = rng.normal(size=3)
        sol = app_bem(a, a @ x_star, LoireConfig(lam=1.0))
        assert sol.support == ()
        np.testing.assert_allclose(sol.x, x_star, atol=1e-8)

    def test_default_lambda_is_applied_when_lam_is_none(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(50, 3))
        y = a @ [1.0, -2.0, 0.5] + rng.normal(0, 0.1, size=50)
        y[[4, 20, 33]] += [9.0, -7.0, 12.0]
        lam = default_lambda(a, y)
        implicit = app_bem(a, y, LoireConfig())
        explicit = app_bem(a, y, LoireConfig(lam=lam))
        assert implicit.loire.lam == explicit.loire.lam == lam
        assert implicit.support == explicit.support
        for field in ("x", "b"):
            assert np.array_equal(getattr(implicit, field), getattr(explicit, field))
            assert np.array_equal(getattr(implicit.loire, field), getattr(explicit.loire, field))
        assert implicit.loire.objective_trace == explicit.loire.objective_trace

    def test_refit_reproducible_from_support(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(15, 2))
        y = a @ np.array([1.0, -2.0]) + rng.normal(size=15) * 0.01
        y[4] += 9.0
        sol = app_bem(a, y, LoireConfig(lam=20.0))
        clean = np.setdiff1d(np.arange(15), np.asarray(sol.support))
        np.testing.assert_allclose(sol.x, least_squares_solve(a[clean], y[clean]))

    @pytest.mark.parametrize("zero_tol", [-1.0, math.nan])
    def test_bad_zero_tol_raises_before_the_solve(self, monkeypatch, zero_tol):
        def no_solve(*args):
            raise AssertionError("app_bem solved before checking zero_tol")
        monkeypatch.setattr("loire.bernoulli._loire_solve", no_solve)
        with pytest.raises(ValueError, match="zero_tol"):
            app_bem(np.ones((3, 1)), [1.0, 1.0, 5.0], LoireConfig(lam=1.0), zero_tol)

    def test_all_rows_flagged_raises(self):
        # mean fit leaves both residuals above the shrinkage threshold
        with pytest.raises(AllRowsOutliers):
            app_bem(np.ones((2, 1)), [-5.0, 5.0], LoireConfig(lam=10.0))

    def test_gross_outliers_monte_carlo_bound(self):
        # 30x3, 3 outliers at 50x the noise scale; the frozen regression bound
        # is the pre-measured 95th-percentile error 0.035 over these 200 seeds
        sigma = 0.05
        errs = []
        for trial in range(200):
            rng = np.random.default_rng(5000 + trial)
            a = rng.normal(size=(30, 3))
            x_star = rng.normal(size=3)
            y = a @ x_star + rng.normal(0, sigma, size=30)
            idx = rng.choice(30, size=3, replace=False)
            y[idx] += rng.choice([-1.0, 1.0], 3) * 50 * sigma
            sol = app_bem(a, y, LoireConfig(lam=1.0 / (6 * sigma)))
            err = np.linalg.norm(sol.x - x_star)
            errs.append(err)
            assert err <= 10 * sigma * np.linalg.cond(a) / math.sqrt(27)
        assert np.percentile(errs, 95) <= 0.035


class TestRefit:
    """The clean-row refit downdates the stage-1 factors of a full-rank A,
    and else takes the minimum-norm fit from a fresh factorization of the
    clean rows."""

    def test_full_rank_app_bem_factors_a_once(self, monkeypatch):
        lstsq = []
        real = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq",
                            lambda *args, **kw: lstsq.append(1) or real(*args, **kw))
        rng = np.random.default_rng(8)
        a = rng.normal(size=(50, 3))
        y = a @ [1.0, -2.0, 0.5] + rng.normal(0, 0.1, size=50)
        y[[4, 20, 33]] += [9.0, -7.0, 12.0]
        grams = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda g, *args, **kw: grams.append(g) or real_eigh(g, *args, **kw))
        with counting_svd() as shapes:
            sol = app_bem(a, y, LoireConfig())
        # A is well conditioned, so it is factored once, from eigh(AᵀA); the
        # other eigh is of U_oᵀU_o, its left factor on the 3 flagged rows
        assert shapes == [] and len(grams) == 2 and lstsq == []
        np.testing.assert_allclose(grams[0], a.T @ a, rtol=1e-14)
        base, mix, _ = range_factors(a)
        u = base[[4, 20, 33]] @ mix
        np.testing.assert_allclose(grams[1], u.T @ u, rtol=1e-12, atol=1e-15)
        assert sol.support == (4, 20, 33)

    def test_batch_problems_match_a_fresh_least_squares_solve(self, clean_factorizations):
        # stage 1 is the plain loire_solve bit for bit, the refit agrees with
        # lstsq on the clean rows to 1e-12 relative without calling it, and
        # the benchmark's appBEM contract holds
        wl = _perfbench_workloads()
        problems = islice(wl.batch_problems(0, wl.sizes("regress-batch", smoke=False)), 200)
        for a, y, _, _ in problems:
            sol = app_bem(a, y, LoireConfig())
            stage1 = loire_solve(a, y, LoireConfig())
            assert sol.loire.lam == stage1.lam and sol.loire.iterations == stage1.iterations
            assert np.array_equal(sol.loire.b, stage1.b) and np.array_equal(sol.loire.x, stage1.x)
            assert sol.loire.objective_trace == stage1.objective_trace
            flagged = detect_support(stage1.b, default_zero_tol(y))
            assert sol.support == tuple(np.flatnonzero(flagged))
            assert clean_factorizations == []
            x = least_squares_solve(a[~flagged], y[~flagged])
            clean_factorizations.clear()  # the reference solve's own factorization
            assert np.linalg.norm(sol.x - x) <= 1e-12 * np.linalg.norm(x)
            assert wl.check_bem(a, y, sol.x, sol.b, sol.support, sol.loire.objective_trace,
                                sol.loire.iterations) == []
        assert clean_factorizations == []

    def test_huge_outliers_cost_the_refit_no_digits(self, clean_factorizations):
        # U_cᵀ y_c is taken with the flagged entries of y zeroed, not as
        # Uᵀy - U_oᵀy_o, which would cancel the outliers' 1e8 in the clean fit
        rng = np.random.default_rng(6)
        a = rng.normal(size=(500, 10))
        y = a @ rng.normal(size=10) + rng.normal(size=500)
        rows = rng.choice(500, size=25, replace=False)
        y[rows] += 1e8 * rng.choice([-1.0, 1.0], size=25)
        sol = app_bem(a, y, LoireConfig())
        assert sol.support == tuple(sorted(rows)) and clean_factorizations == []
        clean = np.ones(500, dtype=bool)
        clean[rows] = False
        x = least_squares_solve(a[clean], y[clean])
        assert np.linalg.norm(sol.x - x) <= 1e-12 * np.linalg.norm(x)

    def test_predictor_only_on_flagged_rows_gets_coefficient_zero(self, clean_factorizations):
        # z is nonzero only on rows 6 and 21, whose gross outliers have
        # opposite signs, so stage 1 flags both (on one row alone z would fit
        # it exactly); with z = 0 on every clean row, U_cᵀU_c is singular
        rng = np.random.default_rng(0)
        t = rng.uniform(0, 10, 40)
        z = np.zeros(40)
        z[[6, 21]] = 1.0
        a = np.column_stack([np.ones(40), t, z])
        y = 1 + 2.5 * t + rng.normal(0, 0.1, 40)
        y[[6, 12, 21]] += [30.0, 40.0, -25.0]
        sol = app_bem(a, y, LoireConfig())
        assert sol.support == (6, 12, 21) and clean_factorizations == [(37, 3)]
        clean = np.ones(40, dtype=bool)
        clean[[6, 12, 21]] = False
        assert np.array_equal(sol.x, least_squares_solve(a[clean], y[clean]))
        assert sol.x[2] == 0.0
        assert _perfbench_workloads().check_bem(a, y, sol.x, sol.b, sol.support,
                                                sol.loire.objective_trace,
                                                sol.loire.iterations) == []

    def test_rank_deficient_a_gets_the_minimum_norm_fit(self, clean_factorizations):
        rng = np.random.default_rng(3)
        t = rng.normal(size=30)
        a = np.column_stack([np.ones(30), t, t])
        y = 1.0 + 2.0 * t + 0.01 * rng.normal(size=30)
        y[[5, 17]] += [15.0, -20.0]
        sol = app_bem(a, y, LoireConfig())
        assert sol.support == (5, 17) and clean_factorizations == [(28, 3)]
        clean = np.ones(30, dtype=bool)
        clean[[5, 17]] = False
        assert np.array_equal(sol.x, least_squares_solve(a[clean], y[clean]))
        assert sol.x[1] == pytest.approx(sol.x[2], rel=1e-12)  # the split of least norm

    def test_finish_rows_left_unflagged_are_not_set_apart(self, clean_factorizations):
        # rows 5 and 17 sit at residuals tau + 20 and tau + 1e-8 (tau = 1)
        # from the minimizer for that outlier set, whose x does not depend on
        # y_5 and y_17: the finish certifies both, but row 17's b is under
        # the zero_tol cut, so the refit sets apart row 5 alone and does not
        # reuse the finish's solve
        rng = np.random.default_rng(4)
        t = rng.uniform(0, 10, 30)
        a = np.column_stack([np.ones(30), t])
        y = 1 + 2.5 * t + 0.05 * rng.normal(size=30)
        clean = np.ones(30, dtype=bool)
        clean[[5, 17]] = False
        a_c, a_o = a[clean], a[[5, 17]]
        x = np.linalg.solve(a_c.T @ a_c, a_c.T @ y[clean] + a_o.T @ [1.0, 1.0])
        y[[5, 17]] = a_o @ x + [21.0, 1.0 + 1e-8]
        sol = app_bem(a, y, LoireConfig(lam=1.0))
        assert sol.loire.converged and np.count_nonzero(sol.loire.b) == 2
        assert sol.support == (5,) and clean_factorizations == []
        clean[17] = True
        x = least_squares_solve(a[clean], y[clean])
        assert np.linalg.norm(sol.x - x) <= 1e-12 * np.linalg.norm(x)

    def test_no_clean_row_gives_x_zero(self, clean_factorizations):
        a = np.random.default_rng(2).normal(size=(4, 2))
        solve, exact = linalg.clean_solve(a, range_factors(a), np.arange(4))
        assert np.array_equal(solve(np.arange(4.0)), np.zeros(2)) and not exact
        assert clean_factorizations == []


class TestOracle:
    def test_exact_system_needs_empty_support(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 2))
        x_star = rng.normal(size=2)
        # t = 0 up to float rounding of the exact-fit residual
        sol = bernoulli_oracle(a, a @ x_star, OracleConfig(t=1e-12, max_support=6))
        assert sol.support == ()
        np.testing.assert_allclose(sol.x, x_star, atol=1e-9)

    def test_single_support_zeroes_residual(self):
        sol = bernoulli_oracle(np.ones((3, 1)), [1.0, 1.0, 9.0],
                               OracleConfig(t=0.1, max_support=3))
        assert sol.support == (2,)
        np.testing.assert_allclose(sol.x, [1.0])
        np.testing.assert_allclose(sol.b, [0.0, 0.0, 8.0])

    @pytest.mark.parametrize("kwargs", [
        {"t": -1.0, "max_support": 1}, {"t": math.nan, "max_support": 1},
        {"t": 1.0, "max_support": -1}, {"t": 1.0, "max_support": 1.5},
    ])
    def test_invalid_config_raises(self, kwargs):
        # with t = NaN no residual is within the radius: every solve would be infeasible
        with pytest.raises(ValueError, match="must be nonnegative"):
            OracleConfig(**kwargs)

    def test_infeasible_radius_raises(self):
        with pytest.raises(InfeasibleRadius):
            bernoulli_oracle(np.ones((4, 1)), [0.0, 1.0, 2.0, 9.0],
                             OracleConfig(t=1e-9, max_support=1))

    def test_enumeration_guard(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(60, 2))
        with pytest.raises(ValueError, match="cap"):
            bernoulli_oracle(a, rng.normal(size=60),
                             OracleConfig(t=1.0, max_support=60))

    def test_enumeration_refusal_is_bounded(self):
        # the full count over m = 5000 rows has 1506 digits; the refusal
        # stops summing once the cap is passed
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError, match="cap") as info:
            bernoulli_oracle(rng.normal(size=(5000, 1)), rng.normal(size=5000),
                             OracleConfig(t=1.0, max_support=5000))
        assert len(str(info.value)) < 200

    def test_matches_planted_support_when_identifiable(self):
        # brute-force re-check: the planted support must be accepted and no
        # smaller support may be feasible
        for trial in range(30):
            rng = np.random.default_rng(200 + trial)
            m, n = 10, 2
            a = rng.normal(size=(m, n))
            x_star = rng.normal(size=n)
            noise = rng.normal(0, 0.02, size=m)
            planted = sorted(rng.choice(m, size=2, replace=False).tolist())
            y = a @ x_star + noise
            y[planted] += rng.choice([-1.0, 1.0], 2) * rng.uniform(3, 6, 2)
            t = 1.05 * np.linalg.norm(np.delete(noise, planted))

            def feasible(sup):
                clean = np.setdiff1d(np.arange(m), np.asarray(sup, dtype=int))
                x = least_squares_solve(a[clean], y[clean])
                return np.linalg.norm(y[clean] - a[clean] @ x) <= t

            assert feasible(planted)
            smaller_exists = any(feasible(s) for k in range(2)
                                 for s in combinations(range(m), k))
            sol = bernoulli_oracle(a, y, OracleConfig(t=t, max_support=2))
            if not smaller_exists:
                assert list(sol.support) == planted

    def test_lemma_noise_vanishes_on_support(self):
        # e = y - A x - b is exactly zero on the returned support; work in the
        # canonical column-major layout so A x reproduces the solver's product
        for trial in range(20):
            rng = np.random.default_rng(400 + trial)
            a = np.asfortranarray(rng.normal(size=(9, 2)))
            y = a @ rng.normal(size=2) + rng.normal(0, 0.05, size=9)
            y[rng.integers(9)] += 5.0
            sol = bernoulli_oracle(a, y, OracleConfig(t=0.5, max_support=3))
            e = y - a @ sol.x - sol.b
            for i in sol.support:
                assert e[i] == 0.0

    def test_refit_characterization_equivalence(self):
        # A x(oracle) equals A x(least squares on the support complement)
        for trial in range(20):
            rng = np.random.default_rng(600 + trial)
            a = rng.normal(size=(10, 2))
            y = a @ rng.normal(size=2) + rng.normal(0, 0.05, size=10)
            y[rng.choice(10, 2, replace=False)] += rng.uniform(4, 8, 2)
            sol = bernoulli_oracle(a, y, OracleConfig(t=0.6, max_support=3))
            clean = np.setdiff1d(np.arange(10), np.asarray(sol.support))
            x_refit = least_squares_solve(a[clean], y[clean])
            np.testing.assert_allclose(a @ sol.x, a @ x_refit, atol=1e-10)


class TestAgreementWithOracle:
    def test_two_stage_matches_oracle_on_single_outlier_suite(self):
        # pre-measured: 194/200 agreement on this frozen suite; floor 0.95
        sigma = 0.05
        agree = 0
        for trial in range(200):
            rng = np.random.default_rng(3000 + trial)
            m, n = 10, 2
            a = rng.normal(size=(m, n))
            x_star = rng.normal(size=n)
            noise = rng.normal(0, sigma, size=m)
            j = int(rng.integers(m))
            b_true = np.zeros(m)
            b_true[j] = rng.choice([-1.0, 1.0]) * rng.uniform(20 * sigma, 60 * sigma)
            y = a @ x_star + noise + b_true
            bem = app_bem(a, y, LoireConfig(lam=1.0 / (8 * sigma)))
            t = 1.05 * np.linalg.norm(noise[np.arange(m) != j])
            orc = bernoulli_oracle(a, y, OracleConfig(t=t, max_support=3))
            if set(bem.support) == set(orc.support):
                agree += 1
        assert agree >= 0.95 * 200


class TestSupportTypes:
    """detect_support gives a boolean mask; BemSolution.support holds Python
    ints, so it serializes to JSON as it is."""

    def test_detect_support_entries_are_int(self):
        support = detect_support(np.array([[0.0, -2.0], [0.0, 3.5]]), 1e-6)
        assert support.dtype == bool and support.shape == (2, 2)
        np.testing.assert_array_equal(support, [[False, True], [False, True]])

    def test_app_bem_support_entries_are_int(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(30, 2))
        y = a @ np.array([0.5, 2.0]) + 0.01 * rng.normal(size=30)
        y[[3, 11, 20]] += [9.0, -12.0, 7.0]
        sol = app_bem(a, y, LoireConfig(lam=20.0))
        assert sol.support == (3, 11, 20)
        assert all(type(i) is int for i in sol.support)


def _perfbench_workloads():
    """perfbench/workloads.py (numpy only), run from its source so that nothing,
    not even a bytecode cache, is written beside it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


class TestBenchmarkContract:
    def test_regress_batch_smoke_problems_meet_the_app_bem_contract(self):
        """The benchmark's own appBEM check (normal equations, b on the support,
        non-increasing trace) on every smoke regress-batch problem, and the
        support a plain lstsq alternation would flag."""
        wl = _perfbench_workloads()
        problems = list(wl.batch_problems(0, wl.sizes("regress-batch", smoke=True)))
        assert len(problems) == 40
        for a, y, _, _ in problems:
            lam = default_lambda(a, y)
            sol = app_bem(a, y, LoireConfig(lam=lam))
            assert wl.check_bem(a, y, sol.x, sol.b, sol.support, sol.loire.objective_trace,
                                sol.loire.iterations) == []
            _, b_ref, _, _, _ = loire_plain_alternation(a, y, lam)
            assert sol.support == tuple(np.flatnonzero(
                detect_support(_loire_with_b(b_ref), default_zero_tol(y))))
