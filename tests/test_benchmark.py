import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loire import (BenchmarkReport, DetectionMetrics, LoireConfig, SimSpec,
                   app_bem, baseline_lad, baseline_ols, compute_metrics,
                   detect_matrix_support, generate_sim)


class TestGenerator:
    def test_zero_density_means_no_spikes(self):
        inst = generate_sim(SimSpec(n=30, spike_density=0.0, seed=1))
        np.testing.assert_allclose(inst.b_true, np.zeros((30, 30)))
        assert inst.true_support == set()

    def test_low_rank_component_rank(self):
        inst = generate_sim(SimSpec(n=100, rank_frac=0.05, seed=2))
        assert np.linalg.matrix_rank(inst.l) <= 5

    def test_bitwise_determinism(self):
        a = generate_sim(SimSpec(n=200, seed=7))
        b = generate_sim(SimSpec(n=200, seed=7))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.b_true, b.b_true)
        assert a.true_support == b.true_support

    def test_composition(self):
        inst = generate_sim(SimSpec(n=40, seed=3))
        np.testing.assert_allclose(inst.y, inst.l + inst.g + inst.b_true)

    def test_symmetric_low_rank_factor(self):
        inst = generate_sim(SimSpec(n=25, seed=4))
        np.testing.assert_allclose(inst.l, inst.l.T)

    def test_population_statistics(self):
        densities, means = [], []
        for seed in range(50):
            inst = generate_sim(SimSpec(n=100, seed=seed))
            densities.append(np.count_nonzero(inst.b_true) / 100**2)
            means.append(inst.g.mean())
        assert 0.04 <= np.mean(densities) <= 0.06
        assert abs(np.mean(means) - 1.0) <= 0.05

    def test_spike_count_within_binomial_band(self):
        spec = SimSpec(n=100, spike_density=0.05, seed=9)
        inst = generate_sim(spec)
        frac = len(inst.true_support) / 100**2
        assert 0.8 * 0.05 <= frac <= 1.2 * 0.05

    def test_invalid_spec_raises(self):
        with pytest.raises(ValueError):
            SimSpec(n=0)
        with pytest.raises(ValueError):
            SimSpec(n=10, spike_density=1.5)
        with pytest.raises(ValueError):
            SimSpec(n=10, rank_frac=0.0)
        # numpy draws from no infinite, NaN or negative range, and a NaN
        # amplitude would only show in the generated matrix
        for kwargs in ({"dense_noise_scale": math.nan}, {"dense_noise_scale": math.inf},
                       {"dense_noise_scale": -2.0}, {"spike_amplitude": math.nan},
                       {"spike_amplitude": math.inf}, {"spike_amplitude": -1.0},
                       {"rank_frac": math.nan}, {"spike_density": math.nan}, {"seed": -1}):
            with pytest.raises(ValueError, match="must"):
                SimSpec(n=10, **kwargs)


class TestMetrics:
    def test_papers_arithmetic(self):
        truth = {(0, j) for j in range(10)}
        detected = {(0, j) for j in range(8)}
        m = compute_metrics(detected, truth)
        assert (m.tp, m.fn, m.fp) == (8, 2, 0)
        assert m.dr == pytest.approx(0.8)
        assert m.pre == pytest.approx(1.0)
        assert m.f == pytest.approx(8.0 / 9.0)

    def test_perfect_detection(self):
        s = {(1, 1), (2, 3)}
        m = compute_metrics(s, s)
        assert m.dr == m.pre == m.f == 1.0

    def test_nothing_detected_conventions(self):
        m = compute_metrics(set(), {(0, 0)})
        assert m.dr == 0.0 and m.pre == 1.0 and m.f == 0.0

    def test_empty_truth_conventions(self):
        m = compute_metrics(set(), set())
        assert m.dr == m.pre == m.f == 1.0

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_identities_and_bounds(self, tp, fn, fp):
        truth = {(0, i) for i in range(tp + fn)}
        detected = {(0, i) for i in range(tp)} | {(1, i) for i in range(fp)}
        m = compute_metrics(detected, truth)
        assert (m.tp, m.fn, m.fp) == (tp, fn, fp)
        assert 0.0 <= m.dr <= 1.0 and 0.0 <= m.pre <= 1.0 and 0.0 <= m.f <= 1.0
        assert m.f <= (m.dr + m.pre) / 2 + 1e-12
        if m.dr + m.pre > 0:
            assert m.f == pytest.approx(2 * m.dr * m.pre / (m.dr + m.pre))

    def test_matrix_support_detection(self):
        b = np.array([[0.0, 2.0], [1e-9, -3.0]])
        assert detect_matrix_support(b, 1e-6) == {(0, 1), (1, 1)}

    @pytest.mark.parametrize("zero_tol", [-1.0, math.nan])
    def test_matrix_support_rejects_bad_zero_tol(self, zero_tol):
        # -1 would flag every entry, NaN none
        with pytest.raises(ValueError, match="zero_tol"):
            detect_matrix_support(np.array([[0.0, 2.0]]), zero_tol)


class TestBaselineOls:
    def test_identity(self):
        np.testing.assert_allclose(baseline_ols(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_clean_recovery(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 3))
        x_star = rng.normal(size=3)
        np.testing.assert_allclose(baseline_ols(a, a @ x_star), x_star, atol=1e-10)

    def test_worse_than_two_stage_under_corruption(self):
        sigma = 0.05
        wins = 0
        for trial in range(50):
            rng = np.random.default_rng(5000 + trial)
            a = rng.normal(size=(30, 3))
            x_star = rng.normal(size=3)
            y = a @ x_star + rng.normal(0, sigma, size=30)
            idx = rng.choice(30, size=3, replace=False)
            y[idx] += rng.choice([-1.0, 1.0], 3) * 50 * sigma
            bem = app_bem(a, y, LoireConfig(lam=1.0 / (6 * sigma)))
            if np.linalg.norm(bem.x - x_star) < np.linalg.norm(baseline_ols(a, y) - x_star):
                wins += 1
        assert wins >= 45


class TestBaselineLad:
    def test_constant_fit_is_median(self):
        res = baseline_lad(np.ones((3, 1)), [1.0, 2.0, 9.0])
        assert res.converged
        np.testing.assert_allclose(res.x, [2.0], atol=1e-6)

    def test_identity_interpolates(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=5)
        res = baseline_lad(np.eye(5), y)
        np.testing.assert_allclose(res.x, y, atol=1e-6)

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(2)
        res = baseline_lad(rng.normal(size=(10, 2)), rng.normal(size=10),
                           max_iter=2)
        assert not res.converged

    def test_max_iter_below_one_raises(self):
        # would return x = 0 after no iteration
        with pytest.raises(ValueError, match="max_iter"):
            baseline_lad(np.ones((3, 1)), [1.0, 2.0, 9.0], max_iter=0)

    def test_matches_linear_program_oracle(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            m, n = 20, 2
            a = rng.normal(size=(m, n))
            y = a @ rng.normal(size=n) + rng.standard_cauchy(size=m) * 0.2
            res = baseline_lad(a, y)
            ours = np.abs(y - a @ res.x).sum()
            # min 1^T t  s.t.  -t <= y - A x <= t
            c = np.concatenate([np.zeros(n), np.ones(m)])
            a_ub = np.block([[a, -np.eye(m)], [-a, -np.eye(m)]])
            b_ub = np.concatenate([y, -y])
            lp = linprog(c, A_ub=a_ub, b_ub=b_ub,
                         bounds=[(None, None)] * n + [(0, None)] * m)
            assert lp.status == 0
            assert ours <= lp.fun + 1e-4


class TestReportRoundTrip:
    def test_row_round_trip_is_lossless(self):
        rep = BenchmarkReport(
            method="rrf", spec=SimSpec(n=200, seed=7),
            metrics=DetectionMetrics(tp=0, fn=0, fp=0, dr=0.8123456789012345,
                                     pre=0.91, f=0.8586),
            wall_time_s=1.25, lam=0.625, tol=3.337e-05, iterations=41)
        row = rep.to_row()
        back = BenchmarkReport.from_row(row)
        assert back.to_row() == row
        assert back.spec.n == 200 and back.spec.seed == 7
        assert back.metrics.dr == rep.metrics.dr
