import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loire import (LoireConfig, SimSpec, app_bem, baseline_lad, baseline_ols,
                   compute_metrics, default_lambda, detect_support, generate_sim)
from loire import benchmark
from loire.linalg import GAP_TOL, range_projector
from oracles import lad_admm_reference


class TestGenerator:
    def test_zero_density_means_no_spikes(self):
        inst = generate_sim(SimSpec(n=30, spike_density=0.0, seed=1))
        np.testing.assert_allclose(inst.b_true, np.zeros((30, 30)))
        assert inst.true_support.dtype == bool and not inst.true_support.any()

    def test_low_rank_component_rank(self):
        inst = generate_sim(SimSpec(n=100, rank_frac=0.05, seed=2))
        assert np.linalg.matrix_rank(inst.l) <= 5

    def test_bitwise_determinism(self):
        a = generate_sim(SimSpec(n=200, seed=7))
        b = generate_sim(SimSpec(n=200, seed=7))
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.b_true, b.b_true)
        assert np.array_equal(a.true_support, b.true_support)

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
        frac = np.count_nonzero(inst.true_support) / 100**2
        assert 0.8 * 0.05 <= frac <= 1.2 * 0.05

    def test_true_support_is_the_drawn_spike_mask(self):
        # not b_true != 0: a zero amplitude draws spikes that change no entry
        inst = generate_sim(SimSpec(n=100, spike_amplitude=0.0, seed=9))
        assert not inst.b_true.any()
        # the same draws at amplitude 0 and 10 give the same mask
        spiked = generate_sim(SimSpec(n=100, seed=9))
        assert inst.true_support.dtype == bool and inst.true_support.any()
        assert np.array_equal(inst.true_support, spiked.true_support)
        assert np.array_equal(spiked.true_support, spiked.b_true != 0)

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
        truth = np.ones(10, dtype=bool)
        detected = np.arange(10) < 8
        m = compute_metrics(detected, truth)
        assert (m.tp, m.fn, m.fp) == (8, 2, 0)
        assert m.dr == pytest.approx(0.8)
        assert m.pre == pytest.approx(1.0)
        assert m.f == pytest.approx(8.0 / 9.0)

    def test_perfect_detection(self):
        s = np.zeros((3, 4), dtype=bool)
        s[1, 1] = s[2, 3] = True
        m = compute_metrics(s, s)
        assert m.dr == m.pre == m.f == 1.0

    def test_nothing_detected_conventions(self):
        m = compute_metrics(np.zeros((1, 1), dtype=bool), np.ones((1, 1), dtype=bool))
        assert m.dr == 0.0 and m.pre == 1.0 and m.f == 0.0

    def test_empty_truth_conventions(self):
        m = compute_metrics(np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool))
        assert m.dr == m.pre == m.f == 1.0

    @given(st.integers(0, 500), st.integers(0, 500), st.integers(0, 500))
    def test_identities_and_bounds(self, tp, fn, fp):
        truth = np.zeros((2, 1000), dtype=bool)
        truth[0, :tp + fn] = True
        detected = np.zeros((2, 1000), dtype=bool)
        detected[0, :tp] = detected[1, :fp] = True
        m = compute_metrics(detected, truth)
        assert (m.tp, m.fn, m.fp) == (tp, fn, fp)
        assert all(type(v) is int for v in (m.tp, m.fn, m.fp))
        assert 0.0 <= m.dr <= 1.0 and 0.0 <= m.pre <= 1.0 and 0.0 <= m.f <= 1.0
        assert m.f <= (m.dr + m.pre) / 2 + 1e-12
        if m.dr + m.pre > 0:
            assert m.f == pytest.approx(2 * m.dr * m.pre / (m.dr + m.pre))

    def test_matrix_support_detection(self):
        b = np.array([[0.0, 2.0], [1e-9, -3.0]])
        np.testing.assert_array_equal(detect_support(b, 1e-6), [[False, True], [False, True]])

    @pytest.mark.parametrize("zero_tol", [-1.0, math.nan])
    def test_matrix_support_rejects_bad_zero_tol(self, zero_tol):
        # -1 would flag every entry, NaN none
        with pytest.raises(ValueError, match="zero_tol"):
            detect_support(np.array([[0.0, 2.0]]), zero_tol)

    @pytest.mark.parametrize("detected, truth", [
        ({(0, 1)}, {(0, 1)}),  # the supports of old: sets of (i, j) pairs
        ([True, False], [True, False]),
        (np.array([1, 0]), np.array([1, 0])),
        (np.array([True, False]), np.array([1, 0])),
        (np.zeros((2, 3), dtype=bool), np.zeros((3, 2), dtype=bool)),
        (np.zeros(6, dtype=bool), np.zeros((2, 3), dtype=bool)),
    ])
    def test_anything_but_two_masks_of_one_shape_raises(self, detected, truth):
        # sets or index lists would be read as masks and scored wrong, silently
        with pytest.raises(TypeError, match="boolean masks of the same shape"):
            compute_metrics(detected, truth)


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

    @pytest.mark.parametrize("max_iter", [2, 50, 1000])
    def test_matches_admm_reference_bit_for_bit(self, max_iter):
        # the shared in-place loop with its dual on is the allocating ADMM,
        # gap stop and vertex step included
        rng = np.random.default_rng(300)
        cases = [(rng.normal(size=(40, 1)), np.zeros(40))]  # y = 0: one step
        # Cauchy noise: capped at 2 and 50; at 1000 a gap stop, at step 240
        # with the vertex step taken, at 505 with it refused
        for m, n in ((70, 2), (100, 3)):
            a = rng.normal(size=(m, n))
            cases.append((a, a @ rng.normal(size=n) + 0.2 * rng.standard_cauchy(size=m)))
        # bounded noise: z stays 0 on step 1; a gap stop at step 555
        a = rng.normal(size=(130, 4))
        cases.append((a, a @ rng.normal(size=4) + rng.uniform(-0.1, 0.1, 130)))
        cases.append((rng.normal(size=(8, 2)), rng.normal(size=8)))  # a gap stop at 40
        for a, y in cases:
            res = baseline_lad(a, y, max_iter=max_iter)
            x, iterations, converged = lad_admm_reference(a, y, max_iter)
            assert np.array_equal(res.x, x)
            assert (res.iterations, res.converged) == (iterations, converged)

    def test_records_rho_and_trace(self):
        # the 8x2 case of test_matches_admm_reference_bit_for_bit, drawn after
        # the other seed-300 cases, stops on its gap at step 40 and takes the
        # vertex step
        rng = np.random.default_rng(300)
        rng.normal(size=(40, 1))
        for m, n in ((70, 2), (100, 3)):
            rng.normal(size=(m, n)), rng.normal(size=n), rng.standard_cauchy(size=m)
        rng.normal(size=(130, 4)), rng.normal(size=4), rng.uniform(-0.1, 0.1, 130)
        a, y = rng.normal(size=(8, 2)), rng.normal(size=8)
        res = baseline_lad(a, y)
        assert res.lam == default_lambda(a, y)
        assert res.converged and len(res.objective_trace) == res.iterations
        assert res.tol == pytest.approx(1e-10 * np.linalg.norm(y), rel=1e-14)
        # the certified gap: a vertex's is rounding, and its fit is the LP
        # optimum, the least ||y - A x||_1 over the 28 two-row interpolants
        f = np.abs(y - a @ res.x).sum()
        assert abs(res.gap) <= 1e-12 and np.array_equal(res.b, y - a @ res.x)
        best = min(np.abs(y - a @ np.linalg.solve(a[[i, j]], y[[i, j]])).sum()
                   for i in range(8) for j in range(i + 1, 8))
        assert f == pytest.approx(best, rel=1e-12)

    def test_matches_linear_program_oracle(self):
        linprog = pytest.importorskip("scipy.optimize").linprog
        for trial in range(5):
            rng = np.random.default_rng(100 + trial)
            m, n = 20, 2
            a = rng.normal(size=(m, n))
            y = a @ rng.normal(size=n) + rng.standard_cauchy(size=m) * 0.2
            res = baseline_lad(a, y)
            ours = np.abs(y - a @ res.x).sum()
            assert ours <= _lp_l1_optimum(linprog, a, y) + 1e-4

    def test_gap_stop_is_certified(self, monkeypatch):
        # every gap stop's x is within GAP_TOL of the LP optimum, and the dual
        # that proved it, scaled into |d| <= 1 as the definition says, has
        # A^T d = 0 to rounding, bounds the optimum from below and certifies x
        linprog = pytest.importorskip("scipy.optimize").linprog
        duals = []

        def recording_projector(a):
            project, x, null = range_projector(a)

            def null_and_record(d, scratch):
                null(d, scratch)
                duals.append(d / max(1.0, np.abs(d).max()))

            return project, x, null_and_record

        monkeypatch.setattr(benchmark, "range_projector", recording_projector)
        stops = 0
        for trial in range(24):
            rng = np.random.default_rng(700 + trial)
            m, n = int(rng.integers(20, 301)), int(rng.integers(1, 7))
            a = rng.normal(size=(m, n))
            y = a @ rng.normal(size=n)
            if trial % 2:
                y += 0.2 * rng.standard_cauchy(size=m)
            else:  # unit noise and 5% gross outliers, as the CSV benchmark plants
                y += rng.normal(size=m)
                rows = rng.choice(m, size=max(1, m // 20), replace=False)
                y[rows] += rng.choice([-1.0, 1.0], rows.size) * rng.uniform(10, 50, rows.size)
            duals.clear()
            res = baseline_lad(a, y)
            if res.gap is None or res.gap > GAP_TOL:
                continue
            stops += 1
            f, f_lp, d = np.abs(y - a @ res.x).sum(), _lp_l1_optimum(linprog, a, y), duals[-1]
            assert f - f_lp <= GAP_TOL * f_lp
            assert np.linalg.norm(a.T @ d) <= 1e-12 * np.linalg.norm(a, 2) * np.linalg.norm(d)
            assert y @ d <= f_lp * (1 + 1e-7) and f - y @ d <= GAP_TOL * f
        assert stops >= 20


def _lp_l1_optimum(linprog, a, y):
    """min ||y - A x||_1 as the LP min 1ᵀt s.t. -t <= y - A x <= t (scipy HiGHS)."""
    m, n = a.shape
    c = np.concatenate([np.zeros(n), np.ones(m)])
    a_ub = np.block([[a, -np.eye(m)], [-a, -np.eye(m)]])
    b_ub = np.concatenate([y, -y])
    lp = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n + [(0, None)] * m)
    assert lp.status == 0
    return lp.fun

