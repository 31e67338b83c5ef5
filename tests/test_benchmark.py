import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from loire import (LoireConfig, SimSpec, app_bem, baseline_lad, compute_metrics,
                   detect_support, generate_sim, least_squares_solve)
from oracles import lad_vertex_enumeration


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
        np.testing.assert_allclose(least_squares_solve(np.eye(2), [1.0, 2.0]), [1.0, 2.0])

    def test_clean_recovery(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(20, 3))
        x_star = rng.normal(size=3)
        np.testing.assert_allclose(least_squares_solve(a, a @ x_star), x_star, atol=1e-10)

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
            if np.linalg.norm(bem.x - x_star) < np.linalg.norm(least_squares_solve(a, y) - x_star):
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
        # the start vertex is not optimal, so a cap of one vertex binds; the
        # gap of its dual, scaled into the box, is still a certificate
        rng = np.random.default_rng(2)
        res = baseline_lad(rng.normal(size=(10, 2)), rng.normal(size=10),
                           max_iter=1)
        assert not res.converged and res.iterations == len(res.objective_trace) == 1
        assert 0.0 < res.gap <= 1.0

    def test_max_iter_below_one_raises(self):
        # would return x = 0 after no iteration
        with pytest.raises(ValueError, match="max_iter"):
            baseline_lad(np.ones((3, 1)), [1.0, 2.0, 9.0], max_iter=0)

    def test_records_trace_and_certificate(self):
        # one objective per vertex, falling, the last one ||y - A x||_1 at
        # the LP optimum, the least over the 28 two-row interpolants
        rng = np.random.default_rng(300)
        a, y = rng.normal(size=(8, 2)), rng.normal(size=8)
        res = baseline_lad(a, y)
        f = np.abs(y - a @ res.x).sum()
        assert res.converged and len(res.objective_trace) == res.iterations >= 1
        assert _non_increasing(res.objective_trace)
        assert res.objective_trace[-1] == pytest.approx(f, rel=1e-12)
        assert abs(res.gap) <= 1e-12
        np.testing.assert_allclose(res.b, y - a @ res.x, rtol=0, atol=1e-12)
        assert f == pytest.approx(lad_vertex_enumeration(a, y), rel=1e-12)

    def test_capped_run_beside_a_vertex_is_certified(self):
        # the optimum is the third vertex: a cap of three vertices still
        # certifies it, and a cap of two stops one pivot short, flagged
        a, y = _capped_beside_a_vertex()
        res = baseline_lad(a, y, max_iter=3)
        assert res.converged and res.iterations == 3 and abs(res.gap) <= 1e-12
        np.testing.assert_allclose(res.b, y - a @ res.x, rtol=0, atol=1e-12)
        best = lad_vertex_enumeration(a, y)
        assert np.abs(y - a @ res.x).sum() == pytest.approx(best, rel=1e-12)
        short = baseline_lad(a, y, max_iter=2)
        assert not short.converged and short.iterations == 2 and short.gap > 1e-3
        assert np.abs(y - a @ short.x).sum() > best
        assert short.objective_trace == res.objective_trace[:2]

    @pytest.mark.parametrize("max_iter", [1, 5, 1000])
    def test_vertex_that_fits_other_rows_exactly_is_certified(self, max_iter):
        # y = x but for rows 4 and 6, no intercept: slope 1 fits the basis row
        # and three more exactly, and those rows keep the sign of their
        # least-squares residual, -1, which proves the start vertex optimal
        # (d = -1 on rows 2, 3 and 5)
        a = np.arange(1.0, 7.0)[:, None]
        y = np.arange(1.0, 7.0)
        y[3], y[5] = 40.0, 6.5
        res = baseline_lad(a, y, max_iter=max_iter)
        assert res.x[0] == 1.0 and res.converged and res.iterations == 1
        assert res.gap == 0.0 and np.array_equal(res.b, y - a @ res.x)

    def test_matches_linear_program_oracle(self):
        # on 343 problems of seven kinds f is the LP optimum (scipy's HiGHS,
        # and vertex enumeration for m <= 10), the trace never rises, and the
        # last vertex's dual proves it: gap = 1 - 1/max(1, |d|) there, as
        # yᵀd = f, so gap <= 1e-9 is |d| <= 1 + 1e-9 (an exact fit, f = 0
        # but for rounding, has no gap to speak of)
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(2024)
        for trial in range(343):
            kind = LAD_KINDS[trial % len(LAD_KINDS)]
            a, y = _lad_problem(kind, rng)
            res = baseline_lad(a, y)
            f, f_lp = np.abs(y - a @ res.x).sum(), _lp_l1_optimum(linprog, a, y)
            scale = max(f_lp, np.abs(y).sum())
            assert abs(f - f_lp) <= 1e-9 * scale, (trial, kind, f, f_lp)
            if a.shape[0] <= 10:
                assert abs(f - lad_vertex_enumeration(a, y)) <= 1e-9 * scale, (trial, kind)
            assert res.converged and len(res.objective_trace) == res.iterations, (trial, kind)
            assert _non_increasing(res.objective_trace), (trial, kind)
            if f_lp > 1e-9 * scale:
                assert abs(res.gap) <= 1e-9, (trial, kind, res.gap)


LAD_KINDS = ("gaussian", "cauchy", "integer", "rank-deficient", "zero row", "wide", "y = 0")


def _lad_problem(kind, rng):
    """One problem of the named kind for the LAD differential test."""
    m, n = int(rng.integers(2, 61)), int(rng.integers(1, 7))
    a = rng.normal(size=(m, n))
    fit = a @ rng.normal(size=n)
    if kind == "gaussian":
        return a, fit + rng.normal(size=m)
    if kind == "cauchy":
        return a, fit + 0.2 * rng.standard_cauchy(size=m)
    if kind == "integer":  # exact ties: vertices that fit more than k rows
        a = np.rint(3.0 * a)
        return a, a @ np.rint(2.0 * rng.normal(size=n)) + rng.integers(-3, 4, size=m)
    if kind == "rank-deficient":  # integer, rank r < n + 1, a repeated column
        r = int(rng.integers(1, n + 1))
        a = np.rint(2.0 * rng.normal(size=(m, r))) @ np.rint(rng.normal(size=(r, n)))
        return np.column_stack([a, a[:, :1]]), np.rint(3.0 * rng.normal(size=m))
    if kind == "zero row":
        a[rng.integers(m)] = 0.0
        return a, fit + rng.normal(size=m)
    if kind == "wide":  # m < n, of rank 1 half the time, so not always an exact fit
        m = int(rng.integers(1, 6))
        n = m + int(rng.integers(1, 4))
        a = rng.normal(size=(m, n)) if rng.random() < 0.5 else \
            np.outer(rng.normal(size=m), rng.normal(size=n))
        return a, rng.normal(size=m)
    return a, np.zeros(m)


def _non_increasing(trace, rel=1e-12):
    """perfbench's rule: f[k+1] - f[k] <= rel * max(1, |f[k]|)."""
    f = np.asarray(trace)
    return bool(np.all(np.diff(f) <= rel * np.maximum(1.0, np.abs(f[:-1]))))


def _capped_beside_a_vertex():
    """y = 1 + 2.5 x + N(0, 0.1^2) on 12 rows, with +20 and -15 on rows 2 and
    9, and an intercept: LAD's optimum is its third vertex."""
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 10, 12)
    y = 1 + 2.5 * x + rng.normal(0, 0.1, 12)
    y[[2, 9]] += [20, -15]
    return np.column_stack([x, np.ones(12)]), y


def _lp_l1_optimum(linprog, a, y):
    """min ||y - A x||_1 as the LP min 1ᵀt s.t. -t <= y - A x <= t (scipy HiGHS)."""
    m, n = a.shape
    c = np.concatenate([np.zeros(n), np.ones(m)])
    a_ub = np.block([[a, -np.eye(m)], [-a, -np.eye(m)]])
    b_ub = np.concatenate([y, -y])
    lp = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n + [(0, None)] * m)
    assert lp.status == 0
    return lp.fun

