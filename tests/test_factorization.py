import math
import time

import numpy as np
import pytest

from loire import (FactorizationConfig, LoireConfig, SimSpec, compute_metrics,
                   detect_support, factorization, generate_sim, loire_solve, rrf_solve)
from oracles import (counting_svd, ialm_rpca, rrf_full_svd_alternation, rrf_objective,
                     singular_values_bruteforce, threshold_ceiling)


class TestConfig:
    @pytest.mark.parametrize("kwargs", [
        {"rank": 0, "lam": 1.0}, {"rank": 1, "lam": 0.0},
        {"rank": 1, "lam": 1.0, "tol": -1.0},
        {"rank": 1, "lam": 1.0, "max_iter": 0},
        {"rank": 1, "lam": math.nan}, {"rank": 1, "lam": math.inf},
        {"rank": 1, "tol": math.nan}, {"rank": 1, "tol": math.inf},
        {"rank": 1.5, "lam": 1.0},
    ])
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            FactorizationConfig(**kwargs)

    def test_rank_above_dimensions_raises(self):
        with pytest.raises(ValueError):
            rrf_solve(np.ones((3, 4)), FactorizationConfig(rank=4, lam=1.0))


class TestSolver:
    def test_exact_low_rank_single_iteration(self):
        rng = np.random.default_rng(3)
        y = rng.normal(size=(8, 2)) @ rng.normal(size=(2, 7))
        sol = rrf_solve(y, FactorizationConfig(rank=2, lam=1e6))
        assert sol.iterations == 1 and sol.converged
        assert np.linalg.norm(sol.a @ sol.x - y) <= 1e-8 * np.linalg.norm(y)
        np.testing.assert_allclose(sol.b, np.zeros_like(y))

    def test_zero_matrix(self):
        sol = rrf_solve(np.zeros((4, 4)), FactorizationConfig(rank=2, lam=1.0))
        np.testing.assert_allclose(sol.a.T @ sol.a, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(sol.x, np.zeros((2, 4)))
        np.testing.assert_allclose(sol.b, np.zeros((4, 4)))

    def test_unit_columns_and_bounded_rank(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=(20, 15))
        sol = rrf_solve(y, FactorizationConfig(rank=3, lam=0.5, max_iter=50))
        np.testing.assert_allclose(np.linalg.norm(sol.a, axis=0), np.ones(3),
                                   atol=1e-8)
        assert np.linalg.matrix_rank(sol.a @ sol.x) <= 3

    def test_per_iteration_descent(self):
        for seed in range(1, 11):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(10, 40))
            n = int(rng.integers(10, 40))
            y = rng.uniform(size=(m, 2)) @ rng.uniform(size=(2, n)) \
                + np.where(rng.random((m, n)) < 0.05, rng.uniform(0, 10, (m, n)), 0.0)
            sol = rrf_solve(y, FactorizationConfig(rank=2, lam=1.0, max_iter=100))
            diffs = np.diff(sol.objective_trace)
            assert diffs.size == 0 or diffs.max() <= 1e-10

    def test_non_convergence_flagged(self):
        rng = np.random.default_rng(5)
        y = rng.normal(size=(15, 15))
        sol = rrf_solve(y, FactorizationConfig(rank=2, lam=10.0, tol=1e-15,
                                               max_iter=2))
        assert not sol.converged
        assert sol.iterations == 2

    def test_svd_step_is_eckart_young_optimal(self):
        # given B fixed, the factor step hits the tail-energy optimum
        for seed in range(3):
            rng = np.random.default_rng(30 + seed)
            m, n, r = 30, 25, 4
            y = rng.normal(size=(m, n))
            sol = rrf_solve(y, FactorizationConfig(rank=r, lam=1.0, max_iter=1))
            # first iteration factors Y - B_0 with B_0 = 0
            err = np.linalg.norm(y - sol.a @ sol.x)
            sv = singular_values_bruteforce(y)
            assert abs(err - np.sqrt(np.sum(sv[r:] ** 2))) \
                <= 1e-8 * (1 + np.linalg.norm(y))

    def test_shrinkage_step_scalar_optimality(self):
        # each B entry minimizes |z| + (lam/2)(resid - z)^2 on a grid
        rng = np.random.default_rng(6)
        y = rng.normal(size=(12, 10)) * 3
        lam = 0.8
        sol = rrf_solve(y, FactorizationConfig(rank=2, lam=lam, max_iter=40))
        resid = y - sol.a @ sol.x
        grid = np.linspace(-20, 20, 40001)
        idx = rng.integers(0, 12, size=50), rng.integers(0, 10, size=50)
        for v, z in zip(resid[idx], sol.b[idx]):
            ours = abs(z) + 0.5 * lam * (v - z) ** 2
            best = np.min(np.abs(grid) + 0.5 * lam * (v - grid) ** 2)
            assert ours <= best + 1e-6

    def test_column_equivalence_with_regression_solver(self):
        # one factor/shrink pair equals the regression solver's first
        # iteration applied per column with the same fixed dictionary
        rng = np.random.default_rng(7)
        y = rng.normal(size=(16, 6)) + rng.uniform(size=(16, 1)) @ rng.uniform(size=(1, 6)) * 5
        lam = 2.0
        mat = rrf_solve(y, FactorizationConfig(rank=3, lam=lam, max_iter=1))
        for i in range(y.shape[1]):
            col = loire_solve(mat.a, y[:, i], LoireConfig(lam=lam, max_iter=1))
            np.testing.assert_allclose(col.x, mat.x[:, i], atol=1e-10)
            np.testing.assert_allclose(col.b, mat.b[:, i], atol=1e-10)

    def test_noiseless_spike_separation(self):
        # frozen regression floor: support F-measure 0.995 on this instance
        # (pre-measured 0.998 at threshold 0.03)
        inst = generate_sim(SimSpec(n=100, spike_density=0.05, seed=11))
        y = inst.l + inst.b_true
        sol = rrf_solve(y, FactorizationConfig(rank=5, lam=1.0 / 0.03, max_iter=500))
        detected = detect_support(sol.b, 1e-6 * (1 + np.abs(y).max()))
        metrics = compute_metrics(detected, inst.true_support)
        assert metrics.f >= 0.995


def _corrupted_low_rank(seed, m, n, r):
    rng = np.random.default_rng(seed)
    return rng.uniform(size=(m, r)) @ rng.uniform(size=(r, n)) * 3 \
        + rng.normal(size=(m, n)) * 0.1 \
        + np.where(rng.random((m, n)) < 0.1, rng.uniform(-10, 10, (m, n)), 0.0)


def _warm_step_shapes():
    # wide and tall, rank == min(m, n), and 2r > min(m, n) with r < min(m, n)
    shapes = [(8, 30, 3), (30, 8, 3), (15, 40, 9), (40, 15, 10), (34, 26, 14),
              (12, 12, 12), (7, 20, 7), (20, 6, 6), (5, 5, 3), (1, 9, 1), (9, 1, 1)]
    rng = np.random.default_rng(0)
    for _ in range(8):
        m, n = (int(v) for v in rng.integers(2, 40, size=2))
        shapes.append((m, n, int(rng.integers(1, min(m, n) + 1))))
    return shapes


class TestWarmStep:
    """Iterations after the first take a warm-started rank-r step in place."""

    @pytest.mark.parametrize("lam", [0.3, 1.0, 5.0])
    def test_trace_descent_and_final_objective(self, lam):
        for seed, (m, n, r) in enumerate(_warm_step_shapes()):
            y = _corrupted_low_rank(seed, m, n, r)
            sol = rrf_solve(y, FactorizationConfig(rank=r, lam=lam, max_iter=80))
            final = rrf_objective(y, sol.a, sol.x, sol.b, lam)
            assert sol.objective_trace[-1] == pytest.approx(final, rel=1e-12)
            diffs = np.diff(sol.objective_trace)
            assert diffs.size == 0 or diffs.max() <= 1e-12
            assert not np.any((sol.b == 0) & np.signbit(sol.b))

    def test_orthonormal_columns_after_many_warm_iterations(self):
        for seed, (m, n, r) in enumerate([(8, 30, 3), (40, 15, 10), (34, 26, 14),
                                          (23, 37, 7)]):
            y = _corrupted_low_rank(seed, m, n, r)
            sol = rrf_solve(y, FactorizationConfig(rank=r, lam=5.0, tol=1e-300,
                                                   max_iter=60))
            assert sol.iterations > 50
            np.testing.assert_allclose(sol.a.T @ sol.a, np.eye(r), atol=1e-12)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_fixed_point_as_full_svd_alternation(self, seed):
        # a criterion-5 instance run to the default tol
        spec = SimSpec(n=200, rank_frac=0.05, spike_density=0.05,
                       spike_amplitude=10.0, dense_noise_scale=2.0, seed=seed)
        y = generate_sim(spec).y
        lam = 1.0 / 1.6
        sol = rrf_solve(y, FactorizationConfig(rank=spec.rank, lam=lam))
        assert sol.converged
        expected = rrf_full_svd_alternation(y, spec.rank, lam)
        assert sol.objective_trace[-1] == pytest.approx(expected, rel=1e-9)

    def test_solution_records_the_tol_it_applied(self):
        y = _corrupted_low_rank(3, 20, 15, 2)
        sol = rrf_solve(y, FactorizationConfig(rank=2, lam=1.0))
        assert sol.tol == pytest.approx(1e-7 * np.linalg.norm(y), rel=1e-14)
        assert rrf_solve(y, FactorizationConfig(rank=2, lam=1.0, tol=0.5)).tol == 0.5

    def test_solution_records_the_lam_it_applied(self):
        y = _corrupted_low_rank(3, 20, 15, 2)
        assert rrf_solve(y, FactorizationConfig(rank=2, lam=0.37)).lam == 0.37


def _spectrum_matrix(kind, m, n, seed):
    # Gaussian, or graded: singular values from 1 down to 1e-14
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.normal(size=(m, n))
    k = min(m, n)
    u = np.linalg.qr(rng.normal(size=(m, k)))[0]
    v = np.linalg.qr(rng.normal(size=(n, k)))[0]
    return (u * np.logspace(0, -14, k)) @ v.T


class TestFirstStep:
    """The first factor step is the best rank-r fit of Y, without a full SVD."""

    @pytest.mark.parametrize("kind", ["gaussian", "graded"])
    @pytest.mark.parametrize("shape", [(300, 40), (40, 300), (120, 120)])
    def test_first_fit_error_is_the_svd_tail_energy(self, shape, kind):
        y = _spectrum_matrix(kind, *shape, seed=sum(shape))
        k = min(shape)
        sv = np.linalg.svd(y, compute_uv=False)
        for r in (1, 3, k // 4, k // 2, k - 2):
            sol = rrf_solve(y, FactorizationConfig(rank=r, lam=1.0, max_iter=1))
            err = np.linalg.norm(y - sol.a @ sol.x)
            assert abs(err - np.sqrt(np.sum(sv[r:] ** 2))) <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("r", [1, 3, 10])
    def test_tall_and_wide_starts_agree(self, r):
        # y is tall, y.T wide: the two Gram branches give the same first fit
        y = np.random.default_rng(8).normal(size=(300, 40))
        cfg = FactorizationConfig(rank=r, lam=1.0, max_iter=1)
        wide, tall = rrf_solve(y.T, cfg), rrf_solve(y, cfg)
        np.testing.assert_allclose(wide.a @ wide.x, (tall.a @ tall.x).T,
                                   rtol=0, atol=1e-12 * np.linalg.norm(y))

    def test_no_full_size_svd(self, eigh_calls):
        # no SVD at all: the start takes one eigh of the 80 x 80 Gram of Y,
        # and each iteration's Rayleigh-Ritz step one of the 6 x 6 Gram of
        # its 2r-row projection Q^T (Y - B)
        y = _corrupted_low_rank(9, 600, 80, 3)
        with counting_svd() as shapes:
            sol = rrf_solve(y, FactorizationConfig(rank=3))
        assert sol.converged
        assert shapes == []
        assert eigh_calls == [(80, 80)] + [(6, 6)] * sol.iterations


class TestRitzRoutes:
    """The warm step's Ritz vectors come from the eigh of the 2r x 2r Gram of
    its projection, or from the SVD of the projection below RITZ_FLOOR."""

    @pytest.mark.parametrize("r, route", [(3, []), (15, [(30, 40)])])
    def test_floor_splits_the_routes(self, r, route):
        # graded singular values 10^(-14 k / 39), k = 0..39: on the first
        # step w_r / w_1 = sigma_r^2 is 0.04 at r = 3, above the floor, and
        # 1e-10 at r = 15, below it, where the SVD of the 2r x n projection
        # runs
        y = _spectrum_matrix("graded", 300, 40, seed=340)
        with counting_svd() as shapes:
            rrf_solve(y, FactorizationConfig(rank=r, lam=1.0, max_iter=1))
        assert shapes == route

    def test_eigh_route_fits_as_the_svd_route(self, monkeypatch):
        for seed, (m, n, r) in enumerate(_warm_step_shapes()):
            y = _corrupted_low_rank(seed, m, n, r)
            cfg = FactorizationConfig(rank=r, lam=1.0, max_iter=80)
            with counting_svd() as shapes:
                eigh_sol = rrf_solve(y, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(factorization, "RITZ_FLOOR", np.inf)  # the SVD every step
                svd_sol = rrf_solve(y, cfg)
            assert shapes == []
            eigh_fit, svd_fit = eigh_sol.a @ eigh_sol.x, svd_sol.a @ svd_sol.x
            assert np.linalg.norm(eigh_fit - svd_fit) <= 1e-12 * np.linalg.norm(y)


class TestAgainstRobustPca:
    def test_detects_as_well_as_ialm_without_a_full_svd(self):
        # the paper's claim against RPCA, on criterion 5's instances: rrf at a
        # fixed rank finds the spikes about as well as RPCA by inexact ALM,
        # whose every step is a full SVD, without taking one.  Each method is
        # scored by the best single cut of Y - L_hat; wall times are printed
        # for the record, not asserted
        print("\nseed  method  time_s  iterations  rank  best-cut F")
        for seed in range(1, 6):
            spec = SimSpec(n=200, rank_frac=0.05, spike_density=0.05,
                           spike_amplitude=10.0, dense_noise_scale=2.0, seed=seed)
            inst = generate_sim(spec)
            spikes = inst.true_support
            with counting_svd() as rrf_shapes:
                t0 = time.perf_counter()
                sol = rrf_solve(inst.y, FactorizationConfig(rank=spec.rank, lam=1.0 / 1.6))
                rrf_s = time.perf_counter() - t0
            with counting_svd() as ialm_shapes:
                t0 = time.perf_counter()
                low, ialm_iters, ialm_rank = ialm_rpca(inst.y)
                ialm_s = time.perf_counter() - t0
            rrf_f = threshold_ceiling(inst.y - sol.a @ sol.x, spikes)[0]
            ialm_f = threshold_ceiling(inst.y - low, spikes)[0]
            print(f"{seed:4d}  rrf     {rrf_s:6.3f}  {sol.iterations:10d}  {spec.rank:4d}  "
                  f"{rrf_f:.4f}")
            print(f"{seed:4d}  ialm    {ialm_s:6.3f}  {ialm_iters:10d}  {ialm_rank:4d}  "
                  f"{ialm_f:.4f}")
            assert rrf_shapes == []
            assert ialm_shapes.count((200, 200)) >= 30
            assert rrf_f >= ialm_f - 0.02

    def test_where_rrf_breaks_under_heavy_corruption(self):
        # noiseless Y = L + spikes (rank 10, 200 x 200) at 10% and 20% of the
        # entries; relative error ||L_hat - L||_F / ||L||_F of rrf at the
        # default lambda and at criterion 6's lambda = 1/0.003, and of IALM.
        # At 10% rrf recovers L to 2.1e-4 in 1939 steps; at 20% it stalls
        # near 0.2 at the cap and is printed, not asserted.  IALM recovers
        # L to 1e-7 at both with one full SVD per step.  Times are printed.
        # One untimed solve first: with BLAS on 2 threads the first rrf_solve
        # in a fresh process has taken 1 s for 0.1 s of work
        warm = SimSpec(n=200, dense_noise_scale=0.0, spike_density=0.10, seed=1)
        rrf_solve(generate_sim(warm).y, FactorizationConfig(rank=warm.rank))
        print("\ndensity  method            time_s  iterations  rel_err")
        for density, cap in [(0.10, 2500), (0.20, 2000)]:
            spec = SimSpec(n=200, dense_noise_scale=0.0, spike_density=density, seed=1)
            inst = generate_sim(spec)

            def rel_err(low):
                return np.linalg.norm(low - inst.l) / np.linalg.norm(inst.l)

            for name, lam, max_iter in [("rrf default lam", None, 500),
                                        ("rrf lam=1/0.003", 1.0 / 0.003, cap)]:
                t0 = time.perf_counter()
                sol = rrf_solve(inst.y, FactorizationConfig(rank=spec.rank, lam=lam,
                                                            max_iter=max_iter))
                err = rel_err(sol.a @ sol.x)
                print(f"{density:7.2f}  {name:16s}  {time.perf_counter() - t0:6.3f}  "
                      f"{sol.iterations:10d}  {err:.2e}")
                if density == 0.10 and lam is not None:
                    assert sol.converged and err <= 5e-4
            with counting_svd() as shapes:
                t0 = time.perf_counter()
                low, iterations, _ = ialm_rpca(inst.y)
                ialm_s = time.perf_counter() - t0
            err = rel_err(low)
            print(f"{density:7.2f}  {'ialm':16s}  {ialm_s:6.3f}  {iterations:10d}  {err:.2e}")
            assert err <= 1e-6 and len(shapes) <= 40
