import numpy as np
import pytest

from loire import (FactorizationConfig, LoireConfig, OracleConfig, app_bem, baseline_lad,
                   bernoulli_oracle, least_squares_solve, loire_solve, rrf_solve)
from loire import linalg, regression
from loire.cli import main
from oracles import counting_svd
from test_bernoulli import _perfbench_workloads
from test_regression import LOOP_CASES, _loop_case


class TestLeastSquares:
    def test_identity_system(self):
        x = least_squares_solve(np.eye(2), [1.0, 2.0])
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_mean_of_entries(self):
        x = least_squares_solve([[1.0], [1.0]], [1.0, 3.0])
        np.testing.assert_allclose(x, [2.0])

    def test_minimum_norm_on_rank_deficient(self):
        x = least_squares_solve([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            least_squares_solve(np.ones((3, 2)), np.ones(4))

    def test_zero_size_raises(self):
        with pytest.raises(ValueError):
            least_squares_solve(np.ones((0, 2)), np.ones(0))

    def test_nonfinite_raises(self):
        with pytest.raises(ValueError):
            least_squares_solve([[np.nan], [1.0]], [1.0, 2.0])

    def test_residual_orthogonality(self):
        # A^T (y - A x) = 0 within 1e-8 * ||A|| * ||y|| on random solves
        for seed in range(40):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(2, 40))
            n = int(rng.integers(1, min(m, 10) + 1))
            a = rng.normal(size=(m, n))
            y = rng.normal(size=m) * 5
            x = least_squares_solve(a, y)
            gap = np.abs(a.T @ (y - a @ x)).max()
            assert gap <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(y)


def test_no_solve_calls_lstsq(tmp_path, monkeypatch, clean_factorizations):
    # every least-squares fit goes through range_factors, whose rank rule is
    # the only one: each path that fits A, or A on a row subset, runs with
    # numpy's lstsq raising
    def lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    np.testing.assert_allclose(least_squares_solve([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0]),
                               [1.0, 1.0], atol=1e-12)
    assert np.array_equal(least_squares_solve(np.zeros((3, 2)), [1.0, 2.0, 3.0]), np.zeros(2))
    clean_factorizations.clear()  # the two least-squares solves' own factorizations
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 10, 40)
    z = np.zeros(40)
    z[[6, 21]] = 1.0
    y = 1 + 2.5 * t + rng.normal(0, 0.1, 40)
    y[[6, 12, 21]] += [30.0, 40.0, -25.0]
    # the downdate, then fresh clean-row fits: z only on flagged rows, a rank-deficient A
    for a in (np.column_stack([np.ones(40), t]), np.column_stack([np.ones(40), t, z]),
              np.column_stack([np.ones(40), t, t])):
        assert app_bem(a, y, LoireConfig()).support == (6, 12, 21)
    assert clean_factorizations == [(37, 3), (37, 3)]
    # the 12-row LAD problem, whose optimum is its third vertex
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 10, 12)
    y = 1 + 2.5 * t + rng.normal(0, 0.1, 12)
    y[[2, 9]] += [20, -15]
    a = np.column_stack([t, np.ones(12)])
    res = baseline_lad(a, y)
    assert res.converged and abs(res.gap) <= 1e-12
    assert bernoulli_oracle(a, y, OracleConfig(t=1.0, max_support=2)).support == (2, 9)
    path = tmp_path / "vertex.csv"
    np.savetxt(path, np.column_stack([t, y]), delimiter=",", header="t,y", comments="")
    assert main(["regress", str(path), "--target", "y", "--intercept", "--method", "ols,lad",
                 "--out", str(tmp_path / "out")]) == 0


def _low_rank_plus_spikes(m, n, seed):
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(m, 2)) @ rng.normal(size=(2, n)) + 0.01 * rng.normal(size=(m, n))
    return np.asfortranarray(y + np.where(rng.random((m, n)) < 0.05, 10.0, 0.0))


def _regression(m, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, 5))
    y = a @ rng.normal(size=5) + 0.1 * rng.normal(size=m)
    return a, y + np.where(rng.random(m) < 0.05, 20.0, 0.0)


def _sweep_solve(case, lam):
    """(solution, y, factors) of one solve, where y - left @ right for
    *factors* = (left, right) is the residual whose shrink is the solution's
    b: (A, X) for rrf, (A, x) for regression, with A column-major as the
    solve holds it.  y of the short cases spans one product tile; the tall
    cases' columns are longer than a tile, so their tiles split rows."""
    tall = linalg.TILE + 1001 if case.endswith("-tall") else None
    if case.startswith("rrf"):
        y = _low_rank_plus_spikes(tall, 3, 0) if tall else _low_rank_plus_spikes(301, 40, 0)
        sol = rrf_solve(y, FactorizationConfig(rank=2, lam=lam, max_iter=200))
        return sol, y, (sol.a, sol.x)
    a, y = _regression(tall or 2500, 1)
    # app_bem's stage-1 solve, whose b it flags
    sol = loire_solve(a, y, LoireConfig(lam=lam)) if case.startswith("loire") else \
        app_bem(a, y, LoireConfig(lam=lam)).loire
    return sol, y, (np.asfortranarray(a), sol.x)


class TestShrinkSweep:
    @pytest.mark.parametrize("lam", [0.5, None])
    @pytest.mark.parametrize("case", ["rrf", "loire", "appbem", "rrf-tall", "loire-tall"])
    def test_b_is_the_shrink_of_the_returned_factors(self, case, lam):
        # the sweep writes b over M, and no later pass rewrites it: b is, to
        # the bit and with no -0.0, the shrink of the residual of the factors
        # returned, formed on the same tiles
        sol, y, factors = _sweep_solve(case, lam)
        tau = 1.0 / sol.lam
        r = linalg._residual(y, factors, np.empty_like(y))
        assert sol.iterations > 1 and np.count_nonzero(sol.b) > 0
        assert np.array_equal(sol.b, r - np.clip(r, -tau, tau))
        assert not np.any(np.signbit(sol.b[sol.b == 0.0]))

    @pytest.mark.parametrize("shape", [(linalg.TILE + 1001, 3), (linalg.TILE + 1001,),
                                       (301, 400), (2500,)])
    def test_product_tiles_cover_y_once(self, shape):
        # a column longer than a tile is split into rows, else a tile takes
        # whole columns, the last ragged; y - left @ right is formed on them
        rng = np.random.default_rng(5)
        y = np.asfortranarray(rng.normal(size=shape))
        left = rng.normal(size=(shape[0], 2))
        right = rng.normal(size=(2, shape[1]) if len(shape) == 2 else 2)
        tiles = linalg._tiles(shape)
        assert len(tiles) > 1 or y.size <= linalg.TILE
        assert max(hi - lo for lo, hi, _, _ in tiles) <= linalg.TILE
        flat = np.concatenate([np.arange(lo, hi) for lo, hi, _, _ in tiles])
        assert np.array_equal(flat, np.arange(y.size))
        np.testing.assert_allclose(linalg._residual(y, (left, right), np.empty_like(y)),
                                   y - left @ right, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.5, None])
    def test_rrf_solve_holds_two_full_size_arrays(self, lam, traced_peak):
        # besides y, the loop's one array of y's size and its product and
        # shrink tiles, and the rank-1 step's m-vectors and 100 x 100 start
        # Gram within the 10% slack.  A tall input like a frame stack: a
        # square one's Gram start alone holds two arrays of y's size.
        # lam=None also bounds the first step's medians, which take the
        # loop's array
        y = _low_rank_plus_spikes(1600, 100, 2)
        assert y.size > linalg.TILE
        cfg = FactorizationConfig(rank=1, lam=lam, max_iter=20)
        sol, peak = traced_peak(lambda: rrf_solve(y, cfg))
        assert sol.iterations > 1
        assert peak <= 1.1 * (2 * y.nbytes + linalg.TILE * y.itemsize)

    @pytest.mark.parametrize("lam", [0.5, None])
    def test_rrf_solve_holds_one_full_size_array(self, lam, traced_peak):
        # one array besides y, B after each sweep and Y - B while the next
        # step projects: each product tile of A X is formed in one tile of
        # scratch and shrunk into a second, and B is written over Y - B.
        # The rank-1 step's vectors and 100 x 100 start Gram fit the 10% slack
        y = _low_rank_plus_spikes(1600, 100, 2)
        assert y.size > linalg.TILE
        cfg = FactorizationConfig(rank=1, lam=lam, max_iter=20)
        sol, peak = traced_peak(lambda: rrf_solve(y, cfg))
        print(f"\nrrf_solve on 1600 x 100, lam={lam}: traced peak {peak / y.nbytes:.3f} y.nbytes")
        assert sol.iterations > 1
        assert peak <= 1.1 * (y.nbytes + 2 * linalg.TILE * y.itemsize)

    @pytest.mark.parametrize("case", [*LOOP_CASES, "rrf-0.5", "rrf-None"])
    def test_one_product_pass_per_step(self, monkeypatch, case):
        # a step forms P(M) once over the tiles; lam=None's first residual
        # adds one pass, a finish one certificate pass where it gets that
        # far, and a certified finish one sweep from its minimizer.  No pass
        # restores M and none runs after the loop
        products, certificates, finishes = [], [], []
        real_product, real_residual = linalg._tile_product, regression._residual
        real_loop = regression._shrink_project
        monkeypatch.setattr(linalg, "_tile_product",
                            lambda *args: products.append(1) or real_product(*args))
        monkeypatch.setattr(regression, "_residual",
                            lambda *args: certificates.append(1) or real_residual(*args))

        def loop(y, project, cfg, finish):
            def recorded(b, tau):
                exact = finish(b, tau)
                finishes.append(exact is not None)
                return exact
            return real_loop(y, project, cfg, recorded)

        monkeypatch.setattr(regression, "_shrink_project", loop)
        if case.startswith("rrf"):
            lam = None if case == "rrf-None" else 0.5
            y = _low_rank_plus_spikes(1600, 100, 2)
            sol = rrf_solve(y, FactorizationConfig(rank=1, lam=lam, max_iter=20))
            passes = sol.iterations + (lam is None)
        else:
            a, y, lam = _loop_case(case)
            products.clear()  # default_lambda's pass
            sol = loire_solve(a, y, LoireConfig(lam=lam))
            passes = sol.iterations + len(certificates) + (finishes[-1:] == [True])
        tiles = len(linalg._tiles(y.shape))
        print(f"\n{case}: {len(products)} tile products in {sol.iterations} steps, "
              f"{tiles} tile(s) a pass, {len(certificates)} certificate pass(es)")
        assert len(products) == passes * tiles
        if case == "rank_deficient":  # the finish refuses before any certificate
            assert len(products) == sol.iterations > 1 and certificates == []
        if case.startswith("rrf"):
            assert sol.iterations > 1 and tiles > 1


def _conditioned(m, n, kappa, seed):
    """An m x n matrix with singular values spread evenly from 1 down to 1/kappa."""
    rng = np.random.default_rng(seed)
    q1 = np.linalg.qr(rng.normal(size=(m, n)))[0]
    q2 = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return np.asfortranarray((q1 * np.linspace(1.0, 1.0 / kappa, n)) @ q2.T)


class TestRangeFactors:
    @pytest.mark.parametrize("kappa", [1.0, 3.0, 9.0])
    @pytest.mark.parametrize("shape", [(200, 20), (2000, 5), (20, 20)])
    def test_gram_route_agrees_with_the_svd(self, shape, kappa):
        a = _conditioned(*shape, kappa, seed=shape[0] + int(kappa))
        y = np.random.default_rng(1).normal(size=shape[0])
        with counting_svd() as shapes:
            base, mix, vs_inv = linalg.range_factors(a)
            x = least_squares_solve(a, y)
        assert shapes == [] and vs_inv.shape[1] == shape[1] and base is a
        u_svd, s_svd, vt_svd = np.linalg.svd(a, full_matrices=False)
        want = vt_svd.T @ ((u_svd.T @ y) / s_svd)
        assert np.linalg.norm(x - want) <= 1e-13 * np.linalg.norm(want)
        # the columns of V S⁻¹ have norms 1/sigma
        np.testing.assert_allclose(1.0 / np.linalg.norm(vs_inv, axis=0), s_svd, rtol=1e-13)
        u = base @ mix
        assert np.linalg.norm(u.T @ u - np.eye(shape[1]), 2) <= 1e-13
        # and V = (V S⁻¹) S, with S read from those norms, is orthogonal
        v = vs_inv / np.linalg.norm(vs_inv, axis=0)
        assert np.linalg.norm(v.T @ v - np.eye(shape[1]), 2) <= 1e-13

    @pytest.mark.parametrize("kappa, route", [(10.0 * (1 - 1e-6), []),
                                              (10.0 * (1 + 1e-6), [(300, 8)])])
    def test_floor_splits_the_routes(self, kappa, route):
        # cond(A) = 10 is w_min = GRAM_FLOOR * w_max; just above it the SVD
        # runs, and it keeps every direction
        a = _conditioned(300, 8, kappa, seed=3)
        with counting_svd() as shapes:
            vs_inv = linalg.range_factors(a)[2]
        assert shapes == route and vs_inv.shape[1] == 8

    @pytest.mark.parametrize("a", [np.column_stack([np.arange(6.0), np.ones(6), np.arange(6.0)]),
                                   np.ones((3, 5))], ids=["rank-deficient", "wide"])
    def test_other_matrices_take_the_svd(self, a):
        with counting_svd() as shapes:
            vs_inv = linalg.range_factors(a)[2]
        assert shapes == [a.shape] and vs_inv.shape[1] == np.linalg.matrix_rank(a)

    @pytest.mark.parametrize("route", ["gram", "svd"])
    def test_regression_meets_its_contracts_on_either_route(self, route):
        # 400 rows with an intercept and 5% gross outliers: three Gaussian
        # predictors, cond(A) < 10, or u and v = u + 1e-4 noise, cond(A) > 1e4.
        # appBEM's refit meets the benchmark's contract (the normal equations
        # on the clean rows) and LAD ends certified with b = y - A x
        rng = np.random.default_rng(11)
        m = 400
        g = rng.normal(size=(m, 3))
        y = 1 + g @ [2.0, -1.0, 0.5] + rng.normal(0, 0.1, m)
        rows = rng.random(m) < 0.05
        y[rows] += rng.choice([-1, 1], rows.sum()) * rng.uniform(10, 50, rows.sum())
        if route == "svd":
            u = rng.uniform(0, 10, m)
            g = np.column_stack([u, u + rng.normal(0, 1e-4, m)])
            y = 1 + g @ [2.0, 3.0] + rng.normal(0, 0.1, m)
            y[rows] += rng.choice([-1, 1], rows.sum()) * rng.uniform(10, 50, rows.sum())
        a = np.column_stack([g, np.ones(m)])
        with counting_svd() as shapes:
            bem = app_bem(a, y, LoireConfig())
        assert shapes == ([] if route == "gram" else [a.shape])
        assert bem.support and _perfbench_workloads().check_bem(
            a, y, bem.x, bem.b, bem.support, bem.loire.objective_trace,
            bem.loire.iterations) == []
        lad = baseline_lad(a, y)
        assert lad.converged and abs(lad.gap) <= 1e-12
        np.testing.assert_allclose(lad.b, y - a @ lad.x, rtol=0, atol=1e-9 * (1 + np.abs(y).max()))

    @pytest.mark.parametrize("k", [510, -510])
    def test_gram_overflow_or_underflow_takes_the_svd(self, k):
        # at 2^510 AᵀA overflows; at 2^-510 its eigenvalues sit within eps of
        # the subnormal range.  Either way x still scales as 1/s
        rng = np.random.default_rng(4)
        a = rng.normal(size=(400, 20))
        y = rng.normal(size=400)
        x = least_squares_solve(a, y)
        s = 2.0 ** k
        with counting_svd() as shapes:
            x_s = least_squares_solve(s * a, y)
        assert shapes == [(400, 20)]
        assert np.linalg.norm(x_s * s - x) <= 1e-13 * np.linalg.norm(x)
