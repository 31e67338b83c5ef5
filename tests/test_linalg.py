import tracemalloc

import numpy as np
import pytest

from loire import (FactorizationConfig, LoireConfig, OracleConfig, app_bem, baseline_lad,
                   bernoulli_oracle, least_squares_solve, loire_solve, rrf_solve)
from loire import bernoulli, linalg
from loire.cli import main


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


def test_no_solve_calls_lstsq(tmp_path, monkeypatch):
    # every least-squares fit goes through range_factors, whose rank rule is
    # the only one: each path that fits A, or A on a row subset, runs with
    # numpy's lstsq raising
    def lstsq(*args, **kwargs):
        raise AssertionError("np.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", lstsq)
    np.testing.assert_allclose(least_squares_solve([[1.0, 1.0], [1.0, 1.0]], [2.0, 2.0]),
                               [1.0, 1.0], atol=1e-12)
    assert np.array_equal(least_squares_solve(np.zeros((3, 2)), [1.0, 2.0, 3.0]), np.zeros(2))
    fallbacks = []
    real = bernoulli.least_squares_solve
    monkeypatch.setattr(bernoulli, "least_squares_solve",
                        lambda a, y: fallbacks.append(np.shape(a)) or real(a, y))
    rng = np.random.default_rng(0)
    t = rng.uniform(0, 10, 40)
    z = np.zeros(40)
    z[[6, 21]] = 1.0
    y = 1 + 2.5 * t + rng.normal(0, 0.1, 40)
    y[[6, 12, 21]] += [30.0, 40.0, -25.0]
    # the downdate, then the fallbacks: z only on flagged rows, a rank-deficient A
    for a in (np.column_stack([np.ones(40), t]), np.column_stack([np.ones(40), t, z]),
              np.column_stack([np.ones(40), t, t])):
        assert app_bem(a, y, LoireConfig()).support == (6, 12, 21)
    assert fallbacks == [(37, 3), (37, 3)]
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


def _sweep_results(case, lam):
    """(b, x, lam, iterations, objective trace) of one solve whose y has more
    than 1000 elements, and a last block of 1000 that is ragged."""
    if case == "rrf":  # 301 x 40 = 12040 elements; 300 x 40 would fill 12 whole blocks
        sol = rrf_solve(_low_rank_plus_spikes(301, 40, 0),
                        FactorizationConfig(rank=2, lam=lam, max_iter=200))
        return sol.b, sol.x, sol.lam, sol.iterations, sol.objective_trace
    a, y = _regression(2500, 1)
    if case == "loire":
        sol = loire_solve(a, y, LoireConfig(lam=lam))
        x = sol.x
    else:  # app_bem's refit x, after its stage-1 solve
        bem = app_bem(a, y, LoireConfig(lam=lam))
        sol, x = bem.loire, bem.x
    return sol.b, x, sol.lam, sol.iterations, sol.objective_trace


class TestShrinkSweep:
    @pytest.mark.parametrize("lam", [0.5, None])
    @pytest.mark.parametrize("case", ["rrf", "loire", "appbem"])
    def test_blocked_sweep_equals_one_block(self, monkeypatch, case, lam):
        # the shrink is elementwise, so b, x, lam and the iterations do not
        # depend on the block size; only the objective's sums are regrouped
        whole = _sweep_results(case, lam)
        monkeypatch.setattr(linalg, "BLOCK", 1000)
        blocked = _sweep_results(case, lam)
        assert whole[3] > 1 and np.count_nonzero(whole[0]) > 0
        for got, want in zip(blocked[:4], whole[:4]):  # b, x, lam, iterations
            assert np.array_equal(got, want)
        np.testing.assert_allclose(blocked[4], whole[4], rtol=1e-12, atol=0.0)

    def test_rrf_solve_holds_two_full_size_arrays(self):
        # b and the residual besides y, one block of scratch, and the rank-1
        # step's m-vectors and 100 x 100 start Gram within the 10% slack.
        # A tall input like a frame stack: a square one's Gram start alone
        # holds two arrays of y's size
        y = _low_rank_plus_spikes(1600, 100, 2)
        assert y.size > linalg.BLOCK
        tracemalloc.start()
        try:
            sol = rrf_solve(y, FactorizationConfig(rank=1, lam=0.5, max_iter=20))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.iterations > 1
        assert peak <= 1.1 * (2 * y.nbytes + linalg.BLOCK * y.itemsize)
