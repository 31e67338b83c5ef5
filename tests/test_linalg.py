import numpy as np
import pytest

from loire import (LoireConfig, OracleConfig, app_bem, baseline_lad, bernoulli_oracle,
                   least_squares_solve)
from loire import bernoulli
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
