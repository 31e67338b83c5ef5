"""The exact finish of LOIRE regression.

Once a step leaves the outlier rows O = {b != 0} as the step before did, the
solve tries the minimizer of Huber's loss at tau = 1/lam for those rows and
signs (one `linalg.downdate` solve, or `linalg.clean_solve` where the
downdate refuses), and stops on it only when the certificate |r_C| <= tau,
s_O r_O >= tau holds for r = y - A x.
"""

import tracemalloc

import numpy as np
import pytest

from loire import (LoireConfig, app_bem, default_lambda, least_squares_solve, linalg, loire_solve,
                   regression)
from oracles import loire_objective, loire_plain_alternation
from test_regression import LOOP_CASES, _loop_case


@pytest.fixture
def finishes(monkeypatch):
    """The outcome of every finish a regression solve tries, in order."""
    outcomes = []
    real = regression._shrink_project

    def spy(y, project, cfg, finish):
        def recorded(*args):
            outcomes.append(finish(*args))
            return outcomes[-1]
        return real(y, project, cfg, recorded)

    monkeypatch.setattr(regression, "_shrink_project", spy)
    return outcomes


def _outlier_instance(seed):
    """A random tall regression with gross outliers on about 10% of rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    m = int(rng.integers(max(12, 3 * n), 120))
    a = rng.normal(size=(m, n))
    y = a @ rng.normal(size=n) + 0.1 * rng.normal(size=m)
    rows = rng.random(m) < 0.1
    y[rows] += rng.choice([-1.0, 1.0], rows.sum()) * rng.uniform(2.0, 20.0, rows.sum())
    return a, y, default_lambda(a, y)


INSTANCES = [_outlier_instance(seed) for seed in range(200)] + [_loop_case(n) for n in LOOP_CASES]


def _assert_certified(a, y, sol):
    """The returned (x, b) meet the certificate to the bit: b = shrink(r, tau)
    with no -0.0, |r| <= tau where b = 0 and sign(b) r >= tau where b != 0,
    for the residual the solve forms (A column-major, as it holds A)."""
    tau = 1.0 / sol.lam
    r = y - np.asfortranarray(a) @ sol.x
    out = sol.b != 0
    assert np.all(np.abs(r[~out]) <= tau)
    assert np.all(np.sign(sol.b[out]) * r[out] >= tau)
    assert np.array_equal(sol.b, r - np.clip(r, -tau, tau))
    assert not np.any(np.signbit(sol.b[~out]))


def test_every_finished_solve_meets_the_certificate(finishes):
    finished = 0
    for a, y, lam in INSTANCES:
        finishes.clear()
        sol = loire_solve(a, y, LoireConfig(lam=lam))
        assert sol.converged
        if finishes and finishes[-1]:
            finished += 1
            _assert_certified(a, y, sol)
            assert len(sol.objective_trace) == sol.iterations >= 2
    assert finished >= 150


def test_finished_objective_is_exact_and_no_worse_than_the_oracle(finishes):
    finished = 0
    for a, y, lam in INSTANCES:
        finishes.clear()
        sol = loire_solve(a, y, LoireConfig(lam=lam))
        if not (finishes and finishes[-1]):
            continue
        finished += 1
        f = np.asarray(sol.objective_trace)
        exact = loire_objective(a, y, sol.x, sol.b, lam)
        assert abs(f[-1] - exact) <= 1e-12 * max(1.0, abs(exact))
        assert np.all(np.diff(f) <= 1e-12 * np.maximum(1.0, np.abs(f[:-1])))
        f_ref = loire_plain_alternation(a, y, lam)[2][-1]
        assert f[-1] <= f_ref + 1e-12 * max(1.0, abs(f_ref))
    assert finished >= 150


def test_wrong_outlier_rows_fail_the_certificate(monkeypatch):
    # the finish of a solved case, tried on its b with one row's role or sign
    # changed: each fails one half of the certificate, and leaves the
    # residual at y - b and x as it was
    finishes = []
    real = regression._shrink_project
    monkeypatch.setattr(regression, "_shrink_project",
                        lambda y, project, cfg, finish: finishes.append(finish)
                        or real(y, project, cfg, finish))
    a, y, lam = _loop_case("f_order")
    sol = loire_solve(a, y, LoireConfig(lam=lam))
    finish, tau, x = finishes[0], 1.0 / lam, sol.x.copy()
    out = np.flatnonzero(sol.b)
    clean = np.flatnonzero(sol.b == 0)
    dropped, added, flipped = sol.b.copy(), sol.b.copy(), sol.b.copy()
    dropped[out[0]] = 0.0  # an outlier left among the clean rows: |r_C| > tau
    added[clean[0]] = 1.0  # a clean row among the outliers: s r < tau
    flipped[out[0]] *= -1.0
    for b in (dropped, added, flipped):
        res = np.empty_like(y)
        assert not finish(b, res, tau)
        assert np.array_equal(res, y - b) and np.array_equal(sol.x, x)
    res = np.empty_like(y)
    assert finish(sol.b.copy(), res, tau)
    assert np.array_equal(sol.x, x)  # the same minimizer
    assert np.array_equal(res, y - np.asfortranarray(a) @ x)


def _high_leverage_case(t_far):
    """A line fit whose two flagged rows sit out at t = t_far, against 40 in
    [0, 1], with opposite gross errors: together they carry most of one
    direction of A (lambda_min(G) = 0.12 at t_far = 4)."""
    rng = np.random.default_rng(1)
    t = np.concatenate([rng.uniform(0.0, 1.0, 40), [t_far, t_far]])
    a = np.column_stack([np.ones(42), t])
    y = 1.0 + 2.0 * t + 0.05 * rng.normal(size=42)
    y[[40, 41]] += [40.0, -40.0]
    return a, y, default_lambda(a, y)


@pytest.mark.parametrize("t_far", [3.0, 4.0, 10.0, 30.0])
def test_high_leverage_rows_finish_from_the_clean_rows(finishes, t_far):
    # the downdate refuses (lambda_min(G) < REFIT_FLOOR), so the finish
    # takes the same solve from a factorization of the 40 clean rows and
    # certifies at once, where the loop alone needs hundreds of steps and
    # caps unconverged at t_far = 30
    a, y, lam = _high_leverage_case(t_far)
    out = np.array([40, 41])
    assert linalg.downdate(linalg.range_factors(a), out) is None
    sol = loire_solve(a, y, LoireConfig(lam=lam))
    assert sol.converged and finishes[-1] and sol.iterations <= 3
    assert list(np.flatnonzero(sol.b)) == [40, 41]
    _assert_certified(a, y, sol)
    x_ref, b_ref, _, iterations, converged = loire_plain_alternation(a, y, lam)
    assert converged and sol.iterations == iterations
    assert np.linalg.norm(sol.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    # app_bem refits on the clean rows with the finish's solve
    clean = np.ones(42, dtype=bool)
    clean[out] = False
    bem = app_bem(a, y, LoireConfig(lam=lam))
    assert bem.support == (40, 41)
    assert np.array_equal(bem.x, least_squares_solve(a[clean], y[clean]))


def test_clean_rows_that_lose_a_direction_refuse():
    # z is nonzero only on rows 40 and 41: set apart together they leave
    # A_c rank-deficient, one at a time they do not
    a, _, _ = _high_leverage_case(4.0)
    z = np.zeros(42)
    z[[40, 41]] = [1.0, 2.0]
    a = np.column_stack([a, z])
    assert linalg.clean_solve(a, np.array([40, 41])) is None
    assert linalg.clean_solve(a, np.array([40])) is not None


def test_a_refused_clean_factorization_is_taken_once(monkeypatch, finishes):
    # z is nonzero only on rows 40-42, whose gross errors are +40, -40, +40:
    # while all three are flagged A_c loses z and the finish refuses.  The
    # loop keeps those rows for hundreds of steps, and the clean rows are
    # factored once
    calls = []
    real = linalg.clean_solve
    monkeypatch.setattr(regression, "clean_solve",
                        lambda a, rows: calls.append(list(rows)) or real(a, rows))
    rng = np.random.default_rng(1)
    t = np.concatenate([rng.uniform(0.0, 1.0, 40), [4.0, 4.0, 4.0]])
    a = np.column_stack([np.ones(43), t, (t == 4.0).astype(float)])
    y = 1.0 + 2.0 * t + 0.05 * rng.normal(size=43)
    y[40:] += [40.0, -40.0, 40.0]
    sol = loire_solve(a, y, LoireConfig())
    assert sol.converged and finishes.count(False) > 100 and finishes[-1]
    assert calls == [[40, 41, 42]]
    _assert_certified(a, y, sol)


@pytest.mark.parametrize("case", ["rank_deficient"])
def test_refused_finish_stops_by_tol(finishes, eigh_calls, case):
    a, y, lam = _loop_case(case)
    eigh_calls.clear()
    sol = loire_solve(a, y, LoireConfig(lam=lam))
    gram_attempts = list(eigh_calls)
    assert finishes and not any(finishes)  # tried and refused each time
    x_ref, b_ref, _, iterations, converged = loire_plain_alternation(a, y, lam)
    assert sol.converged and converged and sol.iterations == iterations
    assert np.linalg.norm(sol.b - b_ref) <= 1e-9 * np.linalg.norm(b_ref)
    # refused before any downdate or clean-row factorization: the one eigh
    # is the Gram route that A, rank-deficient, fails before it takes the SVD
    assert gram_attempts == [(4, 4)]


def test_one_step_takes_no_eigh_beyond_the_factorization(eigh_calls):
    a, y, lam = _loop_case("f_order")
    assert loire_solve(a, y, LoireConfig(lam=lam)).iterations > 1
    eigh_calls.clear()
    default_lambda(a, y)
    assert loire_solve(a, y, LoireConfig(lam=lam, max_iter=1)).iterations == 1
    # one Gram factorization of A per solve, and no downdate
    assert eigh_calls == [(5, 5), (5, 5)]


def test_finish_holds_no_new_full_size_array():
    # the solve holds U (m x n) and, besides y, b, the residual and the
    # scratch block (each of y's size here); the finish adds chunks of U_o
    # and a few vectors of |O| = 5% of m entries, well under half a vector
    # of y's size
    rng = np.random.default_rng(0)
    m, n = 50000, 20
    assert m <= linalg.BLOCK
    a = np.asfortranarray(rng.normal(size=(m, n)))
    y = a @ rng.normal(size=n) + 0.1 * rng.normal(size=m)
    rows = rng.random(m) < 0.05
    y[rows] += rng.choice([-1.0, 1.0], rows.sum()) * rng.uniform(5.0, 20.0, rows.sum())
    for solve in (lambda: loire_solve(a, y, LoireConfig()),
                  lambda: app_bem(a, y, LoireConfig()).loire):
        tracemalloc.start()
        try:
            sol = solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sol.converged and sol.iterations < 5
        assert peak <= a.nbytes + 3.5 * y.nbytes
