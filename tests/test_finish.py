"""The exact finish of LOIRE regression.

After every step but the first that misses tol, the solve tries the
minimizer of Huber's loss at tau = 1/lam for the step's outlier rows
O = {b != 0} and signs, one `linalg.clean_solve` of the clean rows (a
downdate of the factors of A, or a fresh factorization of the clean rows
where the downdate would lose digits), kept while O stays as it was.  It
takes that solve only when `clean_solve` calls it exact, the clean rows
keeping every direction of A, and stops on it only when the certificate
|r_C| <= tau, s_O r_O >= tau holds for r = y - A x.
"""

import numpy as np
import pytest

from loire import (LoireConfig, app_bem, baseline_lad, default_lambda, least_squares_solve, linalg,
                   loire_solve, regression)
from oracles import loire_objective, loire_plain_alternation
from test_bernoulli import _perfbench_workloads
from test_regression import LOOP_CASES, _loop_case


@pytest.fixture
def finishes(monkeypatch):
    """The outcome of every finish a regression solve tries, in order: True
    where it certified a minimizer."""
    outcomes = []
    real = regression._shrink_project

    def spy(y, project, cfg, finish):
        def recorded(*args):
            exact = finish(*args)
            outcomes.append(exact is not None)
            return exact
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
    # the finish of a solved case, tried on its b with one row's role or
    # sign changed: each fails one half of the certificate and leaves b, its
    # workspace, and x as they were; on a copy of b itself it returns the
    # solve's factors
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
    for wrong in (dropped, added, flipped):
        given = wrong.copy()
        assert finish(wrong, tau) is None
        assert wrong.tobytes() == given.tobytes()
        assert np.array_equal(sol.x, x)
    left, right = finish(sol.b.copy(), tau)
    assert np.array_equal(sol.x, x) and np.array_equal(right, x)  # the same minimizer
    r_exact = y - left @ right
    assert np.array_equal(sol.b, r_exact - np.clip(r_exact, -tau, tau))


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
def test_high_leverage_rows_finish_from_the_clean_rows(finishes, clean_factorizations, t_far):
    # lambda_min(G) < REFIT_FLOOR, so the finish takes its solve from a
    # factorization of the 40 clean rows and certifies at once, where the
    # loop alone needs hundreds of steps and caps unconverged at t_far = 30
    a, y, lam = _high_leverage_case(t_far)
    out = np.array([40, 41])
    sol = loire_solve(a, y, LoireConfig(lam=lam))
    assert clean_factorizations == [(40, 2)]
    assert sol.converged and finishes[-1] and sol.iterations <= 3
    assert list(np.flatnonzero(sol.b)) == [40, 41]
    _assert_certified(a, y, sol)
    x_ref, b_ref, _, iterations, converged = loire_plain_alternation(a, y, lam)
    assert converged and sol.iterations == iterations
    assert np.linalg.norm(sol.x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
    # app_bem refits on the clean rows with the finish's solve, factored once
    clean = np.ones(42, dtype=bool)
    clean[out] = False
    clean_factorizations.clear()
    bem = app_bem(a, y, LoireConfig(lam=lam))
    assert bem.support == (40, 41) and clean_factorizations == [(40, 2)]
    assert np.array_equal(bem.x, least_squares_solve(a[clean], y[clean]))
    assert _perfbench_workloads().check_bem(a, y, bem.x, bem.b, bem.support,
                                            bem.loire.objective_trace, bem.loire.iterations) == []


def test_clean_rows_that_lose_a_direction_refuse():
    # z is nonzero only on rows 40 and 41: set apart together they leave
    # A_c rank-deficient, one at a time they do not
    a, _, _ = _high_leverage_case(4.0)
    z = np.zeros(42)
    z[[40, 41]] = [1.0, 2.0]
    a = np.column_stack([a, z])
    factors = linalg.range_factors(a)
    assert not linalg.clean_solve(a, factors, np.array([40, 41]))[1]
    assert linalg.clean_solve(a, factors, np.array([40]))[1]


def test_fresh_clean_fit_copies_the_clean_rows_once(clean_factorizations, traced_peak):
    # 1000 of 50000 rows carry A's first direction (first column x200), so
    # lambda_min(G) = 1 - sigma_max² = 0.0013 < REFIT_FLOOR and A_c is
    # factored afresh: gathered once, column-major, it peaks at 1.08 A_c;
    # a row-major gather copied to column-major peaks at 2.03
    rng = np.random.default_rng(0)
    m, n = 50000, 20
    a = np.asfortranarray(rng.normal(size=(m, n)))
    rows = np.sort(rng.choice(m, 1000, replace=False))
    a[rows, 0] *= 200.0
    factors = linalg.range_factors(a)
    clean_factorizations.clear()
    (_, exact), peak = traced_peak(lambda: linalg.clean_solve(a, factors, rows))
    assert exact and clean_factorizations == [(m - rows.size, n)]
    assert peak <= 1.25 * (m - rows.size) * n * a.itemsize


def _indicator_case():
    """A line fit with an indicator column z, nonzero only on rows 40-42,
    whose gross errors are +40, -40, +40: while all three are flagged A_c
    loses z."""
    rng = np.random.default_rng(1)
    t = np.concatenate([rng.uniform(0.0, 1.0, 40), [4.0, 4.0, 4.0]])
    a = np.column_stack([np.ones(43), t, (t == 4.0).astype(float)])
    y = 1.0 + 2.0 * t + 0.05 * rng.normal(size=43)
    y[40:] += [40.0, -40.0, 40.0]
    return a, y


def test_a_refused_clean_factorization_is_taken_once(finishes, clean_factorizations):
    # while rows 40-42 are flagged the finish refuses.  The loop keeps those
    # rows for hundreds of steps, and the clean rows are factored once
    a, y = _indicator_case()
    sol = loire_solve(a, y, LoireConfig())
    assert sol.converged and finishes.count(False) > 100 and finishes[-1]
    assert clean_factorizations == [(40, 3)]
    _assert_certified(a, y, sol)


def test_a_certificate_on_rank_deficient_clean_rows_is_not_taken():
    # at lam = 5 the minimum-norm fit for outlier rows 40-42, with x_z = 0,
    # meets the certificate, but it is no minimizer: the objective still
    # falls along z, as s_Oᵀ A_O e_z = 1, and reads 119.5 there against
    # 79.9 at the minimizer.  The finish refuses it, as `clean_solve` calls
    # it not exact, and the solve runs on to the loop's own fixed point
    a, y = _indicator_case()
    sol = loire_solve(a, y, LoireConfig(lam=5.0))
    x_ref, b_ref, trace, iterations, converged = loire_plain_alternation(a, y, 5.0)
    assert sol.converged and converged and sol.iterations == iterations
    assert list(np.flatnonzero(sol.b)) == list(np.flatnonzero(b_ref)) == [41]
    f = loire_objective(a, y, sol.x, sol.b, 5.0)
    assert abs(f - trace[-1]) <= 1e-9 * trace[-1]


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


def _gross_case():
    """A, y and the outlier rows: a 50000 x 20 Gaussian A, noise 0.1 and 5%
    of the rows off by 5 to 20, one tile of the shrink sweep."""
    rng = np.random.default_rng(0)
    m, n = 50000, 20
    assert m <= linalg.TILE
    a = np.asfortranarray(rng.normal(size=(m, n)))
    y = a @ rng.normal(size=n) + 0.1 * rng.normal(size=m)
    rows = rng.random(m) < 0.05
    y[rows] += rng.choice([-1.0, 1.0], rows.sum()) * rng.uniform(5.0, 20.0, rows.sum())
    return a, y, rows


def test_finish_holds_no_new_full_size_array(traced_peak):
    # the Gram route forms no U (m x n, 20 vectors of y's size here): besides
    # y the solve holds the loop's array and its product and shrink tiles,
    # each of y's size here, and the finish works in the loop's array and
    # gathers A_o and U_o = A_o V S⁻¹ on the 5% of rows set apart, with a
    # few vectors of |O| entries
    a, y, rows = _gross_case()
    for solve in (lambda: loire_solve(a, y, LoireConfig()),
                  lambda: app_bem(a, y, LoireConfig()).loire):
        sol, peak = traced_peak(solve)
        assert sol.converged and sol.iterations < 5
        assert peak <= 3.5 * y.nbytes + 2 * a[rows].nbytes


@pytest.mark.parametrize("method", ["lad", "ols"])
def test_regression_baselines_hold_no_m_by_n_array(traced_peak, method):
    # the peaks are A's validation mask (m x n bytes, 2.5 vectors of y's
    # size here) and, for LAD, r, w, the scratch, the signs and the start's
    # sort: 2.50 and 6.68 vectors of y's size, where an m x n float array
    # alone is 20
    a, y, _ = _gross_case()
    solve, bound = {"lad": (baseline_lad, 8 * y.nbytes),
                    "ols": (least_squares_solve, a.size + y.nbytes)}[method]
    assert traced_peak(lambda: solve(a, y))[1] <= bound
