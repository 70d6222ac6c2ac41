"""Simplex kernel tests: statuses, certificates, and a scipy cross-check."""

import dataclasses

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from bellbox.analysis import _distance_program
from bellbox.errors import SizeCapError, StalledError, ValidationError
from bellbox.lp import (
    DIMENSION_CAP,
    LinearProgram,
    LpOutcome,
    _Simplex,
    _StandardForm,
    solve,
    verify_certificate,
)
from bellbox.polytope import strategy_matrix
from bellbox.quantum import behavior_from_setup, named_setup, random_setup
from bellbox.scenario import Scenario, named_behavior
from _lp_cases import degenerate_cases
from test_no_signalling import _pr_box_on_pair

_INF = float("inf")


def scipy_status(lp: LinearProgram):
    """Independent solve via scipy's HiGHS backend."""
    n = lp.shape[1]
    c = np.zeros(n) if lp.c is None else (-lp.c if lp.maximize else lp.c)
    bounds = [lp.var_bounds(j) for j in range(n)]
    bounds = [(None if lo == -_INF else lo, None if hi == _INF else hi)
              for lo, hi in bounds]
    res = linprog(c, A_eq=lp.A, b_eq=lp.b, bounds=bounds, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "other")
    if status == "optimal" and lp.c is None:
        return "feasible", None
    value = None
    if status == "optimal":
        value = -res.fun if lp.maximize else res.fun
    return status, value


# -- basic statuses ---------------------------------------------------------

def test_simple_maximum():
    lp = LinearProgram(A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
                       c=np.array([1.0, 2.0]))
    out = solve(lp)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(2.0, abs=1e-12)
    np.testing.assert_allclose(out.x, [0.0, 1.0], atol=1e-12)


def test_feasibility_only_problem():
    lp = LinearProgram(A=np.array([[1.0, 1.0]]), b=np.array([1.0]))
    out = solve(lp)
    assert out.status == "feasible"
    assert abs(out.x.sum() - 1.0) < 1e-12


def test_worked_farkas_example():
    # rows x1 + x2 = 1 and x1 + x2 = 2 clash; y = (-1, 1) proves it
    lp = LinearProgram(A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                       b=np.array([1.0, 2.0]))
    out = solve(lp)
    assert out.status == "infeasible"
    np.testing.assert_allclose(out.y, [-1.0, 1.0], atol=1e-12)
    assert float(out.y @ lp.b) > 0.5
    assert float((out.y @ lp.A).max()) <= 1e-12


def test_unbounded_with_ray():
    lp = LinearProgram(A=np.array([[1.0, -1.0]]), b=np.array([0.0]),
                       c=np.array([1.0, 0.0]))
    out = solve(lp)
    assert out.status == "unbounded"
    assert float(lp.c @ out.ray) > 0.0
    np.testing.assert_allclose(lp.A @ out.ray, 0.0, atol=1e-12)



def test_systems_without_rows_or_columns():
    no_rows = LinearProgram(A=np.zeros((0, 3)), b=np.zeros(0), c=np.ones(3),
                            maximize=False)
    out = solve(no_rows)
    assert out.status == "optimal" and out.objective == 0.0
    np.testing.assert_array_equal(out.x, 0.0)
    no_cols = solve(LinearProgram(A=np.zeros((2, 0)), b=np.zeros(2)))
    assert no_cols.status == "feasible" and no_cols.x.shape == (0,)


# -- input validation and caps ----------------------------------------------

def test_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        LinearProgram(A=np.eye(2), b=np.ones(3))
    with pytest.raises(ValidationError):
        LinearProgram(A=np.eye(2), b=np.ones(2), c=np.ones(3))


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        LinearProgram(A=np.array([[np.inf]]), b=np.ones(1))


def test_empty_bounds_rejected():
    with pytest.raises(ValidationError):
        LinearProgram(A=np.eye(1), b=np.ones(1), bounds=((2.0, 1.0),))


def test_dimension_cap():
    with pytest.raises(SizeCapError):
        LinearProgram(A=np.zeros((1, DIMENSION_CAP + 1)), b=np.zeros(1))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
def test_solve_refuses_a_bad_tolerance(tol):
    """At tol NaN or inf, x + y = -2 over x, y >= 0 came back "feasible"
    at x = (-2, 0)."""
    lp = LinearProgram(A=np.array([[1.0, 1.0]]), b=np.array([-2.0]))
    with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
        solve(lp, tol=tol)


def test_stall_raises_not_misreports():
    lp = LinearProgram(A=np.array([[1.0, 1.0, 1.0]]), b=np.array([1.0]),
                       c=np.array([1.0, 2.0, 3.0]))
    with pytest.raises(StalledError):
        solve(lp, max_iters=0)


# -- degenerate regression set ----------------------------------------------

@pytest.mark.parametrize("case", degenerate_cases(), ids=lambda c: c.name)
def test_degenerate_case_status(case):
    out = solve(case.lp)
    assert out.status == case.status
    if case.objective is not None:
        assert out.objective == pytest.approx(case.objective, abs=1e-9)
    assert verify_certificate(case.lp, out).ok


@pytest.mark.parametrize("case", degenerate_cases(), ids=lambda c: c.name)
def test_degenerate_case_matches_scipy(case):
    expect, value = scipy_status(case.lp)
    out = solve(case.lp)
    assert out.status == expect
    if value is not None:
        assert out.objective == pytest.approx(value, abs=1e-8)


@pytest.mark.parametrize("case", [c for c in degenerate_cases()
                                  if c.status in ("optimal", "infeasible")],
                         ids=lambda c: c.name)
def test_degenerate_case_rational_recheck(case):
    out = solve(case.lp, rational_check=True)
    assert out.rational_verified is True


# -- unit-column start -------------------------------------------------------

def test_unit_column_on_negative_row_does_not_start_basic():
    # column 0 is +e_0, but row 0 is flipped (b_0 < 0), so there it reads
    # -e_0 and row 0 starts on its artificial; column 3 is +e_1 on a
    # nonnegative row and starts basic
    A = np.array([[1.0, 1.0, -1.0, 0.0],
                  [0.0, 1.0, 1.0, 1.0]])
    b = np.array([-1.0, 2.0])
    lp = LinearProgram(A=A, b=b, c=np.array([1.0, 2.0, 3.0, 1.0]), maximize=False)
    assert _Simplex(lp.A, lp.b, max_iters=10).basis.tolist() == [4, 3]
    out = solve(lp)
    expect, value = scipy_status(lp)
    assert out.status == expect == "optimal"
    assert out.objective == pytest.approx(value, abs=1e-9)
    assert verify_certificate(lp, out).ok


def test_infeasible_with_unit_slacks_gives_exact_farkas_vector():
    # x0 + x1 + s0 = 1 and x0 + x1 - s1 = 2: s0 starts basic on row 0
    A = np.array([[1.0, 1.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0, -1.0]])
    lp = LinearProgram(A=A, b=np.array([1.0, 2.0]))
    assert _Simplex(lp.A, lp.b, max_iters=10).basis.tolist() == [2, 5]
    out = solve(lp, rational_check=True)
    assert out.status == "infeasible" == scipy_status(lp)[0]
    assert verify_certificate(lp, out).ok
    assert out.rational_verified is True


@pytest.mark.parametrize("seed", range(10))
def test_random_slack_form_problems_match_scipy(seed):
    # G x + s = b with an identity block of slacks and mixed-sign b: rows
    # with b_i >= 0 start on their slack, the others on an artificial
    rng = np.random.default_rng(5000 + seed)
    m = int(rng.integers(3, 7))
    k = int(rng.integers(2, 6))
    A = np.hstack([rng.normal(size=(m, k)), np.eye(m)])
    b = rng.normal(size=m)
    lp = LinearProgram(A=A, b=b, c=rng.random(m + k), maximize=False)
    out = solve(lp, rational_check=True)
    expect, value = scipy_status(lp)
    assert out.status == expect
    if value is not None:
        assert abs(out.objective - value) < 1e-7 * max(1.0, abs(value))
    assert verify_certificate(lp, out).ok
    assert out.rational_verified is True



def reference_standard_form(lp: LinearProgram):
    """Column by column: plain, shifted, negated (bounded above only) or a
    +/- pair (free), with one range row and slack per finite range."""
    m, n = lp.shape
    c = np.zeros(n) if lp.c is None else (-lp.c if lp.maximize else lp.c)
    b = lp.b.copy()
    cols, cost, ranges, first = [], [], [], []
    for j in range(n):
        lo, hi = lp.var_bounds(j)
        first.append(len(cols))
        if lo == -_INF and hi == _INF:
            cols += [lp.A[:, j], -lp.A[:, j]]
            cost += [c[j], -c[j]]
        elif lo == -_INF:
            b -= lp.A[:, j] * hi
            cols.append(-lp.A[:, j])
            cost.append(-c[j])
        else:
            if lo != 0.0:
                b -= lp.A[:, j] * lo
            cols.append(lp.A[:, j])
            cost.append(c[j])
            if hi != _INF:
                ranges.append((len(cols) - 1, hi - lo))
    k = len(ranges)
    A = np.zeros((m + k, len(cols) + k))
    A[:m, : len(cols)] = np.column_stack(cols)
    for r, (col, width) in enumerate(ranges):
        A[m + r, col] = A[m + r, len(cols) + r] = 1.0
    widths = [width for _, width in ranges]
    return A, np.concatenate([b, widths]), np.array(cost + [0.0] * k)


@pytest.mark.parametrize("seed", range(10))
def test_standard_form_matches_column_by_column_reference(seed):
    rng = np.random.default_rng(6000 + seed)
    m, n = int(rng.integers(1, 5)), int(rng.integers(1, 9))
    choices = [(0.0, _INF), (-1.0, 2.0), (-_INF, 1.5), (-_INF, _INF), (0.5, _INF)]
    bounds = tuple(choices[int(i)] for i in rng.integers(0, len(choices), size=n))
    lp = LinearProgram(A=rng.normal(size=(m, n)), b=rng.normal(size=m),
                       c=rng.normal(size=n), maximize=bool(seed % 2), bounds=bounds)
    std = _StandardForm(lp)
    A, b, cost = reference_standard_form(lp)
    np.testing.assert_array_equal(std.A, A)
    np.testing.assert_array_equal(std.b, b)
    np.testing.assert_array_equal(std.c_min, cost)
    x = rng.random(std.A.shape[1])
    expect = np.zeros(n)
    k = 0
    for j in range(n):
        lo, hi = lp.var_bounds(j)
        if lo == -_INF and hi == _INF:
            expect[j] = x[k] - x[k + 1]
            k += 2
            continue
        expect[j] = hi - x[k] if lo == -_INF else lo + x[k]
        k += 1
    np.testing.assert_array_equal(std.to_original(x), expect)


@pytest.mark.parametrize("seed", range(10))
def test_starting_basis_takes_the_smallest_unit_column_of_each_row(seed):
    rng = np.random.default_rng(7000 + seed)
    m, n = int(rng.integers(1, 6)), int(rng.integers(1, 12))
    A = rng.choice([-1.0, 0.0, 0.0, 1.0], size=(m, n))
    A[:, rng.integers(0, n, size=n)] = A[:, rng.integers(0, n, size=n)]  # repeats
    b = rng.choice([-1.0, 0.0, 1.0], size=m)
    flipped = A * np.where(b < 0.0, -1.0, 1.0)[:, None]
    expect = [n + i for i in range(m)]
    for j in reversed(range(n)):
        nz = np.flatnonzero(flipped[:, j])
        if nz.size == 1 and flipped[nz[0], j] == 1.0:
            expect[int(nz[0])] = j
    assert _Simplex(A, b, max_iters=10).basis.tolist() == expect


def reference_unit_scan(A: np.ndarray, b: np.ndarray):
    """The starting basis, mates and ``paired`` by the earlier scan: count
    each column's nonzeros, take each singleton's row, and keep the first
    +e_i and -e_i column per row of the flipped system by np.unique."""
    sign = np.where(b < 0.0, -1.0, 1.0)
    m, n = A.shape
    nonzero = A != 0.0
    single = np.flatnonzero(np.count_nonzero(nonzero, axis=0) == 1)
    rows = np.nonzero(nonzero[:, single].T)[1]
    value = A[rows, single] * sign[rows]
    plus, minus = np.full((2, m), -1)
    for side, unit in ((plus, 1.0), (minus, -1.0)):
        at, first = np.unique(rows[value == unit], return_index=True)
        side[at] = single[value == unit][first]
    basis = np.arange(n, n + m)
    basis[plus >= 0] = plus[plus >= 0]
    both = (plus >= 0) & (minus >= 0)
    mate = np.full(n + m, -1)
    mate[plus[both]] = minus[both]
    mate[minus[both]] = plus[both]
    return basis, mate, bool(both.any())


@st.composite
def unit_column_systems(draw):
    """Systems whose columns are zero, +-e_i (several per row, repeated),
    scaled or tiny unit columns, or dense; b has negative, zero and -0.0
    entries.  0 rows and 0 columns are drawn too."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(0, 12))
    A = np.zeros((m, n))
    for j in range(n):
        kind = draw(st.sampled_from(["zero", "unit", "unit", "scaled", "dense"]))
        if m == 0 or kind == "zero":
            continue
        if kind == "dense":
            A[:, j] = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0, 2.5]),
                                    min_size=m, max_size=m))
            continue
        scale = 1.0 if kind == "unit" else draw(st.sampled_from([2.0, 0.5, 1e-300]))
        A[draw(st.integers(0, m - 1)), j] = draw(st.sampled_from([1.0, -1.0])) * scale
    b = np.array(draw(st.lists(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0]),
                               min_size=m, max_size=m)))
    return A, b


@settings(max_examples=300, deadline=None)
@given(unit_column_systems())
def test_unit_column_scan_matches_the_unique_scan(system):
    A, b = system
    sx = _Simplex(A, b, max_iters=10)
    basis, mate, paired = reference_unit_scan(A, b)
    assert sx.basis.tolist() == basis.tolist()
    assert sx.mate.tolist() == mate.tolist()
    assert sx.paired == paired


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_unit_column_scan_on_empty_systems(shape):
    A, b = np.zeros(shape), -np.ones(shape[0])
    sx = _Simplex(A, b, max_iters=10)
    assert sx.basis.tolist() == list(range(shape[1], shape[1] + shape[0]))
    assert sx.mate.tolist() == [-1] * sum(shape)
    assert not sx.paired


def _recording_runs(calls: list):
    """Patch ``_Simplex.run`` to append the phase of each run."""
    run = _Simplex.run

    def recording(self, phase):
        calls.append(phase)
        return run(self, phase)

    return mock.patch.object(_Simplex, "run", recording)


def test_phase1_runs_only_when_an_artificial_starts_basic():
    """A distance program starts every row on a structural unit column,
    so phase 1 prices nothing; a row with no unit column starts on its
    artificial, and phase 1 runs."""
    beh = behavior_from_setup(random_setup(seed=1, dims=(2, 2), inputs=(4, 4)))
    calls: list = []
    with _recording_runs(calls):
        out = solve(_distance_program(strategy_matrix(beh.scenario), beh.probs))
    assert out.status == "optimal"
    assert calls == [2]
    # row 0 reads -e_0 in column 0 once flipped, so it starts on its artificial
    lp = LinearProgram(A=np.array([[1.0, 1.0, -1.0, 0.0], [0.0, 1.0, 1.0, 1.0]]),
                       b=np.array([-1.0, 2.0]), c=np.array([1.0, 2.0, 3.0, 1.0]),
                       maximize=False)
    calls.clear()
    with _recording_runs(calls):
        out = solve(lp)
    assert out.status == "optimal"
    assert calls == [1, 2]


def test_an_artificial_that_leaves_never_enters_again():
    """Phase 1 prices only the structural columns.  Pricing the
    artificials too, this program took 7 pivots and its fifth put the
    artificial of row 3 back into the basis; without, 6 pivots reach the
    same optimum 2, on a basis the exact re-check confirms."""
    A = np.array([[-2, 0, 2, -3, -1, -1, 2], [1, -1, 2, 3, -2, 3, -2],
                  [1, 3, -1, 1, -1, 2, 0], [1, -1, -2, 1, -2, -2, -2]], dtype=float)
    lp = LinearProgram(A=A, b=np.array([-8.0, 3.0, 2.0, 1.0]),
                       c=np.array([2.0, 2.0, 2.0, -2.0, 0.0, -1.0, -2.0]), maximize=False)
    entered = []
    pivot = _Simplex._pivot

    def watched_pivot(self, i, j, col):
        entered.append(j)
        pivot(self, i, j, col)

    with mock.patch.object(_Simplex, "_pivot", watched_pivot):
        out = solve(lp, rational_check=True)
    assert entered and max(entered) < A.shape[1]
    assert out.status == "optimal" and out.objective == pytest.approx(2.0, abs=1e-12)
    assert verify_certificate(lp, out).ok
    assert out.rational_verified is True


@pytest.mark.parametrize("name", ["duplicated_row", "zero_row_consistent"])
def test_a_redundant_row_keeps_its_artificial_basic_at_zero(name):
    """No row is deleted: after the solve Binv is still m x m, and the
    redundant row's artificial is basic at zero."""
    case = next(c for c in degenerate_cases() if c.name == name)
    simplices = []
    primal = _Simplex.primal

    def watched_primal(self):
        simplices.append(self)
        return primal(self)

    with mock.patch.object(_Simplex, "primal", watched_primal):
        out = solve(case.lp, rational_check=True)
    assert out.status == "optimal" and out.rational_verified is True
    sx = simplices[-1]
    m, n = case.lp.shape
    assert sx.Binv.shape == (m, m) and sx.basis.size == m
    artificial = sx.basis >= n
    assert artificial.sum() == 1
    assert sx.xB[artificial].tolist() == [0.0]


def test_simplex_reads_the_standard_form_matrix_without_a_copy():
    """The distance program has negative right-hand sides; their rows are
    flipped by the signs Binv starts with, not in a copy of A."""
    beh = behavior_from_setup(random_setup(seed=1, dims=(2, 2), inputs=(4, 4)))
    lp = _distance_program(strategy_matrix(beh.scenario), beh.probs)
    assert (lp.b < 0.0).any()
    std = _StandardForm(lp)
    sx = _Simplex(std.A, std.b, max_iters=10)
    assert np.shares_memory(sx.A, std.A)
    np.testing.assert_array_equal(sx.Binv, np.diag(np.where(std.b < 0.0, -1.0, 1.0)))


def _mixed_sign_programs(status: str, count: int = 6) -> list[LinearProgram]:
    """The first ``count`` seeded programs G x + s = b (small integer G,
    an identity block of slacks) whose b has both signs and whose
    status is ``status``; "feasible" ones have no objective."""
    found = []
    for seed in range(10_000):
        rng = np.random.default_rng(8000 + seed)
        m, k = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        A = np.hstack([rng.integers(-3, 4, size=(m, k)).astype(float), np.eye(m)])
        b = rng.integers(-3, 4, size=m).astype(float)
        if not ((b < 0.0).any() and (b > 0.0).any()):
            continue
        c = None if status == "feasible" else rng.integers(-3, 4, size=m + k).astype(float)
        lp = LinearProgram(A=A, b=b, c=c, maximize=bool(seed % 2))
        if scipy_status(lp)[0] == status:
            found.append(lp)
            if len(found) == count:
                return found
    raise AssertionError(f"no {count} {status} programs found")


@pytest.mark.parametrize("status", ["optimal", "infeasible", "unbounded", "feasible"])
def test_mixed_sign_rhs_certificates_pass_both_checks(status):
    """Rows with b_i < 0 start flipped, some on their artificials: every
    status's evidence passes ``verify_certificate`` and the exact
    re-check of its final basis."""
    for lp in _mixed_sign_programs(status):
        out = solve(lp, rational_check=True)
        assert out.status == status
        assert verify_certificate(lp, out).ok
        assert out.rational_verified is True


# -- certificates -----------------------------------------------------------

def test_tampered_solution_is_flagged():
    lp = LinearProgram(A=np.array([[1.0, 1.0]]), b=np.array([1.0]),
                       c=np.array([1.0, 2.0]))
    out = solve(lp)
    bad_x = out.x.copy()
    bad_x[0] += 1e-3
    tampered = dataclasses.replace(out, x=bad_x)
    report = verify_certificate(lp, tampered)
    assert not report.ok
    assert report.residual > 1e-7


def test_tampered_farkas_is_flagged():
    lp = LinearProgram(A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                       b=np.array([1.0, 2.0]))
    out = solve(lp)
    bad_y = out.y.copy()
    bad_y[0] = 1.0  # now y.A > 0 somewhere
    report = verify_certificate(lp, dataclasses.replace(out, y=bad_y))
    assert not report.ok


def test_suboptimal_point_with_matching_dual_value_is_flagged():
    """min x0 + 2 x1 + 5 x2 s.t. x0 + x2 = 1, x1 = 1 has optimum 3 at
    (1, 1, 0).  The point (0, 1, 1) costs 7, and y = (7, 0) has the same
    value y.b = 7, but its reduced costs (-6, 2, -2) are not dual
    feasible, so equal values prove nothing."""
    lp = LinearProgram(A=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                       b=np.array([1.0, 1.0]), c=np.array([1.0, 2.0, 5.0]),
                       maximize=False)
    claim = LpOutcome(status="optimal", x=np.array([0.0, 1.0, 1.0]),
                      y=np.array([7.0, 0.0]), objective=7.0)
    report = verify_certificate(lp, claim)
    assert report.duality_gap == 0.0
    assert report.reduced_cost_min == -6.0
    assert not report.ok
    out = solve(lp)
    assert out.objective == pytest.approx(3.0, abs=1e-12)
    assert verify_certificate(lp, out).ok


def test_weak_duality_holds_at_optimum():
    rng = np.random.default_rng(3)
    for _ in range(20):
        m, n = 4, 7
        A = rng.normal(size=(m, n))
        x0 = rng.random(n)
        b = A @ x0
        c = rng.normal(size=n)
        lp = LinearProgram(A=A, b=b, c=c)
        out = solve(lp)
        if out.status != "optimal":
            continue
        assert abs(float(lp.c @ out.x) - float(out.y @ lp.b)) < 1e-7


# -- the floor stop ----------------------------------------------------------

def zero_floor_data(seed: int):
    """Small integer A, a feasible x0 and costs >= 0 that vanish on the
    support of x0, so min c.x s.t. A x = A x0, x >= 0 is exactly 0."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 5)), int(rng.integers(2, 8))
    A = rng.integers(-3, 4, size=(m, n)).astype(float)
    x0 = rng.integers(0, 4, size=n) * (rng.random(n) < 0.5)
    cost = np.where(x0 > 0, 0, rng.integers(0, 5, size=n)).astype(float)
    return A, x0, cost


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), maximize=st.booleans())
def test_zero_optimum_under_nonnegative_costs_has_zero_duals(seed, maximize):
    """c.x >= 0 on every feasible x, so a feasible point of cost 0 is
    optimal and y = 0 certifies it, in floats and exactly."""
    A, x0, cost = zero_floor_data(seed)
    lp = LinearProgram(A=A, b=A @ x0, c=-cost if maximize else cost,
                       maximize=maximize)
    out = solve(lp, rational_check=True)
    assert out.status == "optimal"
    assert abs(out.objective) <= 1e-9
    assert not np.any(out.y)
    assert verify_certificate(lp, out).ok
    assert out.rational_verified is True


@pytest.mark.parametrize("A, b, c", [
    # a tiny cost on a large right-hand side: x0 starts basic at cost 5e-7
    ([[1.0, 1.0]], [1000.0], [5e-10, 0.0]),
    # O(1) costs beside a large row: x2 starts basic at cost 5e-4
    ([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]], [1e6, 5e-4],
     [0.0, 0.0, 1.0, 0.0]),
], ids=["tiny-cost", "mixed-scale-rhs"])
def test_floor_band_is_not_scaled_by_the_rhs(A, b, c):
    """The starting vertex costs less than tol * |b|_inf but more than
    tol; the optimum is 0, and a stop at the starting vertex would leave
    a duality gap that verify_certificate rejects."""
    lp = LinearProgram(A=np.array(A), b=np.array(b), c=np.array(c), maximize=False)
    out = solve(lp, rational_check=True)
    assert out.status == "optimal"
    assert out.objective == 0.0
    assert verify_certificate(lp, out).ok
    assert out.rational_verified is True


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_negative_cost_never_stops_at_the_floor(seed):
    """One cost made negative, with sum(x) capped so the optimum stays
    finite: the phase that prices it never ends on the floor test, and
    the duals it returns are dual feasible."""
    A0, x0, cost = zero_floor_data(seed)
    m, n = A0.shape
    # x0 plus a slack of 1 meets the cap row sum(x) + slack = sum(x0) + 1
    A = np.vstack([np.hstack([A0, np.zeros((m, 1))]), np.ones((1, n + 1))])
    b = np.append(A0 @ x0, x0.sum() + 1.0)
    c = np.append(cost, 0.0)
    c[np.random.default_rng(seed).integers(n)] = -1.0
    lp = LinearProgram(A=A, b=b, c=c, maximize=False)
    stops = []

    def recording(sx, _original=_Simplex.at_floor):
        hit = _original(sx)
        if hit:
            stops.append(float(sx.cost[:sx.n].min()))
        return hit

    with mock.patch.object(_Simplex, "at_floor", recording):
        out = solve(lp, rational_check=True)
    assert all(least >= 0.0 for least in stops)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(scipy_status(lp)[1], abs=1e-9)
    assert verify_certificate(lp, out).ok
    assert out.rational_verified is True


# -- randomized scipy cross-check -------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_random_feasible_problems_match_scipy(seed):
    rng = np.random.default_rng(1000 + seed)
    m = int(rng.integers(2, 7))
    n = int(rng.integers(m + 1, 12))
    A = rng.normal(size=(m, n))
    b = A @ rng.random(n)  # feasible by construction
    c = rng.normal(size=n)
    lp = LinearProgram(A=A, b=b, c=c)
    out = solve(lp)
    expect, value = scipy_status(lp)
    assert out.status == expect
    if value is not None:
        scale = max(1.0, abs(value))
        assert abs(out.objective - value) < 1e-7 * scale
    assert verify_certificate(lp, out).ok


@pytest.mark.parametrize("seed", range(30))
def test_random_tall_systems_match_scipy(seed):
    # more rows than columns: typically infeasible, sometimes not
    rng = np.random.default_rng(2000 + seed)
    n = int(rng.integers(2, 5))
    m = n + int(rng.integers(1, 4))
    A = rng.normal(size=(m, n))
    b = rng.normal(size=m)
    lp = LinearProgram(A=A, b=b)
    out = solve(lp)
    expect, _ = scipy_status(lp)
    assert out.status == expect
    assert verify_certificate(lp, out).ok


@pytest.mark.parametrize("seed", range(15))
def test_random_boxed_problems_match_scipy(seed):
    rng = np.random.default_rng(3000 + seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(m + 1, 9))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(-1.0, 1.0, size=n)
    b = A @ x0
    c = rng.normal(size=n)
    bounds = tuple((-1.0, 1.0) for _ in range(n))
    lp = LinearProgram(A=A, b=b, c=c, bounds=bounds)
    out = solve(lp)
    expect, value = scipy_status(lp)
    assert out.status == expect
    if value is not None:
        assert abs(out.objective - value) < 1e-7 * max(1.0, abs(value))
    assert verify_certificate(lp, out).ok


@pytest.mark.parametrize("seed", range(15))
def test_random_free_variable_problems_match_scipy(seed):
    rng = np.random.default_rng(4000 + seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(m + 1, 9))
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n)
    c = rng.normal(size=n)
    # half the variables free, half nonnegative
    bounds = tuple((-_INF, _INF) if j % 2 == 0 else (0.0, _INF)
                   for j in range(n))
    lp = LinearProgram(A=A, b=b, c=c, bounds=bounds)
    out = solve(lp)
    expect, value = scipy_status(lp)
    assert out.status == expect
    if value is not None:
        assert abs(out.objective - value) < 1e-6 * max(1.0, abs(value))


# -- steepest-edge pricing --------------------------------------------------

def _priced_random_lp(seed: int) -> LinearProgram:
    """A feasible program bounded below, whose rows all start on their
    artificials (a normal matrix has no unit column), so both phases
    price."""
    rng = np.random.default_rng(3000 + seed)
    m = int(rng.integers(3, 9))
    n = int(rng.integers(m + 2, 3 * m + 1))
    A = rng.normal(size=(m, n))
    b = A @ rng.random(n)
    # c.x = z.b + s.x on the feasible set, with s >= 0
    c = A.T @ rng.normal(size=m) + rng.random(n)
    return LinearProgram(A=A, b=b, c=c, maximize=False)


def _paired_distance_programs() -> list[LinearProgram]:
    """Distance programs of a nonlocal (2,4,2) table and of a (3,2,3) PR
    box on a random pair: every slack u_k has its mate v_k = -u_k, so
    phase 2 takes long steps, and neither table reaches the floor."""
    beh = behavior_from_setup(random_setup(seed=1, dims=(2, 2), inputs=(4, 4)))
    box = _pr_box_on_pair(np.random.default_rng(3), 3)
    return [_distance_program(strategy_matrix(beh.scenario), beh.probs),
            _distance_program(strategy_matrix(Scenario.uniform(3, 2, 3)), box)]


def _counting_crossings(counts: list):
    """Patch ``_Simplex._cross`` to append the rows of each long step."""
    cross = _Simplex._cross

    def counting(self, rows, col):
        counts.append(rows.size)
        return cross(self, rows, col)

    return mock.patch.object(_Simplex, "_cross", counting)


def test_steepest_edge_weights_are_exact_after_every_pivot():
    """The weights the kernel carries by rank-one updates equal
    1 + |Binv a_j|^2 on every nonbasic structural column after each pivot
    of either phase, long steps included.  After every pivot Binv B is
    the identity to within 1e-9 in the infinity norm, B the basis matrix
    over the same columns, artificial i being row_sign[i] e_i in the
    unflipped system, and the basic values xB, which share one array
    with Binv and its rank-one updates, are Binv b to within 1e-9."""
    rhs: list = []  # b of the program being solved; none has bounds, so it is std.b
    running: list = []  # phase of the run under way, empty between runs
    checked = {1: 0, 2: 0}
    crossings: list = []
    run, pivot = _Simplex.run, _Simplex._pivot

    def watched_run(self, phase):
        running.append(phase)
        try:
            return run(self, phase)
        finally:
            running.pop()

    def watched_pivot(self, i, j, col):
        pivot(self, i, j, col)
        basis = np.hstack([self.A, np.diag(self.row_sign)])[:, self.basis]
        residual = np.abs(self.Binv @ basis - np.eye(len(self.basis))).sum(axis=1).max()
        assert residual <= 1e-9
        assert np.abs(self.Binv @ rhs[-1] - self.xB).max() <= 1e-9
        if not running:
            return  # driving out artificials between the phases prices nothing
        images = self.Binv @ self.A
        fresh = 1.0 + (images * images).sum(axis=0)
        assert self.weights.shape == fresh.shape  # structural columns only
        nonbasic = np.setdiff1d(np.arange(fresh.size), self.basis)
        np.testing.assert_allclose(self.weights[nonbasic], fresh[nonbasic], rtol=1e-8)
        checked[running[-1]] += 1

    with mock.patch.object(_Simplex, "run", watched_run), \
            mock.patch.object(_Simplex, "_pivot", watched_pivot), \
            _counting_crossings(crossings):
        for seed in range(25):
            lp = _priced_random_lp(seed)
            rhs.append(lp.b)
            out = solve(lp)
            assert out.status == "optimal"
            assert verify_certificate(lp, out).ok
        assert not crossings  # no unit column has a mate in these programs
        for lp in _paired_distance_programs():
            before = len(crossings)
            rhs.append(lp.b)
            out = solve(lp)
            assert out.status == "optimal"
            assert verify_certificate(lp, out).ok
            assert len(crossings) > before
    assert checked[1] > 0 and checked[2] > 0


def test_updated_reduced_costs_match_a_fresh_pricing():
    """Each fresh pricing, every m pivots and before a phase is declared
    optimal, finds the reduced costs kept by pivot-row updates, and by
    the row updates of long steps, within 1e-9 of its own; and every
    priced optimal exit of a run that pivoted comes after such a
    comparison."""
    compared = []  # per pricing: did it find updated costs to compare?
    exits = 0
    crossings: list = []
    fresh_costs = _Simplex.reduced_costs

    def watched_costs(self):
        fresh = fresh_costs(self)
        if self.reduced is not None:
            np.testing.assert_allclose(self.reduced, fresh, rtol=0.0, atol=1e-9)
        compared.append(self.reduced is not None)
        return fresh

    run = _Simplex.run

    def watched_run(self, phase):
        nonlocal exits
        before, compared[:] = self.iterations, []
        status, enter = run(self, phase)
        floor = phase == 2 and self.at_floor()
        if status == "optimal" and self.iterations > before and not floor:
            assert compared[-1], "an optimal exit read reduced costs never priced afresh"
            exits += 1
        return status, enter

    lps = [_priced_random_lp(seed) for seed in range(25)] + _paired_distance_programs()
    with mock.patch.object(_Simplex, "reduced_costs", watched_costs), \
            mock.patch.object(_Simplex, "run", watched_run), \
            _counting_crossings(crossings):
        for lp in lps:
            out = solve(lp)
            assert out.status == "optimal"
            _, value = scipy_status(lp)
            assert out.objective == pytest.approx(value, rel=1e-7, abs=1e-7)
    assert exits >= 27
    assert crossings


@pytest.mark.parametrize("name", ["pr_box", "singlet"])
def test_long_step_optimum_passes_the_rational_recheck(name):
    """The CHSH distance programs of the PR box and the singlet end on
    bases reached by long steps; the exact re-check over the rationals
    confirms them."""
    beh = (named_behavior("pr_box") if name == "pr_box"
           else behavior_from_setup(named_setup("singlet_chsh")))
    lp = _distance_program(strategy_matrix(beh.scenario), beh.probs)
    crossings: list = []
    with _counting_crossings(crossings):
        out = solve(lp, rational_check=True)
    assert crossings
    assert out.status == "optimal" and out.objective > 0.8
    assert verify_certificate(lp, out).ok
    assert out.rational_verified is True


def test_deterministic_replay():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 9))
    b = A @ rng.random(9)
    c = rng.normal(size=9)
    lp = LinearProgram(A=A, b=b, c=c)
    first = solve(lp)
    second = solve(lp)
    assert first.iterations == second.iterations
    np.testing.assert_array_equal(first.x, second.x)


def test_optimal_claim_without_duals_is_not_verified():
    """x = (0, 1, 1) costs 7 against the optimum 3; without y nothing
    proves it optimal, so the claim fails."""
    lp = LinearProgram(A=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                       b=np.array([1.0, 1.0]), c=np.array([1.0, 2.0, 5.0]),
                       maximize=False)
    claim = LpOutcome(status="optimal", x=np.array([0.0, 1.0, 1.0]), objective=7.0)
    assert claim.y is None
    report = verify_certificate(lp, claim)
    assert report.residual == 0.0
    assert not report.ok


def test_optimal_claim_without_a_point_is_not_verified():
    """y = (1, 2) prices the program above exactly (reduced costs 0, 0, 4
    and y.b = 3), but prices alone prove no optimum: with x missing the
    claim fails instead of raising."""
    lp = LinearProgram(A=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
                       b=np.array([1.0, 1.0]), c=np.array([1.0, 2.0, 5.0]),
                       maximize=False)
    claim = LpOutcome(status="optimal", y=np.array([1.0, 2.0]), objective=3.0)
    report = verify_certificate(lp, claim)
    assert not report.ok
