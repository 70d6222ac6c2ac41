"""Simplex kernel tests: statuses, certificates, and a scipy cross-check."""

import dataclasses

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from bellbox.analysis import _distance_program
from bellbox.errors import SizeCapError, StalledError, ValidationError
from bellbox.lp import (
    DIMENSION_CAP,
    LinearProgram,
    LpOutcome,
    _Simplex,
    _Start,
    _check_internal,
    _solve_then_maximize,
    solve,
)
from bellbox.polytope import strategy_matrix
from bellbox.quantum import behavior_from_setup, named_setup, random_setup
from bellbox.scenario import Scenario, named_behavior
from _certificate import verify_certificate
from _exact import solve_and_recheck
from _lp_cases import degenerate_cases
from test_analysis import START_SCENARIOS, behavior_on, block_distance_program
from test_no_signalling import _pr_box_on_pair


def scipy_status(lp: LinearProgram):
    """Independent solve via scipy's HiGHS backend."""
    c = -lp.c if lp.maximize else lp.c
    res = linprog(c, A_eq=lp.A, b_eq=lp.b, bounds=(0.0, None), method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "other")
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
    """A zero cost asks for a feasible point only; it is optimal at 0."""
    lp = LinearProgram(A=np.array([[1.0, 1.0]]), b=np.array([1.0]), c=np.zeros(2))
    out = solve(lp)
    assert out.status == "optimal" and out.objective == 0.0
    assert abs(out.x.sum() - 1.0) < 1e-12
    assert verify_certificate(lp, out).ok


def test_worked_farkas_example():
    # rows x1 + x2 = 1 and x1 + x2 = 2 clash; y = (-1, 1) proves it
    lp = LinearProgram(A=np.array([[1.0, 1.0], [1.0, 1.0]]),
                       b=np.array([1.0, 2.0]), c=np.zeros(2))
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
    no_cols = solve(LinearProgram(A=np.zeros((2, 0)), b=np.zeros(2), c=np.zeros(0)))
    assert no_cols.status == "optimal" and no_cols.x.shape == (0,)


# -- input validation and caps ----------------------------------------------

def test_shape_mismatch_rejected():
    with pytest.raises(ValidationError):
        LinearProgram(A=np.eye(2), b=np.ones(3), c=np.ones(2))
    with pytest.raises(ValidationError):
        LinearProgram(A=np.eye(2), b=np.ones(2), c=np.ones(3))


def test_nonfinite_rejected():
    with pytest.raises(ValidationError):
        LinearProgram(A=np.array([[np.inf]]), b=np.ones(1), c=np.ones(1))
    with pytest.raises(ValidationError):
        LinearProgram(A=np.eye(1), b=np.ones(1), c=np.array([np.nan]))


def test_objective_is_required():
    with pytest.raises(TypeError):
        LinearProgram(A=np.eye(1), b=np.ones(1))


_NAN = float("nan")


def test_nan_residual_is_an_internal_failure():
    """A NaN in the reported x fails the residual band instead of passing
    a ``res > slack`` test; infeasibility evidence with NaN fails too."""
    lp = LinearProgram(A=np.array([[1.0, 1.0]]), b=np.array([1.0]), c=np.zeros(2))
    with pytest.raises(StalledError, match="residual"):
        _check_internal(lp, LpOutcome(status="optimal", x=np.array([_NAN, 0.0])), 1e-9)
    with pytest.raises(StalledError, match="infeasibility evidence"):
        _check_internal(lp, LpOutcome(status="infeasible", y=np.array([_NAN])), 1e-9)


def test_dimension_cap():
    with pytest.raises(SizeCapError):
        LinearProgram(A=np.zeros((1, DIMENSION_CAP + 1)), b=np.zeros(1),
                      c=np.zeros(DIMENSION_CAP + 1))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0])
def test_solve_refuses_a_bad_tolerance(tol):
    """At tol NaN or inf, x + y = -2 over x, y >= 0 came back with the
    point x = (-2, 0)."""
    lp = LinearProgram(A=np.array([[1.0, 1.0]]), b=np.array([-2.0]), c=np.zeros(2))
    with pytest.raises(ValidationError, match="tolerance must be positive and finite"):
        solve(lp, tol=tol)


def test_stall_raises_not_misreports():
    lp = LinearProgram(A=np.array([[1.0, 1.0, 1.0]]), b=np.array([1.0]),
                       c=np.array([1.0, 2.0, 3.0]))
    with mock.patch("bellbox.lp.DEFAULT_MAX_ITERS", 0), pytest.raises(StalledError):
        solve(lp)


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
    _, exact = solve_and_recheck(case.lp)
    assert exact is True


# -- starts ------------------------------------------------------------------

def test_unit_column_on_negative_row_does_not_start_basic():
    # column 0 is +e_0, but row 0 is flipped (b_0 < 0), so there it reads
    # -e_0; column 3 is +e_1 on a nonnegative row.  A program without a
    # start starts every row on its artificial, and neither column does
    A = np.array([[1.0, 1.0, -1.0, 0.0],
                  [0.0, 1.0, 1.0, 1.0]])
    b = np.array([-1.0, 2.0])
    lp = LinearProgram(A=A, b=b, c=np.array([1.0, 2.0, 3.0, 1.0]), maximize=False)
    assert _Simplex(lp.A, lp.b).basis.tolist() == [4, 5]
    out = solve(lp)
    expect, value = scipy_status(lp)
    assert out.status == expect == "optimal"
    assert out.objective == pytest.approx(value, abs=1e-9)
    assert verify_certificate(lp, out).ok


def test_infeasible_with_unit_slacks_gives_exact_farkas_vector():
    # x0 + x1 + s0 = 1 and x0 + x1 - s1 = 2 clash
    A = np.array([[1.0, 1.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0, -1.0]])
    lp = LinearProgram(A=A, b=np.array([1.0, 2.0]), c=np.zeros(4))
    out, exact = solve_and_recheck(lp)
    assert out.status == "infeasible" == scipy_status(lp)[0]
    assert verify_certificate(lp, out).ok
    assert exact is True


@pytest.mark.parametrize("seed", range(10))
def test_random_slack_form_problems_match_scipy(seed):
    # G x + s = b with an identity block of slacks and mixed-sign b
    rng = np.random.default_rng(5000 + seed)
    m = int(rng.integers(3, 7))
    k = int(rng.integers(2, 6))
    A = np.hstack([rng.normal(size=(m, k)), np.eye(m)])
    b = rng.normal(size=m)
    lp = LinearProgram(A=A, b=b, c=rng.random(m + k), maximize=False)
    out, exact = solve_and_recheck(lp)
    expect, value = scipy_status(lp)
    assert out.status == expect
    if value is not None:
        assert abs(out.objective - value) < 1e-7 * max(1.0, abs(value))
    assert verify_certificate(lp, out).ok
    assert exact is True


@pytest.mark.parametrize("seed", range(10))
def test_starting_basis_takes_the_smallest_unit_column_of_each_row(seed):
    """The start that a distance program comes with puts on each row the
    smallest column that its inverse turns into that row's unit vector,
    as a scan of Binv A for unit columns would, over every scenario of
    the start tests, with a visibility column on odd seeds."""
    rng = np.random.default_rng(7000 + seed)
    sc = START_SCENARIOS[sorted(START_SCENARIOS)[seed % len(START_SCENARIOS)]]
    p = behavior_on(sc, 7000 + seed, rng.random()).probs
    q = behavior_on(sc, 8000 + seed, rng.random()).probs if seed % 2 else None
    lp, start = _distance_program(sc, p, toward=q)
    T = start.BX[:, :-1] @ lp.A
    m, n = T.shape
    expect = [n + i for i in range(m)]
    for j in reversed(range(n)):
        nz = np.flatnonzero(T[:, j])
        if nz.size == 1 and T[nz[0], j] == 1.0:
            expect[int(nz[0])] = j
    assert start.basis.tolist() == expect
    assert _Simplex(lp.A, lp.b, start=start).basis.tolist() == expect


def reference_unit_scan(A: np.ndarray, b: np.ndarray):
    """The starting basis, mates and ``paired`` by a scan for unit
    columns: count each column's nonzeros, take each singleton's row, and
    keep the first +e_i and -e_i column per row of the flipped system by
    np.unique."""
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


@settings(max_examples=100, deadline=None)
@given(label=st.sampled_from(sorted(START_SCENARIOS)), seed=st.integers(0, 2**32 - 1),
       w=st.floats(0.0, 1.0), toward=st.booleans())
def test_unit_column_scan_matches_the_unique_scan(label, seed, w, toward):
    """The closed-form start of a distance program is the start that the
    np.unique scan for unit columns finds on the shifted program, with
    V[:, s0] times the last row taken off the first d rows: the same
    basis, the same mates, and paired alike."""
    sc = START_SCENARIOS[label]
    p = behavior_on(sc, seed, w).probs
    q = behavior_on(sc, seed + 1, 1.0 - w).probs if toward else None
    lp, start = _distance_program(sc, p, toward=q)
    A, b = block_distance_program(strategy_matrix(sc), p)
    if q is not None:
        A = np.hstack([A, np.append(p - q, 0.0)[:, None]])
    basis, mate, paired = reference_unit_scan(A, b)
    assert start.basis.tolist() == basis.tolist()
    assert start.mate.tolist() == mate.tolist()
    assert _Simplex(lp.A, lp.b, start=start).paired == paired


@pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
def test_unit_column_scan_on_empty_systems(shape):
    """An empty system, with no unit column to start on, starts every row
    on its artificial, with no mates."""
    A, b = np.zeros(shape), -np.ones(shape[0])
    sx = _Simplex(A, b)
    assert sx.basis.tolist() == list(range(shape[1], shape[1] + shape[0]))
    assert sx.mate.tolist() == [-1] * sum(shape)
    assert not sx.paired


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
@example((np.zeros((0, 0)), np.zeros(0))).via("an empty system")
@example((np.zeros((0, 3)), np.zeros(0))).via("no rows")
@example((np.zeros((3, 0)), -np.ones(3))).via("no columns")
def test_programs_without_a_start_start_on_their_artificials(system):
    """With no start given, every row starts on its artificial, even where
    a structural column equals its unit vector: Binv = diag(row_sign),
    xB = row_sign b >= 0, no mates, and the weights of the columns
    themselves, 1 + |a_j|^2."""
    A, b = system
    m, n = A.shape
    sx = _Simplex(A, b)
    sign = np.where(b < 0.0, -1.0, 1.0)
    assert sx.basis.tolist() == list(range(n, n + m))
    assert np.array_equal(sx.Binv, np.diag(sign)) and np.array_equal(sx.xB, sign * b)
    assert (sx.xB >= 0.0).all()
    assert sx.mate.tolist() == [-1] * (n + m) and not sx.paired
    assert np.array_equal(sx.edge_weights(), 1.0 + (A * A).sum(axis=0))


def _recording_runs(calls: list):
    """Patch ``_Simplex.run`` to append the phase of each run."""
    run = _Simplex.run

    def recording(self, phase):
        calls.append(phase)
        return run(self, phase)

    return mock.patch.object(_Simplex, "run", recording)


def test_phase1_runs_only_when_an_artificial_starts_basic():
    """A distance program's start puts a structural column on every row,
    so phase 1 prices nothing; a program without a start starts on its
    artificials, and phase 1 runs."""
    beh = behavior_from_setup(random_setup(seed=1, dims=(2, 2), inputs=(4, 4)))
    calls: list = []
    lp, start = _distance_program(beh.scenario, beh.probs)
    with _recording_runs(calls):
        out = solve(lp, start=start)
    assert out.status == "optimal"
    assert calls == [2]
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
        out, exact = solve_and_recheck(lp)
    assert entered and max(entered) < A.shape[1]
    assert out.status == "optimal" and out.objective == pytest.approx(2.0, abs=1e-12)
    assert verify_certificate(lp, out).ok
    assert exact is True


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
        out, exact = solve_and_recheck(case.lp)
    assert out.status == "optimal" and exact is True
    sx = simplices[-1]
    m, n = case.lp.shape
    assert sx.Binv.shape == (m, m) and sx.basis.size == m
    artificial = sx.basis >= n
    assert artificial.sum() == 1
    assert sx.xB[artificial].tolist() == [0.0]


def test_simplex_reads_the_standard_form_matrix_without_a_copy():
    """The distance program is in standard form as built, and ``solve``
    runs the simplex on its own A, the scenario's read-only matrix, from
    the inverse of its start.  A program without a start that has
    negative right-hand sides has those rows flipped by the signs Binv
    starts with, not in a copy of A."""
    beh = behavior_from_setup(random_setup(seed=1, dims=(2, 2), inputs=(4, 4)))
    lp, start = _distance_program(beh.scenario, beh.probs)
    flipped = LinearProgram(A=np.array([[1.0, 1.0, -1.0], [0.0, 1.0, 1.0]]),
                            b=np.array([-1.0, 2.0]), c=np.zeros(3))
    starts = []
    init = _Simplex.__init__

    def watched_init(self, A, b, *args, **kwargs):
        init(self, A, b, *args, **kwargs)
        starts.append((self.A, self.Binv.copy()))

    with mock.patch.object(_Simplex, "__init__", watched_init):
        assert solve(lp, start=start).status == "optimal"
        assert solve(flipped).status == "optimal"
    ((A, Binv), (A_flipped, Binv_flipped)) = starts
    assert A is lp.A and not A.flags.writeable
    np.testing.assert_array_equal(Binv, start.BX[:, :-1])
    assert A_flipped is flipped.A
    np.testing.assert_array_equal(Binv_flipped, np.diag([-1.0, 1.0]))


def _mixed_sign_programs(status: str, count: int = 6) -> list[LinearProgram]:
    """The first ``count`` seeded programs G x + s = b (small integer G,
    an identity block of slacks) whose b has both signs and whose
    status is ``status``; "feasible" ones have a zero cost and end
    "optimal"."""
    found = []
    for seed in range(10_000):
        rng = np.random.default_rng(8000 + seed)
        m, k = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        A = np.hstack([rng.integers(-3, 4, size=(m, k)).astype(float), np.eye(m)])
        b = rng.integers(-3, 4, size=m).astype(float)
        if not ((b < 0.0).any() and (b > 0.0).any()):
            continue
        c = np.zeros(m + k) if status == "feasible" else rng.integers(-3, 4, size=m + k)
        lp = LinearProgram(A=A, b=b, c=c, maximize=bool(seed % 2))
        if scipy_status(lp)[0] == _expected(status):
            found.append(lp)
            if len(found) == count:
                return found
    raise AssertionError(f"no {count} {status} programs found")


def _expected(status: str) -> str:
    """The status that ``_mixed_sign_programs(status)`` solve to."""
    return "optimal" if status == "feasible" else status


@pytest.mark.parametrize("status", ["optimal", "infeasible", "unbounded", "feasible"])
def test_mixed_sign_rhs_certificates_pass_both_checks(status):
    """Rows with b_i < 0 start flipped, some on their artificials: every
    status's evidence passes ``verify_certificate`` and the exact
    re-check of its final basis."""
    for lp in _mixed_sign_programs(status):
        out, exact = solve_and_recheck(lp)
        assert out.status == _expected(status)
        assert verify_certificate(lp, out).ok
        assert exact is True


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
                       b=np.array([1.0, 2.0]), c=np.zeros(2))
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
    out, exact = solve_and_recheck(lp)
    assert out.status == "optimal"
    assert abs(out.objective) <= 1e-9
    assert not np.any(out.y)
    assert verify_certificate(lp, out).ok
    assert exact is True


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
    out, exact = solve_and_recheck(lp)
    assert out.status == "optimal"
    assert out.objective == 0.0
    assert verify_certificate(lp, out).ok
    assert exact is True


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
        out, exact = solve_and_recheck(lp)
    assert all(least >= 0.0 for least in stops)
    assert out.status == "optimal"
    assert out.objective == pytest.approx(scipy_status(lp)[1], abs=1e-9)
    assert verify_certificate(lp, out).ok
    assert exact is True


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
    lp = LinearProgram(A=A, b=b, c=np.zeros(n))
    out = solve(lp)
    expect, _ = scipy_status(lp)
    assert out.status == expect
    assert verify_certificate(lp, out).ok


def scipy_bounded(A, b, c, bounds):
    """Status and maximum of c.x subject to A x = b with the variable
    bounds ``bounds``, by HiGHS, which takes the bounds as they are."""
    res = linprog(-c, A_eq=A, b_eq=b, bounds=bounds, method="highs")
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "other")
    return status, (-res.fun if status == "optimal" else None)


@pytest.mark.parametrize("seed", range(15))
def test_random_boxed_problems_match_scipy(seed):
    """x in [-1, 1]^n, written as x = x' - 1 with x' + s = 2, against
    HiGHS on the box itself; the objective drops the constant -sum(c)."""
    rng = np.random.default_rng(3000 + seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(m + 1, 9))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(-1.0, 1.0, size=n)
    b = A @ x0
    c = rng.normal(size=n)
    lp = LinearProgram(A=np.block([[A, np.zeros((m, n))], [np.eye(n), np.eye(n)]]),
                       b=np.concatenate([b + A.sum(axis=1), np.full(n, 2.0)]),
                       c=np.concatenate([c, np.zeros(n)]))
    out = solve(lp)
    expect, value = scipy_bounded(A, b, c, (-1.0, 1.0))
    assert out.status == expect
    if value is not None:
        x = out.x[:n] - 1.0
        assert np.abs(A @ x - b).max() < 1e-9 and np.abs(x).max() <= 1.0 + 1e-12
        assert abs(out.objective - c.sum() - value) < 1e-7 * max(1.0, abs(value))
    assert verify_certificate(lp, out).ok


@pytest.mark.parametrize("seed", range(15))
def test_random_free_variable_problems_match_scipy(seed):
    """Half the variables free, each written x_j = x_j+ - x_j-, against
    HiGHS on the free variables themselves."""
    rng = np.random.default_rng(4000 + seed)
    m = int(rng.integers(2, 5))
    n = int(rng.integers(m + 1, 9))
    A = rng.normal(size=(m, n))
    b = A @ rng.normal(size=n)
    c = rng.normal(size=n)
    free = np.arange(n) % 2 == 0
    lp = LinearProgram(A=np.hstack([A, -A[:, free]]), b=b, c=np.concatenate([c, -c[free]]))
    out = solve(lp)
    expect, value = scipy_bounded(A, b, c, [(None, None) if f else (0.0, None) for f in free])
    assert out.status == expect
    if value is not None:
        assert abs(out.objective - value) < 1e-6 * max(1.0, abs(value))
    assert verify_certificate(lp, out).ok


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


def _paired_distance_programs() -> list[tuple[LinearProgram, _Start]]:
    """Distance programs of a nonlocal (2,4,2) table and of a (3,2,3) PR
    box on a random pair, with their starts: every slack u_k has its mate
    v_k = -u_k, so phase 2 takes long steps, and neither table reaches
    the floor."""
    beh = behavior_from_setup(random_setup(seed=1, dims=(2, 2), inputs=(4, 4)))
    box = _pr_box_on_pair(np.random.default_rng(3), 3)
    return [_distance_program(beh.scenario, beh.probs),
            _distance_program(Scenario.uniform(3, 2, 3), box)]


def _counting_crossings(counts: list):
    """Patch ``_Simplex._cross`` to append the rows of each long step."""
    cross = _Simplex._cross

    def counting(self, rows, col):
        counts.append(rows.size)
        return cross(self, rows, col)

    return mock.patch.object(_Simplex, "_cross", counting)


def test_ratio_test_tie_keeps_the_larger_pivot():
    """Entering x2 ties both rows at ratio 0.  The smallest basic index,
    x0's row, offers a pivot of 1e-4 beside x1's 1, below the tie floor
    of 1e-2 of the largest tied pivot, so x1 leaves instead."""
    lp = LinearProgram(A=[[1.0, 0.0, 1e-4], [0.0, 1.0, 1.0]], b=[0.0, 0.0],
                       c=[0.0, 0.0, -1.0], maximize=False)
    start = _Start(basis=np.array([0, 1]), BX=np.hstack([np.eye(2), np.zeros((2, 1))]),
                   mate=np.full(5, -1), weights=np.array([1.0, 1.0, 2.0]))
    pivots = []
    pivot = _Simplex._pivot

    def watched_pivot(self, i, j, col):
        pivots.append((i, j))
        pivot(self, i, j, col)

    with mock.patch.object(_Simplex, "_pivot", watched_pivot):
        out = solve(lp, start=start)
    assert out.status == "optimal" and out.objective == 0.0
    assert pivots == [(1, 2)]


def test_steepest_edge_weights_are_exact_after_every_pivot():
    """The weights the kernel carries by rank-one updates equal
    1 + |Binv a_j|^2 on every nonbasic structural column after each pivot
    of either phase, long steps included.  After every pivot Binv B is
    the identity to within 1e-9 in the infinity norm, B the basis matrix
    over the same columns, artificial i being row_sign[i] e_i in the
    unflipped system, and the basic values xB, which share one array
    with Binv and its rank-one updates, are Binv b to within 1e-9."""
    rhs: list = []  # b of the program being solved
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
        assert not crossings  # a program without a start has no mates
        for lp, start in _paired_distance_programs():
            before = len(crossings)
            rhs.append(lp.b)
            out = solve(lp, start=start)
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

    lps = [(_priced_random_lp(seed), None) for seed in range(25)] + _paired_distance_programs()
    with mock.patch.object(_Simplex, "reduced_costs", watched_costs), \
            mock.patch.object(_Simplex, "run", watched_run), \
            _counting_crossings(crossings):
        for lp, start in lps:
            out = solve(lp, start=start)
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
    lp, start = _distance_program(beh.scenario, beh.probs)
    crossings: list = []
    with _counting_crossings(crossings):
        out, exact = solve_and_recheck(lp, start=start)
    assert crossings
    assert out.status == "optimal" and out.objective > 0.8
    assert verify_certificate(lp, out).ok
    assert exact is True


def test_exact_recheck_can_say_no():
    """On a seeded (2,3,2) quantum table the float optimum's basis is not
    exactly feasible and optimal over the rationals, although the float
    certificate passes: the re-check is no formality."""
    beh = behavior_from_setup(random_setup(seed=1, dims=(2, 2), inputs=(3, 3)))
    lp, start = _distance_program(beh.scenario, beh.probs)
    out, exact = solve_and_recheck(lp, start=start)
    assert out.status == "optimal"
    assert verify_certificate(lp, out).ok
    assert exact is False


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


# -- the staged solve -------------------------------------------------------

def _staged_case(seed: int):
    """A random program A x = b, x >= 0 whose nonnegative costs charge a
    set of columns that some feasible point leaves at zero, so that the
    minimum is 0; and the column ``k``, uncharged, to maximize after."""
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(2, 6)), int(rng.integers(6, 12))
    A = rng.normal(size=(m, n))
    charged = rng.random(n) < 0.4
    k = int(rng.choice(np.flatnonzero(~charged)))
    x0 = np.where(charged, 0.0, rng.random(n))
    x0[k] = 0.0
    cost = np.where(charged, rng.random(n) + 0.1, 0.0)
    return LinearProgram(A=A, b=A @ x0, c=cost, maximize=False), charged, k


@pytest.mark.parametrize("seed", range(30))
def test_staged_solve_matches_scipy_on_the_optimal_face(seed):
    """The first stage is ``solve`` with column k held at zero; the
    second is the largest x_k with the charged columns fixed at zero, as
    HiGHS finds it, with a certificate that passes against that program."""
    lp, charged, k = _staged_case(seed)
    first, second = _solve_then_maximize(lp, k)
    held = [(0.0, 0.0) if j == k else (0.0, None) for j in range(lp.shape[1])]
    ref = linprog(lp.c, A_eq=lp.A, b_eq=lp.b, bounds=held, method="highs")
    assert first.status == "optimal" and first.x[k] == 0.0
    assert first.objective == pytest.approx(ref.fun, abs=1e-9) and ref.fun < 1e-9
    goal = np.zeros(lp.shape[1])
    goal[k] = -1.0
    face = [(0.0, 0.0) if c else (0.0, None) for c in charged]
    ref = linprog(goal, A_eq=lp.A, b_eq=lp.b, bounds=face, method="highs")
    if ref.status == 3:
        assert second.status == "unbounded"
        assert verify_certificate(LinearProgram(A=lp.A[:, ~charged], b=lp.b, c=-goal[~charged]),
                                  dataclasses.replace(second, x=second.x[~charged],
                                                      ray=second.ray[~charged])).ok
    else:
        assert second.status == "optimal"
        assert second.objective == pytest.approx(-ref.fun, abs=1e-9)
        assert np.abs(second.x[charged]).max(initial=0.0) <= 1e-12
        restricted = LinearProgram(A=lp.A[:, ~charged], b=lp.b, c=-goal[~charged])
        assert verify_certificate(restricted,
                                  dataclasses.replace(second, x=second.x[~charged])).ok


def test_staged_solve_holds_a_unit_column_at_zero():
    """Column 0 is row 0's unit column, yet it is held: phase 1 moves the
    row from its artificial to column 1, where the first stage ends, and
    the second moves it to column 0."""
    lp = LinearProgram(A=[[1.0, 1.0]], b=[1.0], c=[0.0, 0.0], maximize=False)
    first, second = _solve_then_maximize(lp, 0)
    assert first.x.tolist() == [0.0, 1.0] and first.iterations == 1
    assert second.x.tolist() == [1.0, 0.0] and second.objective == 1.0
    assert second.iterations == 2


def _staged_visibility_programs() -> list[tuple[LinearProgram, _Start, int]]:
    """The uniform table's distance program continued toward the PR box,
    the singlet, seeded random (2,3,2) and (2,2,3) setups and the (2,3,3)
    setup of seed 8, each with its blend column: the staged solves of
    ``visibility_threshold``.

    Seed 8's second stage runs 156 pivots, past ``REINVERT_EVERY``.
    Without a rebuilt inverse, Binv B drifted from the identity there by
    1.08 within 14 pivots, and the solve failed its residual check.  Its
    ratio tests tie rows at ratio 0, and the smallest basic index among
    them once left on a pivot of 3.2e-4 beside a column entry of 72, on
    a basis of infinity-norm condition number 4.1e8.  With the tie floor
    its smallest pivot is 1.8e-3 of its column's largest entry, Binv B
    stays within 7.7e-10 of the identity, xB within 1.5e-11 of Binv b,
    and the weights within a relative 6.3e-9."""
    targets = [named_behavior("pr_box"), behavior_from_setup(named_setup("singlet_chsh"))]
    targets += [behavior_from_setup(random_setup(seed, dims=dims, inputs=inputs))
                for seed in range(3) for dims, inputs in (((2, 2), (3, 3)), ((3, 3), (2, 2)))]
    seed8 = behavior_from_setup(random_setup(8, dims=(3, 3), inputs=(3, 3)))
    programs = []
    for p in targets + [seed8]:
        q = named_behavior("uniform", p.scenario).probs
        lp, start = _distance_program(p.scenario, q, toward=p.probs)
        programs.append((lp, start, lp.shape[1] - 1))
    return programs


def test_kernel_invariants_hold_through_both_stages_of_the_staged_solve():
    """After every pivot of either stage of ``_solve_then_maximize``,
    and of the ``drive_out`` between them, Binv B is the identity and xB
    is Binv b to within 1e-9, and within a stage the weights of the
    nonbasic structural columns are 1 + |Binv a_j|^2 to a relative 1e-8.
    Each stage's
    first pricing builds its weights from the basis it starts on: on the
    second stage, after pivots, that is no longer the start's, and the
    start's weights would be wrong."""
    rhs: list = []
    stage: list = []  # per run under way, its stage: 2 from the second phase-2 run on
    runs: list = []  # the phases run in the staged solve under way
    checked = {1: 0, 2: 0}
    rebuilt = []  # per stage-2 first pricing: did Binv differ from the starting inverse?
    run, pivot, weights = _Simplex.run, _Simplex._pivot, _Simplex.edge_weights

    def watched_run(self, phase):
        runs.append(phase)
        stage.append(max(runs.count(2), 1))
        try:
            return run(self, phase)
        finally:
            stage.pop()

    def watched_pivot(self, i, j, col):
        pivot(self, i, j, col)
        basis = np.hstack([self.A, np.diag(self.row_sign)])[:, self.basis]
        residual = np.abs(self.Binv @ basis - np.eye(len(self.basis))).sum(axis=1).max()
        assert residual <= 1e-9
        assert np.abs(self.Binv @ rhs[-1] - self.xB).max() <= 1e-9
        if not stage:
            return  # drive_out between the stages prices nothing
        images = self.Binv @ self.A
        fresh = 1.0 + (images * images).sum(axis=0)
        nonbasic = np.setdiff1d(np.arange(fresh.size), self.basis)
        np.testing.assert_allclose(self.weights[nonbasic], fresh[nonbasic],
                                   rtol=1e-8)
        checked[stage[-1]] += 1

    def watched_weights(self):
        built = weights(self)
        images = self.Binv @ self.A
        np.testing.assert_allclose(built, 1.0 + (images * images).sum(axis=0), rtol=1e-12)
        if stage[-1] == 2:
            rebuilt.append(not np.allclose(built, self.start.weights))
        return built

    with mock.patch.object(_Simplex, "run", watched_run), \
            mock.patch.object(_Simplex, "_pivot", watched_pivot), \
            mock.patch.object(_Simplex, "edge_weights", watched_weights):
        for lp, start, k in _staged_visibility_programs():
            rhs.append(lp.b)
            runs.clear()
            first, second = _solve_then_maximize(lp, k, start)
            assert first.status == "optimal" and second is not None
    assert checked[1] > 0 and checked[2] > 0
    assert any(rebuilt)
