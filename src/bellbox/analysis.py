"""Deciding what kind of box a behavior is.

The decision problem is linear: one small program measures the l1
distance from a behavior to the mixtures of deterministic strategies.
At distance zero its optimal mixture is the local model; at a positive
distance its row prices are the deepest box-normalized cut, a violated
inequality.  Classification, inequality derivation and both critical
thresholds are built on that one program.
A table whose signalling defect exceeds the tolerance never reaches it:
the shift of its worst marginal is already a violated inequality.

The critical visibility is the same program continued: the noise's
distance program gains one column, the weight of the behavior in its
blend with the noise, and once the simplex has decided the noise at
distance zero it goes on, with the slacks fixed at zero, to the largest
weight that stays local.  That optimum is the threshold, and its
mixture and row prices bracket it: one program, one simplex, no
bisection.  The critical efficiency follows its own cuts, each cut's
margin a quadratic whose largest root below the probe is the next probe,
and both thresholds read their bracket off certificates by one rule.

Every default and recheck tolerance here comes from ``tolerances``, and
each public entry point refuses a ``tol`` that is not a positive, finite
number (``require_tolerance``) before any program is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import StalledError, ValidationError
from .lp import LinearProgram, LpOutcome, _Start, _solve_then_maximize, check_size, solve
from .polytope import (BellFunctional, LocalModel, _strategy_store, canonicalize,
                       chsh_functional, local_bound, strategy_count, strategy_matrix)
from .quantum import BellSetup, _lossy_setup, behavior_from_setup
from .scenario import (_CHSH_SCENARIO, Behavior, NoSignallingReport, Scenario, _blocks,
                       _layout, _marginal_index, no_signalling_defect)
from .tolerances import (DEFAULT_TOL, EFFICIENCY_TOL, MODEL_TOL, VISIBILITY_TOL,
                         require_tolerance)


class Verdict(Enum):
    """Mutually exclusive behavior classes, checked in this order:
    signalling first, then membership in the local set."""

    LOCAL = "local"
    WEAKLY_NONLOCAL = "weakly nonlocal"
    SIGNALLING = "signalling"


@dataclass(frozen=True)
class MembershipResult:
    """Outcome of the local-set decision with its witness: a reproducing
    mixture when inside, a violated inequality when outside."""

    is_local: bool
    model: LocalModel | None = None
    functional: BellFunctional | None = None
    violation: float | None = None


@dataclass(frozen=True)
class Classification:
    """A verdict plus exactly one witness backing it and a one-line
    summary for the experimenter."""

    verdict: Verdict
    summary: str
    model: LocalModel | None = None
    functional: BellFunctional | None = None
    violation: float | None = None
    signalling: NoSignallingReport | None = None


@dataclass(frozen=True)
class ThresholdResult:
    """A critical parameter value and a bracket around it.

    ``critical`` is the certified-local end of the bracket; the other end
    is certified nonlocal and the bracket is no wider than ``tolerance``.
    Both thresholds read their bracket off certificates and halve
    nothing, so ``iterations`` is 0 on both; the reports still print it.
    """

    parameter: str
    critical: float
    bracket: tuple[float, float]
    iterations: int
    tolerance: float


@lru_cache(maxsize=32)
def _distance_matrix(scenario: Scenario) -> tuple[np.ndarray, LinearProgram]:
    """The strategy matrix V and the distance program that every table of
    ``scenario`` shares, with b = 0.  Its matrix A = [V | I | -I ; 1 0 0]
    is the read-only array that already holds V
    (``polytope._strategy_store``), never copied; A and the costs are
    checked, and the costs made read-only, once."""
    V = strategy_matrix(scenario)
    d, n = V.shape
    cost = np.zeros(n + 2 * d)
    cost[n:] = 1.0
    shared = LinearProgram(A=_strategy_store(scenario)[0], b=np.zeros(d + 1), c=cost)
    shared.b.setflags(write=False)
    shared.c.setflags(write=False)
    return V, shared


def _distance_program(scenario: Scenario, probs: np.ndarray,
                      toward: np.ndarray | None = None) -> tuple[LinearProgram, _Start]:
    """l1 distance from the behavior to the deterministic mixtures, and the
    start of its simplex.

    Variables are (w, u, v) >= 0: minimize sum(u + v) subject to
    V w + u - v = p and sum(w) = 1.  The optimum is 0 exactly when w is a
    reproducing mixture.  It is the LP dual of the box-normalized cut
    program, so the prices y[:d] of the first d rows are the
    coefficients of the deepest cut with |c_j| <= 1, and y[d] is the
    price of the last row.  A and the costs are built once per scenario,
    A in the array that holds the strategy matrix (``_distance_matrix``),
    and shared, never copied or checked again: a table brings only
    b = (p; 1).

    The start is the crash basis (Bixby, ORSA J. Comput. 4, 267 (1992)),
    built in closed form.  For the strategy s0 nearest to p in l1, row
    k < d starts on u_k or v_k by the sign of p_k - V[k, s0], and the
    last row on w_s0: the feasible point w = e_s0, so no phase 1 runs.
    With S the diagonal of those signs, the inverse is
    [[S, -S V[:, s0]], [0, 1]] and the basic values are
    (|p - V[:, s0]|; 1).  The inverse, not A, carries the row operation
    that takes V[:, s0] times the last row off the first d rows: the
    tableau is that of the shifted rows, the prices y[:d] are unchanged
    by the shift, and y[d] is the price of the unshifted last row.  u_k
    and v_k are mates, and the first steepest-edge weights are
    2 + 2 (blocks - V[:, s0].V_s) for strategy s, blocks being the input
    blocks that each strategy fills once, and 2 for each slack.

    Given ``toward``, a table p', one more variable t follows at cost 0,
    with column (p - p'; 0), on a copy of A, and its first weight is
    1 + |p - p'|^2.  At u = v = 0 the rows then read
    V w = (1 - t) p + t p' and sum(w) = 1: the largest such t is the
    largest weight of p' in a blend with p that stays local, the
    visibility program of Kaszlikowski et al., PRL 85, 4418 (2000),
    written as a continuation of p's own distance program.
    """
    V, shared = _distance_matrix(scenario)
    d, n = V.shape
    slacks = n + 2 * d
    # |p - V[:, s]|_1 = sum(p) + (1 - 2p).V[:, s] for 0/1 columns
    s0 = int(np.argmin((1.0 - 2.0 * probs) @ V))
    b = np.append(probs, 1.0)
    weights = np.full(slacks + (toward is not None), 2.0)
    agree = V[:, s0] @ V  # the blocks on which each strategy agrees with s0
    weights[:n] += 2.0 * (agree[s0] - agree)
    if toward is None:
        lp = LinearProgram._prechecked(shared.A, b, shared.c)
    else:
        A = np.empty((d + 1, slacks + 1))
        A[:, :slacks] = shared.A
        np.subtract(probs, toward, out=A[:d, slacks])
        A[d, slacks] = 0.0
        column = A[:, slacks:]
        weights[slacks] = 1.0 + np.einsum("ij,ij->j", column, column)[0]  # as edge_weights sums
        lp = LinearProgram._prechecked(A, b, np.append(shared.c, 0.0))
    gap = probs - V[:, s0]
    below = gap < 0.0
    sign = np.where(below, -1.0, 1.0)
    BX = np.zeros((d + 1, d + 2))
    np.fill_diagonal(BX[:d], sign)
    np.multiply(sign, -V[:, s0], out=BX[:d, d])
    np.abs(gap, out=BX[:d, d + 1])
    BX[d, d:] = 1.0
    rows = np.arange(n, n + d)
    mate = np.full(lp.shape[1] + d + 1, -1)
    mate[rows], mate[rows + d] = rows + d, rows
    basis = np.append(rows + d * below, s0)
    return lp, _Start(basis=basis, BX=BX, mate=mate, weights=weights)


def _decide(behavior: Behavior, tol: float = DEFAULT_TOL) -> tuple[bool, np.ndarray]:
    """Local-set decision with a witness rechecked against the strategies.

    Returns (True, weights) with weights reproducing the behavior to
    within ``MODEL_TOL`` and none in (0, ``DEFAULT_TOL``], or (False, c) with c.p strictly above every
    deterministic value of c.  A witness that fails its recheck raises.
    A program over the LP size cap is refused before the strategies are
    enumerated.
    """
    return _decision(behavior, *_solved(behavior, tol), tol)


def _solved(behavior: Behavior, tol: float) -> tuple[np.ndarray, LpOutcome]:
    """The strategy matrix and the behavior's distance program's outcome."""
    d = behavior.scenario.dimension
    check_size(d + 1, strategy_count(behavior.scenario) + 2 * d)
    V = strategy_matrix(behavior.scenario)
    lp, start = _distance_program(behavior.scenario, behavior.probs)
    # the simplex stops at the first vertex within its tol of distance 0;
    # a looser tol moves only the decision, so that the model the
    # simplex stops at still meets MODEL_TOL
    return V, solve(lp, tol=min(tol, DEFAULT_TOL), start=start)


def _decision(behavior: Behavior, V: np.ndarray, out, tol: float) -> tuple[bool, np.ndarray]:
    """``_decide``'s verdict and witness, read off the outcome ``out`` of
    the behavior's distance program over the strategy matrix ``V``; a
    program with more columns after the weights and slacks reads the
    same."""
    if out.status != "optimal":
        raise StalledError(f"membership program ended with status {out.status!r}")
    d, n = V.shape
    p = behavior.probs
    if out.objective <= tol:
        # basic weights at or below DEFAULT_TOL are round-off (or a few
        # 1e-12 below zero near the boundary): drop them, so the support is
        # the strategies the model uses; a looser tol keeps real weights
        weights = np.where(out.x[:n] > DEFAULT_TOL, out.x[:n], 0.0)
        weights = weights / weights.sum()
        residual = float(np.abs(V @ weights - p).max())
        if residual > MODEL_TOL:
            raise StalledError(f"membership model misses the behavior by {residual:.3e}")
        return True, weights
    cut = np.array(out.y[:d])
    bound, _ = local_bound(BellFunctional(scenario=behavior.scenario, coeffs=cut))
    margin = float(cut @ p) - bound
    if margin <= 0.0:
        raise StalledError(
            f"membership program at distance {out.objective:.3e} priced a cut "
            f"that misses the behavior by {-margin:.3e}"
        )
    return False, cut


def _decided(behavior: Behavior, tol: float) -> tuple[NoSignallingReport, MembershipResult | None]:
    """The one decision flow behind ``classify``, ``membership`` and
    ``derive_critical_inequality``: the no-signalling scan first, and
    ``None`` for a table whose defect exceeds tol; otherwise ``_decide``,
    with a local model or a cut canonicalized in the no-signalling gauge.

    A table within tol of no-signalling can still lie more than tol from
    the local set in l1, summed over many entries.  When its cut has
    nothing left to violate once that gauge is removed, it parts the box
    from the local set only through that signalling, and the box is local
    if the same outcome gives a mixture within ``MODEL_TOL`` of it.
    """
    report = no_signalling_defect(behavior)
    if report.max_defect > tol:
        return report, None
    V, out = _solved(behavior, tol)
    is_local, witness = _decision(behavior, V, out, tol)
    if not is_local:
        raw = BellFunctional(scenario=behavior.scenario, coeffs=witness)
        try:
            functional, violation = _canonical_cut(raw, behavior)
        except StalledError:
            is_local, witness = _decision(behavior, V, out, MODEL_TOL)
            if not is_local:
                raise
        else:
            return report, MembershipResult(is_local=False, functional=functional,
                                            violation=violation)
    model = LocalModel(scenario=behavior.scenario, weights=witness)
    return report, MembershipResult(is_local=True, model=model)


def _canonical_cut(raw: BellFunctional, behavior: Behavior) -> tuple[BellFunctional, float]:
    """The solver's cut in canonical form with its violation on the
    behavior; a cut that has no canonical form or loses its violation
    raises ``StalledError``, since the cut is the solver's own."""
    try:
        functional = canonicalize(raw)
    except ValidationError as exc:
        raise StalledError(
            "separating cut has no canonical form in the no_signalling gauge") from exc
    violation = float(functional.value(behavior) - functional.local_bound)
    if violation <= 0.0:
        raise StalledError(
            f"separating cut lost its violation ({violation:.3e}) during canonicalization"
        )
    return functional, violation


def _shift_witness(behavior: Behavior, report: NoSignallingReport) -> MembershipResult:
    """A signalling table's witness: the report's worst marginal at its
    high context minus the same marginal at its low one, whose violation
    is the defect.  Every strategy is no-signalling, so the local bound
    is 0, rechecked as the best sum of an entry of each of the two input
    blocks the marginals sit in, with the same outputs from the parties
    whose input is the same in both.  No mixture comes this close in l1."""
    sc = behavior.scenario
    party, x, a, (ctx_hi, ctx_lo) = report.worst_marginal
    if isinstance(party, int):
        party, x, a = (party,), (x,), (a,)
    index = _marginal_index(sc)
    k = index.subsets.index(party)
    hi, lo = index.rows(k, [index.cell(k, (x, a, ctx_hi)), index.cell(k, (x, a, ctx_lo))])
    coeffs = hi - lo
    layout, pair = _blocks(sc), _layout(sc)[0][[np.argmax(hi), np.argmax(lo)]]
    free = tuple(np.flatnonzero(layout.inputs[:, pair[0]] != layout.inputs[:, pair[1]]))
    bound = float(sum(coeffs[layout.offsets[b]:layout.offsets[b + 1]].reshape(layout.counts[:, b])
                      .max(axis=free) for b in pair).max())
    if bound != 0.0:
        raise StalledError(f"marginal shift has deterministic bound {bound!r}, not 0")
    functional = BellFunctional(scenario=sc, coeffs=coeffs, local_bound=0.0,
                                integer_coeffs=tuple(int(v) for v in coeffs), integer_bound=0)
    return MembershipResult(is_local=False, functional=functional,
                            violation=functional.violation(behavior))


def membership(behavior: Behavior, tol: float = DEFAULT_TOL) -> MembershipResult:
    """Decide whether a behavior is a mixture of deterministic strategies,
    by the flow ``classify`` uses.

    Inside: the result carries a mixture reproducing the behavior to
    within 1e-7.  Outside and within tol of no-signalling: it carries a
    canonicalized inequality whose deterministic bound is recomputed by
    direct enumeration and whose violation is strictly positive.  A
    table whose signalling defect exceeds tol is outside with no program
    solved: its inequality is the marginal shift ``classify`` reports,
    with local bound 0 and the defect as its violation.  A ``tol`` that
    is not positive and finite is refused.
    """
    report, res = _decided(behavior, require_tolerance(tol))
    return res if res is not None else _shift_witness(behavior, report)


def classify(behavior: Behavior, tol: float = DEFAULT_TOL) -> Classification:
    """Three-way call on a behavior: signalling, weakly nonlocal, or local.

    The signalling check runs first because membership witnesses are only
    meaningful relative to it; each verdict comes with exactly one
    witness.  A ``tol`` that is not positive and finite is refused.
    """
    report, res = _decided(behavior, require_tolerance(tol))
    if res is None:
        party, x, a, (ctx_hi, ctx_lo) = report.worst_marginal
        if isinstance(party, int):
            marginal = f"party {party}'s chance of output {a} under input {x}"
        else:
            marginal = f"the joint chance of outputs {a} of parties {party} under inputs {x}"
        summary = (
            f"Signalling: {marginal} "
            f"moves by {report.max_defect:.6g} when the remote inputs change from "
            f"{ctx_lo} to {ctx_hi}, so the box transmits information between sites."
        )
        return Classification(verdict=Verdict.SIGNALLING, summary=summary, signalling=report)
    if res.is_local:
        support = res.model.support.size
        summary = (
            f"Local: reproduced by a mixture of {support} deterministic strategies, "
            "so shared randomness fully explains these statistics."
        )
        return Classification(verdict=Verdict.LOCAL, summary=summary, model=res.model)
    summary = (
        "Weakly nonlocal: no mixture of deterministic strategies matches these "
        f"statistics; an inequality with local bound {res.functional.local_bound:.6g} "
        f"is violated by {res.violation:.6g} while all marginals stay independent of "
        "remote inputs."
    )
    return Classification(
        verdict=Verdict.WEAKLY_NONLOCAL,
        summary=summary,
        functional=res.functional,
        violation=res.violation,
    )


def derive_critical_inequality(behavior: Behavior, tol: float = DEFAULT_TOL) -> BellFunctional:
    """Violated inequality for a nonlocal behavior, from ``membership``:
    the canonical cut of a table within tol of no-signalling, the
    marginal shift of one beyond it.  ``membership`` vets ``tol``."""
    res = membership(behavior, tol=tol)
    if res.is_local:
        raise ValidationError(
            "behavior is local: no inequality exists that separates it "
            "from the deterministic mixtures"
        )
    return res.functional


def chsh_value(behavior: Behavior) -> float:
    """S = E00 + E01 + E10 - E11 with E_xy the parity average of outputs.

    Defined only on the 2-party, 2-input, 2-output scenario.  Mixtures of
    deterministic strategies satisfy |S| <= 2; no-signalling behaviors
    can reach 4.
    """
    if behavior.scenario != _CHSH_SCENARIO:
        raise ValidationError("CHSH value needs the 2-party, 2-input, 2-output scenario, "
                              f"got {behavior.scenario}")
    return chsh_functional().value(behavior)


def _certified_bracket(parameter: str, lo: float, start: float, top: float, margin,
                       guard: float, tol: float) -> ThresholdResult:
    """The bracket from ``lo``, certified by a local model, to the least
    float from ``start`` (clamped to [lo, top]) at which ``margin``, a
    cut's margin on the table itself, exceeds ``guard`` = 2 DEFAULT_TOL
    |c|_inf, so that ``_decide``'s l1 distance exceeds its tolerance, or
    to ``top``, certified nonlocal.  One wider than ``tol`` raises StalledError."""
    hi = min(max(start, lo), top)
    while hi < top and margin(hi) <= guard:
        hi = float(np.nextafter(hi, 2.0))
    if hi - lo > tol:
        raise StalledError(
            f"{parameter} certificates bracket [{lo!r}, {hi!r}], {hi - lo:.3e} wide, "
            f"wider than the tolerance {tol!r}")
    return ThresholdResult(parameter=parameter, critical=lo, bracket=(lo, hi),
                           iterations=0, tolerance=tol)


def visibility_threshold(
    behavior: Behavior, noise: Behavior, tol: float = VISIBILITY_TOL
) -> ThresholdResult:
    """Largest weight v at which the blend v p + (1 - v) q of the behavior
    p into the noise q is still local, bracketed by the program's own two
    certificates.

    The program is the noise's distance program continued toward p
    (``_distance_program``), run in two stages by
    ``_solve_then_maximize``.  The first is the noise's own distance
    solve, with the same pivots, verdict and model as ``_decide(noise)``;
    a nonlocal noise is refused.  The second fixes the slacks at zero and
    minimizes the negated visibility: its optimum -v* gives the critical
    value v*, its optimal w a local model at v*, and its first d row
    prices are c with c.V_s <= c.q + v* for every strategy s and
    c.(p - q) >= 1, so c separates every blend with v > v*.

    The bracket's low end is v*, where the model reproduces the blend to
    within half the decision tolerance in l1, and a model that fails
    that recheck raises ``StalledError``; ``_certified_bracket`` takes
    the high end from c, whose margin is linear in v.  The visibility is
    unbounded exactly when the behavior is the noise; that, or v* >= 1,
    is refused as local at full visibility.  Only a cut that does not
    clear its guard at v = 1 costs a solve besides the staged one:
    ``_decide`` of the behavior itself.
    """
    if not (isinstance(behavior, Behavior) and isinstance(noise, Behavior)):
        raise ValidationError("visibility threshold needs a target and a noise Behavior, "
                              f"got {type(behavior).__name__} and {type(noise).__name__}")
    if behavior.scenario != noise.scenario:
        raise ValidationError("behavior and noise live on different scenarios")
    require_tolerance(tol)
    sc = behavior.scenario
    d = sc.dimension
    check_size(d + 1, strategy_count(sc) + 2 * d + 1)
    V = strategy_matrix(sc)
    n = V.shape[1]
    p, q = behavior.probs, noise.probs
    lp, start = _distance_program(sc, q, toward=p)
    first, out = _solve_then_maximize(lp, n + 2 * d, start)
    if not _decision(noise, V, first, DEFAULT_TOL)[0]:
        raise ValidationError("noise behavior must be local")
    local_at_full = ValidationError(
        "behavior is already local at full visibility; no threshold exists")
    if out.status == "unbounded":
        raise local_at_full
    if out.status != "optimal":
        raise StalledError(f"visibility program ended with status {out.status!r}")
    lo = max(-out.objective, 0.0)
    if lo >= 1.0:
        raise local_at_full
    # basic weights can end a few 1e-12 below zero, as in _decide
    weights = np.clip(out.x[:n], 0.0, None)
    weights = weights / weights.sum()
    # an l1 miss below half the tolerance keeps _decide's distance below it
    miss = float(np.abs(V @ weights - (lo * p + (1.0 - lo) * q)).sum())
    if miss > 0.5 * DEFAULT_TOL:
        raise StalledError(f"visibility model misses the blend at {lo!r} by {miss:.3e} in l1")
    cut = out.y[:d]
    bound = local_bound(BellFunctional(scenario=sc, coeffs=cut))[0]
    guard = 2.0 * DEFAULT_TOL * float(np.abs(cut).max())
    cp, cq = float(cut @ p), float(cut @ q)
    if cp - bound <= guard and _decide(behavior)[0]:  # the cut misses its guard even at v = 1
        raise local_at_full
    # the margin is linear in v: the search starts where it meets the guard
    slope = cp - cq
    start = (bound + guard - cq) / slope if slope > 0.0 else 1.0
    return _certified_bracket("visibility", lo, start, 1.0,
                              lambda v: float(cut @ (v * p + (1.0 - v) * q)) - bound, guard, tol)


def efficiency_threshold(setup: BellSetup, tol: float = EFFICIENCY_TOL) -> ThresholdResult:
    """Largest detection efficiency eta at which the setup's statistics
    stay local when both detectors fire with probability eta and no-clicks
    are their own outcome.  Tables local at eta stay local below it, so
    from eta = 1 each nonlocal probe's cut moves eta to the largest root
    below it of the cut's quadratic margin, for at most 64 cuts.  The
    first local probe is the low end; ``_certified_bracket`` takes the
    high end, at most the last nonlocal probe.  A setup local at eta = 1
    is refused."""
    if not isinstance(setup, BellSetup):
        raise ValidationError(f"efficiency threshold needs a BellSetup, got {type(setup).__name__}")
    require_tolerance(tol)

    def behavior_at(eta: float) -> Behavior:
        return behavior_from_setup(_lossy_setup(setup, eta))

    full, none = behavior_at(1.0), behavior_at(0.0)
    is_local, cut = _decide(full)
    if is_local:
        raise ValidationError("setup is local even with perfect detection; no threshold exists")
    if not _decide(none)[0]:
        raise StalledError("all-no-click statistics failed the local check")
    tables = np.array([none.probs, behavior_at(0.5).probs, full.probs])
    eta = 1.0
    for _ in range(64):
        bound = local_bound(BellFunctional(scenario=full.scenario, coeffs=cut))[0]
        m0, mh, m1 = tables @ cut - bound
        # the margin's coefficients, highest first, through its values at 0, 1/2 and 1
        poly = [2.0 * (m0 + m1 - 2.0 * mh), 4.0 * mh - 3.0 * m0 - m1, m0]
        roots, top = np.roots(poly), eta
        eta = float(np.max(roots.real[(roots.imag == 0.0) & (roots.real < top)], initial=0.0))
        is_local, witness = _decide(behavior_at(eta))
        if is_local:
            break
        cut = witness
    else:
        raise StalledError("efficiency cuts reached no local table in 64 rounds")
    guard = 2.0 * DEFAULT_TOL * float(np.abs(cut).max())
    # one Newton step from eta to where the quadratic meets the guard starts the search
    slope = 2.0 * poly[0] * eta + poly[1]
    start = float(eta + (guard - np.polyval(poly, eta)) / slope) if slope > 0.0 else top
    return _certified_bracket("efficiency", eta, start, top,
                              lambda x: float(cut @ behavior_at(x).probs) - bound, guard, tol)
