"""Deciding what kind of box a behavior is.

The decision problem is linear: one small program measures the l1
distance from a behavior to the mixtures of deterministic strategies.
At distance zero its optimal mixture is the local model; at a positive
distance its row prices are the deepest box-normalized cut, a violated
inequality.  Classification, inequality derivation and the bisection
for the critical detection efficiency are built on that one program.

The critical visibility has a program of its own: the largest weight of
a behavior in a mixture with local noise that stays local.  Its optimal
mixture and its row prices answer every probe of the visibility
bisection, so that threshold takes one solve instead of one per probe.

Every default and recheck tolerance here comes from ``tolerances``, and
each public entry point refuses a ``tol`` that is not a positive, finite
number (``require_tolerance``) before any program is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import StalledError, ValidationError
from .lp import LinearProgram, check_size, solve
from .polytope import (BellFunctional, LocalModel, canonicalize, strategy_count,
                       strategy_matrix)
from .quantum import BellSetup, behavior_from_setup, lift_with_efficiency
from .scenario import _CHSH_SCENARIO, Behavior, NoSignallingReport, mix, no_signalling_defect
from .tolerances import (BISECTION_TOL_FLOOR, DEFAULT_TOL, EFFICIENCY_TOL, MODEL_TOL,
                         VISIBILITY_TOL, require_tolerance)


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
    """A critical parameter value bracketed by bisection.

    ``critical`` is the certified-local end of the final bracket; the
    other end is certified nonlocal and the bracket is no wider than
    ``tolerance``.  ``iterations`` counts the halvings of [0, 1], which
    is not the number of programs solved: a visibility threshold answers
    every probe off one program.
    """

    parameter: str
    critical: float
    bracket: tuple[float, float]
    iterations: int
    tolerance: float


def _distance_program(V: np.ndarray, probs: np.ndarray) -> LinearProgram:
    """l1 distance from the behavior to the deterministic mixtures.

    Variables are (w, u, v) >= 0: minimize sum(u + v) subject to
    V w + u - v = p and sum(w) = 1.  The optimum is 0 exactly when w is a
    reproducing mixture.  It is the LP dual of the box-normalized cut
    program, so the prices of the first d rows are the coefficients of
    the deepest cut with |c_j| <= 1.

    The first d rows are written with V[:, s0] times the last row taken
    off, for the strategy s0 nearest to p in l1.  That leaves the
    feasible set and the prices of the first d rows as they were, and
    gives every row a structural unit column (w_s0 for the last row, u_k
    or v_k for row k), so the simplex starts at the feasible point
    w = e_s0 and needs no phase 1.
    """
    d, n = V.shape
    # |p - V[:, s]|_1 = sum(p) + (1 - 2p).V[:, s] for 0/1 columns
    s0 = int(np.argmin((1.0 - 2.0 * probs) @ V))
    A = np.zeros((d + 1, n + 2 * d))
    np.subtract(V, V[:, s0:s0 + 1], out=A[:d, :n])
    np.fill_diagonal(A[:d, n:n + d], 1.0)
    np.fill_diagonal(A[:d, n + d:], -1.0)
    A[d, :n] = 1.0
    b = np.append(probs - V[:, s0], 1.0)
    cost = np.zeros(n + 2 * d)
    cost[n:] = 1.0
    return LinearProgram(A=A, b=b, c=cost, maximize=False)


def _decide(behavior: Behavior, tol: float = DEFAULT_TOL) -> tuple[bool, np.ndarray]:
    """Local-set decision with a witness rechecked against the strategies.

    Returns (True, weights) with weights reproducing the behavior to
    within ``MODEL_TOL`` and none in (0, ``DEFAULT_TOL``], or (False, c) with c.p strictly above every
    deterministic value of c.  A witness that fails its recheck raises.
    A program over the LP size cap is refused before the strategies are
    enumerated.
    """
    d = behavior.scenario.dimension
    check_size(d + 1, strategy_count(behavior.scenario) + 2 * d)
    V = strategy_matrix(behavior.scenario)
    n = V.shape[1]
    p = behavior.probs
    # the simplex stops at the first vertex within its tol of distance 0;
    # a looser tol moves only the decision below, so that the model the
    # simplex stops at still meets MODEL_TOL
    out = solve(_distance_program(V, p), tol=min(tol, DEFAULT_TOL))
    if out.status != "optimal":
        raise StalledError(f"membership program ended with status {out.status!r}")
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
    margin = float(cut @ p - (cut @ V).max())
    if margin <= 0.0:
        raise StalledError(
            f"membership program at distance {out.objective:.3e} priced a cut "
            f"that misses the behavior by {-margin:.3e}"
        )
    return False, cut


def membership(behavior: Behavior, tol: float = DEFAULT_TOL) -> MembershipResult:
    """Decide whether a behavior is a mixture of deterministic strategies.

    Inside: the result carries a mixture reproducing the behavior to
    within 1e-7.  Outside: it carries a canonicalized inequality whose
    deterministic bound is recomputed by direct enumeration and whose
    violation is strictly positive.  Signalling behaviors are legitimate
    inputs; their inequalities are canonicalized in the weaker gauge that
    only removes per-block constants, so the reported violation applies
    to the behavior as given.  A table within tol of no-signalling whose
    cut separates it only through that signalling is inside when such a
    mixture exists.  A ``tol`` that is not positive and finite is refused.
    """
    return _membership(behavior, require_tolerance(tol), gauge=None)


def _membership(behavior: Behavior, tol: float, gauge: str | None) -> MembershipResult:
    """``membership`` for a caller that may already know the gauge;
    ``None`` picks it from the behavior's signalling defect."""
    is_local, witness = _decide(behavior, tol)
    if is_local:
        model = LocalModel(scenario=behavior.scenario, weights=witness)
        return MembershipResult(is_local=True, model=model)
    if gauge is None:
        ns_gap = no_signalling_defect(behavior).max_defect
        gauge = "no_signalling" if ns_gap <= tol else "normalization"
    raw = BellFunctional(scenario=behavior.scenario, coeffs=witness)
    try:
        functional, violation = _canonical_cut(raw, behavior, gauge)
    except StalledError:
        if gauge != "no_signalling":
            raise
        # a cut with nothing left to violate once the no-signalling gauge
        # is removed parts the box from the local set only through its
        # signalling, which is within tol in every marginal but may add up
        # to more than tol in l1: the box is local if a mixture reproduces
        # it to within MODEL_TOL
        is_local, weights = _decide(behavior, MODEL_TOL)
        if not is_local:
            raise
        model = LocalModel(scenario=behavior.scenario, weights=weights)
        return MembershipResult(is_local=True, model=model)
    return MembershipResult(is_local=False, functional=functional, violation=violation)


def _canonical_cut(raw: BellFunctional, behavior: Behavior,
                   gauge: str) -> tuple[BellFunctional, float]:
    """The solver's cut in canonical form with its violation on the
    behavior; a cut that has no canonical form or loses its violation
    raises ``StalledError``, since the cut is the solver's own."""
    try:
        functional = canonicalize(raw, gauge=gauge)
    except ValidationError as exc:
        raise StalledError(f"separating cut has no canonical form in the {gauge} gauge") from exc
    violation = float(functional.value(behavior) - functional.local_bound)
    if violation <= 0.0:
        raise StalledError(
            f"separating cut lost its violation ({violation:.3e}) during canonicalization"
        )
    return functional, violation


def classify(behavior: Behavior, tol: float = DEFAULT_TOL) -> Classification:
    """Three-way call on a behavior: signalling, weakly nonlocal, or local.

    The signalling check runs first because membership witnesses are only
    meaningful relative to it; each verdict comes with exactly one
    witness.  A ``tol`` that is not positive and finite is refused.
    """
    tol = require_tolerance(tol)
    report = no_signalling_defect(behavior)
    if report.max_defect > tol:
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
    res = _membership(behavior, tol, gauge="no_signalling")
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
    """Violated inequality in canonical form for a nonlocal behavior;
    ``membership`` vets ``tol``."""
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
        raise ValidationError(
            "CHSH value needs the 2-party, 2-input, 2-output scenario, "
            f"got {behavior.scenario}"
        )
    total = 0.0
    for x in range(2):
        for y in range(2):
            sign = -1.0 if (x, y) == (1, 1) else 1.0
            for a in range(2):
                for b in range(2):
                    parity = 1.0 if a == b else -1.0
                    total += sign * parity * behavior.prob((x, y), (a, b))
    return total


def _check_bisection_tol(tol: float):
    """Refuse a bracket width that is not a positive, finite number or
    that the halving may not reach.  From [0, 1], every midpoint is exact
    down to width 2**-52, so ``_bisect`` ends within 53 steps; below that,
    the bracket can close on two adjacent floats, whose midpoint is one of
    them, and the loop would not end."""
    if require_tolerance(tol, "bisection tolerance") < BISECTION_TOL_FLOOR:
        raise ValidationError(
            f"bisection tolerance {tol!r} is below the floor of 2**-52; "
            "halving [0, 1] cannot get narrower"
        )


def _bisect(parameter: str, is_local_at, tol: float) -> ThresholdResult:
    # invariant: 0 is certified local, 1 certified nonlocal before entry,
    # and tol passed _check_bisection_tol
    lo, hi = 0.0, 1.0
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if is_local_at(mid):
            lo = mid
        else:
            hi = mid
    return ThresholdResult(
        parameter=parameter,
        critical=lo,
        bracket=(lo, hi),
        iterations=iterations,
        tolerance=tol,
    )


def _visibility_program(V: np.ndarray, probs: np.ndarray, noise: np.ndarray) -> LinearProgram:
    """Largest weight v at which v p + (1 - v) q is a deterministic mixture.

    Variables are (w, v) >= 0: maximize v subject to V w - v (p - q) = q
    and sum(w) = 1 (Kaszlikowski et al., PRL 85, 4418 (2000)).  With q
    local, the feasible v form an interval [0, v*], and v* < 1 exactly
    when p is nonlocal.  The program is bounded unless p = q: an
    improving ray has dw >= 0 with sum(dw) = 0, so dw = 0 and p - q = 0.
    Its optimal w is a local model at v*; its row prices (-c, t) satisfy
    c.V_s <= t for every strategy s and c.(p - q) >= 1, so c separates
    every mixture with v > v*.
    """
    d, n = V.shape
    A = np.empty((d + 1, n + 1))
    A[:d, :n] = V
    np.subtract(noise, probs, out=A[:d, n])
    A[d, :n] = 1.0
    A[d, n] = 0.0
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    return LinearProgram(A=A, b=np.append(noise, 1.0), c=cost, maximize=True)


def _visibility_probe(behavior: Behavior, noise: Behavior, noise_weights: np.ndarray):
    """Solve ``_visibility_program`` once and return a probe that decides
    v p + (1 - v) q for any v in [0, 1] with ``_decide``'s contract:
    (True, weights) or (False, c), each rechecked on that mixture; None
    when the program is unbounded, which happens exactly when p = q, since
    v is then free.

    At or below the optimum v*, the weights are the optimal mixture
    rescaled toward ``noise_weights``, q's own model at v = 0; above it,
    c is the program's cut.  Each recheck carries a guard of the decision
    tolerance, so the probe calls every mixture as ``_decide`` would; a
    mixture within round-off of v* fails both and goes to ``_decide``.
    """
    V = strategy_matrix(behavior.scenario)
    n = V.shape[1]
    p, q = behavior.probs, noise.probs
    out = solve(_visibility_program(V, p, q))
    if out.status == "unbounded":
        return None
    if out.status != "optimal":
        raise StalledError(f"visibility program ended with status {out.status!r}")
    v_star = max(float(out.x[n]), 0.0)
    # basic weights can end a few 1e-12 below zero, as in _decide
    weights = np.clip(out.x[:n], 0.0, None)
    weights = weights / weights.sum()
    cut = -out.y[:V.shape[0]]
    cut_bound = float((cut @ V).max())
    cut_guard = 2.0 * DEFAULT_TOL * float(np.abs(cut).max())

    def probe(v: float) -> tuple[bool, np.ndarray]:
        # the raw mixture: validating it through mix() costs more than the recheck
        mixture = v * p + (1.0 - v) * q
        if v <= v_star:
            s = v / v_star
            model = s * weights + (1.0 - s) * noise_weights
            # an l1 miss below half the tolerance keeps _decide's distance below it
            if float(np.abs(V @ model - mixture).sum()) <= 0.5 * DEFAULT_TOL:
                return True, model
        # the margin over |c|_inf bounds the l1 distance from below
        elif float(cut @ mixture) - cut_bound > cut_guard:
            return False, cut
        return _decide(mix([(v, behavior), (1.0 - v, noise)]))

    return probe


def visibility_threshold(
    behavior: Behavior, noise: Behavior, tol: float = VISIBILITY_TOL
) -> ThresholdResult:
    """Largest weight at which blending the behavior into the noise is
    still local, bracketed by bisection with ties resolved toward the
    certified-local side.

    The bracket is the one a bisection of ``_decide`` calls would give,
    but one program (``_visibility_program``) answers every probe: its
    optimal mixture certifies the local ones and its cut the nonlocal
    ones, each rechecked on the probe's mixture (``_visibility_probe``).
    Its probe at full visibility also decides the behavior itself, and
    the program is unbounded exactly when the behavior is the noise.
    That is two solves with the noise's own check, plus one for any
    probe that lands within round-off of the threshold.
    """
    if behavior.scenario != noise.scenario:
        raise ValidationError("behavior and noise live on different scenarios")
    _check_bisection_tol(tol)
    noise_is_local, noise_weights = _decide(noise)
    if not noise_is_local:
        raise ValidationError("noise behavior must be local")
    probe = _visibility_probe(behavior, noise, noise_weights)
    if probe is None or probe(1.0)[0]:
        raise ValidationError(
            "behavior is already local at full visibility; no threshold exists"
        )
    return _bisect("visibility", lambda v: probe(v)[0], tol)


def efficiency_threshold(setup: BellSetup, tol: float = EFFICIENCY_TOL) -> ThresholdResult:
    """Largest detection efficiency at which the setup's statistics stay
    local when both parties' detectors fire with that probability and
    no-clicks are kept as their own outcome."""
    _check_bisection_tol(tol)

    def behavior_at(eta: float) -> Behavior:
        return behavior_from_setup(
            BellSetup(
                state=setup.state,
                alice=lift_with_efficiency(setup.alice, eta),
                bob=lift_with_efficiency(setup.bob, eta),
            )
        )

    if _decide(behavior_at(1.0))[0]:
        raise ValidationError(
            "setup is local even with perfect detection; no threshold exists"
        )
    if not _decide(behavior_at(0.0))[0]:
        raise StalledError("all-no-click statistics failed the local check")

    def is_local_at(eta: float) -> bool:
        return _decide(behavior_at(eta))[0]

    return _bisect("efficiency", is_local_at, tol)
