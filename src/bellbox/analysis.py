"""Deciding what kind of box a behavior is.

The decision problem is linear: one small program measures the l1
distance from a behavior to the mixtures of deterministic strategies.
At distance zero its optimal mixture is the local model; at a positive
distance its row prices are the deepest box-normalized cut, a violated
inequality.  Everything here is built on that one program:
classification, inequality derivation, and bisection for critical noise
and detection parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SizeCapError, StalledError, ValidationError
from .lp import DIMENSION_CAP, LinearProgram, solve
from .polytope import (BellFunctional, LocalModel, canonicalize, strategy_count,
                       strategy_matrix)
from .quantum import BellSetup, behavior_from_setup, lift_with_efficiency
from .scenario import _CHSH_SCENARIO, Behavior, NoSignallingReport, mix, no_signalling_defect

DEFAULT_TOL = 1e-9
VISIBILITY_TOL = 1e-6
EFFICIENCY_TOL = 1e-4
MODEL_TOL = 1e-7


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
    """A critical parameter value found by bisection.

    ``critical`` is the certified-local end of the final bracket; the
    other end is certified nonlocal and the bracket is no wider than
    ``tolerance``.
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
    eye = np.eye(d)
    A = np.block([[V - V[:, s0:s0 + 1], eye, -eye],
                  [np.ones((1, n)), np.zeros((1, 2 * d))]])
    b = np.append(probs - V[:, s0], 1.0)
    cost = np.concatenate([np.zeros(n), np.ones(2 * d)])
    return LinearProgram(A=A, b=b, c=cost, maximize=False)


def _decide(behavior: Behavior, tol: float = DEFAULT_TOL) -> tuple[bool, np.ndarray]:
    """Local-set decision with a witness rechecked against the strategies.

    Returns (True, weights) with weights reproducing the behavior to
    within ``MODEL_TOL``, or (False, c) with c.p strictly above every
    deterministic value of c.  A witness that fails its recheck raises.
    A program over the LP size cap is refused before the strategies are
    enumerated.
    """
    d = behavior.scenario.dimension
    rows, cols = d + 1, strategy_count(behavior.scenario) + 2 * d
    if rows > DIMENSION_CAP or cols > DIMENSION_CAP:
        raise SizeCapError(f"LP of size {rows}x{cols} exceeds the {DIMENSION_CAP} cap")
    V = strategy_matrix(behavior.scenario)
    n = V.shape[1]
    p = behavior.probs
    out = solve(_distance_program(V, p), tol=tol)
    if out.status != "optimal":
        raise StalledError(f"membership program ended with status {out.status!r}")
    if out.objective <= tol:
        # basic weights can end a few 1e-12 below zero near the boundary
        weights = np.clip(out.x[:n], 0.0, None)
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
    to the behavior as given.
    """
    return _membership(behavior, tol, gauge=None)


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
    functional = canonicalize(raw, gauge=gauge)
    violation = float(functional.value(behavior) - functional.local_bound)
    if violation <= 0.0:
        raise StalledError(
            f"separating cut lost its violation ({violation:.3e}) during canonicalization"
        )
    return MembershipResult(is_local=False, functional=functional, violation=violation)


def classify(behavior: Behavior, tol: float = DEFAULT_TOL) -> Classification:
    """Three-way call on a behavior: signalling, weakly nonlocal, or local.

    The signalling check runs first because membership witnesses are only
    meaningful relative to it; each verdict comes with exactly one
    witness.
    """
    report = no_signalling_defect(behavior)
    if report.max_defect > tol:
        party, x, a, (ctx_hi, ctx_lo) = report.worst_marginal
        summary = (
            f"Signalling: party {party}'s chance of output {a} under input {x} "
            f"moves by {report.max_defect:.6g} when the remote inputs change from "
            f"{ctx_lo} to {ctx_hi}, so the box transmits information between sites."
        )
        return Classification(verdict=Verdict.SIGNALLING, summary=summary, signalling=report)
    res = _membership(behavior, tol, gauge="no_signalling")
    if res.is_local:
        support = int(np.count_nonzero(res.model.weights > tol))
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
    """Violated inequality in canonical form for a nonlocal behavior."""
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


def _bisect(parameter: str, is_local_at, tol: float) -> ThresholdResult:
    # invariant: 0 is certified local, 1 certified nonlocal before entry
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


def visibility_threshold(
    behavior: Behavior, noise: Behavior, tol: float = VISIBILITY_TOL
) -> ThresholdResult:
    """Largest weight at which blending the behavior into the noise is
    still local, located by bisection with ties resolved toward the
    certified-local side."""
    if behavior.scenario != noise.scenario:
        raise ValidationError("behavior and noise live on different scenarios")
    if not _decide(noise)[0]:
        raise ValidationError("noise behavior must be local")
    if _decide(behavior)[0]:
        raise ValidationError(
            "behavior is already local at full visibility; no threshold exists"
        )

    def is_local_at(v: float) -> bool:
        return _decide(mix([(v, behavior), (1.0 - v, noise)]))[0]

    return _bisect("visibility", is_local_at, tol)


def efficiency_threshold(setup: BellSetup, tol: float = EFFICIENCY_TOL) -> ThresholdResult:
    """Largest detection efficiency at which the setup's statistics stay
    local when both parties' detectors fire with that probability and
    no-clicks are kept as their own outcome."""

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
