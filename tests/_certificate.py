"""Independent recheck of an LP outcome's certificate.

``verify_certificate`` re-derives, with plain matrix arithmetic on the
program's own ``A``, ``b`` and ``c``, the inequalities that back the
status a solve reports for ``A x = b``, x >= 0.  It trusts nothing of
the solver's internals, so the tests use it as the check of every
outcome they solve, beside the exact rational recheck of ``_exact``.
"""

from dataclasses import dataclass

import numpy as np

from bellbox.lp import LinearProgram, LpOutcome

# residuals, negative entries, gaps and reduced costs that the recheck accepts
VERIFY_TOL = 1e-7
_INF = float("inf")


@dataclass(frozen=True)
class CertificateReport:
    """Recomputed residuals and margins for an outcome; ``ok`` aggregates them."""

    status: str
    ok: bool
    residual: float | None = None
    bound_violation: float | None = None
    objective_gap: float | None = None
    duality_gap: float | None = None
    reduced_cost_min: float | None = None
    farkas_dot_max: float | None = None
    farkas_margin: float | None = None
    ray_residual: float | None = None
    ray_gain: float | None = None


def verify_certificate(lp: LinearProgram, outcome: LpOutcome,
                       tol: float = VERIFY_TOL) -> CertificateReport:
    """Independently recompute the inequalities behind ``outcome``.

    A reported x must meet ``A x = b`` and x >= 0 (``bound_violation`` is
    how far it goes below zero).  An optimum needs such an x, a dual
    feasible y and equal primal and dual values; infeasibility needs
    y.A <= 0 < y.b; unboundedness needs a nonnegative ray in the null
    space of A that improves the objective.
    """
    status = outcome.status
    ok = True
    fields: dict[str, float | None] = {}

    if outcome.x is not None:
        res = float(np.abs(lp.A @ outcome.x - lp.b).max(initial=0.0))
        bv = float((-outcome.x).max(initial=0.0))
        fields["residual"] = res
        fields["bound_violation"] = bv
        ok &= res <= tol and bv <= tol

    if status == "optimal":
        if outcome.x is None or outcome.y is None:
            ok = False  # a feasible x alone proves no optimum, nor do prices alone
        else:
            value = float(lp.c @ outcome.x)
            fields["objective_gap"] = abs(value - outcome.objective)
            gap, least = _dual_check(lp, outcome)
            fields["duality_gap"] = gap
            fields["reduced_cost_min"] = least
            scale = tol * max(1.0, abs(value))
            ok &= fields["objective_gap"] <= scale and gap <= scale and least >= -tol
    elif status == "infeasible":
        if outcome.y is None:
            ok = False
        else:
            dots = outcome.y @ lp.A
            margin = float(outcome.y @ lp.b)
            fields["farkas_dot_max"] = float(dots.max(initial=0.0))
            fields["farkas_margin"] = margin
            ok &= fields["farkas_dot_max"] <= tol and margin > 0.0
    elif status == "unbounded":
        if outcome.ray is None:
            ok = False
        else:
            d = outcome.ray
            rres = float(np.abs(lp.A @ d).max(initial=0.0))
            gain = -float(lp.c @ d)
            fields["ray_residual"] = rres
            fields["ray_gain"] = gain
            # the ray may not leave x >= 0
            ok &= rres <= tol and gain > tol and not (d < -tol).any()
    else:
        ok = False

    return CertificateReport(status=status, ok=bool(ok), **fields)


def _dual_check(lp: LinearProgram, outcome: LpOutcome) -> tuple[float, float]:
    """The duality gap |c.x - y.b| and the least reduced cost of y.

    Primal and dual values coincide at optimality.  Equal values prove
    optimality only for a dual feasible y: its reduced costs c - y.A,
    over every column, must all be >= 0.
    """
    y = outcome.y
    reduced = lp.c - y @ lp.A
    return (abs(float(lp.c @ outcome.x) - float(y @ lp.b)),
            float(reduced.min(initial=_INF)))
