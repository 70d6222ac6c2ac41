"""Exact re-check of a solve's final basis over the rationals.

``solve_and_recheck`` runs ``bellbox.lp.solve`` with ``_Simplex``
patched by a subclass that records the instance the solve builds, then
re-derives that simplex's final basis in ``Fraction`` arithmetic over
the program's ``A``, ``b`` and its cost in the minimized orientation.
Float data converts to ``Fraction`` losslessly, so a True says that the
basis the solve ended on proves its status exactly.  The check is cubic
in Python fractions: it is for the small kernel programs of the tests,
not for the package's own tables, whose float optima rarely sit on an
exactly feasible and optimal basis.
"""

from fractions import Fraction
from unittest import mock

import bellbox.lp
from bellbox.lp import LinearProgram, LpOutcome, solve


def solve_and_recheck(lp: LinearProgram, **options) -> tuple[LpOutcome, bool]:
    """``solve(lp, **options)`` and whether its final basis proves the
    reported status over the rationals."""
    built = []

    class Recording(bellbox.lp._Simplex):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    with mock.patch.object(bellbox.lp, "_Simplex", Recording):
        out = solve(lp, **options)
    (sx,) = built
    try:
        verified = _rational_recheck(out.status, lp, sx.basis, sx.row_sign)
    except ZeroDivisionError:
        verified = False
    return out, verified


def _rational_recheck(status: str, lp: LinearProgram, basis, row_sign) -> bool:
    """Re-derive the basis ``basis`` of the row-flipped system of ``lp``
    exactly.

    Checks basic feasibility and the sign conditions that certify the
    reported status (for an optimum under nonnegative costs, an exact
    objective of 0 is such a condition).  Column ``n + i`` is the
    artificial of row ``i``.
    """
    m, n = lp.A.shape
    sign = [Fraction(s) for s in row_sign]
    A = [[sign[i] * Fraction(lp.A[i, j]) for j in range(n)] for i in range(m)]
    b = [sign[i] * Fraction(lp.b[i]) for i in range(m)]

    def column(j: int) -> list[Fraction]:
        if j < n:
            return [A[i][j] for i in range(m)]
        unit = [Fraction(0)] * m
        unit[j - n] = Fraction(1)
        return unit

    B = [column(j) for j in basis]  # list of columns
    Binv = _fraction_inverse([[B[j][i] for j in range(m)] for i in range(m)])

    xB = _matvec(Binv, b)
    if status in ("optimal", "unbounded"):
        if any(v < 0 for v in xB):
            return False
        # a basic artificial, such as a redundant row's, must be exactly
        # zero, so that the structural columns alone meet every row
        if any(v != 0 for v, j in zip(xB, basis) if j >= n):
            return False
    if status in ("optimal", "infeasible"):
        if status == "optimal":
            c_min = -lp.c if lp.maximize else lp.c
            c_full = [Fraction(v) for v in c_min] + [Fraction(0)] * m
        else:
            c_full = [Fraction(0)] * n + [Fraction(1)] * m
        cB = [c_full[j] for j in basis]
        if status == "optimal" and min(c_full, default=0) >= 0 and _dot(cB, xB) == 0:
            return True  # c.x >= 0 on every feasible x, and this one costs 0
        yT = _vecmat(cB, Binv)
        if any(c_full[j] - _dot(yT, column(j)) < 0 for j in range(n)):
            return False
        # the optimal phase-1 value of an infeasible program is positive
        if status == "infeasible" and _dot(cB, xB) <= 0:
            return False
    return True


def _fraction_inverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse; raises ZeroDivisionError on a singular M."""
    m = len(M)
    aug = [row[:] + [Fraction(int(i == k)) for i in range(m)]
           for k, row in enumerate(M)]
    for col in range(m):
        piv = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("exactly singular basis")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv_piv = aug[col][col]
        aug[col] = [v / inv_piv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * bcol for a, bcol in zip(aug[r], aug[col])]
    return [row[m:] for row in aug]


def _matvec(M, v):
    return [_dot(row, v) for row in M]


def _vecmat(v, M):
    m = len(M)
    return [_dot(v, [M[i][j] for i in range(m)]) for j in range(m)]


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))
