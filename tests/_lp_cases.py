"""Named LP regression cases, including classic degenerate ones.

Each case records the problem, the status it must report, and (when the
optimum is known in closed form) the objective value.  The cycling and
worst-case-path examples are the standard textbook constructions; a
solver without an anti-cycling rule loops on the first and an overly
greedy one misbehaves on the second.
"""

from dataclasses import dataclass

import numpy as np

from bellbox.lp import LinearProgram


@dataclass(frozen=True)
class LpCase:
    name: str
    lp: LinearProgram
    status: str
    objective: float | None = None


def _beale_cycling() -> LpCase:
    # min -3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 over three equality rows;
    # cycles under Dantzig's rule, optimum -1/20
    A = np.array([
        [1.0, 0.0, 0.0, 0.25, -60.0, -1.0 / 25.0, 9.0],
        [0.0, 1.0, 0.0, 0.50, -90.0, -1.0 / 50.0, 3.0],
        [0.0, 0.0, 1.0, 0.00, 0.0, 1.0, 0.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([0.0, 0.0, 0.0, -0.75, 150.0, -1.0 / 50.0, 6.0])
    return LpCase("beale_cycling", LinearProgram(A=A, b=b, c=c), "optimal", -0.05)


def _klee_minty_3() -> LpCase:
    # worst-case simplex path on the deformed cube: the maximum 125 of
    # 4 x1 + 2 x2 + x3, as the minimum -125 of its negation
    A = np.array([
        [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [4.0, 1.0, 0.0, 0.0, 1.0, 0.0],
        [8.0, 4.0, 1.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([5.0, 25.0, 125.0])
    c = np.array([-4.0, -2.0, -1.0, 0.0, 0.0, 0.0])
    return LpCase("klee_minty_3", LinearProgram(A=A, b=b, c=c), "optimal", -125.0)


def _duplicated_row() -> LpCase:
    A = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
    b = np.array([2.0, 2.0, 0.0])
    c = np.array([-1.0, 0.0])
    return LpCase("duplicated_row", LinearProgram(A=A, b=b, c=c), "optimal", -1.0)


def _zero_row_consistent() -> LpCase:
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([0.0, 1.0])
    c = np.array([-1.0, -2.0])
    return LpCase("zero_row_consistent", LinearProgram(A=A, b=b, c=c), "optimal", -2.0)


def _zero_row_inconsistent() -> LpCase:
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0])
    return LpCase("zero_row_inconsistent", LinearProgram(A=A, b=b, c=np.zeros(2)),
                  "infeasible")


def _crossing_rows() -> LpCase:
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 2.0])
    return LpCase("crossing_rows", LinearProgram(A=A, b=b, c=np.zeros(2)), "infeasible")


def _assignment_2x2() -> LpCase:
    # doubly stochastic 2x2 with a redundant fourth row; the optimum, the
    # least of -(x11 + x22), picks the identity permutation
    A = np.array([
        [1.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ])
    b = np.ones(4)
    c = np.array([-1.0, 0.0, 0.0, -1.0])
    return LpCase("assignment_2x2", LinearProgram(A=A, b=b, c=c), "optimal", -2.0)


def _origin_only() -> LpCase:
    # b = 0 forces the origin; every pivot is degenerate
    A = np.array([
        [1.0, 1.0, 0.0],
        [1.0, -1.0, 0.0],
        [0.0, 1.0, 1.0],
    ])
    b = np.zeros(3)
    c = np.array([-1.0, -1.0, -1.0])
    return LpCase("origin_only", LinearProgram(A=A, b=b, c=c), "optimal", 0.0)


def _unbounded_line() -> LpCase:
    A = np.array([[1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0])
    return LpCase("unbounded_line", LinearProgram(A=A, b=b, c=c), "unbounded")


def _box_corner() -> LpCase:
    # degenerate box: min -(x1 + x2 + x3) with x1 + x2 + x3 = 3 and each
    # x_j <= 1 written as x_j + s_j = 1, so every bound is active at the
    # optimum
    A = np.array([[1.0, 1.0, 1.0, 0.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
                  [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0, 0.0, 0.0, 1.0]])
    b = np.array([3.0, 1.0, 1.0, 1.0])
    c = np.array([-1.0, -1.0, -1.0, 0.0, 0.0, 0.0])
    return LpCase("box_corner", LinearProgram(A=A, b=b, c=c), "optimal", -3.0)


def _free_variable_balance() -> LpCase:
    # min -x with x + t = 0 and t free, written t = t+ - t-: t absorbs
    # anything, unbounded
    A = np.array([[1.0, 1.0, -1.0]])
    b = np.array([0.0])
    c = np.array([-1.0, 0.0, 0.0])
    return LpCase("free_variable_balance", LinearProgram(A=A, b=b, c=c), "unbounded")


def _infeasible_box() -> LpCase:
    # the first row demands x1 + x2 = 5, but x_j + s_j = 1 caps the sum at 2
    A = np.array([[1.0, 1.0, 0.0, 0.0],
                  [1.0, 0.0, 1.0, 0.0],
                  [0.0, 1.0, 0.0, 1.0]])
    b = np.array([5.0, 1.0, 1.0])
    return LpCase("infeasible_box", LinearProgram(A=A, b=b, c=np.zeros(4)), "infeasible")


def degenerate_cases() -> list[LpCase]:
    return [
        _beale_cycling(),
        _klee_minty_3(),
        _duplicated_row(),
        _zero_row_consistent(),
        _zero_row_inconsistent(),
        _crossing_rows(),
        _assignment_2x2(),
        _origin_only(),
        _unbounded_line(),
        _box_corner(),
        _free_variable_balance(),
        _infeasible_box(),
    ]
