"""Dense linear programming kernel with self-verified certificates.

Equality-form problems over nonnegative (optionally free or box-bounded)
variables are solved by a two-phase revised simplex that keeps the basis
inverse, the basic values, the basic costs and, while a phase prices,
its reduced costs and steepest-edge weights: each iteration forms only
the entering column and the pivot row, updates the inverse by a
rank-one change and carries the reduced costs and weights across the
pivot.  The basis inverse and the basic values are the two parts of one
m x (m+1) array, so that one rank-one update moves both, and an
iteration writes its pricing rows, pivot row, outer product and
entering scores into workspaces sized once per solve.  The constraint
matrix is used as given, never copied: a program without variable
bounds passes through the standard form unchanged, and a row whose
right-hand side is negative is flipped by the sign that the basis
inverse starts with.  Artificial columns are
signed unit columns that are never stored, and they are start-up
scaffolding only: no phase prices them, so one that leaves the basis
never returns (Bertsimas and Tsitsiklis, Introduction to Linear
Optimization, 1997, section 3.5), and a redundant row keeps its
artificial basic at zero instead of being deleted, so the basis inverse
stays square over the same rows for the whole solve.  Each row starts
on a structural column that already equals its unit vector in the
flipped system, where one exists, and on its artificial otherwise;
phase 1 runs only when some row starts on its artificial, since a start
without one is already feasible.  The scan that finds those columns
sorts nothing: one product of the nonzero pattern gives each column's
nonzero count and row, and ``np.minimum.at`` keeps each row's smallest.
The entering column is the steepest edge (Goldfarb and Reid, Math.
Prog. 12, 361 (1977)): the largest r_j^2 / (1 + |B^-1 a_j|^2) over reduced
costs r_j below ``-PIVOT_TOL``, with the weights kept exact by rank-one
updates and the reduced costs priced afresh every m pivots and before
a phase ends.  After a long run of degenerate pivots the rule falls
back to Bland's smallest index, which cannot cycle, until the objective
moves again.  The ratio test takes no pivot below ``RATIO_TOL`` of the
entering column's largest entry, reads basic values a round-off below
zero as zero, and breaks near-ties only among rows whose step leaves
every basic value above ``-TIE_TOL``.  In phase 2, while steepest edge
prices, the ratio test takes long steps: a structural +e_i column and a
-e_i column in the same row, such as the slacks u_k and v_k of the l1
distance program, are mates, and a basic column that the step drives
through zero hands its row to its mate instead of leaving, for as long
as the objective keeps falling along the step (Barrodale and Roberts,
SIAM J. Numer. Anal. 10, 839 (1973); Fourer, Math. Prog. 33, 204
(1985)).  Bland pivots take the plain ratio test, and phase 1 never
takes a long step.  When every cost is nonnegative,
c.x >= 0 holds on the whole feasible set, so a feasible basis whose
objective is within tol of zero is optimal to within tol as it stands:
phase 2 stops there, whatever the reduced costs say, and y = 0 is its
dual certificate.  Every outcome carries evidence: a primal solution
for feasible problems, a Farkas vector for infeasible ones, an
improving ray for unbounded ones, and each can be checked against its
own verification inequality by an independent routine.  The
tolerances come from ``tolerances``; the size cap and the pivot limit
are this module's own, and ``check_size`` is the one size check.

Problem sizes are small (up to a few thousand columns), so the design
optimizes for robustness and certificate extraction over raw speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeCapError, StalledError, ValidationError
from .tolerances import (DEFAULT_TOL, PIVOT_TOL, RATIO_TOL, TIE_TOL, VERIFY_TOL,
                         require_tolerance)

DEFAULT_MAX_ITERS = 10_000
# most rows, and most columns, of a program; DIMENSION_CAP ** 2 entries
# (512 MiB as float64) is also the largest strategy matrix polytope builds
DIMENSION_CAP = 8192
# consecutive degenerate pivots after which pricing switches to Bland's rule
BLAND_AFTER = 50

_INF = float("inf")


def check_size(rows: int, cols: int):
    """Refuse a program with more than ``DIMENSION_CAP`` rows or columns."""
    if rows > DIMENSION_CAP or cols > DIMENSION_CAP:
        raise SizeCapError(f"LP of size {rows}x{cols} exceeds the {DIMENSION_CAP} cap")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize (or minimize) c.x  subject to  A x = b  and variable bounds.

    ``bounds`` is a per-variable sequence of (lo, hi); ``None`` means every
    variable is nonnegative and unbounded above.  ``lo`` may be ``-inf``
    (free below), ``hi`` may be ``+inf``.  ``c is None`` makes this a pure
    feasibility problem.
    """

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray | None = None
    maximize: bool = True
    bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        if A.ndim != 2:
            raise ValidationError("constraint matrix must be two-dimensional")
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        m, n = A.shape
        if b.shape[0] != m:
            raise ValidationError(f"rhs has length {b.shape[0]}, matrix has {m} rows")
        if self.c is not None:
            c = np.asarray(self.c, dtype=np.float64).reshape(-1)
            if c.shape[0] != n:
                raise ValidationError(f"objective has length {c.shape[0]}, matrix has {n} columns")
            object.__setattr__(self, "c", c)
        check_size(m, n)
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValidationError("LP data must be finite")
        if self.c is not None and not np.all(np.isfinite(self.c)):
            raise ValidationError("LP objective must be finite")
        if self.bounds is not None:
            if len(self.bounds) != n:
                raise ValidationError("bounds length must match variable count")
            clean = []
            for j, (lo, hi) in enumerate(self.bounds):
                lo = -_INF if lo is None else float(lo)
                hi = _INF if hi is None else float(hi)
                if lo > hi:
                    raise ValidationError(f"variable {j}: lower bound {lo} above upper bound {hi}")
                if lo == _INF or hi == -_INF:
                    raise ValidationError(f"variable {j}: bounds ({lo}, {hi}) are empty")
                clean.append((lo, hi))
            object.__setattr__(self, "bounds", tuple(clean))

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape

    def var_bounds(self, j: int) -> tuple[float, float]:
        if self.bounds is None:
            return (0.0, _INF)
        return self.bounds[j]


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Result of a solve, with the evidence backing its status.

    ``y`` is the dual vector at optimality, or the Farkas vector for
    infeasible problems; its first ``m`` entries correspond to the input
    rows (synthetic rows for box bounds follow, if any).  ``ray`` is an
    improving feasible direction for unbounded problems.
    ``rational_verified`` is None unless an exact re-check was requested.
    """

    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    ray: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0
    rational_verified: bool | None = None


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


def _bound_arrays(lp: LinearProgram) -> tuple[np.ndarray, np.ndarray]:
    """The lower and the upper bounds of every variable, as two arrays."""
    n = lp.shape[1]
    if lp.bounds is None:
        return np.zeros(n), np.full(n, _INF)
    return np.array(lp.bounds, dtype=np.float64).reshape(n, 2).T


class _StandardForm:
    """Equality system with every variable nonnegative.

    A program without bounds is one already: its A, b and objective
    stand as given (``identity``), and a point or ray of the system is
    one of the program, so ``to_original`` and ``ray_to_original`` return
    their argument.  Otherwise columns are generated per original
    variable: a plain column for lo=0, a shifted column for finite lo, a
    negated column for variables only bounded above, and a +/- pair for
    free variables.  Finite ranges get one extra row ``x' + s = hi - lo``
    appended after the input rows.
    """

    def __init__(self, lp: LinearProgram):
        m, n = lp.shape
        c_min = np.zeros(n) if lp.c is None else (-lp.c if lp.maximize else lp.c)
        self.identity = lp.bounds is None
        if self.identity:
            # nothing writes to A, b or c_min
            self.A, self.b, self.c_min, self.m_rows = lp.A, lp.b, c_min, m
            return
        lo, hi = _bound_arrays(lp)
        # x_j = shift_j + sign_j * x'_j, less x''_j for a free (split) variable
        self.split = (lo == -_INF) & (hi == _INF)
        negated = (lo == -_INF) & ~self.split
        ranged = (lo != -_INF) & (hi != _INF)
        self.shift = np.where(negated, hi, np.where(lo == -_INF, 0.0, lo))
        self.sign = np.where(negated, -1.0, 1.0)
        width = 1 + self.split.astype(np.intp)
        self.first = np.cumsum(width) - width  # first standard column of x_j
        origin = np.repeat(np.arange(n), width)
        col_sign = self.sign[origin]
        col_sign[self.first[self.split] + 1] = -1.0

        b = lp.b.astype(np.float64, copy=True)
        for j in np.flatnonzero(self.shift):
            b -= lp.A[:, j] * self.shift[j]
        n_struct = origin.size
        k = int(ranged.sum())
        if n_struct == n and k == 0 and not negated.any():
            A_std = lp.A  # every column stands as it is; nothing writes to it
        else:
            A_std = np.zeros((m + k, n_struct + k))
            A_std[:m, :n_struct] = lp.A[:, origin] * col_sign
            A_std[m + np.arange(k), self.first[ranged]] = 1.0
            A_std[m + np.arange(k), n_struct + np.arange(k)] = 1.0  # range slacks
        self.A = A_std
        self.b = np.concatenate([b, (hi - lo)[ranged]])
        self.c_min = np.concatenate([c_min[origin] * col_sign, np.zeros(k)])
        self.m_rows = m + k

    def to_original(self, x_std: np.ndarray) -> np.ndarray:
        if self.identity:
            return x_std
        return self.shift + self.ray_to_original(x_std)

    def ray_to_original(self, d_std: np.ndarray) -> np.ndarray:
        if self.identity:
            return d_std
        d = self.sign * d_std[self.first]
        d[self.split] -= d_std[self.first[self.split] + 1]
        return d


class _Simplex:
    """Two-phase revised simplex over a standard-form system.

    Rows are flipped so the right-hand side is nonnegative, without a
    flipped copy of ``A``: ``Binv`` starts as ``diag(row_sign)``, so
    ``Binv A`` is the flipped system from the start.  The state is the
    basis (an ``np.intp`` array, one column index per row), the basic
    values ``xB``, the basic costs ``cB`` and the square basis inverse
    ``Binv``, one row and one column per row of ``A`` from the first
    pivot to the last: the current tableau is ``Binv A``, and the row
    prices and the Farkas vector are ``cB Binv`` in the original
    orientation.  ``Binv`` and ``xB`` are views of one array ``BX =
    [Binv | xB]``: a pivot's rank-one update and a long step's row flips
    move both at once.  The iteration allocates no array the size of
    ``Binv`` or of a pricing row: those products, the pivot row, its
    outer product and the entering scores go into workspaces made with
    the simplex.  Column ``n + i`` is the artificial of row ``i``, the
    unit column ``row_sign[i] e_i``, never stored and never priced: the
    reduced costs and weights cover the ``n`` structural columns only.
    Each iteration picks the steepest edge from the kept reduced costs
    and weights, forms only the entering column ``Binv a_j``, updates the
    reduced costs and weights from the pivot row and updates ``Binv`` by
    a rank-one change.  A row whose flipped constraint already has a
    structural +e_i column starts with that column basic instead of its
    artificial; either way the starting basis matrix is
    ``diag(row_sign)``, and phase 1 has nothing to do unless some
    artificial starts basic.
    The same scan pairs that column with the row's -e_i column, where
    there is one: the two are mates (``mate``), and in phase 2 a long
    step may hand the row from one to the other (``_long_step``,
    ``_cross``).  The scan sorts nothing: one product with the nonzero
    pattern of ``A`` counts each column's nonzeros and sums their rows,
    and ``np.minimum.at`` keeps each row's smallest +e_i and -e_i
    column.  Under nonnegative costs a phase-2 basis whose objective is
    at most ``tol`` ends the phase.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, max_iters: int,
                 tol: float = DEFAULT_TOL):
        sign = np.where(b < 0.0, -1.0, 1.0)
        self.row_sign = sign
        m, n = A.shape
        self.n = n
        self.A = A  # never written: Binv carries the row signs
        # [Binv | xB] in one array, so that one rank-one update moves both
        # and one row gather flips both; Binv and xB are views into it
        self.BX = np.zeros((m, m + 1))
        self.Binv, self.xB = self.BX[:, :m], self.BX[:, m]
        np.fill_diagonal(self.Binv, sign)
        np.multiply(b, sign, out=self.xB)
        self.diagonal = True  # Binv is still diag(row_sign): no pivot yet
        # per column, the count of its nonzeros and the sum of their rows,
        # both exact small integers: a singleton column's sum is its row
        tally = np.empty((2, m))
        tally[0] = 1.0
        tally[1] = np.arange(m)
        count, row_sum = tally @ (A != 0.0)
        single = np.flatnonzero(count == 1.0)
        rows = row_sum[single].astype(np.intp)
        value = A[rows, single] * sign[rows]
        unit = np.abs(value) == 1.0
        # per row, its smallest +e_i column of the flipped system (slot i)
        # and its smallest -e_i column (slot m + i), or n where it has none;
        # a plain fancy-index write with repeated slots leaves unspecified
        # which column wins
        first = np.full(2 * m, n, dtype=np.intp)
        np.minimum.at(first, rows[unit] + m * (value[unit] < 0.0), single[unit])
        plus, minus = first[:m], first[m:]
        self.basis = np.where(plus < n, plus, np.arange(n, n + m, dtype=np.intp))
        # a +e_i column and a -e_i column are mates: one crosses to the
        # other where its value passes zero (``_long_step``)
        both = (plus < n) & (minus < n)
        self.mate = np.full(n + m, -1)
        self.mate[plus[both]] = minus[both]
        self.mate[minus[both]] = plus[both]
        self.paired = bool(both.any())
        self.max_iters = max_iters
        self.iterations = 0
        self.tol = tol
        self.cost = np.zeros(n + m)
        self.cB = np.zeros(m)
        # crossing slopes per column and per row, set by ``install_costs``
        self.col_jump, self.row_jump = np.full(n + m, _INF), np.full(m, _INF)
        self.nonnegative = True
        # steepest-edge state of the current ``run``: weights, reduced costs
        self.weights = self.reduced = None
        # workspaces, sized once: the pricing rows of ``_update_pricing``
        # (left and right of A), the pivot row and its outer product, the
        # entering column's candidate rows, and the entering scores
        self.pair, self.priced = np.empty((3, m)), np.empty((3, n))
        self.ratio, self.dots, self.scratch = self.priced  # its rows, as views
        self.pivot_row, self.outer = np.empty(m + 1), np.empty((m, m + 1))
        self.magnitude, self.candidate = np.empty(m), np.empty(m, dtype=bool)
        self.eligible, self.score = np.empty(n, dtype=bool), np.empty(n)

    # -- low-level ---------------------------------------------------------
    def column(self, j: int) -> np.ndarray:
        """Structural column ``j`` of the current tableau, ``Binv a_j``."""
        return self.Binv @ self.A[:, j]

    def _pivot(self, i: int, j: int, col: np.ndarray):
        """Make ``j`` basic in row ``i``; ``col`` is its tableau column.
        One rank-one update of [Binv | xB] moves both."""
        row = np.divide(self.BX[i], col[i], out=self.pivot_row)
        np.subtract(self.BX, np.dot(col[:, None], row[None, :], out=self.outer), out=self.BX)
        self.BX[i] = row
        self.cB[i] = self.cost[j]
        self.row_jump[i] = self.col_jump[j]
        self.basis[i] = j
        self.diagonal = False
        self.iterations += 1
        if self.iterations > self.max_iters:
            raise StalledError(
                f"simplex exceeded {self.max_iters} pivots without concluding")

    def prices(self) -> np.ndarray:
        """Simplex multipliers ``c_B Binv``, one per row of ``A``."""
        return self.cB @ self.Binv

    def at_floor(self) -> bool:
        """True when no feasible point does better than the current basis
        by more than ``tol``: every installed cost is >= 0, so c.x >= 0
        everywhere, and the basic objective is already at most ``tol``.
        The band is not scaled by b: y = 0 leaves a duality gap equal to
        the objective, which must stay within tol whatever b is."""
        return self.nonnegative and float(self.cB @ self.xB) <= self.tol

    def run(self, phase: int) -> tuple[str, int | None]:
        """Minimize the installed costs over the structural columns in
        ``phase`` 1 or 2.  Only structural columns are priced, so an
        artificial that leaves the basis never enters it again; the phase
        decides only the floor stop and the long steps below.

        Steepest-edge pricing picks the entering column: among reduced
        costs below ``-PIVOT_TOL`` it takes the largest r_j^2 / gamma_j,
        where gamma_j = 1 + |Binv a_j|^2 is the squared length of the edge
        that column j would move along.  The weights are formed on the
        first pricing of the call that has a column to enter (from the
        columns themselves while ``Binv`` is still diagonal), so a
        phase that starts optimal builds none; each pivot then updates
        them exactly (Goldfarb and Reid), and the reduced costs with them,
        from the pivot row.  The reduced costs are priced afresh from the
        row prices every m pivots and before the phase is declared
        optimal.  Once ``BLAND_AFTER`` pivots in a row have left the
        objective where it was, Bland's smallest-index rule takes over
        until a pivot moves it, so a degenerate vertex cannot cycle.

        The ratio test sorts the candidate rows by ratio.  In phase 2,
        while steepest edge is in charge, it walks them (``_long_step``):
        a basic column with a mate crosses its breakpoint, its mate taking
        the row (``_cross``), while the objective still falls after it;
        the first row that does not cross leaves.  Bland pivots and phase
        1 take the plain ratio test, the first row leaving.  Either way
        near-ties among the rows that may leave are bounded in x and
        broken by the smallest basic index.  In phase 2 a basis at the
        floor (``at_floor``) is optimal without pricing; phase 1 always
        runs to its priced optimum.
        """
        self.weights = self.reduced = None
        degenerate = stale = 0
        while True:
            if phase == 2 and self.at_floor():
                return "optimal", None
            if self.reduced is None or stale >= len(self.basis):
                self.reduced, stale = self.reduced_costs(), 0
            steepest = degenerate < BLAND_AFTER
            j = self._entering(steepest)
            if j is None and stale:
                # an updated pricing never ends a phase: price afresh first
                self.reduced, stale = self.reduced_costs(), 0
                j = self._entering(steepest)
            if j is None:
                return "optimal", None
            col = self.column(j)
            # a pivot small beside its column blows B^-1 up
            largest = float(np.maximum.reduce(np.abs(col, out=self.magnitude)))
            np.greater(col, RATIO_TOL * max(1.0, largest), out=self.candidate)
            pos = self.candidate.nonzero()[0]
            if pos.size == 0:
                return "unbounded", j
            # a basic value a round-off below zero is read as zero: its own
            # ratio would be a large negative step that drives the other
            # basic values negative
            ratios = np.divide(self.xB[pos], col[pos])
            np.maximum(ratios, 0.0, out=ratios)
            order = ratios.argsort(kind="stable")
            pos, ratios = pos[order], ratios[order]  # the candidates by ratio
            k = 0  # the candidates before k cross, and the step ends at k
            if steepest and self.paired and phase == 2:
                k = self._long_step(j, pos, col)
            best = ratios[k]
            end = int(ratios.searchsorted(best + PIVOT_TOL, side="right"))
            if end == k + 1:
                i = int(pos[k])
            else:
                # ties are bounded in x as well as in the ratio: a ratio
                # band alone lets a basic value with column entry c fall
                # to -c * PIVOT_TOL, and the floor stop then reads the
                # objective of a point that is not feasible
                tied = pos[k:end]
                room = np.maximum(self.xB[tied], 0.0)
                reach = ((room + TIE_TOL) / col[tied]).min()
                tied = tied[ratios[k:end] <= reach]
                i = int(tied[self.basis[tied].argmin()])  # Bland tie-break
            degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
            shift = self._cross(pos[:k], col) if k else None
            self._update_pricing(i, j, col, shift)
            stale += 1
            self._pivot(i, j, col)

    def _long_step(self, j: int, pos: np.ndarray, col: np.ndarray) -> int:
        """How many of the ratio test's candidate rows ``pos``, sorted by
        ratio, cross on the step of entering column ``j``, whose tableau
        column is ``col``.

        Walking the candidates by ratio, the objective's slope along the
        step is r_j plus (c_u + c_v) col_i for each row passed, where the
        basic u passes zero and its mate v = -u takes over at the cost
        c_v; a row whose column has no mate, or whose pair's costs sum
        below zero, stops the walk.  A row crosses while the slope after
        it stays below ``-PIVOT_TOL``; the first that does not, and the
        last candidate in any case, is where the step ends."""
        slope = (self.row_jump[pos] * col[pos]).cumsum()
        slope += self.reduced[j]
        return min(int(slope.searchsorted(-PIVOT_TOL)), pos.size - 1)

    def _cross(self, rows: np.ndarray, col: np.ndarray) -> np.ndarray:
        """Hand each of ``rows`` from its basic column to that column's
        mate, the same column negated: the row of ``Binv``, of ``xB`` and
        of the entering column ``col`` change sign, and the mate takes the
        nonbasic weight.  Returns sum (c_u + c_v) Binv_i over the rows,
        taken before the flip: each reduced cost grows by its product with
        the column.  One gather of [Binv | xB] flips both."""
        flipped = self.BX[rows]
        shift = self.row_jump[rows] @ flipped[:, :-1]
        self.BX[rows] = np.negative(flipped, out=flipped)
        col[rows] *= -1.0
        u = self.basis[rows]
        v = self.mate[u]
        self.basis[rows] = v
        self.cB[rows] = self.cost[v]
        self.weights[u] = self.weights[v]
        return shift

    def _entering(self, steepest: bool) -> int | None:
        """The entering column under the kept reduced costs, None when no
        cost is below ``-PIVOT_TOL``: the largest r_j^2 / gamma_j, or the
        smallest index under Bland's rule.  The weights are built here, on
        the first pricing with a column to enter.  The scores are written
        into kept buffers, the ineligible ones as zero."""
        if self.n == 0:
            return None  # no column, and argmax has nothing to reduce
        eligible = np.less(self.reduced, -PIVOT_TOL, out=self.eligible)
        j = int(eligible.argmax())  # the first eligible column, if any
        if not eligible[j]:
            return None
        if not steepest:
            return j
        if self.weights is None:
            self.weights = self.edge_weights()
        score = np.multiply(self.reduced, eligible, out=self.score)
        np.multiply(score, score, out=score)
        np.divide(score, self.weights, out=score)
        return int(score.argmax())

    def reduced_costs(self) -> np.ndarray:
        """Reduced costs of the structural columns, from ``y = cB Binv``."""
        return self.cost[:self.n] - self.prices() @ self.A

    def edge_weights(self) -> np.ndarray:
        """Steepest-edge weights 1 + |Binv a_j|^2 of the structural
        columns.  Before the first pivot ``Binv`` is diagonal with entries
        +-1, and the images are the columns themselves up to the signs of
        their rows."""
        T = self.A if self.diagonal else self.Binv @ self.A
        return 1.0 + np.einsum("ij,ij->j", T, T)

    def _update_pricing(self, i: int, j: int, col: np.ndarray,
                        shift: np.ndarray | None = None):
        """Carry the reduced costs and edge weights across the pivot that
        makes ``j`` basic in row ``i``; reads ``Binv`` before the pivot.

        A long step's crossings (``_cross``) come first: the reduced costs
        gain ``shift`` times the columns.  With alpha the pivot row of the
        tableau and ratio = alpha / col[i], r_k then loses r_j * ratio_k and
        gamma_k becomes max(gamma_k - 2 ratio_k a_k.(Binv^T col) +
        ratio_k^2 gamma_j, 1 + ratio_k^2), gamma_j = 1 + |col|^2 exactly;
        sign changes of rows leave every gamma as it was.  A structural
        leaving column takes max(gamma_j / col[i]^2, 1); a leaving
        artificial is priced no more, so it takes nothing."""
        # row i of Binv, col^T Binv and the shift, and their products with
        # A, all written into the workspaces; the third product row, once
        # added, is scratch
        pair = self.pair[:2] if shift is None else self.pair
        pair[0] = self.Binv[i]
        np.matmul(col, self.Binv, out=pair[1])
        if shift is not None:
            pair[2] = shift
        np.dot(pair, self.A, out=self.priced[:pair.shape[0]])
        ratio, dots, scratch = self.ratio, self.dots, self.scratch
        r, w = self.reduced, self.weights
        if shift is not None:
            r += scratch
        ratio /= col[i]
        gamma = 1.0 + float(col @ col)
        rj = r[j]
        r -= np.multiply(ratio, rj, out=scratch)
        dots += dots  # twice, exactly
        dots -= np.multiply(ratio, gamma, out=scratch)
        dots *= ratio
        w -= dots
        floor = np.multiply(ratio, ratio, out=ratio)
        floor += 1.0
        np.maximum(w, floor, out=w)
        leave = self.basis[i]
        r[j] = 0.0
        if leave < self.n:
            r[leave] = -rj / col[i]
            w[leave] = max(gamma / (col[i] * col[i]), 1.0)

    # -- phases ------------------------------------------------------------
    def phase1(self) -> float:
        """Minimize the sum of artificials; returns the attained value.

        A basis with no artificial is feasible as it stands: it would
        price, find no column to enter and stop, so it returns 0 without
        installing costs or pricing."""
        if not (self.basis >= self.n).any():
            return 0.0
        self.install_costs(np.zeros(self.n), 1.0)
        status, _ = self.run(phase=1)
        assert status == "optimal"  # phase-1 objective is bounded below by zero
        return float(self.cB @ self.xB)

    def drive_out_artificials(self):
        """Pivot each basic artificial onto the first structural column
        with an entry above ``PIVOT_TOL`` in its row of the tableau.

        A row with no such entry is redundant, and nothing is deleted: its
        artificial stays basic at zero (to within the phase-1 band), at
        cost 0 in phase 2, and its column of ``Binv`` stays +-e_i, since
        every other row keeps a zero there for good, so its price is zero.
        Its tableau entries are at most ``PIVOT_TOL``, below the least
        pivot that the ratio test takes, so phase 2 passes the row by;
        should an entry grow past it, the artificial leaves as any basic
        column does, for good."""
        for i in np.flatnonzero(self.basis >= self.n).tolist():
            row = self.Binv[i] @ self.A
            cands = np.flatnonzero(np.abs(row) > PIVOT_TOL)
            if cands.size:
                j = int(cands[0])
                self._pivot(i, j, self.column(j))

    # -- extraction --------------------------------------------------------
    def primal(self) -> np.ndarray:
        x = np.zeros(self.n)
        structural = self.basis < self.n
        x[self.basis[structural]] = self.xB[structural]
        return x

    def duals(self) -> np.ndarray:
        """Row prices for the installed costs, in original row order and
        orientation; a redundant row's price is zero.  At the floor they
        are y = 0, which certifies optimality under nonnegative costs
        (the reduced costs are the costs); the basis prices may not."""
        if self.at_floor():
            return np.zeros(self.basis.size)
        return self.prices()

    def install_costs(self, c: np.ndarray, art_cost: float):
        self.cost[: c.shape[0]] = c
        self.cost[self.n:] = art_cost
        self.cB = self.cost[self.basis]
        self.nonnegative = bool(c.min(initial=0.0) >= 0.0)
        # per column, the slope a crossing to its mate adds per unit of
        # its tableau entry, c_u + c_v; infinite where it may not cross
        jump = self.cost + self.cost[self.mate]
        self.col_jump = np.where((self.mate >= 0) & (jump >= 0.0), jump, _INF)
        self.row_jump = self.col_jump[self.basis]

    def ray(self, enter: int) -> np.ndarray:
        d = np.zeros(self.n)
        d[enter] = 1.0
        col = self.column(enter)
        structural = self.basis < self.n
        d[self.basis[structural]] = -col[structural]
        return d


def solve(lp: LinearProgram, tol: float = DEFAULT_TOL,
          max_iters: int = DEFAULT_MAX_ITERS,
          rational_check: bool = False) -> LpOutcome:
    """Solve ``lp``; the status is backed by a certificate and a stall or
    misbehaving tableau raises rather than return a wrong answer.

    Statuses: "optimal" (x, y, objective), "infeasible" (y is a Farkas
    vector for ``A x = b, x in bounds``), "unbounded" (x feasible, ray
    improving), "feasible" (no objective; x only).

    Phase 2 stops at a feasible basis as soon as the costs are all
    nonnegative and its objective is at most ``tol``: nothing feasible
    costs less than zero, so that basis is optimal to within tol and
    y = 0 is its certificate.  A ``tol`` that is not positive and finite
    is refused.
    """
    tol = require_tolerance(tol)
    std = _StandardForm(lp)
    sx = _Simplex(std.A, std.b, max_iters, tol)

    gap = sx.phase1()
    if gap > tol * max(1.0, float(np.abs(std.b).max(initial=0.0))):
        # phase-1 prices already satisfy y.A <= 0 with y.b = gap > 0
        out = LpOutcome(status="infeasible", y=sx.duals(), iterations=sx.iterations)
    elif lp.c is None:
        sx.drive_out_artificials()
        out = LpOutcome(status="feasible", x=std.to_original(sx.primal()),
                        iterations=sx.iterations)
    else:
        sx.drive_out_artificials()
        sx.install_costs(std.c_min, 0.0)
        status, enter = sx.run(phase=2)
        x = std.to_original(sx.primal())
        if status == "unbounded":
            out = LpOutcome(status="unbounded", x=x, ray=std.ray_to_original(sx.ray(enter)),
                            iterations=sx.iterations)
        else:
            y = sx.duals()  # prices of the minimized objective: a maximum negates them
            out = LpOutcome(status="optimal", x=x, y=-y if lp.maximize else y,
                            objective=float(lp.c @ x), iterations=sx.iterations)
    _check_internal(lp, std, out, tol)
    if rational_check:
        out = _with_rational(out, std, sx, lp)
    return out


def _check_internal(lp: LinearProgram, std: _StandardForm, out: LpOutcome, tol: float):
    """Cheap invariant checks on the way out; a failure here means the
    tableau bookkeeping broke, which must never surface as a status."""
    scale = max(1.0, float(np.abs(std.b).max(initial=0.0)))
    slack = 100.0 * tol * scale
    if out.x is not None:
        res = float(np.abs(lp.A @ out.x - lp.b).max(initial=0.0))
        if res > slack:
            raise StalledError(f"solution residual {res:.3e} exceeds tolerance band")
    if out.status == "infeasible":
        dots = out.y @ std.A
        if dots.max(initial=0.0) > slack or out.y @ std.b <= 0.0:
            raise StalledError("infeasibility evidence failed its defining inequality")


def verify_certificate(lp: LinearProgram, outcome: LpOutcome,
                       tol: float = VERIFY_TOL) -> CertificateReport:
    """Independently recompute the inequalities behind ``outcome``.

    This routine never trusts solver internals: it re-derives the
    standard-form system from ``lp`` and checks the reported evidence
    against it with plain matrix arithmetic.  An optimum needs a feasible
    x, a dual feasible y and equal primal and dual values.
    """
    status = outcome.status
    ok = True
    fields: dict[str, float | None] = {}
    lo, hi = _bound_arrays(lp)

    if outcome.x is not None:
        res = float(np.abs(lp.A @ outcome.x - lp.b).max(initial=0.0))
        # an infinite bound gives -inf here, never a violation
        bv = float(np.maximum(lo - outcome.x, outcome.x - hi).max(initial=0.0))
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
            std = _StandardForm(lp)
            dots = outcome.y @ std.A
            margin = float(outcome.y @ std.b)
            fields["farkas_dot_max"] = float(dots.max(initial=0.0))
            fields["farkas_margin"] = margin
            ok &= fields["farkas_dot_max"] <= tol and margin > 0.0
    elif status == "unbounded":
        if outcome.ray is None or lp.c is None:
            ok = False
        else:
            d = outcome.ray
            rres = float(np.abs(lp.A @ d).max(initial=0.0))
            gain = float(lp.c @ d)
            if not lp.maximize:
                gain = -gain
            # the ray may not leave a finite bound by more than tol
            dir_ok = not (((lo > -_INF) & (d < -tol)).any() or ((hi < _INF) & (d > tol)).any())
            fields["ray_residual"] = rres
            fields["ray_gain"] = gain
            ok &= rres <= tol and gain > tol and dir_ok
    elif status == "feasible":
        ok &= outcome.x is not None
    else:
        ok = False

    return CertificateReport(status=status, ok=bool(ok), **fields)


def _dual_check(lp: LinearProgram, outcome: LpOutcome) -> tuple[float, float]:
    """The duality gap |c.x - y.b_std - c.shift| and the least reduced
    cost of y, both over the reconstructed standard system.

    Variable shifts (finite lower bounds, upper-only bounds) displace the
    objective by a constant c.shift; after removing it, primal and dual
    values coincide at optimality in either orientation.  Equal values
    prove optimality only for a dual feasible y: its reduced costs, taken
    as for a minimization (a maximum's y is negated) over every standard
    column, range slacks included, must all be >= 0.
    """
    std = _StandardForm(lp)
    y = outcome.y
    if y.shape[0] != std.m_rows:
        return _INF, -_INF  # prices for the synthetic range rows were not reported
    dual = float(y @ std.b)
    offset = 0.0 if std.identity else float(lp.c @ std.shift)
    reduced = std.c_min - (-y if lp.maximize else y) @ std.A
    return (abs(float(lp.c @ outcome.x) - dual - offset),
            float(reduced.min(initial=_INF)))


# -- exact re-check ---------------------------------------------------------

def _with_rational(out: LpOutcome, std: _StandardForm, sx: _Simplex,
                   lp: LinearProgram) -> LpOutcome:
    try:
        verified = _rational_recheck(out.status, std, sx, lp)
    except ZeroDivisionError:
        verified = False
    return LpOutcome(status=out.status, x=out.x, y=out.y, ray=out.ray,
                     objective=out.objective, iterations=out.iterations,
                     rational_verified=verified)


def _rational_recheck(status: str, std: _StandardForm, sx: _Simplex,
                      lp: LinearProgram) -> bool:
    """Re-derive the final basis exactly over the rationals.

    Checks basic feasibility and the sign conditions that certify the
    reported status (for an optimum under nonnegative costs, an exact
    objective of 0 is such a condition); float data converts to Fraction
    losslessly, so a True here means the claimed basis proves the claim
    in exact arithmetic.
    """
    m, n = std.A.shape
    sign = [Fraction(s) for s in sx.row_sign]
    A = [[sign[i] * Fraction(std.A[i, j]) for j in range(n)] for i in range(m)]
    b = [sign[i] * Fraction(std.b[i]) for i in range(m)]

    def column(j: int) -> list[Fraction]:
        if j < n:
            return [A[i][j] for i in range(m)]
        unit = [Fraction(0)] * m
        unit[j - n] = Fraction(1)
        return unit

    B = [column(j) for j in sx.basis]  # list of columns
    Bm = [[B[j][i] for j in range(m)] for i in range(m)]
    try:
        Binv = _fraction_inverse(Bm)
    except ZeroDivisionError:
        return False

    xB = _matvec(Binv, b)
    if status in ("optimal", "feasible", "unbounded"):
        if any(v < 0 for v in xB):
            return False
        # a basic artificial, such as a redundant row's, must be exactly
        # zero, so that the structural columns alone meet every row
        if any(v != 0 for v, j in zip(xB, sx.basis) if j >= n):
            return False
    if status in ("optimal", "infeasible"):
        if status == "optimal":
            c_full = [Fraction(v) for v in std.c_min] + [Fraction(0)] * m
        else:
            c_full = [Fraction(0)] * n + [Fraction(1)] * m
        cB = [c_full[j] for j in sx.basis]
        if status == "optimal" and min(c_full, default=0) >= 0 and _dot(cB, xB) == 0:
            return True  # c.x >= 0 on every feasible x, and this one costs 0
        yT = _vecmat(cB, Binv)
        for j in range(n):
            rj = Fraction(c_full[j]) - _dot(yT, column(j))
            if rj < 0:
                return False
        if status == "infeasible":
            # the optimal phase-1 value must be strictly positive
            if _dot(cB, xB) <= 0:
                return False
    return True


def _fraction_inverse(M: list[list[Fraction]]) -> list[list[Fraction]]:
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
