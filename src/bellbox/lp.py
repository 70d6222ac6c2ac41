"""Dense linear programming kernel with self-verified certificates.

Equality-form problems over nonnegative variables, the form of the
package's one program, the l1 distance program of ``analysis``, are
minimized, always: a maximum is asked for as the minimum of the
negated costs.  They are solved by a two-phase revised simplex whose
state is its basis, the basis inverse and basic values, the costs and
crossing slopes per column (the basic ones are read off the basis, never
copied), the columns that pricing may enter and, while a phase prices,
its reduced costs and steepest-edge weights.  Each iteration forms only the entering column
and the pivot row, updates the inverse by a rank-one change and carries
the reduced costs and weights across the pivot.  The basis inverse and
the basic values are the two parts of one m x (m+1) array, so that one
rank-one update moves both, and an iteration writes its pricing rows,
pivot row, outer product and entering scores into workspaces sized once
per solve.  The constraint matrix is used as given, never copied or
checked again: on the artificials' start a row whose right-hand side is
negative is flipped by the sign that the basis inverse starts with.
Every ``REINVERT_EVERY`` pivots the inverse and the basic values are
rebuilt from the basis columns, and a phase's reduced costs and weights
are priced afresh, so that the rounding that the rank-one updates carry
cannot build up (Bixby, Oper. Res. 50, 3 (2002)).  The start comes with
the program (``_Start``): a basis with its inverse and basic values, the
pairs of columns that are mates, and the first steepest-edge weights,
all built in closed form by the program's builder, as ``analysis``
builds the crash basis of the l1 distance program (Bixby, ORSA J.
Comput. 4, 267 (1992)).  A program without one starts every row on its
artificial, with no mates.  Artificial columns are signed unit columns
that are never stored, and they are start-up scaffolding only: no phase
prices them, so one that leaves the basis never returns (Bertsimas and
Tsitsiklis, Introduction to Linear Optimization, 1997, section 3.5), and
a redundant row keeps its artificial basic at zero instead of being
deleted, so the basis inverse stays square over the same rows for the
whole solve.  Phase 1 runs only when some row starts on its artificial,
since a start without one is already feasible.  The entering column is
the steepest edge (Goldfarb and Reid, Math. Prog. 12, 361 (1977)): the
largest r_j^2 / (1 + |B^-1 a_j|^2) over reduced costs r_j below
``-PIVOT_TOL``, with the weights and reduced costs kept exact by
rank-one updates, priced afresh at each rebuild of the inverse, and the
reduced costs once more before a phase ends.  After a long run of
degenerate pivots the rule falls back to Bland's smallest index, which
cannot cycle, until the objective moves again.  The ratio test takes no
pivot below ``RATIO_TOL`` of the entering column's largest entry, reads
basic values a round-off below zero as zero, and breaks near-ties only
among rows whose step leaves every basic value above ``-TIE_TOL`` and
whose pivot is at least ``_TIE_PIVOT_FLOOR`` of the largest tied pivot,
since a tiny pivot leaves a near-singular basis (a milder form of the
largest tied pivot of Harris, Math. Prog. 5, 1 (1973)).  In phase 2,
while steepest edge prices, the ratio test takes long steps: two columns
that the start names as mates, one the other negated, such as the slacks
u_k and v_k of the l1 distance program, hand a row to each other, and a
basic column that the step drives through zero hands its row to its mate
instead of leaving, for as long as the objective keeps falling along the
step (Barrodale and Roberts, SIAM J. Numer. Anal. 10, 839 (1973);
Fourer, Math. Prog. 33, 204 (1985)).  Bland pivots take the plain ratio
test, and phase 1 never takes a long step.  When every cost is
nonnegative, c.x >= 0 holds on the whole feasible set, so a feasible
basis whose objective is within tol of zero is optimal to within tol as
it stands: phase 2 stops there, whatever the reduced costs say, and y =
0 is its dual certificate.  One private entry, ``_solve_then_maximize``,
keeps the simplex alive past such an optimum: a column kept out of
pricing during the solve is then maximized over the points at the
optimum, as the minimum of its negation, with the columns that the costs
charge retired from pricing and no second phase 1, so a program and its
continuation share one basis.
Every outcome carries evidence: a primal solution for feasible problems,
a Farkas vector for infeasible ones, an improving ray for unbounded
ones.  The tolerances come from ``tolerances``; the size cap and the
pivot limit are this module's own, and ``check_size`` and
``check_entries`` apply it.

Problems have at most ``DIMENSION_CAP`` (8192) rows and as many
columns, so the design optimizes for robustness and certificate
extraction over raw speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeCapError, StalledError, ValidationError
from .tolerances import DEFAULT_TOL, PIVOT_TOL, RATIO_TOL, TIE_TOL, require_tolerance

DEFAULT_MAX_ITERS = 10_000
# most rows, and most columns, of a program; DIMENSION_CAP ** 2 entries
# (512 MiB as float64) is also the largest strategy matrix polytope builds
DIMENSION_CAP = 8192
# consecutive degenerate pivots after which pricing switches to Bland's rule
BLAND_AFTER = 50
# pivots between two rebuilds of the basis inverse from the basis columns
REINVERT_EVERY = 64

# least pivot among near-tied leaving rows, relative to the largest of them
_TIE_PIVOT_FLOOR = 1e-2

_INF = float("inf")


def check_size(rows: int, cols: int):
    """Refuse a program with more than ``DIMENSION_CAP`` rows or columns."""
    if rows > DIMENSION_CAP or cols > DIMENSION_CAP:
        raise SizeCapError(f"LP of size {rows}x{cols} exceeds the {DIMENSION_CAP} cap")


def check_entries(what: str, rows: int, cols: int):
    """Refuse a dense matrix of more than ``DIMENSION_CAP ** 2`` entries."""
    if rows * cols > DIMENSION_CAP ** 2:
        raise SizeCapError(f"{what} of {rows}x{cols} = {rows * cols} entries "
                           f"exceeds the cap of {DIMENSION_CAP}**2")


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """minimize c.x  subject to  A x = b  and  x >= 0; a maximum of c.x
    is the minimum of -c.x."""

    A: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=np.float64)
        if A.ndim != 2:
            raise ValidationError("constraint matrix must be two-dimensional")
        b = np.asarray(self.b, dtype=np.float64).reshape(-1)
        c = np.asarray(self.c, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        m, n = A.shape
        if b.shape[0] != m:
            raise ValidationError(f"rhs has length {b.shape[0]}, matrix has {m} rows")
        if c.shape[0] != n:
            raise ValidationError(f"objective has length {c.shape[0]}, matrix has {n} columns")
        check_size(m, n)
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValidationError("LP data must be finite")
        if not np.all(np.isfinite(c)):
            raise ValidationError("LP objective must be finite")

    @classmethod
    def _prechecked(cls, A: np.ndarray, b: np.ndarray, c: np.ndarray) -> LinearProgram:
        """A program over float64 arrays that its builder has already
        checked as ``__post_init__`` checks them: shapes that agree within
        the cap, and finite entries.  Nothing is converted or checked
        again."""
        lp = object.__new__(cls)
        for name, value in (("A", A), ("b", b), ("c", c)):
            object.__setattr__(lp, name, value)
        return lp

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape


@dataclass(frozen=True, eq=False)
class LpOutcome:
    """Result of a solve, with the evidence backing its status.

    ``y`` is the dual vector at optimality, or the Farkas vector for
    infeasible problems, one entry per row.  ``ray`` is an improving
    feasible direction for unbounded problems.
    """

    status: str
    x: np.ndarray | None = None
    y: np.ndarray | None = None
    ray: np.ndarray | None = None
    objective: float | None = None
    iterations: int = 0


@dataclass(frozen=True, eq=False)
class _Start:
    """A starting basis that comes with its program.  ``basis`` holds each
    row's basic column (``n + i`` is the artificial of row i), ``BX`` the
    basis inverse and the basic values as one m x (m+1) array
    [Binv | xB], ``mate`` each column's mate or -1, over the n structural
    columns and the m artificials, and ``weights`` the structural
    columns' steepest-edge weights 1 + |Binv a_j|^2.  The simplex copies
    what it updates, so a start is never written."""

    basis: np.ndarray
    BX: np.ndarray
    mate: np.ndarray
    weights: np.ndarray


def _artificial_start(A: np.ndarray, b: np.ndarray, sign: np.ndarray) -> _Start:
    """Every row on its artificial ``sign[i] e_i``, for a program without a
    start: Binv = diag(sign), xB = sign b, no mates, and weights
    1 + |a_j|^2."""
    m, n = A.shape
    BX = np.zeros((m, m + 1))
    np.fill_diagonal(BX, sign)
    np.multiply(b, sign, out=BX[:, m])
    return _Start(basis=np.arange(n, n + m), BX=BX, mate=np.full(n + m, -1),
                  weights=1.0 + np.einsum("ij,ij->j", A, A))


class _Simplex:
    """Two-phase revised simplex over a standard-form system.

    The state is the basis (an ``np.intp`` array, one column index per
    row), the square basis inverse ``Binv``, one row and one column per
    row of ``A`` from the first pivot to the last, the basic values
    ``xB``, each column's installed ``cost`` and crossing slope
    ``col_jump``, the ``live`` mask and a phase's pricing.  All of it
    starts from ``start`` (``_Start``), the program's own, or, where
    there is none, from the artificials: ``Binv = diag(row_sign)``, which
    flips the rows whose right-hand side is negative without a flipped
    copy of ``A``, so that phase 1 starts from a nonnegative xB.  Basic
    costs and slopes are read off the basis, as ``cost[basis]``: the
    current tableau is ``Binv A``, and the row prices and the Farkas
    vector are ``cost[basis] Binv`` in the original orientation.
    ``Binv`` and ``xB`` are views of one array ``BX = [Binv | xB]``: a
    pivot's rank-one update and a long step's row flips move both at
    once, and every ``REINVERT_EVERY`` pivots ``_reinvert`` rebuilds both
    from the basis columns.  The iteration allocates no array the size
    of ``Binv`` or of a pricing row: those products, the pivot row, its
    outer product and the entering scores go into workspaces made with
    the simplex.  Column ``n + i`` is the artificial of row ``i``, the
    unit column ``row_sign[i] e_i``, never stored and never priced: the
    reduced costs and weights cover the ``n`` structural columns only.
    Each iteration picks the steepest edge from the kept reduced costs
    and weights, forms only the entering column ``Binv a_j``, updates the
    reduced costs and weights from the pivot row and updates ``Binv`` by
    a rank-one change.  Phase 1 has nothing to do unless some artificial
    starts basic.  Columns that the start pairs in ``mate`` are mates:
    in phase 2 a long step may hand the row from one to the other
    (``_long_step``, ``_cross``).  Under nonnegative costs a phase-2
    basis whose objective is at most ``tol`` ends the phase.  ``live``,
    when given, masks the structural columns that pricing may enter; a
    start puts none of the others in its basis, and one that is basic
    leaves only by a pivot or ``drive_out``.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL,
                 live: np.ndarray | None = None, start: _Start | None = None):
        self.row_sign = np.where(b < 0.0, -1.0, 1.0)
        m, n = A.shape
        self.n = n
        self.A, self.b = A, b  # never written
        if start is None:
            start = _artificial_start(A, b, self.row_sign)
        self.start = start
        # [Binv | xB] in one array, so that one rank-one update moves both
        # and one row gather flips both; Binv and xB are views into it
        self.BX = start.BX.copy()
        self.Binv, self.xB = self.BX[:, :m], self.BX[:, m]
        self.basis = start.basis.copy()
        # a column and its mate, the same column negated: one crosses to
        # the other where its value passes zero (``_long_step``)
        self.mate = start.mate
        self.paired = bool((start.mate >= 0).any())
        # the structural columns that pricing may enter, None for all of them
        self.live = live
        self.iterations = 0
        self.tol = tol
        self.cost = np.zeros(n + m)
        # crossing slope per column, set by ``install_costs``
        self.col_jump = np.full(n + m, _INF)
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
        self.basis[i] = j
        self.iterations += 1
        if self.iterations > DEFAULT_MAX_ITERS:
            raise StalledError(
                f"simplex exceeded {DEFAULT_MAX_ITERS} pivots without concluding")
        if self.iterations % REINVERT_EVERY == 0:
            self._reinvert()

    def _reinvert(self):
        """Rebuild [Binv | xB] in place as B^-1 [I | b], B the basis
        columns of [A | diag(row_sign)], and price afresh the reduced
        costs and weights that a run keeps, so that the rounding of the
        rank-one updates does not build up.  ``iterations`` is left as
        it is: ``edge_weights`` reads its zero as the start's basis.  A
        singular B, which a pivot on a near-zero entry can leave behind,
        raises ``StalledError``."""
        m = self.basis.size
        B = np.zeros((m, m))
        structural = self.basis < self.n
        B[:, structural] = self.A[:, self.basis[structural]]
        rows = self.basis[~structural] - self.n
        B[rows, np.flatnonzero(~structural)] = self.row_sign[rows]
        rhs = np.zeros((m, m + 1))
        np.fill_diagonal(rhs, 1.0)
        rhs[:, m] = self.b
        try:
            self.BX[:] = np.linalg.solve(B, rhs)
        except np.linalg.LinAlgError as exc:
            raise StalledError(
                f"simplex basis is singular at pivot {self.iterations}") from exc
        if self.reduced is not None:
            self.reduced = self.reduced_costs()
        if self.weights is not None:
            self.weights = self.edge_weights()

    def prices(self) -> np.ndarray:
        """Simplex multipliers ``c_B Binv``, one per row of ``A``."""
        return self.cost[self.basis] @ self.Binv

    def at_floor(self) -> bool:
        """True when no feasible point does better than the current basis
        by more than ``tol``: every installed cost is >= 0, so c.x >= 0
        everywhere, and the basic objective is already at most ``tol``.
        The band is not scaled by b: y = 0 leaves a duality gap equal to
        the objective, which must stay within tol whatever b is."""
        return self.nonnegative and float(self.cost[self.basis] @ self.xB) <= self.tol

    def run(self, phase: int) -> tuple[str, int | None]:
        """Minimize the installed costs over the structural columns in
        ``phase`` 1 or 2.  Only structural columns are priced, so an
        artificial that leaves the basis never enters it again; the phase
        decides only the floor stop and the long steps below.

        Steepest-edge pricing picks the entering column: among reduced
        costs below ``-PIVOT_TOL`` it takes the largest r_j^2 / gamma_j,
        where gamma_j = 1 + |Binv a_j|^2 is the squared length of the edge
        that column j would move along.  The weights are formed on the
        first pricing of the call that has a column to enter (the start's
        own before the first pivot), so a phase that starts optimal
        builds none; each pivot then updates them exactly (Goldfarb and
        Reid), and the reduced costs with them, from the pivot row.  The
        reduced costs are priced afresh from the row prices, with the
        weights, at each ``_reinvert``, and before a phase that has
        pivoted is declared optimal.  Once ``BLAND_AFTER`` pivots in a row
        have left the objective where it was, Bland's smallest-index rule
        takes over until a pivot moves it, so a degenerate vertex cannot
        cycle.

        The ratio test sorts the candidate rows by ratio.  In phase 2,
        while steepest edge is in charge, it walks them (``_long_step``):
        a basic column with a mate crosses its breakpoint, its mate taking
        the row (``_cross``), while the objective still falls after it;
        the first row that does not cross leaves.  Bland pivots and phase
        1 take the plain ratio test, the first row leaving.  Either way
        near-ties among the rows that may leave are bounded in x, rows
        whose pivot is below ``_TIE_PIVOT_FLOOR`` of the largest tied one
        are passed by, and the smallest basic index among the rest
        leaves.  Bland's proof that no cycle survives takes the smallest
        index over every tied row, which the floor does not: so once a
        Bland run has come back to a basis it already visited
        ``BLAND_AFTER`` times, the floor is dropped until the objective
        moves, and the plain rule, which cannot cycle, runs alone.  In
        phase 2 a basis at the floor (``at_floor``) is optimal without
        pricing; phase 1 always runs to its priced optimum.
        """
        self.weights = self.reduced = None
        degenerate, stale = 0, False
        # the bases of the current Bland run, and how often it came back to one
        visited, revisits = set(), 0
        while True:
            if phase == 2 and self.at_floor():
                return "optimal", None
            if self.reduced is None:
                self.reduced = self.reduced_costs()
            steepest = degenerate < BLAND_AFTER
            if not steepest:
                key = np.sort(self.basis).tobytes()
                revisits += key in visited
                visited.add(key)
            j = self._entering(steepest)
            if j is None and stale:
                # an updated pricing never ends a phase: price afresh first
                self.reduced, stale = self.reduced_costs(), False
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
                if revisits < BLAND_AFTER:
                    # a pivot far below another tied one blows B^-1 up
                    tied = tied[col[tied] >= _TIE_PIVOT_FLOOR * col[tied].max()]
                i = int(tied[self.basis[tied].argmin()])  # Bland tie-break
            degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
            if not degenerate:
                visited, revisits = set(), 0
            shift = self._cross(pos[:k], col) if k else None
            self._update_pricing(i, j, col, shift)
            stale = True
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
        slope = (self.col_jump[self.basis[pos]] * col[pos]).cumsum()
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
        u = self.basis[rows]
        shift = self.col_jump[u] @ flipped[:, :-1]
        self.BX[rows] = np.negative(flipped, out=flipped)
        col[rows] *= -1.0
        v = self.mate[u]
        self.basis[rows] = v
        self.weights[u] = self.weights[v]
        return shift

    def _entering(self, steepest: bool) -> int | None:
        """The entering column under the kept reduced costs, None when no
        cost of a ``live`` column is below ``-PIVOT_TOL``: the largest
        r_j^2 / gamma_j, or the
        smallest index under Bland's rule.  The weights are built here, on
        the first pricing with a column to enter.  The scores are written
        into kept buffers, the ineligible ones as zero."""
        if self.n == 0:
            return None  # no column, and argmax has nothing to reduce
        eligible = np.less(self.reduced, -PIVOT_TOL, out=self.eligible)
        if self.live is not None:
            eligible &= self.live
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
        """Reduced costs of the structural columns, from the row prices."""
        return self.cost[:self.n] - self.prices() @ self.A

    def edge_weights(self) -> np.ndarray:
        """Steepest-edge weights 1 + |Binv a_j|^2 of the structural
        columns: before the first pivot, a copy of the start's."""
        if self.iterations == 0:
            return self.start.weights.copy()
        T = self.Binv @ self.A
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
        return float(self.cost[self.basis] @ self.xB)

    def drive_out(self):
        """Pivot each basic column that pricing may not enter, an
        artificial or a structural column outside ``live``, onto the first
        column that it may enter with an entry above ``PIVOT_TOL`` in its
        row of the tableau.  Each such column is basic at zero, to within
        the band of the phase or stage that ended, so the pivots are
        degenerate.

        A row with no such entry is redundant on the columns that remain,
        and nothing is deleted: its column stays basic at zero, at cost 0
        in the phase that follows.  For an artificial, its column of
        ``Binv`` stays +-e_i, since every other row keeps a zero there for
        good, so its price is zero.  Its tableau entries are at most
        ``PIVOT_TOL``, below the least pivot that the ratio test takes, so
        the next phase passes the row by; should an entry grow past it,
        the column leaves as any basic column does, for good."""
        self.weights = self.reduced = None  # no pricing here for a reinversion to redo
        enters = np.zeros(self.n + self.basis.size, dtype=bool)
        enters[:self.n] = True if self.live is None else self.live
        for i in np.flatnonzero(~enters[self.basis]).tolist():
            entries = np.abs(self.Binv[i] @ self.A) > PIVOT_TOL
            cands = np.flatnonzero(entries & enters[:self.n])
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
        self.nonnegative = bool(c.min(initial=0.0) >= 0.0)
        # per column, the slope a crossing to its mate adds per unit of
        # its tableau entry, c_u + c_v; infinite where it may not cross
        jump = self.cost + self.cost[self.mate]
        self.col_jump = np.where((self.mate >= 0) & (jump >= 0.0), jump, _INF)

    def ray(self, enter: int) -> np.ndarray:
        d = np.zeros(self.n)
        d[enter] = 1.0
        col = self.column(enter)
        structural = self.basis < self.n
        d[self.basis[structural]] = -col[structural]
        return d


def solve(lp: LinearProgram, tol: float = DEFAULT_TOL,
          start: _Start | None = None) -> LpOutcome:
    """Solve ``lp`` from ``start``, the start its builder made for it
    (``_Start``), or from its artificials where there is none.  The
    status is backed by a certificate, and a stall (more than
    ``DEFAULT_MAX_ITERS`` pivots) or a misbehaving tableau raises
    ``StalledError`` rather than return a wrong answer.

    Statuses: "optimal" (x, y, objective), "infeasible" (y is a Farkas
    vector for ``A x = b, x >= 0``), "unbounded" (x feasible, ray
    improving).

    Phase 2 stops at a feasible basis as soon as the costs are all
    nonnegative and its objective is at most ``tol``: nothing feasible
    costs less than zero, so that basis is optimal to within tol and
    y = 0 is its certificate.  A ``tol`` that is not positive and finite
    is refused.
    """
    tol = require_tolerance(tol)
    sx = _Simplex(lp.A, lp.b, tol, start=start)
    out = _phases(lp, sx)
    _check_internal(lp, out, tol)
    return out


def _phases(lp: LinearProgram, sx: _Simplex) -> LpOutcome:
    """Run ``solve``'s phases on ``sx``, built over ``lp``, and read the
    outcome off the basis it ends on."""
    gap = sx.phase1()
    if gap > sx.tol * max(1.0, float(np.abs(lp.b).max(initial=0.0))):
        # phase-1 prices already satisfy y.A <= 0 with y.b = gap > 0
        return LpOutcome(status="infeasible", y=sx.duals(), iterations=sx.iterations)
    sx.drive_out()
    sx.install_costs(lp.c, 0.0)
    return _phase2(sx, lp.c)


def _phase2(sx: _Simplex, c: np.ndarray) -> LpOutcome:
    """Run phase 2 on the costs ``c`` installed in ``sx``, minimizing c.x,
    and read the outcome: the row prices are those of c.x."""
    status, enter = sx.run(phase=2)
    x = sx.primal()
    if status == "unbounded":
        return LpOutcome(status="unbounded", x=x, ray=sx.ray(enter), iterations=sx.iterations)
    return LpOutcome(status="optimal", x=x, y=sx.duals(),
                     objective=float(c @ x), iterations=sx.iterations)


def _solve_then_maximize(lp: LinearProgram, k: int,
                         start: _Start | None = None) -> tuple[LpOutcome, LpOutcome | None]:
    """Solve ``lp`` from ``start``, as ``solve`` does, with variable ``k``
    kept out of pricing, and so at zero; where that ends optimal at an
    objective of at most ``DEFAULT_TOL``, continue the same simplex to
    the largest x_k among the points at that optimum.  ``lp`` has
    nonnegative costs and a feasible point with x_k = 0, and ``start``
    does not put column k in its basis; nothing here checks that.

    The first stage is ``solve`` with column ``k`` never entering: the
    same phases, pivots and outcome (its x has x_k = 0).  At an optimum
    within that tolerance of zero, every column that the costs charge is
    zero to within it, so the second stage takes those columns out of
    pricing for good: ``drive_out`` pivots each one still basic onto a
    column that may enter, where its row has one, and phase 2 then
    minimizes -x_k from that basis, with column k priced and no long
    step, since the mates that a long step crosses to are charged
    columns.  No phase 1 runs again.  The second outcome is that of
    minimizing -x_k over ``A x = b``, x >= 0 with the charged columns
    fixed at zero: "optimal" with x, the row prices y of -x_k and
    objective -x_k, or "unbounded" with an improving ray.
    Its ``iterations`` count the pivots of both stages.  It is None
    where the first stage ends elsewhere.  Each outcome passes
    ``_check_internal``.
    """
    live = np.ones(lp.shape[1], dtype=bool)
    live[k] = False
    sx = _Simplex(lp.A, lp.b, DEFAULT_TOL, live, start)
    first = _phases(lp, sx)
    _check_internal(lp, first, DEFAULT_TOL)
    if first.status != "optimal" or not first.objective <= DEFAULT_TOL:
        return first, None
    np.equal(lp.c, 0.0, out=sx.live)
    sx.live[k] = True
    sx.paired = False
    sx.drive_out()
    goal = np.zeros(sx.n)
    goal[k] = -1.0
    sx.install_costs(goal, 0.0)
    second = _phase2(sx, goal)
    _check_internal(lp, second, DEFAULT_TOL)
    return first, second


def _check_internal(lp: LinearProgram, out: LpOutcome, tol: float):
    """Cheap invariant checks on the way out; a failure here means the
    tableau bookkeeping broke, which must never surface as a status.
    Each test passes only on a number that meets it, so a NaN fails."""
    scale = max(1.0, float(np.abs(lp.b).max(initial=0.0)))
    slack = 100.0 * tol * scale
    if out.x is not None:
        res = float(np.abs(lp.A @ out.x - lp.b).max(initial=0.0))
        if not res <= slack:
            raise StalledError(f"solution residual {res:.3e} exceeds tolerance band")
    if out.status == "infeasible":
        dots = out.y @ lp.A
        if not (dots.max(initial=0.0) <= slack and out.y @ lp.b > 0.0):
            raise StalledError("infeasibility evidence failed its defining inequality")
