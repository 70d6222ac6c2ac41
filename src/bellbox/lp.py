"""Dense linear programming kernel with self-verified certificates.

Equality-form problems over nonnegative (optionally free or box-bounded)
variables are solved by a two-phase primal simplex on a dense tableau.
Each row starts on a structural column that already equals its unit
vector, where one exists, and on its artificial otherwise.  The entering
column is the one with the most negative reduced cost (Dantzig's rule);
after a long run of degenerate pivots the rule falls back to Bland's
smallest index, which cannot cycle, until the objective moves again.
Every outcome carries evidence: a primal solution for feasible problems,
a Farkas vector for infeasible ones, an improving ray for unbounded ones,
and each can be checked against its own verification inequality by an
independent routine.

Problem sizes are small (up to a few thousand columns), so the design
optimizes for robustness and certificate extraction over raw speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SizeCapError, StalledError, ValidationError

PIVOT_TOL = 1e-10
DEFAULT_TOL = 1e-9
VERIFY_TOL = 1e-7
DEFAULT_MAX_ITERS = 10_000
DIMENSION_CAP = 8192
# consecutive degenerate pivots after which pricing switches to Bland's rule
BLAND_AFTER = 50

_INF = float("inf")


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
        if m > DIMENSION_CAP or n > DIMENSION_CAP:
            raise SizeCapError(f"LP of size {m}x{n} exceeds the {DIMENSION_CAP} cap")
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
    farkas_dot_max: float | None = None
    farkas_margin: float | None = None
    ray_residual: float | None = None
    ray_gain: float | None = None


class _StandardForm:
    """Equality system with every variable nonnegative.

    Columns are generated per original variable: a plain column for lo=0,
    a shifted column for finite lo, a negated column for variables only
    bounded above, and a +/- pair for free variables.  Finite ranges get
    one extra row ``x' + s = hi - lo`` appended after the input rows.
    """

    def __init__(self, lp: LinearProgram):
        m, n = lp.shape
        cols: list[np.ndarray] = []
        cost: list[float] = []
        # var_map[j] = (kind, first standard column index)
        self.var_map: list[tuple[str, int]] = []
        self.shift = np.zeros(n)
        c_min = np.zeros(n) if lp.c is None else (-lp.c if lp.maximize else lp.c)
        b = lp.b.astype(np.float64, copy=True)
        bound_rows: list[tuple[int, float]] = []  # (var index, range width)
        for j in range(n):
            lo, hi = lp.var_bounds(j)
            col = lp.A[:, j]
            if lo == -_INF and hi == _INF:
                self.var_map.append(("split", len(cols)))
                cols.append(col)
                cost.append(c_min[j])
                cols.append(-col)
                cost.append(-c_min[j])
            elif lo == -_INF:
                # only bounded above: substitute x = hi - x'' with x'' >= 0
                self.var_map.append(("negated", len(cols)))
                self.shift[j] = hi
                b -= col * hi
                cols.append(-col)
                cost.append(-c_min[j])
            else:
                self.var_map.append(("plain", len(cols)))
                if lo != 0.0:
                    self.shift[j] = lo
                    b -= col * lo
                cols.append(col)
                cost.append(c_min[j])
                if hi != _INF:
                    bound_rows.append((j, hi - lo))
        self.n_struct = len(cols)
        n_rows = m + len(bound_rows)
        A_std = np.zeros((n_rows, self.n_struct + len(bound_rows)))
        if cols:
            A_std[:m, : self.n_struct] = np.column_stack(cols)
        b_std = np.zeros(n_rows)
        b_std[:m] = b
        for k, (j, width) in enumerate(bound_rows):
            _, col0 = self.var_map[j]
            A_std[m + k, col0] = 1.0
            A_std[m + k, self.n_struct + k] = 1.0  # range slack
            b_std[m + k] = width
            cost.append(0.0)
        self.A = A_std
        self.b = b_std
        self.c_min = np.array(cost)
        self.m_rows = n_rows
        self.m_orig = m
        self.n_orig = n

    def to_original(self, x_std: np.ndarray) -> np.ndarray:
        x = np.zeros(self.n_orig)
        for j, (kind, k) in enumerate(self.var_map):
            if kind == "split":
                x[j] = x_std[k] - x_std[k + 1]
            elif kind == "negated":
                x[j] = self.shift[j] - x_std[k]
            else:
                x[j] = self.shift[j] + x_std[k]
        return x

    def ray_to_original(self, d_std: np.ndarray) -> np.ndarray:
        d = np.zeros(self.n_orig)
        for j, (kind, k) in enumerate(self.var_map):
            if kind == "split":
                d[j] = d_std[k] - d_std[k + 1]
            elif kind == "negated":
                d[j] = -d_std[k]
            else:
                d[j] = d_std[k]
        return d


class _Simplex:
    """Two-phase dense tableau simplex over a standard-form system.

    Tableau rows are the constraints followed by the reduced-cost row;
    columns are structural, then one artificial per row, then the rhs.
    Artificial columns are never dropped: at any point they hold the
    inverse of the current basis, which is what the dual and Farkas
    extraction reads off.  A row whose sign-flipped constraint already has
    a structural +e_i column starts with that column basic instead of its
    artificial; the two columns are identical, so only the basis differs.
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, max_iters: int):
        sign = np.where(b < 0.0, -1.0, 1.0)
        self.row_sign = sign
        m, n = A.shape
        self.m0 = m
        self.n = n
        body = np.hstack([A * sign[:, None], np.eye(m), (b * sign)[:, None]])
        cost = np.zeros(body.shape[1])
        self.T = np.vstack([body, cost])
        self.basis = [n + i for i in range(m)]
        flipped = body[:, :n]
        units = np.flatnonzero((np.count_nonzero(flipped, axis=0) == 1)
                               & (flipped.max(axis=0, initial=0.0) == 1.0))
        for j in units[::-1]:  # the smallest unit column of a row wins
            self.basis[int(np.argmax(flipped[:, j]))] = int(j)
        self.rows = list(range(m))  # ids into the original row order
        self.max_iters = max_iters
        self.iterations = 0
        self._installed_art_cost = np.zeros(m)

    # -- low-level ---------------------------------------------------------
    def _pivot(self, i: int, j: int):
        T = self.T
        T[i, :] /= T[i, j]
        col = T[:, j].copy()
        col[i] = 0.0
        T -= np.outer(col, T[i, :])
        T[:, j] = 0.0
        T[i, j] = 1.0
        self.basis[i] = j
        self.iterations += 1
        if self.iterations > self.max_iters:
            raise StalledError(
                f"simplex exceeded {self.max_iters} pivots without concluding")

    def _set_cost_row(self, c: np.ndarray):
        """Install minimization costs ``c`` (length = column count) and
        reduce them against the current basis."""
        T = self.T
        T[-1, :] = 0.0
        T[-1, : c.shape[0]] = c
        for i, jb in enumerate(self.basis):
            if T[-1, jb] != 0.0:
                T[-1, :] -= T[-1, jb] * T[i, :]
        T[-1, self.basis] = 0.0

    def run(self, allowed: np.ndarray) -> tuple[str, int | None]:
        """Minimize the installed cost row over ``allowed`` columns.

        Dantzig pricing picks the entering column; once ``BLAND_AFTER``
        pivots in a row have left the objective where it was, Bland's
        smallest-index rule takes over until a pivot moves it, so a
        degenerate vertex cannot cycle.
        """
        T = self.T
        m = len(self.basis)
        degenerate = 0
        while True:
            r = T[-1, :-1]
            eligible = np.where(allowed & (r < -PIVOT_TOL))[0]
            if eligible.size == 0:
                return "optimal", None
            if degenerate < BLAND_AFTER:
                j = int(eligible[np.argmin(r[eligible])])  # Dantzig
            else:
                j = int(eligible[0])  # Bland: smallest eligible index
            col = T[:m, j]
            pos = np.where(col > PIVOT_TOL)[0]
            if pos.size == 0:
                return "unbounded", j
            ratios = T[pos, -1] / col[pos]
            best = ratios.min()
            tied = pos[ratios <= best + PIVOT_TOL]
            i = int(min(tied, key=lambda t: self.basis[t]))  # Bland tie-break
            degenerate = degenerate + 1 if best <= PIVOT_TOL else 0
            self._pivot(i, j)

    # -- phases ------------------------------------------------------------
    def art_col(self, row_id: int) -> int:
        return self.n + row_id

    def is_artificial(self, j: int) -> bool:
        return j >= self.n

    def phase1(self) -> float:
        """Minimize the sum of artificials; returns the attained value."""
        self.install_costs(np.zeros(self.n), 1.0)
        allowed = np.ones(self.T.shape[1] - 1, dtype=bool)
        status, _ = self.run(allowed)
        assert status == "optimal"  # phase-1 objective is bounded below by zero
        return float(-self.T[-1, -1])

    def drive_out_artificials(self):
        """Pivot basic artificials onto structural columns; drop rows that
        turn out redundant (no structural entry left)."""
        i = 0
        while i < len(self.basis):
            if self.is_artificial(self.basis[i]):
                row = self.T[i, : self.n]
                cands = np.where(np.abs(row) > PIVOT_TOL)[0]
                if cands.size:
                    self._pivot(i, int(cands[0]))
                else:
                    self._delete_row(i)
                    continue
            i += 1

    def _delete_row(self, i: int):
        self.T = np.delete(self.T, i, axis=0)
        del self.basis[i]
        del self.rows[i]

    # -- extraction --------------------------------------------------------
    def primal(self) -> np.ndarray:
        x = np.zeros(self.n)
        for i, jb in enumerate(self.basis):
            if jb < self.n:
                x[jb] = self.T[i, -1]
        return x

    def duals(self) -> np.ndarray:
        """Row prices for the installed cost row, in original row order and
        orientation.  For row i, the reduced cost of its artificial column
        is c_art - y_i, with c_art the artificial's installed cost."""
        y = np.zeros(self.m0)
        r = self.T[-1, :-1]
        c_art = self._installed_art_cost
        for pos, row_id in enumerate(self.rows):
            y[row_id] = (c_art[pos] - r[self.art_col(row_id)]) * self.row_sign[row_id]
        return y

    def install_costs(self, c: np.ndarray, art_cost: float):
        full = np.zeros(self.T.shape[1] - 1)
        full[: c.shape[0]] = c
        full[self.n:] = art_cost
        self._installed_art_cost = np.full(len(self.rows), art_cost)
        self._set_cost_row(full)

    def ray(self, enter: int) -> np.ndarray:
        d = np.zeros(self.n)
        d[enter] = 1.0
        for i, jb in enumerate(self.basis):
            if jb < self.n:
                d[jb] = -self.T[i, enter]
        return d


def solve(lp: LinearProgram, tol: float = DEFAULT_TOL,
          max_iters: int = DEFAULT_MAX_ITERS,
          rational_check: bool = False) -> LpOutcome:
    """Solve ``lp``; the status is backed by a certificate and a stall or
    misbehaving tableau raises rather than return a wrong answer.

    Statuses: "optimal" (x, y, objective), "infeasible" (y is a Farkas
    vector for ``A x = b, x in bounds``), "unbounded" (x feasible, ray
    improving), "feasible" (no objective; x only).
    """
    std = _StandardForm(lp)
    sx = _Simplex(std.A, std.b, max_iters)

    gap = sx.phase1()
    if gap > tol * max(1.0, float(np.abs(std.b).max(initial=0.0))):
        # phase-1 prices already satisfy y.A <= 0 with y.b = gap > 0
        y_std = sx.duals()
        out = LpOutcome(status="infeasible", y=y_std, iterations=sx.iterations)
        _check_internal(std, out, tol)
        if rational_check:
            out = _with_rational(out, std, sx, lp)
        return out

    sx.drive_out_artificials()

    if lp.c is None:
        x = std.to_original(sx.primal())
        out = LpOutcome(status="feasible", x=x, iterations=sx.iterations)
        _check_internal(std, out, tol, lp=lp)
        if rational_check:
            out = _with_rational(out, std, sx, lp)
        return out

    sx.install_costs(std.c_min, 0.0)
    status, enter = sx.run(_structural_mask(sx))
    x_std = sx.primal()
    x = std.to_original(x_std)
    if status == "unbounded":
        d = std.ray_to_original(sx.ray(enter))
        out = LpOutcome(status="unbounded", x=x, ray=d, iterations=sx.iterations)
        _check_internal(std, out, tol, lp=lp)
        return out

    value = float(lp.c @ x)
    y_std = sx.duals()
    if lp.maximize:
        y_std = -y_std  # tableau prices are for the negated objective
    out = LpOutcome(status="optimal", x=x, y=y_std, objective=value,
                    iterations=sx.iterations)
    _check_internal(std, out, tol, lp=lp)
    if rational_check:
        out = _with_rational(out, std, sx, lp)
    return out


def _structural_mask(sx: _Simplex) -> np.ndarray:
    allowed = np.zeros(sx.T.shape[1] - 1, dtype=bool)
    allowed[: sx.n] = True
    return allowed


def _check_internal(std: _StandardForm, out: LpOutcome, tol: float,
                    lp: LinearProgram | None = None):
    """Cheap invariant checks on the way out; a failure here means the
    tableau bookkeeping broke, which must never surface as a status."""
    scale = max(1.0, float(np.abs(std.b).max(initial=0.0)))
    slack = 100.0 * tol * scale
    if out.x is not None and lp is not None:
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
    against it with plain matrix arithmetic.
    """
    status = outcome.status
    ok = True
    fields: dict[str, float | None] = {}

    if outcome.x is not None:
        res = float(np.abs(lp.A @ outcome.x - lp.b).max(initial=0.0))
        bv = 0.0
        for j in range(lp.shape[1]):
            lo, hi = lp.var_bounds(j)
            v = outcome.x[j]
            if lo != -_INF:
                bv = max(bv, lo - v)
            if hi != _INF:
                bv = max(bv, v - hi)
        fields["residual"] = res
        fields["bound_violation"] = bv
        ok &= res <= tol and bv <= tol

    if status == "optimal":
        value = float(lp.c @ outcome.x)
        fields["objective_gap"] = abs(value - outcome.objective)
        ok &= fields["objective_gap"] <= tol * max(1.0, abs(value))
        if outcome.y is not None:
            gap = _duality_gap(lp, outcome)
            fields["duality_gap"] = gap
            ok &= gap <= tol * max(1.0, abs(value))
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
            dir_ok = True
            for j in range(lp.shape[1]):
                lo, hi = lp.var_bounds(j)
                if lo != -_INF and d[j] < -tol:
                    dir_ok = False
                if hi != _INF and d[j] > tol:
                    dir_ok = False
            fields["ray_residual"] = rres
            fields["ray_gain"] = gain
            ok &= rres <= tol and gain > tol and dir_ok
    elif status == "feasible":
        ok &= outcome.x is not None
    else:
        ok = False

    return CertificateReport(status=status, ok=bool(ok), **fields)


def _duality_gap(lp: LinearProgram, outcome: LpOutcome) -> float:
    """|c.x - y.b_std - c.shift| over the reconstructed standard system.

    Variable shifts (finite lower bounds, upper-only bounds) displace the
    objective by a constant c.shift; after removing it, primal and dual
    values coincide at optimality in either orientation.
    """
    std = _StandardForm(lp)
    y = outcome.y
    if y.shape[0] != std.m_rows:
        return _INF  # prices for the synthetic range rows were not reported
    dual = float(y @ std.b)
    offset = float(lp.c @ std.shift)
    return abs(float(lp.c @ outcome.x) - dual - offset)


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
    reported status; float data converts to Fraction losslessly, so a
    True here means the claimed basis proves the claim in exact
    arithmetic.
    """
    rows = sx.rows
    n = std.A.shape[1]
    A = [[Fraction(std.A[i, j]) for j in range(n)] for i in rows]
    sign = [Fraction(sx.row_sign[i]) for i in rows]
    b = [Fraction(std.b[i]) * sign[k] for k, i in enumerate(rows)]
    A = [[sign[k] * v for v in row] for k, row in enumerate(A)]
    m = len(rows)

    def column(j: int) -> list[Fraction]:
        if j < n:
            return [A[i][j] for i in range(m)]
        unit = [Fraction(0)] * m
        pos = {row_id: k for k, row_id in enumerate(rows)}[j - sx.n]
        unit[pos] = Fraction(1)
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
        # the basic point must satisfy every row of the full system,
        # including any dropped as redundant during float pivoting
        x_full = [Fraction(0)] * n
        for k, jb in enumerate(sx.basis):
            if jb < n:
                x_full[jb] = xB[k]
        for i in range(std.A.shape[0]):
            lhs = sum(Fraction(std.A[i, j]) * x_full[j] for j in range(n)
                      if x_full[j] != 0)
            if lhs != Fraction(std.b[i]):
                return False
    if status in ("optimal", "infeasible"):
        if status == "optimal":
            c_full = [Fraction(std.c_min[j]) if j < n else Fraction(0)
                      for j in range(n + sx.m0)]
        else:
            c_full = [Fraction(0)] * n + [Fraction(1)] * sx.m0
        cB = [c_full[j] for j in sx.basis]
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
