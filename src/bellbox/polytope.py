"""Deterministic strategies, Bell functionals, and facet enumeration.

The local polytope of a scenario is the convex hull of its deterministic
strategies.  This module holds those strategies as the columns of one
matrix, evaluates and canonicalizes linear functionals against them,
reduces behaviors to the Collins-Gisin coordinates, and enumerates the
polytope's facets by the double description method in those
coordinates, on an array of rays and a boolean matrix of the
inequalities each lies on.  A strategy is named by its column number in
``strategy_matrix``.  The strategy matrix and relabelling permutations
are positions read in bulk (``scenario._entries``) off the scenario's
one table layout.

Canonical forms make functionals comparable across derivation routes:
two functionals that agree on every normalized no-signalling behavior
differ by a combination of normalization rows and marginal differences,
both read off the scenario's marginal index, so the canonical
representative is the projection onto the orthogonal complement of that
span, rescaled to unit maximum coefficient, with the deterministic bound
recomputed.  That is the only
gauge: a canonical form is meant for no-signalling behaviors, and a
signalling one is witnessed by its marginal shift instead
(``analysis.membership``).

No strategy matrix is built with more than ``lp.DIMENSION_CAP ** 2``
entries, the largest program matrix the LP kernel accepts
(``_checked_strategy_count``); a local bound builds only the one of
every party but the last.  The tolerances come from ``tolerances``.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeCapError, StalledError, ValidationError
from .lp import DIMENSION_CAP, check_entries
from .scenario import (_CHSH_SCENARIO, Behavior, Scenario, _blocks, _counts, _entries, _layout,
                       _marginal_index, _numbers, validate_behavior)
from .tolerances import (DEFAULT_TOL, FACET_ZERO_TOL, GAUGE_RANK_TOL, INTEGER_FIT_TOL,
                         NEGATIVE_WEIGHT_TOL, PURE_GAUGE_TOL)

FACET_VERTEX_CAP = 256
FACET_DIM_CAP = 16
RELABELLING_CAP = 1_000_000
INTEGER_DENOMINATOR_CAP = 64


def strategy_count(scenario: Scenario) -> int:
    return math.prod(k for outs in scenario.outputs for k in outs)


def _checked_strategy_count(scenario: Scenario) -> int:
    """The strategy count, refused when the strategy matrix would hold
    more than ``DIMENSION_CAP ** 2`` entries, the largest program matrix
    the LP kernel accepts (512 MiB as float64)."""
    count = strategy_count(scenario)
    check_entries("strategy matrix", scenario.dimension, count)
    return count


def strategy_matrix(scenario: Scenario) -> np.ndarray:
    """Column j is the probability table of strategy j; read-only.

    Built by index arithmetic: strategy j's digits in the mixed radix of
    the (party, input) alphabets, party-major and last digit fastest, are
    its outputs, and each input block gets a single 1 at the position of
    those outputs, all (blocks x strategies) positions in one bulk read.
    Strategy j's outputs are ``np.unravel_index(j, [k for outs in
    scenario.outputs for k in outs])``.  It is a view of the first block
    of the array that ``_strategy_store`` keeps.
    """
    return _strategy_store(scenario)[1]


@lru_cache(maxsize=32)
def _strategy_store(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """The one array that holds the strategy matrix V, read-only, and V,
    a view of its first block.  Where the l1 distance program over V
    (``analysis._distance_program``) fits the LP kernel's
    ``DIMENSION_CAP`` rows and columns, the array is that program's
    matrix [V | I | -I ; 1 0 0], so the program and every reader of V
    share V's bytes; otherwise it is V alone.  Either way it holds at
    most ``DIMENSION_CAP ** 2`` entries."""
    count = _checked_strategy_count(scenario)
    d = scenario.dimension
    columns = np.arange(count)
    digits = np.array(np.unravel_index(columns, [k for outs in scenario.outputs for k in outs]))
    first = np.cumsum([0, *scenario.inputs_per_party])  # first digit of each party
    inputs = _blocks(scenario).inputs
    fits = d + 1 <= DIMENSION_CAP and count + 2 * d <= DIMENSION_CAP
    store = np.zeros((d + 1, count + 2 * d) if fits else (d, count))
    store[_entries(scenario, inputs[:, :, None], digits[first[:-1, None] + inputs]), columns] = 1.0
    if fits:
        np.fill_diagonal(store[:d, count:count + d], 1.0)
        np.fill_diagonal(store[:d, count + d:], -1.0)
        store[d, :count] = 1.0
    store.setflags(write=False)
    return store, store[:d, :count]


@dataclass(frozen=True, eq=False)
class LocalModel:
    """A convex mixture of deterministic strategies."""

    scenario: Scenario
    weights: np.ndarray

    def __post_init__(self):
        w = _numbers(self.weights, "strategy weights")
        count = strategy_count(self.scenario)
        if w.shape[0] != count:
            raise ValidationError(
                f"expected {count} strategy weights, got {w.shape[0]}")
        if not np.all(np.isfinite(w)):
            raise ValidationError("strategy weights must be finite")
        if w.min(initial=0.0) < -NEGATIVE_WEIGHT_TOL:
            raise ValidationError(f"negative strategy weight {w.min():.3e}")
        s = float(w.sum())
        if abs(s - 1.0) > DEFAULT_TOL:
            raise ValidationError(f"strategy weights sum to {s!r}, expected 1")
        w = np.where(w < 0.0, 0.0, w)
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def support(self) -> np.ndarray:
        """Indices of the strategies with nonzero weight."""
        return np.flatnonzero(self.weights)

    def behavior(self) -> Behavior:
        probs = strategy_matrix(self.scenario) @ self.weights
        return validate_behavior(self.scenario, probs)


def random_local_model(scenario: Scenario, seed: int) -> LocalModel:
    """Seeded model with weights drawn once from the flat Dirichlet
    distribution over the strategy simplex (``default_rng(seed)``).  A
    seed that is not a nonnegative integer is refused with
    ``ValidationError``."""
    count = _checked_strategy_count(scenario)
    try:
        rng = np.random.default_rng(_counts((seed,), "seed")[0])
    except ValueError:  # _counts refuses a non-integer, numpy a negative one
        raise ValidationError(f"seed {seed!r} must be a nonnegative integer") from None
    return LocalModel(scenario=scenario, weights=rng.dirichlet(np.ones(count)))


@dataclass(frozen=True, eq=False)
class BellFunctional:
    """Linear functional on behaviors, optionally with its deterministic
    bound and an exact integer form found during canonicalization.
    Coefficients and a given bound must be finite.  ``note`` is free-form
    provenance (say, facet versus certificate) and plays no part in
    identity."""

    scenario: Scenario
    coeffs: np.ndarray
    local_bound: float | None = None
    integer_coeffs: tuple[int, ...] | None = None
    integer_bound: int | None = None
    note: str | None = None

    def __post_init__(self):
        c = _numbers(self.coeffs, "coefficients")
        if c.shape[0] != self.scenario.dimension:
            raise ValidationError(
                f"expected {self.scenario.dimension} coefficients, got {c.shape[0]}")
        if not np.all(np.isfinite(c)):
            raise ValidationError("coefficients must be finite")
        # a document's bound may read NaN, Infinity or 1e999, all floats to json
        if self.local_bound is not None and not math.isfinite(self.local_bound):
            raise ValidationError(f"local_bound must be finite, got {self.local_bound!r}")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def value(self, behavior: Behavior) -> float:
        if behavior.scenario != self.scenario:
            raise ValidationError("behavior and functional scenarios differ")
        return float(self.coeffs @ behavior.probs)

    def violation(self, behavior: Behavior) -> float:
        if self.local_bound is None:
            raise ValidationError("local bound has not been computed")
        return self.value(behavior) - self.local_bound

    def key(self) -> tuple:
        """Hashable identity of the canonical form: exact integers when an
        integer form exists, rounded floats otherwise."""
        if self.integer_coeffs is not None:
            return (self.integer_coeffs, self.integer_bound)
        if self.local_bound is None:
            raise ValidationError("key requires a canonicalized functional")
        return (tuple(round(float(v), 12) for v in self.coeffs),
                round(self.local_bound, 12))


@lru_cache(maxsize=32)
def _best_response(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``local_bound`` reads, cached by value: the entries in the
    order of a (other parties' table) x (last party's input, output)
    matrix, the other parties being every party but the last; the first
    column of each last-party input; and the other parties' strategy
    matrix, transposed.  That matrix, or its product with a functional,
    past ``DIMENSION_CAP ** 2`` entries is refused."""
    index = _marginal_index(scenario)
    k = index.subsets.index(tuple(range(scenario.parties - 1)))
    others = strategy_matrix(index.tables[k]).T
    starts = np.cumsum([0, *scenario.outputs[-1]])
    check_entries("best-response matrix", others.shape[0], starts[-1])
    rows, inputs = np.divmod(index.cells(k), index.contexts[k])
    order = np.argsort(rows * starts[-1] + starts[inputs] + _layout(scenario)[1][-1])
    order.setflags(write=False)
    return order, starts[:-1], others


def local_bound(functional: BellFunctional) -> tuple[float, int]:
    """Maximum of the functional over deterministic strategies and the
    first strategy index attaining it, a column of ``strategy_matrix``
    (party-major, last digit fastest):
    a best response (Collins & Gisin, J. Phys. A 37, 1775 (2004)), where
    the last party meets each strategy of the others with its first best
    output per input.  Exact for integer coefficients whose absolute sum
    is below 2**53: every partial sum is then an integer float64 holds."""
    order, starts, others = _best_response(functional.scenario)
    values = others @ functional.coeffs[order].reshape(others.shape[1], -1)
    totals = np.maximum.reduceat(values, starts, axis=1).sum(axis=1)
    s = index = int(np.argmax(totals))
    for start, k in zip(starts, functional.scenario.outputs[-1]):  # the last party's digits
        index = index * k + int(np.argmax(values[s, start:start + k]))
    return float(totals[s]), index


def chsh_functional(signs: tuple[int, int, int, int] = (1, 1, 1, -1)) -> BellFunctional:
    """Correlator functional s_xy (-1)^(a+b) on the two-input two-output
    scenario; the default sign pattern is the familiar three-plus-one.
    The functional is immutable, and one is built per sign pattern."""
    if len(signs) != 4 or any(s not in (-1, 1) for s in signs):
        raise ValidationError("signs must be four values of +1 or -1")
    return _chsh_functional(tuple(int(s) for s in signs))


@lru_cache(maxsize=16)
def _chsh_functional(signs: tuple[int, int, int, int]) -> BellFunctional:
    blocks, (a, b) = _layout(_CHSH_SCENARIO)
    x, y = _blocks(_CHSH_SCENARIO).inputs[:, blocks]
    coeffs = np.asarray(signs)[2 * x + y] * np.where(a == b, 1.0, -1.0)
    bound, _ = local_bound(BellFunctional(scenario=_CHSH_SCENARIO, coeffs=coeffs))
    return BellFunctional(scenario=_CHSH_SCENARIO, coeffs=coeffs, local_bound=bound)


# -- reduced coordinates ----------------------------------------------------

@lru_cache(maxsize=32)
def reduced_space(scenario: Scenario) -> np.ndarray:
    """Minimal coordinates for no-signalling behaviors, as a read-only
    (reduced dim) x (full dim) matrix of 0/1 marginalization rows: for
    every nonempty party subset, its marginal index cells at remote
    context 0, every remote input zero, but none at a party's last
    output.  A functional ``a`` on these coordinates lifts to
    ``M.T @ a``, which pairs with every behavior as ``a`` pairs with its
    reduced coordinates."""
    index = _marginal_index(scenario)
    (entry_blocks, outputs), counts = _layout(scenario), _blocks(scenario).counts
    last = outputs == counts[:, entry_blocks] - 1  # entries at a party's last output
    blocks = []
    for k in range(1, len(index.subsets)):
        cells = index.cells(k)
        kept = ~last[list(index.subsets[k])].any(axis=0) & (cells % index.contexts[k] == 0)
        blocks.append(index.rows(k, np.flatnonzero(np.bincount(cells[kept]))))
    matrix = np.vstack(blocks)
    matrix.setflags(write=False)
    return matrix


# -- gauge span and canonical forms -----------------------------------------

@lru_cache(maxsize=32)
def _gauge_basis(scenario: Scenario) -> np.ndarray:
    """Orthonormal basis (columns) for the directions along which
    functionals cannot be told apart on normalized no-signalling
    behaviors: the marginal index's empty-subset cells (normalization
    rows) and each proper subset's cells at every non-base remote context
    minus the base context's.  More than ``DIMENSION_CAP ** 2`` difference
    entries, counted from the index's shape, are refused."""
    index = _marginal_index(scenario)
    proper = range(1, len(index.subsets) - 1)
    count = sum(index.tables[k].dimension * (index.contexts[k] - 1) for k in proper)
    check_entries("marginal-difference matrix", count, scenario.dimension)
    blocks = [index.rows(0, range(index.contexts[0]))]
    for k in proper:
        rows = index.rows(k, range(index.tables[k].dimension * index.contexts[k]))
        rows = rows.reshape(index.tables[k].dimension, index.contexts[k], -1)
        blocks.append((rows[:, 1:] - rows[:, :1]).reshape(-1, scenario.dimension))
    u, s, _ = np.linalg.svd(np.vstack(blocks).T, full_matrices=False)
    rank = int((s > GAUGE_RANK_TOL * s[0]).sum())
    q = u[:, :rank].copy()
    q.setflags(write=False)
    return q


def canonicalize(functional: BellFunctional) -> BellFunctional:
    """Canonical representative of the functional's equivalence class on
    normalized no-signalling behaviors: components along the
    normalization and marginal difference rows removed, maximum
    coefficient scaled to one, integer form recorded when a common
    denominator up to 64 fits (the coefficients are then that form
    divided by its denominator, so float noise in the input does not
    reach them), deterministic bound recomputed.  A functional that is
    all gauge has no canonical form (``ValidationError``).
    """
    sc = functional.scenario
    q = _gauge_basis(sc)
    c = functional.coeffs - q @ (q.T @ functional.coeffs)
    peak = float(np.abs(c).max())
    if peak <= PURE_GAUGE_TOL:
        raise ValidationError("functional is pure gauge; no canonical form exists")
    c = c / peak

    integer_coeffs = integer_bound = None
    for d in range(1, INTEGER_DENOMINATOR_CAP + 1):
        scaled = c * d
        ints = np.rint(scaled)
        if float(np.abs(scaled - ints).max()) <= INTEGER_FIT_TOL * d:
            g = math.gcd(*map(int, ints))  # not 0: the peak coefficient scaled to d
            integer_coeffs = tuple(int(v) // g for v in ints)
            ints = np.array(integer_coeffs, dtype=np.float64)
            integer_bound = int(local_bound(BellFunctional(scenario=sc, coeffs=ints))[0])
            bound = integer_bound * g / d
            c = ints * g / d  # each entry correctly rounded, free of the input's noise
            break
    else:
        bound, _ = local_bound(BellFunctional(scenario=sc, coeffs=c))
    return BellFunctional(scenario=sc, coeffs=c, local_bound=float(bound),
                          integer_coeffs=integer_coeffs, integer_bound=integer_bound)


# -- relabellings -----------------------------------------------------------

@lru_cache(maxsize=8)
def relabellings(scenario: Scenario) -> tuple[np.ndarray, ...]:
    """Index permutations of the flat probability vector generated by
    party exchange, per-party input renaming, and per-input output
    renaming, restricted to maps that send the scenario to itself.  A
    group of more than ``RELABELLING_CAP`` maps, or whose maps hold more
    than ``DIMENSION_CAP ** 2`` entries together, is refused before any
    is built."""
    count = _relabelling_count(scenario)
    if count > RELABELLING_CAP:
        raise SizeCapError(f"{count} relabellings exceed the cap of {RELABELLING_CAP}")
    check_entries("relabellings", count, scenario.dimension)
    output_maps = [list(itertools.permutations(range(k))) for outs in scenario.outputs for k in outs]
    return tuple(_relabelling_perm(scenario, sigma, pis, taus)
                 for sigma, input_maps in _party_exchanges(scenario)
                 for pis in itertools.product(*input_maps)
                 for taus in itertools.product(*output_maps))


def _party_exchanges(scenario: Scenario):
    """Each party exchange sigma that keeps every party's input count,
    with one iterator per party p over the input permutations pi that
    carry party sigma[p]'s output alphabets onto p's:
    ``outputs[p][pi[x]] == outputs[sigma[p]][x]`` for every input x."""
    def input_maps(sigma, p, n):
        return (pi for pi in itertools.permutations(range(n))
                if all(scenario.outputs[p][pi[x]] == scenario.outputs[sigma[p]][x]
                       for x in range(n)))

    parties = range(scenario.parties)
    for sigma in itertools.permutations(parties):
        if any(scenario.inputs_per_party[sigma[p]] != scenario.inputs_per_party[p]
               for p in parties):
            continue
        yield sigma, [input_maps(sigma, p, n) for p, n in enumerate(scenario.inputs_per_party)]


def _relabelling_count(scenario: Scenario) -> int:
    """The number of relabellings, in closed form: party exchanges within
    each class of parties with the same alphabet sizes up to order, times
    per party the input permutations within each alphabet size, times
    every alphabet's output permutations."""
    classes = Counter(tuple(sorted(outs)) for outs in scenario.outputs)
    return (math.prod(math.factorial(n) for n in classes.values())
            * math.prod(math.factorial(n) for outs in scenario.outputs
                        for n in Counter(outs).values())
            * math.prod(math.factorial(k) for outs in scenario.outputs for k in outs))


def _relabelling_perm(scenario, sigma, pis, taus) -> np.ndarray:
    """Read-only flat index permutation ``perm`` with (new vector) =
    vector[perm].

    New party p takes old party sigma(p)'s data; its input x maps to
    pis[p](x) and, per new input, outputs rename through the matching
    entry of ``taus`` (flattened party-major by new input)."""
    (blocks, outputs), inputs = _layout(scenario), _blocks(scenario).inputs
    tau = np.concatenate(taus)
    starts = np.cumsum([0, *(k for outs in scenario.outputs for k in outs)])  # per (party, input)
    first = np.cumsum([0, *scenario.inputs_per_party])  # each party's first (party, input)
    new_inputs = [np.asarray(pis[p])[inputs[q]][blocks] for p, q in enumerate(sigma)]
    new_outputs = [tau[starts[first[p] + x] + outputs[q]]
                   for p, (q, x) in enumerate(zip(sigma, new_inputs))]
    perm = np.empty(scenario.dimension, dtype=np.intp)
    perm[_entries(scenario, new_inputs, new_outputs)] = np.arange(scenario.dimension)
    perm.setflags(write=False)
    return perm


def relabel_functional(functional: BellFunctional, perm: np.ndarray) -> BellFunctional:
    """Apply an index permutation and recompute a set deterministic
    bound, which a permutation that is no relabelling can move."""
    sc, coeffs, bound = functional.scenario, functional.coeffs[perm], functional.local_bound
    if bound is not None:
        bound = local_bound(BellFunctional(scenario=sc, coeffs=coeffs))[0]
    return BellFunctional(scenario=sc, coeffs=coeffs, local_bound=bound)


# -- facet enumeration ------------------------------------------------------

def enumerate_facets(scenario: Scenario) -> tuple[BellFunctional, ...]:
    """All facets of the local polytope, canonicalized and sorted.

    Works in reduced coordinates, where the polytope is full-dimensional:
    facets correspond to the extreme rays of the polar-style cone
    ``{(a, s): a.(v - centroid) <= s for all vertices v}``, computed by
    double description with vertices inserted in enumeration order.
    """
    count = strategy_count(scenario)
    if count > FACET_VERTEX_CAP:
        raise SizeCapError(
            f"{count} vertices exceed the facet enumeration cap of {FACET_VERTEX_CAP}")
    M = reduced_space(scenario)
    r = M.shape[0]
    if r == 0:  # every alphabet has one output: the polytope is one point
        return ()
    if r > FACET_DIM_CAP:
        raise SizeCapError(
            f"reduced dimension {r} exceeds the facet enumeration cap of {FACET_DIM_CAP}")

    R = M @ strategy_matrix(scenario)  # columns are vertices
    centroid = R.mean(axis=1)
    H = R - centroid[:, None]
    # the rows span r + 1 dimensions, which the double description checks,
    # exactly when the vertices span r: the centered ones sum to zero
    rays = _double_description(np.hstack([H.T, -np.ones((count, 1))]), r + 1)

    if (np.abs(rays[:, :-1]).max(axis=1) <= FACET_ZERO_TOL).any():
        raise StalledError("facet enumeration produced a degenerate ray")
    facets = {}
    for a in rays[:, :-1]:
        canon = canonicalize(BellFunctional(scenario=scenario, coeffs=M.T @ a))
        if canon.key() in facets:
            raise StalledError("facet enumeration produced duplicate canonical forms")
        facets[canon.key()] = canon
    return tuple(facets[k] for k in sorted(facets))


_PAIR_RAY_BLOCK = 2**18  # pair x ray entries counted at once, 2 MiB as float64


def _double_description(rows: np.ndarray, dim: int) -> np.ndarray:
    """Extreme rays, one per row, of the pointed cone {x: row.x <= 0 for
    every row}.  Starts from the simplicial cone of the first ``dim``
    independent rows and inserts the others in order, keeping the rays
    on or below each, then the combination of each adjacent pair across
    it, positive rays major.  ``zero`` marks the inserted rows each ray
    lies on; a pair is adjacent when no third ray lies on every row they
    share, and only pairs sharing ``dim - 2`` can be (Fukuda & Prodon,
    1996), which one product of ``zero`` rows counts for every pair.  The
    third rays are counted over blocks of at most ``_PAIR_RAY_BLOCK``
    pair x ray entries, so the pair x ray matrix is never held whole.
    """
    init_idx: list[int] = []
    for i in range(len(rows)):
        if np.linalg.matrix_rank(rows[init_idx + [i]], tol=FACET_ZERO_TOL) == len(init_idx) + 1:
            init_idx.append(i)
        if len(init_idx) == dim:
            break
    if len(init_idx) < dim:
        raise ValidationError("inequality system does not span the space")

    rays = _normalized(-np.linalg.inv(rows[init_idx]).T)
    zero = np.zeros((dim, len(rows)), dtype=bool)
    zero[:, init_idx] = ~np.eye(dim, dtype=bool)

    for t in np.setdiff1d(np.arange(len(rows)), init_idx):
        vals = rays @ rows[t]
        pos, neg = np.flatnonzero(vals > FACET_ZERO_TOL), np.flatnonzero(vals < -FACET_ZERO_TOL)
        zero[np.abs(vals) <= FACET_ZERO_TOL, t] = True
        flags = zero.astype(np.float64)
        u, v = np.nonzero(flags[pos] @ flags[neg].T >= dim - 2)
        u, v = pos[u], neg[v]
        common, outside = zero[u] & zero[v], (1.0 - flags).T
        adjacent = np.empty(u.size, dtype=bool)
        step = max(1, _PAIR_RAY_BLOCK // len(rays))
        for s in range(0, u.size, step):  # adjacent: u and v alone lie on all rows they share
            adjacent[s:s + step] = ((common[s:s + step] @ outside) == 0).sum(axis=1) == 2
        u, v, common = u[adjacent], v[adjacent], common[adjacent]
        new = _normalized(vals[u, None] * rays[v] - vals[v, None] * rays[u])
        common[:, t] = True
        kept = vals <= FACET_ZERO_TOL
        rays, zero = np.vstack([rays[kept], new]), np.vstack([zero[kept], common])
    return rays


def _normalized(rays: np.ndarray) -> np.ndarray:
    """Each row divided by its largest absolute entry."""
    peaks = np.abs(rays).max(axis=1, keepdims=True)
    if not (peaks > 0.0).all():
        raise StalledError("zero ray produced during facet enumeration")
    return rays / peaks
