"""Deterministic strategies, Bell functionals, and facet enumeration.

The local polytope of a scenario is the convex hull of its deterministic
strategies.  This module enumerates those strategies, evaluates and
canonicalizes linear functionals against them, reduces behaviors to a
minimal coordinate set, and enumerates the polytope's facets by the
double description method in those coordinates.

Canonical forms make functionals comparable across derivation routes:
two functionals that agree on every normalized no-signalling behavior
differ by a combination of per-block normalization rows and marginal
difference rows, so the canonical representative is the projection onto
the orthogonal complement of that span, rescaled to unit maximum
coefficient, with the deterministic bound recomputed.

No strategy matrix is built with more than ``lp.DIMENSION_CAP ** 2``
entries, the largest program matrix the LP kernel accepts
(``_checked_strategy_count``); the tolerances come from ``tolerances``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SizeCapError, StalledError, ValidationError
from .lp import DIMENSION_CAP
from .scenario import (_CHSH_SCENARIO, Behavior, Scenario, flat_index, marginal_differences,
                       marginal_indicator, validate_behavior)
from .tolerances import (DEFAULT_TOL, FACET_ZERO_TOL, GAUGE_RANK_TOL, INTEGER_FIT_TOL,
                         NEGATIVE_WEIGHT_TOL, PURE_GAUGE_TOL)

FACET_VERTEX_CAP = 256
FACET_DIM_CAP = 16
RELABELLING_CAP = 1_000_000
INTEGER_DENOMINATOR_CAP = 64


@dataclass(frozen=True)
class DeterministicStrategy:
    """A fixed response for every party: ``assignments[p][x]`` is the
    output party p gives on input x."""

    scenario: Scenario
    assignments: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        sc = self.scenario
        if len(self.assignments) != sc.parties:
            raise ValidationError(
                f"expected assignments for {sc.parties} parties, got {len(self.assignments)}")
        for p, per_input in enumerate(self.assignments):
            if len(per_input) != sc.inputs_per_party[p]:
                raise ValidationError(
                    f"party {p}: expected {sc.inputs_per_party[p]} responses")
            for x, o in enumerate(per_input):
                if not 0 <= o < sc.outputs[p][x]:
                    raise ValidationError(
                        f"party {p}: response {o} out of range for input {x}")

    def response(self, party: int, x: int) -> int:
        return self.assignments[party][x]

    def behavior(self) -> Behavior:
        probs = np.zeros(self.scenario.dimension)
        for inputs in self.scenario.joint_inputs():
            outputs = tuple(self.assignments[p][x] for p, x in enumerate(inputs))
            probs[flat_index(self.scenario, inputs, outputs)] = 1.0
        return validate_behavior(self.scenario, probs)


def strategy_count(scenario: Scenario) -> int:
    count = 1
    for p in range(scenario.parties):
        for k in scenario.outputs[p]:
            count *= k
    return count


def _checked_strategy_count(scenario: Scenario) -> int:
    """The strategy count, refused when the strategy matrix would hold
    more than ``DIMENSION_CAP ** 2`` entries, the largest program matrix
    the LP kernel accepts (512 MiB as float64)."""
    count = strategy_count(scenario)
    entries = scenario.dimension * count
    if entries > DIMENSION_CAP ** 2:
        raise SizeCapError(
            f"strategy matrix of {scenario.dimension}x{count} = {entries} entries "
            f"exceeds the cap of {DIMENSION_CAP}**2")
    return count


@lru_cache(maxsize=32)
def enumerate_strategies(scenario: Scenario) -> tuple[DeterministicStrategy, ...]:
    """All deterministic strategies in party-major lexicographic order."""
    _checked_strategy_count(scenario)
    per_party = []
    for p in range(scenario.parties):
        outs = scenario.outputs[p]
        per_party.append(list(itertools.product(*[range(k) for k in outs])))
    return tuple(DeterministicStrategy(scenario=scenario, assignments=combo)
                 for combo in itertools.product(*per_party))


@lru_cache(maxsize=32)
def strategy_matrix(scenario: Scenario) -> np.ndarray:
    """Column j is the probability table of strategy j, in the order of
    ``enumerate_strategies``; read-only.

    Built by index arithmetic: strategy j's digits in the mixed radix of
    the (party, input) alphabets, party-major and last digit fastest, are
    its outputs, and each input block gets a single 1 at its offset plus
    the mixed-radix index of those outputs within the block.
    """
    count = _checked_strategy_count(scenario)
    columns = np.arange(count)
    digits = np.unravel_index(columns, [k for outs in scenario.outputs for k in outs])
    first = np.cumsum([0] + list(scenario.inputs_per_party))  # first digit of each party
    V = np.zeros((scenario.dimension, count))
    for inputs in scenario.joint_inputs():
        within = np.zeros(count, dtype=np.intp)
        for p, x in enumerate(inputs):
            within = within * scenario.outputs[p][x] + digits[first[p] + x]
        V[scenario.block_offset(inputs) + within, columns] = 1.0
    V.setflags(write=False)
    return V


@dataclass(frozen=True, eq=False)
class LocalModel:
    """A convex mixture of deterministic strategies."""

    scenario: Scenario
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).reshape(-1)
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
    negative seed is refused with ``ValidationError``."""
    count = _checked_strategy_count(scenario)
    try:
        rng = np.random.default_rng(seed)
    except ValueError:  # numpy's refusal of a negative seed
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
        c = np.asarray(self.coeffs, dtype=np.float64).reshape(-1)
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


def local_bound(functional: BellFunctional) -> tuple[float, int]:
    """Maximum of the functional over deterministic strategies and the
    first strategy index attaining it; exact when coefficients are
    integers, since 0/1 tables reduce the dot product to integer sums."""
    V = strategy_matrix(functional.scenario)
    c = functional.coeffs
    rounded = np.rint(c)
    if np.array_equal(rounded, c):
        values = rounded.astype(np.int64) @ V.astype(np.int64)
        idx = int(np.argmax(values))
        return float(values[idx]), idx
    values = c @ V
    idx = int(np.argmax(values))
    return float(values[idx]), idx


def chsh_functional(signs: tuple[int, int, int, int] = (1, 1, 1, -1)) -> BellFunctional:
    """Correlator functional s_xy (-1)^(a+b) on the two-input two-output
    scenario; the default sign pattern is the familiar three-plus-one."""
    if len(signs) != 4 or any(s not in (-1, 1) for s in signs):
        raise ValidationError("signs must be four values of +1 or -1")
    coeffs = np.zeros(16)
    for x in range(2):
        for y in range(2):
            s = signs[2 * x + y]
            for a in range(2):
                for b in range(2):
                    val = s if a == b else -s
                    coeffs[flat_index(_CHSH_SCENARIO, (x, y), (a, b))] = val
    f = BellFunctional(scenario=_CHSH_SCENARIO, coeffs=coeffs)
    bound, _ = local_bound(f)
    return BellFunctional(scenario=_CHSH_SCENARIO, coeffs=coeffs, local_bound=bound)


# -- reduced coordinates ----------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReducedSpace:
    """Minimal coordinates for no-signalling behaviors: for every nonempty
    party subset, its joint marginal at remote inputs zero, dropping each
    party's last output."""

    scenario: Scenario
    matrix: np.ndarray  # (reduced dim) x (full dim), 0/1 marginalization rows

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def to_reduced(self, vec: np.ndarray) -> np.ndarray:
        return self.matrix @ vec

    def lift_functional(self, a: np.ndarray) -> np.ndarray:
        """Full-space coefficients pairing with behaviors exactly as ``a``
        pairs with their reduced coordinates."""
        return self.matrix.T @ a


@lru_cache(maxsize=32)
def reduced_space(scenario: Scenario) -> ReducedSpace:
    rows = []
    for size in range(1, scenario.parties + 1):
        base = (0,) * (scenario.parties - size)  # remote inputs pinned to zero
        for T in itertools.combinations(range(scenario.parties), size):
            for t_inputs in itertools.product(*(range(scenario.inputs_per_party[p]) for p in T)):
                for t_outputs in itertools.product(
                        *(range(scenario.outputs[p][x] - 1) for p, x in zip(T, t_inputs))):
                    rows.append(marginal_indicator(scenario, T, t_inputs, t_outputs, base))
    matrix = np.array(rows)
    matrix.setflags(write=False)
    return ReducedSpace(scenario=scenario, matrix=matrix)


# -- gauge span and canonical forms -----------------------------------------

@lru_cache(maxsize=32)
def _gauge_basis(scenario: Scenario, include_marginals: bool = True) -> np.ndarray:
    """Orthonormal basis (columns) for the span of the normalization
    indicator rows and, unless disabled, the marginal difference rows,
    i.e. the directions along which functionals cannot be told apart on
    normalized no-signalling behaviors.  With ``include_marginals`` off
    only the normalization rows are used; shifts along those preserve
    violations on every normalized behavior, signalling or not."""
    gauge = np.array([_block_indicator(scenario, joint) for joint in scenario.joint_inputs()])
    if include_marginals:
        gauge = np.vstack([gauge, marginal_differences(scenario).matrix])
    u, s, _ = np.linalg.svd(gauge.T, full_matrices=False)
    rank = int((s > GAUGE_RANK_TOL * s[0]).sum())
    q = u[:, :rank].copy()
    q.setflags(write=False)
    return q


def _block_indicator(scenario, joint) -> np.ndarray:
    row = np.zeros(scenario.dimension)
    row[scenario.block_slice(joint)] = 1.0
    return row


def canonicalize(functional: BellFunctional, gauge: str = "no_signalling") -> BellFunctional:
    """Canonical representative of the functional's equivalence class:
    gauge components removed, maximum coefficient scaled to one, integer
    form recorded when a common denominator up to 64 fits (the
    coefficients are then that form divided by its denominator, so float
    noise in the input does not reach them), deterministic bound
    recomputed.

    ``gauge`` picks the quotient: "no_signalling" (default) also removes
    marginal difference directions and is the right notion when the
    functional will only ever be evaluated on no-signalling behaviors;
    "normalization" removes only per-block constants, which keeps the
    violation of arbitrary normalized behaviors unchanged.
    """
    if gauge not in ("no_signalling", "normalization"):
        raise ValidationError(f"unknown gauge {gauge!r}")
    sc = functional.scenario
    q = _gauge_basis(sc, gauge == "no_signalling")
    c = functional.coeffs - q @ (q.T @ functional.coeffs)
    peak = float(np.abs(c).max())
    if peak <= PURE_GAUGE_TOL:
        raise ValidationError("functional is pure gauge; no canonical form exists")
    c = c / peak

    integer_coeffs = None
    integer_bound = None
    bound = None
    for d in range(1, INTEGER_DENOMINATOR_CAP + 1):
        scaled = c * d
        ints = np.rint(scaled)
        if float(np.abs(scaled - ints).max()) <= INTEGER_FIT_TOL * d:
            ints = ints.astype(np.int64)
            nz = np.abs(ints)[ints != 0]
            g = int(np.gcd.reduce(nz)) if nz.size else 1
            ints //= g
            V = strategy_matrix(sc).astype(np.int64)
            values = ints @ V
            integer_bound = int(values.max())
            integer_coeffs = tuple(int(v) for v in ints)
            bound = integer_bound * g / d
            c = ints * g / d  # each entry correctly rounded, free of the input's noise
            break
    if bound is None:
        f = BellFunctional(scenario=sc, coeffs=c)
        bound, _ = local_bound(f)
    return BellFunctional(scenario=sc, coeffs=c, local_bound=float(bound),
                          integer_coeffs=integer_coeffs, integer_bound=integer_bound)


# -- relabellings -----------------------------------------------------------

@lru_cache(maxsize=8)
def relabellings(scenario: Scenario) -> tuple[np.ndarray, ...]:
    """Index permutations of the flat probability vector generated by
    party exchange, per-party input renaming, and per-input output
    renaming, restricted to maps that send the scenario to itself."""
    count = _relabelling_count(scenario)
    if count > RELABELLING_CAP:
        raise SizeCapError(f"{count} relabellings exceed the cap of {RELABELLING_CAP}")
    perms = []
    for sigma, input_maps in _party_exchanges(scenario):
        for pis in itertools.product(*input_maps):
            output_choices = []
            for p in range(scenario.parties):
                per_input = []
                for x_new in range(scenario.inputs_per_party[p]):
                    k = scenario.outputs[p][x_new]
                    per_input.append(list(itertools.permutations(range(k))))
                output_choices.append(per_input)
            flat_tau = [per for party in output_choices for per in party]
            for taus in itertools.product(*flat_tau):
                perms.append(_relabelling_perm(scenario, sigma, pis, taus))
    out = tuple(perms)
    for p in out:
        p.setflags(write=False)
    return out


def _party_exchanges(scenario: Scenario):
    """Each party exchange sigma that keeps every party's input count,
    with one iterator per party p over the input permutations pi that
    carry party sigma[p]'s output alphabets onto p's:
    ``outputs[p][pi[x]] == outputs[sigma[p]][x]`` for every input x.
    The iterators are lazy, so counting them holds no permutation."""
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
    output_maps = math.prod(math.factorial(k) for outs in scenario.outputs for k in outs)
    return sum(math.prod(sum(1 for _ in maps) for maps in input_maps) * output_maps
               for _, input_maps in _party_exchanges(scenario))


def _relabelling_perm(scenario, sigma, pis, taus) -> np.ndarray:
    """Flat index permutation ``perm`` with (new vector) = vector[perm].

    New party p takes old party sigma(p)'s data; its input x maps to
    pis[p](x) and, per new input, outputs rename through the matching
    entry of ``taus`` (flattened party-major by new input)."""
    tau_lookup = {}
    pos = 0
    for p in range(scenario.parties):
        for x_new in range(scenario.inputs_per_party[p]):
            tau_lookup[(p, x_new)] = taus[pos]
            pos += 1
    perm = np.empty(scenario.dimension, dtype=np.intp)
    for old_inputs in scenario.joint_inputs():
        for old_outputs in scenario.joint_outputs(old_inputs):
            new_inputs = [0] * scenario.parties
            new_outputs = [0] * scenario.parties
            for p in range(scenario.parties):
                x_old = old_inputs[sigma[p]]
                x_new = pis[p][x_old]
                new_inputs[p] = x_new
                new_outputs[p] = tau_lookup[(p, x_new)][old_outputs[sigma[p]]]
            src = flat_index(scenario, old_inputs, old_outputs)
            dst = flat_index(scenario, tuple(new_inputs), tuple(new_outputs))
            perm[dst] = src
    return perm


def relabel_functional(functional: BellFunctional, perm: np.ndarray) -> BellFunctional:
    """Apply an index permutation; the deterministic bound is unchanged
    because strategies map onto strategies."""
    return BellFunctional(scenario=functional.scenario,
                          coeffs=functional.coeffs[perm],
                          local_bound=functional.local_bound)


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
    rs = reduced_space(scenario)
    r = rs.dimension
    if r > FACET_DIM_CAP:
        raise SizeCapError(
            f"reduced dimension {r} exceeds the facet enumeration cap of {FACET_DIM_CAP}")

    R = rs.matrix @ strategy_matrix(scenario)  # columns are vertices
    centroid = R.mean(axis=1)
    H = R - centroid[:, None]
    if np.linalg.matrix_rank(H, tol=FACET_ZERO_TOL) != r:
        raise ValidationError("local polytope is not full-dimensional in reduced coordinates")

    rows = [np.append(H[:, i], -1.0) for i in range(count)]
    rays = _double_description(rows, r + 1)

    facets = {}
    for ray in rays:
        a = ray[:-1]
        if float(np.abs(a).max()) <= FACET_ZERO_TOL:
            raise StalledError("facet enumeration produced a degenerate ray")
        full = rs.lift_functional(a)
        canon = canonicalize(BellFunctional(scenario=scenario, coeffs=full))
        key = canon.key()
        if key in facets:
            raise StalledError("facet enumeration produced duplicate canonical forms")
        facets[key] = canon
    return tuple(facets[k] for k in sorted(facets))


def _double_description(rows: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Extreme rays of {x: row.x <= 0 for all rows} for a pointed cone.

    Initializes on the first ``dim`` linearly independent rows, whose
    cone is simplicial, then inserts the remaining rows one at a time,
    with the standard combinatorial adjacency test on active sets.
    """
    init_idx: list[int] = []
    for i, row in enumerate(rows):
        candidate = init_idx + [i]
        M = np.array([rows[j] for j in candidate])
        if np.linalg.matrix_rank(M, tol=FACET_ZERO_TOL) == len(candidate):
            init_idx.append(i)
        if len(init_idx) == dim:
            break
    if len(init_idx) < dim:
        raise ValidationError("inequality system does not span the space")

    B0 = np.array([rows[j] for j in init_idx])
    ray_mat = -np.linalg.inv(B0)
    rays = [_normalize_ray(ray_mat[:, j]) for j in range(dim)]
    zero_sets = [frozenset(init_idx) - {init_idx[j]} for j in range(dim)]

    for t, row in enumerate(rows):
        if t in init_idx:
            continue
        vals = [float(row @ ray) for ray in rays]
        keep_rays: list[np.ndarray] = []
        keep_zero: list[frozenset] = []
        neg = [k for k, v in enumerate(vals) if v < -FACET_ZERO_TOL]
        pos = [k for k, v in enumerate(vals) if v > FACET_ZERO_TOL]
        for k, v in enumerate(vals):
            if v > FACET_ZERO_TOL:
                continue
            z = zero_sets[k] | {t} if abs(v) <= FACET_ZERO_TOL else zero_sets[k]
            keep_rays.append(rays[k])
            keep_zero.append(z)
        for u in pos:
            for v in neg:
                common = zero_sets[u] & zero_sets[v]
                if not _adjacent(common, u, v, zero_sets):
                    continue
                w = vals[u] * rays[v] - vals[v] * rays[u]
                keep_rays.append(_normalize_ray(w))
                keep_zero.append(common | {t})
        rays = keep_rays
        zero_sets = keep_zero
    return rays


def _adjacent(common: frozenset, u: int, v: int, zero_sets: list[frozenset]) -> bool:
    for k, z in enumerate(zero_sets):
        if k != u and k != v and common <= z:
            return False
    return True


def _normalize_ray(ray: np.ndarray) -> np.ndarray:
    peak = float(np.abs(ray).max())
    if peak <= 0.0:
        raise StalledError("zero ray produced during facet enumeration")
    return ray / peak
