"""Scenarios and behaviors: the classical interface of a black box.

A scenario fixes how many parties there are, how many inputs each party
can choose, and how many outputs each (party, input) pair can produce.
A behavior is the conditional probability table P(outputs | inputs) laid
out as a flat vector in one fixed lexicographic order that every other
module shares.  A table is checked at a tolerance from ``tolerances``
or from the caller, which ``tolerances.require_tolerance`` vets.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ValidationError
from .tolerances import DEFAULT_TOL, FLOAT_EPS, MIX_WEIGHT_SUM_TOL, require_tolerance


@dataclass(frozen=True)
class Scenario:
    """Numbers of parties, inputs per party, and outputs per (party, input).

    ``outputs[p][x]`` is the output alphabet size of party ``p`` under
    input ``x``; alphabets are allowed to differ between inputs, which is
    what lifted no-click scenarios produce.
    """

    inputs_per_party: tuple[int, ...]
    outputs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.inputs_per_party) < 1:
            raise ValidationError("scenario needs at least one party")
        if len(self.outputs) != len(self.inputs_per_party):
            raise ValidationError(
                f"outputs table has {len(self.outputs)} rows for "
                f"{len(self.inputs_per_party)} parties"
            )
        for p, n_in in enumerate(self.inputs_per_party):
            if n_in < 1:
                raise ValidationError(f"party {p} has input count {n_in}; must be >= 1")
            if len(self.outputs[p]) != n_in:
                raise ValidationError(
                    f"party {p} has {len(self.outputs[p])} output counts for {n_in} inputs"
                )
            for x, n_out in enumerate(self.outputs[p]):
                if n_out < 1:
                    raise ValidationError(
                        f"party {p}, input {x} has output count {n_out}; must be >= 1"
                    )

    @classmethod
    def uniform(cls, parties: int, inputs: int, outputs: int) -> "Scenario":
        """Scenario with the same input and output counts everywhere."""
        return cls(
            inputs_per_party=(inputs,) * parties,
            outputs=((outputs,) * inputs,) * parties,
        )

    @property
    def parties(self) -> int:
        return len(self.inputs_per_party)

    @property
    def joint_input_count(self) -> int:
        return math.prod(self.inputs_per_party)

    def joint_inputs(self):
        """All joint inputs in lexicographic order, party 0 slowest."""
        return itertools.product(*(range(n) for n in self.inputs_per_party))

    def outputs_for(self, inputs: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(self.outputs[p][x] for p, x in enumerate(inputs))

    def joint_outputs(self, inputs: tuple[int, ...]):
        """All joint outputs for one joint input, party 0 slowest."""
        return itertools.product(*(range(n) for n in self.outputs_for(inputs)))

    def block_size(self, inputs: tuple[int, ...]) -> int:
        return math.prod(self.outputs_for(inputs))

    @cached_property
    def _block_offsets(self) -> tuple[int, ...]:
        return _block_offsets_of(self)  # built once per scenario value

    @cached_property
    def dimension(self) -> int:
        """Length of a behavior vector on this scenario: the sum over joint
        inputs of the product of their output counts, which factors into
        the product over parties of each party's summed output counts, so
        no joint input is enumerated and a huge scenario's table length is
        known before any of its blocks are."""
        return math.prod(sum(row) for row in self.outputs)

    def joint_input_index(self, inputs: tuple[int, ...]) -> int:
        idx = 0
        for p, x in enumerate(inputs):
            idx = idx * self.inputs_per_party[p] + x
        return idx

    def block_offset(self, inputs: tuple[int, ...]) -> int:
        return self._block_offsets[self.joint_input_index(inputs)]

    def block_slice(self, inputs: tuple[int, ...]) -> slice:
        j = self.joint_input_index(inputs)
        return slice(self._block_offsets[j], self._block_offsets[j + 1])


@lru_cache(maxsize=32)
def _block_offsets_of(scenario: Scenario) -> tuple[int, ...]:
    """Where each input block starts in the flat table, joint inputs in
    order, and the table's length last.  Cached by value, since every
    document builds its own scenario."""
    offsets = [0]
    for joint in scenario.joint_inputs():
        offsets.append(offsets[-1] + scenario.block_size(joint))
    return tuple(offsets)


def flat_index(scenario: Scenario, inputs: tuple[int, ...], outputs: tuple[int, ...]) -> int:
    """Position of P(outputs | inputs) in the flat behavior vector.

    Layout: joint-input major, joint-output minor, both lexicographic with
    party 0 slowest.  Block sizes vary when output alphabets do, so the
    offset of an input block is the sum of the sizes of all earlier blocks.
    """
    if len(inputs) != scenario.parties or len(outputs) != scenario.parties:
        raise ValidationError(
            f"expected {scenario.parties} input and output choices, "
            f"got {len(inputs)} and {len(outputs)}"
        )
    for p, x in enumerate(inputs):
        if not 0 <= x < scenario.inputs_per_party[p]:
            raise ValidationError(
                f"party {p}: input {x} out of range [0, {scenario.inputs_per_party[p]})"
            )
    out_counts = scenario.outputs_for(inputs)
    for p, a in enumerate(outputs):
        if not 0 <= a < out_counts[p]:
            raise ValidationError(
                f"party {p}: output {a} out of range [0, {out_counts[p]}) under input {inputs[p]}"
            )
    within = 0
    for p, a in enumerate(outputs):
        within = within * out_counts[p] + a
    return scenario.block_offset(inputs) + within


@dataclass(frozen=True, eq=False)
class Behavior:
    """A validated conditional probability table on a scenario.

    ``probs`` is read-only; certificates downstream refer to behaviors by
    value, so instances are never mutated after validation.
    """

    scenario: Scenario
    probs: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        self.probs.setflags(write=False)

    def block(self, inputs: tuple[int, ...]) -> np.ndarray:
        return self.probs[self.scenario.block_slice(inputs)]

    def prob(self, inputs: tuple[int, ...], outputs: tuple[int, ...]) -> float:
        return float(self.probs[flat_index(self.scenario, inputs, outputs)])


@lru_cache(maxsize=32)
def _blocks_by_size(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The size of every input block, the miss from 1 of each block's sum
    below which ``validate_behavior`` leaves the block unscaled (4 eps x
    its size), and the blocks grouped by size: per size, the block
    numbers and a (blocks, size) matrix of the flat indices of their
    entries.  Cached by value, since every document builds its own
    scenario; the arrays are read-only."""
    offsets = np.array(scenario._block_offsets)
    sizes = np.diff(offsets)
    groups = []
    for k in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        blocks = np.flatnonzero(sizes == k)
        groups.append((blocks, offsets[blocks, None] + np.arange(k)))
    float_band = 4.0 * FLOAT_EPS * sizes
    for array in (sizes, float_band, *(a for group in groups for a in group)):
        array.setflags(write=False)
    return sizes, float_band, tuple(groups)


def validate_behavior(scenario: Scenario, raw, tol: float = DEFAULT_TOL) -> Behavior:
    """Check and normalize a flat probability table into a Behavior.

    Entries may undershoot 0 by at most ``tol`` (they are clipped) and each
    input block's sum may deviate from 1 by at most ``tol`` (the block is
    rescaled).  Rescaling is skipped when a block already sums to 1 at float
    precision, which makes validation idempotent and keeps round-trips exact.
    A ``tol`` that is not a positive, finite number is refused.  The
    first block that fails is reported, its negative entries before its
    sum.
    """
    tol = require_tolerance(tol)
    vec = np.array(raw, dtype=np.float64).reshape(-1)
    if vec.shape[0] != scenario.dimension:
        raise ValidationError(
            f"behavior has length {vec.shape[0]}, scenario dimension is {scenario.dimension}"
        )
    if not np.all(np.isfinite(vec)):
        raise ValidationError("behavior contains non-finite entries")
    sizes, float_band, groups = _blocks_by_size(scenario)
    clipped = np.where(vec < 0.0, 0.0, vec)
    sums = np.empty(sizes.size)
    for blocks, index in groups:
        # a row sum of a contiguous copy adds in the order block.sum() does
        sums[blocks] = clipped[index].sum(axis=1)
    miss = np.abs(sums - 1.0)
    if vec.min() < -tol or miss.max() > tol:
        for j, joint in enumerate(scenario.joint_inputs()):
            worst = vec[scenario.block_slice(joint)].min()
            if worst < -tol:
                raise ValidationError(
                    f"input block {joint}: negative probability {worst:.3e} below -tol"
                )
            if miss[j] > tol:
                raise ValidationError(
                    f"input block {joint}: probabilities sum to {float(sums[j])!r}, "
                    f"expected 1 within {tol}"
                )
    rescale = miss > float_band
    if rescale.any():
        clipped /= np.repeat(np.where(rescale, sums, 1.0), sizes)
    return Behavior(scenario=scenario, probs=clipped, tol=tol)


def mix(components, tol: float | None = None) -> Behavior:
    """Convex combination of behaviors on one scenario.

    This is the observable face of a probability distribution over
    underlying transfer functions: the statistics of a stochastic box are
    the mixture of the statistics of its deterministic branches.
    """
    components = list(components)
    if not components:
        raise ValidationError("mix needs at least one component")
    weights = np.array([w for w, _ in components], dtype=np.float64)
    behaviors = [b for _, b in components]
    if np.any(weights < 0.0):
        raise ValidationError("mix weights must be nonnegative")
    if abs(float(weights.sum()) - 1.0) > MIX_WEIGHT_SUM_TOL:
        raise ValidationError(f"mix weights sum to {float(weights.sum())!r}, expected 1")
    scenario = behaviors[0].scenario
    for b in behaviors[1:]:
        if b.scenario != scenario:
            raise ValidationError("mix components live on different scenarios")
    combo = np.zeros(scenario.dimension)
    for w, b in zip(weights, behaviors):
        combo += w * b.probs
    if tol is None:
        tol = max(b.tol for b in behaviors)
    return validate_behavior(scenario, combo, tol=tol)


def marginal_indicator(scenario: Scenario, T: tuple[int, ...], t_inputs: tuple[int, ...],
                       t_outputs: tuple[int, ...], context: tuple[int, ...]) -> np.ndarray:
    """Row whose product with a behavior is the joint marginal of the
    parties in T: P(T's outputs | T's inputs) with the other parties'
    inputs set to ``context`` (in party order) and their outputs summed."""
    inputs = [0] * scenario.parties
    outputs: list = [slice(None)] * scenario.parties
    for p, x, a in zip(T, t_inputs, t_outputs):
        inputs[p] = x
        outputs[p] = a
    others = [p for p in range(scenario.parties) if p not in T]
    for p, x in zip(others, context):
        inputs[p] = x
    inputs = tuple(inputs)
    row = np.zeros(scenario.dimension)
    row[scenario.block_slice(inputs)].reshape(scenario.outputs_for(inputs))[tuple(outputs)] = 1.0
    return row


@dataclass(frozen=True, eq=False)
class MarginalDifferences:
    """The no-signalling conditions of a scenario as rows D, with D p = 0
    exactly when p is no-signalling (Barrett et al., PRA 71, 022101 (2005)).

    Row r is the joint marginal of a proper party subset T at the remote
    context ``labels[r] = (T, T's inputs, T's outputs, context)`` minus
    the same marginal at the base context, every remote input 0.  Rows
    sharing (T, inputs, outputs) are contiguous and ``starts`` holds the
    first row of each such group.  Ordered by subset size, then T, T's
    inputs, T's outputs and context.
    """

    matrix: np.ndarray
    labels: tuple[tuple, ...]
    starts: np.ndarray


@lru_cache(maxsize=32)
def marginal_differences(scenario: Scenario) -> MarginalDifferences:
    """Every marginal-difference row of every proper party subset; read-only."""
    rows, labels, starts = [], [], []
    for size in range(1, scenario.parties):
        for T in itertools.combinations(range(scenario.parties), size):
            contexts = list(itertools.product(
                *(range(n) for p, n in enumerate(scenario.inputs_per_party) if p not in T)))
            if len(contexts) < 2:
                continue
            for t_inputs in itertools.product(*(range(scenario.inputs_per_party[p]) for p in T)):
                for t_outputs in itertools.product(
                        *(range(scenario.outputs[p][x]) for p, x in zip(T, t_inputs))):
                    starts.append(len(rows))
                    base = marginal_indicator(scenario, T, t_inputs, t_outputs, contexts[0])
                    for context in contexts[1:]:
                        rows.append(marginal_indicator(scenario, T, t_inputs, t_outputs, context)
                                    - base)
                        labels.append((T, t_inputs, t_outputs, context))
    matrix = np.array(rows).reshape(len(rows), scenario.dimension)
    starts = np.array(starts, dtype=np.intp)
    matrix.setflags(write=False)
    starts.setflags(write=False)
    return MarginalDifferences(matrix=matrix, labels=tuple(labels), starts=starts)


@dataclass(frozen=True)
class NoSignallingReport:
    """Largest dependence of any proper party subset's joint marginal on
    the remote inputs.

    ``max_defect`` is zero exactly when no party or group of parties
    sees its output statistics move with what the others asked; such
    behaviors cannot be used to transmit anything between the parties.
    ``worst_marginal`` is (party, input, output, (remote inputs A, remote
    inputs B)), the marginal and context pair attaining the defect, the
    first in ``marginal_differences`` order; for a group's joint marginal
    the first three entries are equal-length tuples (parties, their
    inputs, their outputs) and ``worst_party`` is the parties' tuple.
    """

    max_defect: float
    worst_party: int | tuple[int, ...]
    worst_marginal: tuple


_NO_DEFECT = NoSignallingReport(max_defect=0.0, worst_party=0, worst_marginal=(0, 0, 0, ((), ())))


def no_signalling_defect(behavior: Behavior) -> NoSignallingReport:
    """Largest max - min of one joint marginal of a proper party subset
    over the remote contexts, read off the marginal differences D p; the
    first group and the first contexts attaining it name the witness."""
    md = marginal_differences(behavior.scenario)
    if not md.starts.size:
        return _NO_DEFECT
    shifts = md.matrix @ behavior.probs
    # each group's base context has shift 0
    defects = (np.maximum(np.maximum.reduceat(shifts, md.starts), 0.0)
               - np.minimum(np.minimum.reduceat(shifts, md.starts), 0.0))
    g = int(np.argmax(defects))
    if defects[g] <= 0.0:
        return _NO_DEFECT
    first = int(md.starts[g])
    last = int(md.starts[g + 1]) if g + 1 < md.starts.size else len(md.labels)
    T, t_inputs, t_outputs, context = md.labels[first]
    contexts = [(0,) * len(context)] + [md.labels[r][3] for r in range(first, last)]
    group = np.append(0.0, shifts[first:last])
    worst = (T, t_inputs, t_outputs) if len(T) > 1 else (T[0], t_inputs[0], t_outputs[0])
    pair = (contexts[int(np.argmax(group))], contexts[int(np.argmin(group))])
    return NoSignallingReport(max_defect=float(defects[g]), worst_party=worst[0],
                              worst_marginal=worst + (pair,))


_CHSH_SCENARIO = Scenario.uniform(2, 2, 2)


def named_behavior(name: str, scenario: Scenario | None = None, tol: float = DEFAULT_TOL) -> Behavior:
    """Catalog of reference behaviors.

    ``uniform`` accepts any scenario; ``pr_box`` and ``signalling_demo``
    are fixed to the 2-party, 2-input, 2-output scenario.  The PR box puts
    weight 1/2 on each output pair with a XOR b = x AND y; the signalling
    demo deterministically sets party 0's output to party 1's input.
    """
    if name == "uniform":
        sc = scenario if scenario is not None else _CHSH_SCENARIO
        vec = np.zeros(sc.dimension)
        for joint in sc.joint_inputs():
            sl = sc.block_slice(joint)
            vec[sl] = 1.0 / sc.block_size(joint)
        return validate_behavior(sc, vec, tol=tol)
    if scenario is not None and scenario != _CHSH_SCENARIO:
        raise ValidationError(f"behavior {name!r} is only defined on the (2,2,2) scenario")
    sc = _CHSH_SCENARIO
    vec = np.zeros(sc.dimension)
    if name == "pr_box":
        for x, y in sc.joint_inputs():
            for a, b in sc.joint_outputs((x, y)):
                if (a ^ b) == (x & y):
                    vec[flat_index(sc, (x, y), (a, b))] = 0.5
    elif name == "signalling_demo":
        for x, y in sc.joint_inputs():
            vec[flat_index(sc, (x, y), (y, 0))] = 1.0
    else:
        raise ValidationError(f"unknown behavior name {name!r}")
    return validate_behavior(sc, vec, tol=tol)
