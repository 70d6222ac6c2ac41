"""Scenarios and behaviors: the classical interface of a black box.

A scenario fixes how many parties there are, how many inputs each party
can choose, and how many outputs each (party, input) pair can produce.
A behavior is the conditional probability table P(outputs | inputs) laid
out as a flat vector in one fixed lexicographic order that every other
module shares, and checked at a tolerance ``tolerances.require_tolerance``
vets.  That layout is worked out here only, once per scenario, per
input block (``_blocks``) and per entry (``_layout``), and ``flat_index``
has one bulk form (``_entries``), so code that maps whole tables reads
positions in bulk and lays out no table itself.
One marginal index per scenario sums the table into the joint marginals
of every party subset: a subset's cells are positions in the subset's
own table, in the layout ``probs`` uses, times its remote contexts.  The
no-signalling check, the gauge, the reduced coordinates and the
marginal shift witness all read it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .lp import check_entries
from .tolerances import DEFAULT_TOL, FLOAT_EPS, MIX_WEIGHT_SUM_TOL, require_tolerance


def _counts(values, what: str, read=operator.index) -> tuple:
    """The one reader of a caller's counts: ``values`` as a tuple, each
    read by ``read`` (``operator.index`` by default, so numpy integers
    are counts); a bool, a float, a string, or ``values`` that are no
    list, is refused."""
    try:
        items = tuple(values)  # read once: an iterator is consumed
        if bool not in map(type, items):  # a bool is an int to operator.index
            return tuple(map(read, items))
    except TypeError:
        pass
    raise ValidationError(f"{what} {values!r} are not all integers")


def _numbers(raw, what: str) -> np.ndarray:
    """``raw`` as a flat float64 array; a table that numpy cannot read as
    numbers (a string, a ragged list) is refused."""
    try:
        return np.asarray(raw, dtype=np.float64).reshape(-1)
    except (TypeError, ValueError):
        raise ValidationError(f"{what} are not a table of numbers") from None


@dataclass(frozen=True)
class Scenario:
    """Numbers of parties, inputs per party, and outputs per (party, input).

    ``outputs[p][x]`` is the output alphabet size of party ``p`` under
    input ``x``; alphabets are allowed to differ between inputs, which is
    what lifted no-click scenarios produce.  Counts are read as
    ``operator.index`` reads them (numpy integers are) and kept as
    tuples of ints; a bool, a float, a string or a table that is no list
    of lists is refused, as a document's parser refuses one.  Each
    method that takes a joint input reads it by ``joint_input_index``.
    """

    inputs_per_party: tuple[int, ...]
    outputs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs_per_party",
                           _counts(self.inputs_per_party, "input counts"))
        object.__setattr__(self, "outputs", _counts(
            self.outputs, "output counts", lambda row: _counts(row, "output counts")))
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
        return tuple(_blocks(self).counts[:, self.joint_input_index(inputs)].tolist())

    def joint_outputs(self, inputs: tuple[int, ...]):
        """All joint outputs for one joint input, party 0 slowest."""
        return itertools.product(*map(range, self.outputs_for(inputs)))

    def block_size(self, inputs: tuple[int, ...]) -> int:
        return int(_blocks(self).sizes[self.joint_input_index(inputs)])

    @cached_property
    def dimension(self) -> int:
        """Length of a behavior vector on this scenario: the sum over joint
        inputs of the product of their output counts, which factors into
        the product over parties of each party's summed output counts, so
        no joint input is enumerated and a huge scenario's table length is
        known before any of its blocks are."""
        return math.prod(sum(row) for row in self.outputs)

    def joint_input_index(self, inputs: tuple[int, ...]) -> int:
        """The block number of a joint input, in ``joint_inputs`` order,
        read by ``_counts``; a wrong length or an out-of-range choice is
        refused."""
        choices = _counts(inputs, "input choices")
        if len(choices) != self.parties:
            raise ValidationError(f"expected {self.parties} input choices, got {len(choices)}")
        for p, (x, n) in enumerate(zip(choices, self.inputs_per_party)):
            if not 0 <= x < n:
                raise ValidationError(f"party {p}: input {x} out of range [0, {n})")
        return int(np.ravel_multi_index(choices, self.inputs_per_party))

    def block_offset(self, inputs: tuple[int, ...]) -> int:
        return int(_blocks(self).offsets[self.joint_input_index(inputs)])

    def block_slice(self, inputs: tuple[int, ...]) -> slice:
        j, offsets = self.joint_input_index(inputs), _blocks(self).offsets
        return slice(int(offsets[j]), int(offsets[j + 1]))


class _Blocks(NamedTuple):
    """A scenario's input blocks, joint inputs in order; read-only."""

    inputs: np.ndarray  # each block's inputs, (parties, blocks)
    counts: np.ndarray  # each block's output counts, (parties, blocks)
    sizes: np.ndarray  # each block's entry count
    offsets: np.ndarray  # where each block starts in the flat table, its length last
    groups: tuple  # per block size: the block numbers and their entries, (blocks, size)
    alphabets: tuple[np.ndarray, ...]  # each party's output counts by input
    float_band: np.ndarray  # each block's sum may miss 1 by this and stay unscaled: 4 eps x size


@lru_cache(maxsize=32)
def _blocks(sc: Scenario) -> _Blocks:
    """The table's block tier, the one place block positions are worked
    out.  Cached by value, since every document builds its own scenario."""
    alphabets = tuple(np.array(row) for row in sc.outputs)
    inputs = np.array(np.unravel_index(np.arange(sc.joint_input_count), sc.inputs_per_party))
    counts = np.array([alphabets[p][inputs[p]] for p in range(sc.parties)])
    sizes = counts.prod(axis=0)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    groups = []
    for k in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        blocks = np.flatnonzero(sizes == k)
        groups.append((blocks, offsets[blocks, None] + np.arange(k)))
    float_band = 4.0 * FLOAT_EPS * sizes
    for array in (inputs, counts, sizes, offsets, float_band, *alphabets,
                  *(a for g in groups for a in g)):
        array.setflags(write=False)
    return _Blocks(inputs, counts, sizes, offsets, tuple(groups), alphabets, float_band)


def flat_index(scenario: Scenario, inputs: tuple[int, ...], outputs: tuple[int, ...]) -> int:
    """Position of P(outputs | inputs) in the flat behavior vector.

    Layout: joint-input major, joint-output minor, both lexicographic with
    party 0 slowest.  Block sizes vary when output alphabets do, so the
    offset of an input block is the sum of the sizes of all earlier blocks.
    The joint input is read by ``Scenario.joint_input_index``; an output
    choice that is not an integer (numpy integers are) or out of range is
    refused.
    """
    j = scenario.joint_input_index(inputs)
    layout = _blocks(scenario)
    outputs = _counts(outputs, "output choices")
    if len(outputs) != scenario.parties:
        raise ValidationError(f"expected {scenario.parties} output choices, got {len(outputs)}")
    for p, (a, k) in enumerate(zip(outputs, layout.counts[:, j].tolist())):
        if not 0 <= a < k:
            raise ValidationError(
                f"party {p}: output {a} out of range [0, {k}) under input {layout.inputs[p, j]}")
    return int(layout.offsets[j] + np.ravel_multi_index(outputs, layout.counts[:, j]))


def _entries(scenario: Scenario, inputs, outputs):
    """``flat_index`` in bulk and unchecked: the positions of
    P(outputs | inputs) for choices given party by party (an iterable of
    ints or arrays each, all broadcast together, so a caller can gather
    one party at a time).  No choices give position 0."""
    layout = _blocks(scenario)
    joint = within = 0
    for p, (x, a) in enumerate(zip(inputs, outputs)):
        if p == 0:
            joint, within = x + 0, a + 0  # copies, so that the steps below can work in place
        else:  # in place: a wide table's steps allocate no new arrays
            joint *= scenario.inputs_per_party[p]
            joint += x
            within *= layout.alphabets[p][x]
            within += a
    return layout.offsets[joint] + within


@lru_cache(maxsize=32)
def _layout(sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's input block, and its outputs, (parties, dimension),
    from ``_blocks``.  Cached by value; read-only."""
    layout = _blocks(sc)
    blocks = np.repeat(np.arange(layout.sizes.size), layout.sizes)
    outputs = np.empty((sc.parties, sc.dimension), dtype=np.intp)
    within = np.arange(sc.dimension) - layout.offsets[blocks]
    for p in reversed(range(sc.parties)):  # the last party's output varies fastest
        within, outputs[p] = np.divmod(within, layout.counts[p, blocks])
    for array in (blocks, outputs):
        array.setflags(write=False)
    return blocks, outputs


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
    vec = _numbers(raw, "behavior entries")
    if vec.shape[0] != scenario.dimension:
        raise ValidationError(
            f"behavior has length {vec.shape[0]}, scenario dimension is {scenario.dimension}"
        )
    if not np.all(np.isfinite(vec)):
        raise ValidationError("behavior contains non-finite entries")
    layout = _blocks(scenario)
    clipped = np.where(vec < 0.0, 0.0, vec)
    sums = np.empty(layout.sizes.size)
    for blocks, index in layout.groups:
        # a row sum of a contiguous copy adds in the order block.sum() does
        sums[blocks] = clipped[index].sum(axis=1)
    miss = np.abs(sums - 1.0)
    if vec.min() < -tol or miss.max() > tol:
        worst = np.minimum.reduceat(vec, layout.offsets[:-1])
        j = int(np.argmax((worst < -tol) | (miss > tol)))
        joint = tuple(layout.inputs[:, j].tolist())
        if worst[j] < -tol:
            raise ValidationError(
                f"input block {joint}: negative probability {worst[j]:.3e} below -tol"
            )
        raise ValidationError(
            f"input block {joint}: probabilities sum to {float(sums[j])!r}, "
            f"expected 1 within {tol}"
        )
    rescale = miss > layout.float_band
    if rescale.any():
        clipped /= np.repeat(np.where(rescale, sums, 1.0), layout.sizes)
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
    try:
        weights = np.array([w for w, _ in components], dtype=np.float64)
        behaviors = [b for _, b in components if isinstance(b, Behavior)]
    except (TypeError, ValueError):
        behaviors = []
    if len(behaviors) != len(components):
        raise ValidationError("mix components must be (number, behavior) pairs")
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


_KEPT_CELLS = 2**16  # cell entries a marginal index keeps, 512 KiB: every subset up to (5,2,2)


@dataclass(frozen=True, eq=False)
class _MarginalIndex:
    """Per party subset T, by size and then ``itertools.combinations``
    order, the cells (T's inputs, T's outputs, remote inputs) whose
    entries sum to T's joint marginal at that remote context (Barrett et
    al., PRA 71, 022101 (2005)).  Subset k's cell ``g * contexts[k] + c``
    is its remote inputs' c-th context, in lexicographic order, at
    position g of T's own table ``tables[k]``, in the layout ``probs``
    uses; the empty subset's table is a one-entry scenario whose party
    no cell names.  A subset's cells are built from the table's layout
    when asked for, one party at a time, and kept for the next scan
    while the index keeps at most ``_KEPT_CELLS`` of them, so a
    many-party table's scan holds one subset's cells at a time."""

    scenario: Scenario
    subsets: tuple[tuple[int, ...], ...]
    tables: tuple[Scenario, ...]
    contexts: tuple[int, ...]

    @cached_property
    def kept(self) -> dict[int, np.ndarray]:
        """Built cells by subset, read-only, kept for reuse."""
        return {}

    def remote(self, k: int) -> tuple[list[int], list[int]]:
        """The parties outside the k-th subset and their input counts."""
        others = [p for p in range(self.scenario.parties) if p not in self.subsets[k]]
        return others, [self.scenario.inputs_per_party[p] for p in others]

    def cells(self, k: int) -> np.ndarray:
        """Every entry's cell for the k-th subset."""
        if k in self.kept:
            return self.kept[k]
        T, (remote, dims) = self.subsets[k], self.remote(k)
        layout, outputs = _blocks(self.scenario), _layout(self.scenario)[1]
        inputs, sizes = layout.inputs, layout.sizes  # a block's inputs repeat over its entries
        positions = _entries(self.tables[k], (np.repeat(inputs[p], sizes) for p in T),
                             (outputs[p] for p in T))
        context = np.repeat(np.ravel_multi_index(inputs[remote], dims), sizes) if remote else 0
        cells = positions * self.contexts[k] + context
        cells.setflags(write=False)
        if (len(self.kept) + 1) * self.scenario.dimension <= _KEPT_CELLS:
            self.kept[k] = cells
        return cells

    def rows(self, k: int, cells) -> np.ndarray:
        """A 0/1 row over the table for each given cell of the k-th subset."""
        return (self.cells(k) == np.reshape(cells, (-1, 1))) * 1.0

    def key(self, k: int, cell: int) -> tuple[tuple[int, ...], ...]:
        """(T's inputs, T's outputs, remote inputs) of the k-th subset's
        cell; ``cell`` maps it back."""
        n, (position, context) = len(self.subsets[k]), divmod(int(cell), self.contexts[k])
        (blocks, outputs), inputs = _layout(self.tables[k]), _blocks(self.tables[k]).inputs
        return (tuple(inputs[:n, blocks[position]].tolist()),
                tuple(outputs[:n, position].tolist()),
                tuple(int(x) for x in np.unravel_index(context, self.remote(k)[1])))

    def cell(self, k: int, key: tuple) -> int:
        """The k-th subset's cell at ``key``."""
        t_inputs, t_outputs, context = key
        position = _entries(self.tables[k], t_inputs, t_outputs)
        return int(position * self.contexts[k] + np.ravel_multi_index(context, self.remote(k)[1]))


_ONE_ENTRY = Scenario(inputs_per_party=(1,), outputs=((1,),))


@lru_cache(maxsize=32)
def _marginal_index(sc: Scenario) -> _MarginalIndex:
    """The scenario's marginal index, cached by value."""
    subsets = [T for n in range(sc.parties + 1)
               for T in itertools.combinations(range(sc.parties), n)]
    tables = [Scenario(tuple(sc.inputs_per_party[p] for p in T), tuple(sc.outputs[p] for p in T))
              if T else _ONE_ENTRY for T in subsets]
    return _MarginalIndex(sc, tuple(subsets), tuple(tables),
                          tuple(sc.joint_input_count // t.joint_input_count for t in tables))


@dataclass(frozen=True)
class NoSignallingReport:
    """Largest dependence of any proper party subset's joint marginal on
    the remote inputs.

    ``max_defect`` is zero exactly when no party or group of parties
    sees its output statistics move with what the others asked; such
    behaviors cannot be used to transmit anything between the parties.
    ``worst_marginal`` is (party, input, output, (remote inputs A, remote
    inputs B)), the marginal and context pair attaining the defect, the
    first in the marginal index's order; for a group's joint marginal
    the first three entries are equal-length tuples (parties, their
    inputs, their outputs) and ``worst_party`` is the parties' tuple.
    """

    max_defect: float
    worst_party: int | tuple[int, ...]
    worst_marginal: tuple


_NO_DEFECT = NoSignallingReport(max_defect=0.0, worst_party=0, worst_marginal=(0, 0, 0, ((), ())))


def no_signalling_defect(behavior: Behavior) -> NoSignallingReport:
    """Largest max - min of one joint marginal of a proper party subset
    over the remote contexts, summed per marginal index cell by
    ``np.bincount``, one subset's cells at a time; the first group
    attaining it, at its first contexts of max and min, names the
    witness.  Proper subsets with two or more
    remote contexts times the table's length past ``DIMENSION_CAP ** 2``
    are refused before any cell is built."""
    sc = behavior.scenario
    index = _marginal_index(sc)
    scanned = [k for k, T in enumerate(index.subsets) if T and index.contexts[k] > 1]
    check_entries("no-signalling scan", len(scanned), sc.dimension)
    best, worst = 0.0, None
    for k in scanned:
        sums = np.bincount(index.cells(k), weights=behavior.probs).reshape(-1, index.contexts[k])
        defects = np.ptp(sums, axis=1)
        g = int(np.argmax(defects))
        if defects[g] > best:
            best, worst = float(defects[g]), (k, g * index.contexts[k], sums[g])
    if worst is None:
        return _NO_DEFECT
    k, first, sums = worst
    T = index.subsets[k]
    x, a, hi = index.key(k, first + int(np.argmax(sums)))
    lo = index.key(k, first + int(np.argmin(sums)))[2]
    named = (T, x, a) if len(T) > 1 else (T[0], x[0], a[0])
    return NoSignallingReport(max_defect=best, worst_party=named[0],
                              worst_marginal=named + ((hi, lo),))


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
        sizes = _blocks(sc).sizes
        return validate_behavior(sc, np.repeat(1.0 / sizes, sizes), tol=tol)
    if scenario is not None and scenario != _CHSH_SCENARIO:
        raise ValidationError(f"behavior {name!r} is only defined on the (2,2,2) scenario")
    sc = _CHSH_SCENARIO
    blocks, (a, b) = _layout(sc)
    x, y = _blocks(sc).inputs[:, blocks]
    if name == "pr_box":
        vec = np.where((a ^ b) == (x & y), 0.5, 0.0)
    elif name == "signalling_demo":
        vec = np.where((a == y) & (b == 0), 1.0, 0.0)
    else:
        raise ValidationError(f"unknown behavior name {name!r}")
    return validate_behavior(sc, vec, tol=tol)
