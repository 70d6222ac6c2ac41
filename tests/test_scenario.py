"""Indexing, validation, mixing and signalling checks for the core types."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellbox import (
    Behavior,
    Scenario,
    Verdict,
    classify,
    flat_index,
    mix,
    named_behavior,
    no_signalling_defect,
    validate_behavior,
)
from bellbox.documents import emit_document, parse_document_text
from bellbox.errors import ValidationError
from bellbox.scenario import _blocks

CHSH = Scenario.uniform(2, 2, 2)


# -- scenario shape ---------------------------------------------------------

def test_uniform_scenario_shape():
    assert CHSH.parties == 2
    assert CHSH.joint_input_count == 4
    assert CHSH.dimension == 16


def test_ragged_scenario_dimension():
    # Alice: 2 inputs with 2 and 3 outputs; Bob: 1 input with 2 outputs
    sc = Scenario(inputs_per_party=(2, 1), outputs=((2, 3), (2,)))
    assert sc.dimension == 2 * 2 + 3 * 2


def test_length_is_refused_before_any_block_is_laid_out(monkeypatch):
    """Three parties with 1,000 inputs each have 10^9 joint inputs.  The
    table length is the product of each party's summed output counts,
    so a table of the wrong length is refused without the block layout,
    which would enumerate every joint input."""
    import bellbox.scenario as scenario

    def unreachable(sc):
        raise AssertionError("block layout built before the length check")

    monkeypatch.setattr(scenario, "_blocks", unreachable)
    sc = Scenario(inputs_per_party=(1000,) * 3, outputs=((2,) * 1000,) * 3)
    assert sc.dimension == 2000 ** 3
    with pytest.raises(ValidationError, match="behavior has length 0, scenario dimension"):
        validate_behavior(sc, [])


def test_block_offsets_are_built_once_per_scenario_value():
    """Every document builds its own Scenario; equal ones share one block
    layout, built once."""
    inputs, outputs = (2, 3, 1), ((2, 3), (4, 1, 2), (3,))
    _blocks.cache_clear()
    first = Scenario(inputs_per_party=inputs, outputs=outputs)
    second = Scenario(inputs_per_party=inputs, outputs=outputs)
    assert first is not second and first == second
    # block sizes, joint inputs in order: 2*4*3, 2*1*3, 2*2*3, 3*4*3, ...
    sizes = [math.prod(o) for o in itertools.product(
        *([outputs[p][x] for x in range(inputs[p])] for p in range(3)))]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).tolist()
    assert first.dimension == second.dimension == offsets[-1] == (2 + 3) * (4 + 1 + 2) * 3
    for j, joint in enumerate(itertools.product(*(range(n) for n in inputs))):
        assert second.block_slice(joint) == slice(offsets[j], offsets[j + 1])
        assert first.block_offset(joint) == offsets[j]
        assert type(first.block_offset(joint)) is type(second.block_slice(joint).stop) is int
    info = _blocks.cache_info()
    assert (info.misses, info.currsize) == (1, 1) and info.hits > 0


def test_scenario_rejects_empty_alphabets():
    with pytest.raises(ValidationError):
        Scenario(inputs_per_party=(2, 0), outputs=((2, 2), ()))
    with pytest.raises(ValidationError):
        Scenario(inputs_per_party=(1,), outputs=((0,),))
    with pytest.raises(ValidationError):
        Scenario(inputs_per_party=(2,), outputs=((2,),))  # row length mismatch


@pytest.mark.parametrize("inputs, outputs", [
    ((2, 2), ((2.0, 2), (2, 2))),
    (("a", 2), ((2, 2), (2, 2))),
    ((True, 2), ((2, 2), (2, 2))),
    ((2, 2), ((2, 2), (2, np.True_))),
    ((2, 2), None),
    ((2, 2), (2, 2)),
    (None, ((2, 2), (2, 2))),
], ids=["float-output", "string-input", "bool-input", "numpy-bool-output", "outputs-none",
        "rows-numbers", "inputs-none"])
def test_a_count_that_is_not_an_integer_is_refused(inputs, outputs):
    """A float count compared and hashed equal to CHSH's, so the block
    cache, keyed by value, kept its float alphabet under CHSH's key and
    every later CHSH table failed; a string count, or an outputs table
    that is no list, raised TypeError."""
    with pytest.raises(ValidationError, match="are not all integers"):
        named_behavior("uniform", Scenario(inputs_per_party=inputs, outputs=outputs))
    assert classify(named_behavior("pr_box")).verdict is Verdict.WEAKLY_NONLOCAL


def test_counts_and_choices_may_come_from_an_iterator():
    """The bool check consumed an iterator, which then read as no counts."""
    sc = Scenario(inputs_per_party=iter((2, 2)), outputs=iter((iter((2, 2)), (2, 2))))
    assert sc == CHSH
    assert sc.joint_input_index(iter((1, 0))) == 2


def test_numpy_integer_counts_are_kept_as_ints():
    sc = Scenario(inputs_per_party=(np.int64(2), 2), outputs=((np.int64(2), 2), (2, 2)))
    assert sc == CHSH and hash(sc) == hash(CHSH)
    assert all(type(n) is int for n in (*sc.inputs_per_party, *sc.outputs[0]))
    assert parse_document_text(emit_document(sc)) == CHSH


# -- flat indexing ----------------------------------------------------------

def test_flat_index_corner_values():
    assert flat_index(CHSH, (0, 0), (0, 0)) == 0
    assert flat_index(CHSH, (1, 1), (1, 1)) == 15


def test_flat_index_interior_value():
    # block (0,1) sits after one 4-entry block; within it, outputs (1,0)
    # come after (0,0) and (0,1)
    assert flat_index(CHSH, (0, 1), (1, 0)) == 6


def test_flat_index_ragged_value():
    sc = Scenario(inputs_per_party=(2, 1), outputs=((2, 3), (2,)))
    # second block starts at 4; outputs (2,1) are entry 2*2+1 within it
    assert flat_index(sc, (1, 0), (2, 1)) == 9


@pytest.mark.parametrize("sc", [
    CHSH,
    Scenario.uniform(3, 2, 2),
    Scenario.uniform(2, 3, 2),
    Scenario(inputs_per_party=(2, 1), outputs=((2, 3), (2,))),
    Scenario(inputs_per_party=(1, 2, 1), outputs=((3,), (2, 4), (2,))),
])
def test_flat_index_is_a_lexicographic_bijection(sc):
    seen = []
    for inputs in itertools.product(*[range(n) for n in sc.inputs_per_party]):
        for outputs in itertools.product(*[range(k) for k in sc.outputs_for(inputs)]):
            seen.append(flat_index(sc, inputs, outputs))
    assert seen == list(range(sc.dimension))


def test_flat_index_rejects_out_of_range():
    with pytest.raises(ValidationError, match="party 1"):
        flat_index(CHSH, (0, 2), (0, 0))
    with pytest.raises(ValidationError, match="party 0"):
        flat_index(CHSH, (0, 0), (2, 0))


@pytest.mark.parametrize("inputs, outputs", [
    ((0, 0), (0.5, 0)),
    ((1.0, 0), (0, 0)),
    ((0, 0), (0, np.float64(1.0))),
    ((0, "1"), (0, 0)),
])
def test_a_choice_that_is_not_an_integer_is_refused(inputs, outputs):
    """A fractional output once read as a fractional position, and a
    float input raised a bare TypeError; the table lookup too."""
    with pytest.raises(ValidationError, match="not all integers"):
        flat_index(CHSH, inputs, outputs)
    with pytest.raises(ValidationError, match="not all integers"):
        named_behavior("pr_box").prob(inputs, outputs)


PR_BOX = named_behavior("pr_box")
JOINT_INPUT_READERS = {
    "flat-index": lambda inputs: flat_index(CHSH, inputs, (0, 0)),
    "index": CHSH.joint_input_index,
    "outputs-for": CHSH.outputs_for,
    "joint-outputs": CHSH.joint_outputs,
    "block-size": CHSH.block_size,
    "block-offset": CHSH.block_offset,
    "block-slice": CHSH.block_slice,
    "block": PR_BOX.block,
}


@pytest.mark.parametrize("reader", JOINT_INPUT_READERS.values(), ids=JOINT_INPUT_READERS.keys())
@pytest.mark.parametrize(("inputs", "message"), [
    ((1,), "expected 2 input choices, got 1"),
    ((0, 0, 0), "expected 2 input choices, got 3"),
    ((-1, 0), r"party 0: input -1 out of range \[0, 2\)"),
    ((2, 0), r"party 0: input 2 out of range \[0, 2\)"),
    ((0, 5), r"party 1: input 5 out of range \[0, 2\)"),
    ((0.5, 0), "not all integers"),
    ((True, 0), "not all integers"),
    (None, "not all integers"),
], ids=["short", "long", "negative", "past-the-end", "second-party", "float", "bool", "none"])
def test_every_joint_input_is_read_by_one_checked_reader(reader, inputs, message):
    """``pr.block((1,))`` returned block (0, 1), ``block((-1, 0))``
    block (1, 1) and ``block((2, 0))`` raised IndexError, and
    ``outputs_for`` and ``block_size`` read a short input as a one-party
    one; flat_index checked its inputs by a loop of its own."""
    with pytest.raises(ValidationError, match=message):
        reader(inputs)


def test_joint_input_readers_agree_with_the_layout():
    layout = _blocks(RAGGED)
    for j, joint in enumerate(RAGGED.joint_inputs()):
        assert RAGGED.joint_input_index(joint) == j
        assert RAGGED.block_slice(joint) == slice(*layout.offsets[j:j + 2].tolist())
        assert RAGGED.outputs_for(joint) == tuple(layout.counts[:, j].tolist())
        assert RAGGED.block_size(joint) == math.prod(RAGGED.outputs_for(joint))
        assert list(RAGGED.joint_outputs(joint)) == list(
            itertools.product(*map(range, RAGGED.outputs_for(joint))))
        assert type(RAGGED.joint_input_index(np.array(joint))) is int


def test_flat_index_takes_numpy_integers():
    position = flat_index(CHSH, (np.int64(0), np.int8(1)), (np.intp(1), np.uint8(0)))
    assert type(position) is int and position == 6
    wide = Scenario.uniform(2, 200, 2)  # joint inputs past what an int8 holds
    assert flat_index(wide, (np.int8(100), np.int8(100)), (np.int8(1), np.int8(1))) == 4 * 20100 + 3


# -- behavior validation ----------------------------------------------------

def test_validate_accepts_uniform_table():
    raw = np.full(16, 0.25)
    beh = validate_behavior(CHSH, raw)
    assert isinstance(beh, Behavior)
    np.testing.assert_array_equal(beh.probs, raw)


def test_validate_refuses_a_nan_tolerance():
    """A NaN tol fails every "beyond tol" comparison: every block of fives
    would be rescaled to a distribution."""
    with pytest.raises(ValidationError, match="positive and finite"):
        validate_behavior(CHSH, np.full(16, 5.0), tol=float("nan"))


def test_validate_rejects_wrong_length():
    with pytest.raises(ValidationError, match="16"):
        validate_behavior(CHSH, np.full(15, 0.25))


@pytest.mark.parametrize("raw", ["abc", [[0.25] * 4] * 3 + [[0.5] * 2]], ids=["string", "ragged"])
def test_validate_refuses_a_table_that_is_not_numbers(raw):
    """numpy's own ValueError came through untyped."""
    with pytest.raises(ValidationError, match="behavior entries are not a table of numbers"):
        validate_behavior(CHSH, raw)


def test_validate_rejects_bad_block_sum_naming_the_block():
    raw = np.full(16, 0.25)
    raw[4:8] = 0.225  # block for inputs (0, 1) sums to 0.9
    with pytest.raises(ValidationError, match=r"\(0, 1\)"):
        validate_behavior(CHSH, raw)


def test_validate_rejects_negative_entry_beyond_tolerance():
    raw = np.full(16, 0.25)
    raw[0] = -1e-3
    raw[1] = 0.25 + 1e-3
    with pytest.raises(ValidationError, match=r"\(0, 0\)"):
        validate_behavior(CHSH, raw)


RAGGED = Scenario(inputs_per_party=(2, 3), outputs=((2, 3), (4, 1, 3)))


def reference_validation(scenario, raw, tol):
    """Block by block, in joint-input order: refuse an entry below -tol,
    clip the rest at 0, refuse a sum more than tol from 1, and rescale a
    block whose sum is more than 4 eps x its size from 1."""
    vec = np.array(raw, dtype=np.float64)
    for joint in scenario.joint_inputs():
        sl = scenario.block_slice(joint)
        block = vec[sl]
        if block.min() < -tol:
            return f"input block {joint}: negative probability {block.min():.3e} below -tol"
        block = np.where(block < 0.0, 0.0, block)
        s = float(block.sum())
        if abs(s - 1.0) > tol:
            return f"input block {joint}: probabilities sum to {s!r}, expected 1 within {tol}"
        if abs(s - 1.0) > 4.0 * np.finfo(float).eps * block.size:
            block = block / s
        vec[sl] = block
    return vec


@settings(deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 1e-12, 1e-10, 1e-9, 1e-6]),
       tol=st.sampled_from([1e-9, 1e-6]))
def test_validate_matches_the_block_by_block_reference_on_a_ragged_scenario(seed, noise, tol):
    """Blocks of 2 to 12 entries: the result is bitwise the per-block
    reference's, and a refusal names the same first failing block with
    the same message, negative entries before sums."""
    assert len({RAGGED.block_size(j) for j in RAGGED.joint_inputs()}) > 3
    rng = np.random.default_rng(seed)
    raw = rng.random(RAGGED.dimension)
    for joint in RAGGED.joint_inputs():
        raw[RAGGED.block_slice(joint)] /= raw[RAGGED.block_slice(joint)].sum()
    raw += noise * rng.normal(size=raw.size)
    expect = reference_validation(RAGGED, raw, tol)
    if isinstance(expect, str):
        with pytest.raises(ValidationError) as info:
            validate_behavior(RAGGED, raw, tol=tol)
        assert str(info.value) == expect
    else:
        assert validate_behavior(RAGGED, raw, tol=tol).probs.tobytes() == expect.tobytes()


def test_validate_reports_the_first_failing_ragged_block():
    """A later block's negative entry does not hide an earlier block's bad
    sum, and within one block the negative entry is reported first."""
    raw = named_behavior("uniform", RAGGED).probs.copy()
    late = RAGGED.block_slice((1, 2))
    raw[late.start] = -1e-3
    raw[RAGGED.block_slice((0, 1))] *= 1.1
    with pytest.raises(ValidationError, match=r"input block \(0, 1\): probabilities sum"):
        validate_behavior(RAGGED, raw)
    raw[RAGGED.block_slice((0, 1))] /= 1.1
    raw[late.start + 1] += 1.0
    with pytest.raises(ValidationError, match=r"input block \(1, 2\): negative probability"):
        validate_behavior(RAGGED, raw)


def test_validate_clips_negative_noise_and_renormalizes():
    raw = np.full(16, 0.25)
    raw[0:4] = [-1e-12, 0.25, 0.375, 0.375]  # sums to 1 - 1e-12
    beh = validate_behavior(CHSH, raw)
    assert beh.probs[0] == 0.0
    for inputs in CHSH.joint_inputs():
        assert abs(beh.block(inputs).sum() - 1.0) < 1e-12


def test_validate_is_idempotent():
    rng = np.random.default_rng(7)
    raw = rng.random(16)
    for inputs in CHSH.joint_inputs():
        sl = CHSH.block_slice(inputs)
        raw[sl] /= raw[sl].sum()
    once = validate_behavior(CHSH, raw)
    twice = validate_behavior(CHSH, once.probs)
    np.testing.assert_array_equal(once.probs, twice.probs)


@pytest.mark.parametrize("sc", [
    CHSH,
    Scenario(inputs_per_party=(2, 1), outputs=((2, 3), (2,))),
    Scenario(inputs_per_party=(2, 2), outputs=((2, 3), (3, 2))),
    Scenario(inputs_per_party=(2, 3), outputs=((4, 4), (3, 3, 3))),
])
def test_uniform_equals_the_block_by_block_reference(sc):
    raw = np.zeros(sc.dimension)
    for joint in sc.joint_inputs():
        raw[sc.block_slice(joint)] = 1.0 / sc.block_size(joint)
    assert named_behavior("uniform", sc).probs.tobytes() == validate_behavior(sc, raw).probs.tobytes()


def test_behavior_probs_are_read_only():
    beh = named_behavior("uniform", CHSH)
    with pytest.raises(ValueError):
        beh.probs[0] = 1.0


def test_behavior_prob_lookup():
    beh = named_behavior("pr_box")
    assert beh.prob((1, 1), (0, 1)) == 0.5
    assert beh.prob((1, 1), (0, 0)) == 0.0


# -- deterministic tables built independently of the library ----------------

def deterministic_table(scenario, assignment):
    """Table for a strategy mapping each (party, input) to a fixed output.

    ``assignment[p][x]`` is party p's output on input x.  Built by direct
    enumeration, without the library's indexing helpers.
    """
    probs = np.zeros(scenario.dimension)
    pos = 0
    for inputs in itertools.product(*[range(n) for n in scenario.inputs_per_party]):
        for outputs in itertools.product(*[range(k) for k in scenario.outputs_for(inputs)]):
            if all(assignment[p][x] == o for p, (x, o) in enumerate(zip(inputs, outputs))):
                probs[pos] = 1.0
            pos += 1
    return probs


def all_deterministic_tables(scenario):
    per_party = []
    for p in range(scenario.parties):
        outs = scenario.outputs[p]
        per_party.append(list(itertools.product(*[range(k) for k in outs])))
    for combo in itertools.product(*per_party):
        yield deterministic_table(scenario, combo)


def test_chsh_scenario_has_sixteen_deterministic_tables():
    assert sum(1 for _ in all_deterministic_tables(CHSH)) == 16


# -- mixing -----------------------------------------------------------------

def test_mix_identity():
    beh = named_behavior("pr_box")
    out = mix([(1.0, beh)])
    np.testing.assert_allclose(out.probs, beh.probs, atol=1e-15)


def test_equal_mix_of_all_deterministic_tables_is_uniform():
    tables = [validate_behavior(CHSH, t) for t in all_deterministic_tables(CHSH)]
    out = mix([(1.0 / 16.0, t) for t in tables])
    np.testing.assert_allclose(out.probs, np.full(16, 0.25), atol=1e-12)


def test_mix_rejects_negative_weight():
    beh = named_behavior("uniform", CHSH)
    with pytest.raises(ValidationError, match="weight"):
        mix([(-0.25, beh), (1.25, beh)])


@pytest.mark.parametrize("components", [
    lambda beh: [("a", beh)],
    lambda beh: [beh],
    lambda beh: [(0.5, beh, beh)],
    lambda beh: [(0.5, beh), (0.5, beh.probs)],
], ids=["string-weight", "bare-behavior", "triple", "table-not-behavior"])
def test_mix_refuses_components_that_are_not_number_behavior_pairs(components):
    """A string weight raised numpy's ValueError, a bare behavior
    TypeError, and a table in place of a behavior AttributeError."""
    with pytest.raises(ValidationError, match=r"\(number, behavior\) pairs"):
        mix(components(named_behavior("uniform", CHSH)))


def test_mix_rejects_weights_off_unit_sum():
    beh = named_behavior("uniform", CHSH)
    with pytest.raises(ValidationError, match="sum"):
        mix([(0.5, beh), (0.49, beh)])


def test_mix_rejects_mismatched_scenarios():
    a = named_behavior("uniform", CHSH)
    b = named_behavior("uniform", Scenario.uniform(2, 3, 2))
    with pytest.raises(ValidationError, match="scenario"):
        mix([(0.5, a), (0.5, b)])


# -- no-signalling ----------------------------------------------------------

def test_uniform_has_zero_defect():
    assert no_signalling_defect(named_behavior("uniform", CHSH)).max_defect == 0.0


def test_pr_box_has_zero_defect():
    report = no_signalling_defect(named_behavior("pr_box"))
    assert report.max_defect <= 1e-15


def test_signalling_demo_has_unit_defect():
    report = no_signalling_defect(named_behavior("signalling_demo"))
    assert report.max_defect == pytest.approx(1.0)
    # the receiver's outcome tracks the remote input, so the receiver's
    # marginal is the one that moves
    assert report.worst_party == 0


def test_deterministic_tables_have_zero_defect():
    for t in all_deterministic_tables(CHSH):
        beh = validate_behavior(CHSH, t)
        assert no_signalling_defect(beh).max_defect <= 1e-15


def test_single_party_defect_is_zero():
    sc = Scenario.uniform(1, 3, 2)
    beh = named_behavior("uniform", sc)
    assert no_signalling_defect(beh).max_defect == 0.0


def test_named_behavior_unknown_name():
    with pytest.raises(ValidationError, match="unknown"):
        named_behavior("does_not_exist", CHSH)


def test_pr_box_requires_chsh_shape():
    with pytest.raises(ValidationError):
        named_behavior("pr_box", Scenario.uniform(2, 3, 2))


# -- property tests ---------------------------------------------------------

def random_behavior(scenario, rng):
    raw = rng.random(scenario.dimension)
    for inputs in scenario.joint_inputs():
        sl = scenario.block_slice(inputs)
        raw[sl] /= raw[sl].sum()
    return validate_behavior(scenario, raw)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       w=st.floats(0.0, 1.0, allow_nan=False))
def test_mix_preserves_validity(seed, w):
    rng = np.random.default_rng(seed)
    a = random_behavior(CHSH, rng)
    b = random_behavior(CHSH, rng)
    out = mix([(w, a), (1.0 - w, b)])
    assert np.all(out.probs >= 0.0)
    for inputs in CHSH.joint_inputs():
        assert abs(out.block(inputs).sum() - 1.0) < 1e-9


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1),
       w=st.floats(0.0, 1.0, allow_nan=False))
def test_signalling_defect_is_convex(seed, w):
    rng = np.random.default_rng(seed)
    a = random_behavior(CHSH, rng)
    b = random_behavior(CHSH, rng)
    out = mix([(w, a), (1.0 - w, b)])
    bound = (w * no_signalling_defect(a).max_defect
             + (1.0 - w) * no_signalling_defect(b).max_defect)
    assert no_signalling_defect(out).max_defect <= bound + 1e-9
