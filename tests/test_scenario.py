"""Indexing, validation, mixing and signalling checks for the core types."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellbox import (
    Behavior,
    Scenario,
    flat_index,
    mix,
    named_behavior,
    no_signalling_defect,
    validate_behavior,
)
from bellbox.errors import ValidationError
from bellbox.scenario import _block_offsets_of

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
    so a table of the wrong length is refused without the block offsets,
    which would enumerate every joint input."""
    import bellbox.scenario as scenario

    def unreachable(sc):
        raise AssertionError("block offsets built before the length check")

    monkeypatch.setattr(scenario, "_block_offsets_of", unreachable)
    sc = Scenario(inputs_per_party=(1000,) * 3, outputs=((2,) * 1000,) * 3)
    assert sc.dimension == 2000 ** 3
    with pytest.raises(ValidationError, match="behavior has length 0, scenario dimension"):
        validate_behavior(sc, [])


def test_block_offsets_are_built_once_per_scenario_value():
    """Every document builds its own Scenario; equal ones share offsets."""
    inputs, outputs = (2, 3, 1), ((2, 3), (4, 1, 2), (3,))
    _block_offsets_of.cache_clear()
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
    info = _block_offsets_of.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_scenario_rejects_empty_alphabets():
    with pytest.raises(ValidationError):
        Scenario(inputs_per_party=(2, 0), outputs=((2, 2), ()))
    with pytest.raises(ValidationError):
        Scenario(inputs_per_party=(1,), outputs=((0,),))
    with pytest.raises(ValidationError):
        Scenario(inputs_per_party=(2,), outputs=((2,),))  # row length mismatch


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
