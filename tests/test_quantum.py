"""Quantum behavior generation: states, measurements, lifting, catalogs.

Oracles here are closed-form: the spin correlator of the singlet along
two axes in the x-z plane is -cos of the angle difference, and two-qubit
projector probabilities follow (1 -+ cos)/4.  Library output is compared
against those formulas, not against other library calls.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bellbox import Scenario, named_behavior, no_signalling_defect, validate_behavior
from bellbox.errors import ValidationError
from bellbox.polytope import random_local_model
from bellbox.scenario import flat_index
from bellbox.quantum import (
    BellSetup,
    MeasurementSet,
    QuantumState,
    behavior_from_setup,
    bin_last_outcome,
    lift_with_efficiency,
    named_setup,
    random_setup,
    spin_projectors,
)

ROOT2 = float(np.sqrt(2.0))

SINGLET = np.zeros((4, 4), dtype=complex)
_psi = np.array([0.0, 1.0, -1.0, 0.0]) / ROOT2
SINGLET[:, :] = np.outer(_psi, _psi)


def chsh_correlator(behavior, x, y):
    """Label-based E_xy = sum (-1)^(a xor b) P(ab|xy)."""
    total = 0.0
    for a in range(2):
        for b in range(2):
            sign = 1.0 if a == b else -1.0
            total += sign * behavior.prob((x, y), (a, b))
    return total


# -- state and measurement validation ---------------------------------------

def test_singlet_state_accepted():
    state = QuantumState(dim_a=2, dim_b=2, rho=SINGLET)
    assert state.rho.shape == (4, 4)
    with pytest.raises(ValueError):
        state.rho[0, 0] = 1.0


def test_non_hermitian_state_rejected():
    rho = SINGLET.copy()
    rho[0, 1] = 0.5
    with pytest.raises(ValidationError, match="[Hh]ermitian"):
        QuantumState(dim_a=2, dim_b=2, rho=rho)


def test_wrong_trace_rejected():
    with pytest.raises(ValidationError, match="trace"):
        QuantumState(dim_a=2, dim_b=2, rho=0.5 * SINGLET)


def test_negative_state_rejected():
    rho = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValidationError, match="positive"):
        QuantumState(dim_a=2, dim_b=2, rho=rho)


def test_wrong_shape_rejected():
    with pytest.raises(ValidationError):
        QuantumState(dim_a=2, dim_b=2, rho=np.eye(3, dtype=complex) / 3.0)


def test_incomplete_povm_rejected():
    plus, _ = spin_projectors(0.0)
    with pytest.raises(ValidationError, match="identity"):
        MeasurementSet(dim=2, effects=((plus, plus),))


def test_non_psd_effect_rejected():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError, match="positive"):
        MeasurementSet(dim=2, effects=((1.5 * eye, -0.5 * eye),))


_EYE = np.eye(2, dtype=complex)


@pytest.mark.parametrize(("build", "message"), [
    pytest.param(lambda: MeasurementSet(dim=2, effects=5), "effects must list, per input",
                 id="effects-a-number"),
    pytest.param(lambda: MeasurementSet(dim=2, effects=(5,)), "input 0 is not a list of effects",
                 id="input-a-number"),
    pytest.param(lambda: MeasurementSet(dim=2, effects=((_EYE,), 5)),
                 "input 1 is not a list of effects", id="second-input-a-number"),
    pytest.param(lambda: MeasurementSet(dim=2, effects=(("abc", _EYE),)),
                 r"effect \(0, 0\) is not a matrix of numbers", id="effect-a-string"),
    pytest.param(lambda: MeasurementSet(dim=2, effects=((0.5 * _EYE, [[0.5, 0.0], [0.0]]),)),
                 r"effect \(0, 1\) is not a matrix of numbers", id="effect-ragged"),
    # an earlier effect's failure is reported first, a later one's after
    pytest.param(lambda: MeasurementSet(dim=2, effects=((1.5 * _EYE, -0.5 * _EYE), ("abc",))),
                 "positive semidefinite", id="negative-effect-first"),
    pytest.param(lambda: MeasurementSet(dim=2, effects=((_EYE, "abc"), (1.5 * _EYE, -0.5 * _EYE))),
                 r"effect \(0, 1\) is not a matrix of numbers", id="unreadable-effect-first"),
    pytest.param(lambda: QuantumState(dim_a=1, dim_b=2, rho="abc"),
                 "density matrix is not a matrix of numbers", id="state-a-string"),
    pytest.param(lambda: QuantumState(dim_a=1, dim_b=2, rho=[[1.0, 0.0], [0.0]]),
                 "density matrix is not a matrix of numbers", id="state-ragged"),
])
def test_unreadable_entries_are_validation_errors(build, message):
    """numpy's own ValueError, or a TypeError from a number where a list
    belongs, came through untyped."""
    with pytest.raises(ValidationError, match=message):
        build()


@pytest.mark.parametrize(("build", "message"), [
    pytest.param(lambda: QuantumState(dim_a=1.5, dim_b=2, rho=np.eye(3) / 3),
                 r"state dimensions \(1.5, 2\) are not all integers", id="state-float"),
    pytest.param(lambda: QuantumState(dim_a=2, dim_b="2", rho=SINGLET),
                 r"state dimensions \(2, '2'\) are not all integers", id="state-string"),
    pytest.param(lambda: MeasurementSet(dim="2", effects=((_EYE,),)),
                 r"measurement dimension \('2',\) are not all integers",
                 id="measurement-string"),
    pytest.param(lambda: MeasurementSet(dim=2.0, effects=((_EYE,),)),
                 r"measurement dimension \(2.0,\) are not all integers",
                 id="measurement-float"),
    pytest.param(lambda: QuantumState(dim_a=True, dim_b=2, rho=np.eye(2) / 2),
                 r"state dimensions \(True, 2\) are not all integers", id="state-bool"),
    pytest.param(lambda: MeasurementSet(dim=True, effects=((np.eye(1),),)),
                 r"measurement dimension \(True,\) are not all integers", id="measurement-bool"),
])
def test_dimensions_must_be_integers(build, message):
    """A float dimension whose product matched the matrix was accepted,
    a string or float one raised a bare TypeError, and a bool read as 1
    where a scenario refuses one."""
    with pytest.raises(ValidationError, match=message):
        build()


def test_numpy_integer_dimensions_are_read_as_ints():
    state = QuantumState(dim_a=np.int64(2), dim_b=np.int32(2), rho=SINGLET)
    mset = MeasurementSet(dim=np.int64(2), effects=((_EYE,),))
    assert (state.dim_a, state.dim_b, mset.dim) == (2, 2, 2)
    assert all(type(d) is int for d in (state.dim_a, state.dim_b, mset.dim))


def test_setup_dimension_mismatch_rejected():
    state = QuantumState(dim_a=2, dim_b=2, rho=SINGLET)
    eye3 = np.eye(3, dtype=complex)
    triple = MeasurementSet(dim=3, effects=((eye3 / 3.0,) * 3,))
    good = named_setup("singlet_chsh").alice
    with pytest.raises(ValidationError):
        BellSetup(state=state, alice=good, bob=triple)


# -- projectors -------------------------------------------------------------

def test_spin_projectors_are_complementary():
    for theta in (0.0, 0.3, np.pi / 4, 2.0):
        plus, minus = spin_projectors(theta)
        np.testing.assert_allclose(plus + minus, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(plus @ plus, plus, atol=1e-14)  # idempotent
        np.testing.assert_allclose(plus, plus.conj().T, atol=1e-14)


def test_spin_projector_at_zero_is_z_basis():
    plus, minus = spin_projectors(0.0)
    np.testing.assert_allclose(plus, np.diag([1.0, 0.0]), atol=1e-14)
    np.testing.assert_allclose(minus, np.diag([0.0, 1.0]), atol=1e-14)


# -- Born rule against closed forms -----------------------------------------

def test_singlet_correlator_grid():
    """Spin correlator along axes at angles s, t equals -cos(s - t),
    checked on a 10 x 10 grid via plus-first single-input setups."""
    state = QuantumState(dim_a=2, dim_b=2, rho=SINGLET)
    angles = [k * np.pi / 5.0 for k in range(10)]
    for s in angles:
        for t in angles:
            alice = MeasurementSet(dim=2, effects=(spin_projectors(s),))
            bob = MeasurementSet(dim=2, effects=(spin_projectors(t),))
            beh = behavior_from_setup(BellSetup(state=state, alice=alice, bob=bob))
            e = chsh_correlator(beh, 0, 0)
            assert abs(e - (-np.cos(s - t))) < 1e-12


def test_singlet_pair_probabilities_match_closed_form():
    state = QuantumState(dim_a=2, dim_b=2, rho=SINGLET)
    s, t = 0.7, -0.4
    alice = MeasurementSet(dim=2, effects=(spin_projectors(s),))
    bob = MeasurementSet(dim=2, effects=(spin_projectors(t),))
    beh = behavior_from_setup(BellSetup(state=state, alice=alice, bob=bob))
    c = np.cos(s - t)
    # outcome 0 is the plus projector on each side
    assert beh.prob((0, 0), (0, 0)) == pytest.approx((1.0 - c) / 4.0, abs=1e-12)
    assert beh.prob((0, 0), (0, 1)) == pytest.approx((1.0 + c) / 4.0, abs=1e-12)
    assert beh.prob((0, 0), (1, 0)) == pytest.approx((1.0 + c) / 4.0, abs=1e-12)
    assert beh.prob((0, 0), (1, 1)) == pytest.approx((1.0 - c) / 4.0, abs=1e-12)


def kron_born_table(setup):
    """The Born rule entry by entry: Tr[rho (A_a^x kron B_b^y)]."""
    sc = setup.scenario
    vec = np.zeros(sc.dimension)
    for x, y in sc.joint_inputs():
        for a, b in sc.joint_outputs((x, y)):
            joint = np.kron(setup.alice.effects[x][a], setup.bob.effects[y][b])
            vec[flat_index(sc, (x, y), (a, b))] = float(np.real(np.trace(setup.state.rho @ joint)))
    return vec


@pytest.mark.parametrize("seed", range(6))
def test_born_rule_matches_the_kron_loop(seed):
    """Unequal dimensions, and outcome counts that differ between inputs
    (one input of each party lifted with a no-click outcome)."""
    base = random_setup(seed=seed, dims=(2 + seed % 3, 2 + seed % 2), inputs=(3, 2))
    eta = 0.5 + 0.05 * seed
    alice = MeasurementSet(dim=base.alice.dim, effects=(
        base.alice.effects[0], lift_with_efficiency(base.alice, eta).effects[1],
        base.alice.effects[2]))
    bob = MeasurementSet(dim=base.bob.dim, effects=(
        lift_with_efficiency(base.bob, eta).effects[0], base.bob.effects[1]))
    for setup in (base, BellSetup(state=base.state, alice=alice, bob=bob)):
        beh = behavior_from_setup(setup)
        assert beh.scenario == setup.scenario
        np.testing.assert_allclose(beh.probs, kron_born_table(setup), rtol=0.0, atol=1e-12)


def test_product_state_computational_basis_is_deterministic():
    beh = behavior_from_setup(named_setup("product_basis"))
    for inputs in beh.scenario.joint_inputs():
        assert beh.prob(inputs, (0, 0)) == pytest.approx(1.0, abs=1e-12)


def test_maximally_mixed_gives_uniform():
    beh = behavior_from_setup(named_setup("werner", 0.0))
    np.testing.assert_allclose(beh.probs, 0.25, atol=1e-12)


# -- the CHSH catalog setup -------------------------------------------------

def test_singlet_chsh_scenario_shape():
    setup = named_setup("singlet_chsh")
    assert setup.scenario == Scenario.uniform(2, 2, 2)


def test_singlet_chsh_reaches_two_root_two():
    beh = behavior_from_setup(named_setup("singlet_chsh"))
    s = (chsh_correlator(beh, 0, 0) + chsh_correlator(beh, 0, 1)
         + chsh_correlator(beh, 1, 0) - chsh_correlator(beh, 1, 1))
    assert abs(s - 2.0 * ROOT2) < 1e-9


def test_singlet_chsh_observable_correlator_is_minus_cosine():
    """With spin observables signed by their projector (plus = +1), the
    catalog reproduces -cos(angle difference) regardless of which
    outcome index each projector is assigned to."""
    setup = named_setup("singlet_chsh")
    beh = behavior_from_setup(setup)
    alice_angles = (0.0, np.pi / 2.0)
    bob_angles = (np.pi / 4.0, -np.pi / 4.0)
    for x in range(2):
        for y in range(2):
            e_obs = 0.0
            for a in range(2):
                sa = _projector_sign(setup.alice, x, a, alice_angles[x])
                for b in range(2):
                    sb = _projector_sign(setup.bob, y, b, bob_angles[y])
                    e_obs += sa * sb * beh.prob((x, y), (a, b))
            expected = -np.cos(alice_angles[x] - bob_angles[y])
            assert abs(e_obs - expected) < 1e-12


def _projector_sign(mset, x, outcome, angle):
    """Eigenvalue of the axis observable on the given effect: pairing a
    projector of the axis at ``angle`` with that observable gives +-1."""
    m = mset.effects[x][outcome]
    obs = np.array([[np.cos(angle), np.sin(angle)],
                    [np.sin(angle), -np.cos(angle)]])
    val = float(np.real(np.trace(m @ obs)))
    assert abs(abs(val) - 1.0) < 1e-12
    return 1.0 if val > 0 else -1.0


def test_singlet_chsh_is_no_signalling():
    beh = behavior_from_setup(named_setup("singlet_chsh"))
    assert no_signalling_defect(beh).max_defect <= 1e-9


# -- werner family ----------------------------------------------------------

def test_werner_interpolates_linearly():
    singlet = behavior_from_setup(named_setup("singlet_chsh"))
    uniform = named_behavior("uniform", Scenario.uniform(2, 2, 2))
    for v in (0.0, 0.3, 0.7071, 1.0):
        beh = behavior_from_setup(named_setup("werner", v))
        expected = v * singlet.probs + (1.0 - v) * uniform.probs
        np.testing.assert_allclose(beh.probs, expected, atol=1e-12)


def test_werner_requires_parameter_in_range():
    with pytest.raises(ValidationError):
        named_setup("werner", 1.5)
    with pytest.raises(ValidationError):
        named_setup("werner", -0.1)
    with pytest.raises(ValidationError):
        named_setup("werner")


def test_unknown_setup_name():
    with pytest.raises(ValidationError, match="unknown"):
        named_setup("bell_telephone")


# -- detector-inefficiency lifting ------------------------------------------

def test_lift_grows_outputs_by_one():
    setup = named_setup("singlet_chsh")
    lifted = BellSetup(state=setup.state,
                       alice=lift_with_efficiency(setup.alice, 0.9),
                       bob=lift_with_efficiency(setup.bob, 0.9))
    assert lifted.scenario.outputs == ((3, 3), (3, 3))


def test_lift_eta_one_matches_ideal():
    setup = named_setup("singlet_chsh")
    ideal = behavior_from_setup(setup)
    lifted = BellSetup(state=setup.state,
                       alice=lift_with_efficiency(setup.alice, 1.0),
                       bob=lift_with_efficiency(setup.bob, 1.0))
    beh = behavior_from_setup(lifted)
    for inputs in ideal.scenario.joint_inputs():
        for a in range(2):
            for b in range(2):
                assert beh.prob(inputs, (a, b)) == pytest.approx(
                    ideal.prob(inputs, (a, b)), abs=1e-12)
        assert beh.prob(inputs, (2, 2)) == pytest.approx(0.0, abs=1e-12)


def test_lift_eta_zero_always_misses():
    setup = named_setup("singlet_chsh")
    lifted = BellSetup(state=setup.state,
                       alice=lift_with_efficiency(setup.alice, 0.0),
                       bob=lift_with_efficiency(setup.bob, 0.0))
    beh = behavior_from_setup(lifted)
    for inputs in beh.scenario.joint_inputs():
        assert beh.prob(inputs, (2, 2)) == pytest.approx(1.0, abs=1e-12)


def test_lift_joint_no_click_probability_is_squared_loss():
    setup = named_setup("singlet_chsh")
    lifted = BellSetup(state=setup.state,
                       alice=lift_with_efficiency(setup.alice, 0.9),
                       bob=lift_with_efficiency(setup.bob, 0.9))
    beh = behavior_from_setup(lifted)
    for inputs in beh.scenario.joint_inputs():
        assert beh.prob(inputs, (2, 2)) == pytest.approx(0.01, abs=1e-12)


def test_lift_rejects_bad_efficiency():
    setup = named_setup("singlet_chsh")
    for eta in (-0.01, 1.01):
        with pytest.raises(ValidationError):
            lift_with_efficiency(setup.alice, eta)


def test_lifted_behavior_is_no_signalling():
    setup = named_setup("singlet_chsh")
    lifted = BellSetup(state=setup.state,
                       alice=lift_with_efficiency(setup.alice, 0.7),
                       bob=lift_with_efficiency(setup.bob, 0.7))
    beh = behavior_from_setup(lifted)
    assert no_signalling_defect(beh).max_defect <= 1e-9


# -- binning ----------------------------------------------------------------

def test_binning_restores_original_shape():
    setup = named_setup("singlet_chsh")
    lifted = BellSetup(state=setup.state,
                       alice=lift_with_efficiency(setup.alice, 0.8),
                       bob=lift_with_efficiency(setup.bob, 0.8))
    binned = bin_last_outcome(behavior_from_setup(lifted))
    assert binned.scenario == Scenario.uniform(2, 2, 2)


def test_binning_at_full_efficiency_is_identity():
    setup = named_setup("singlet_chsh")
    ideal = behavior_from_setup(setup)
    lifted = BellSetup(state=setup.state,
                       alice=lift_with_efficiency(setup.alice, 1.0),
                       bob=lift_with_efficiency(setup.bob, 1.0))
    binned = bin_last_outcome(behavior_from_setup(lifted))
    np.testing.assert_allclose(binned.probs, ideal.probs, atol=1e-12)


def test_binning_sums_the_merged_outcomes():
    setup = named_setup("singlet_chsh")
    lifted = BellSetup(state=setup.state,
                       alice=lift_with_efficiency(setup.alice, 0.7),
                       bob=lift_with_efficiency(setup.bob, 0.7))
    raw = behavior_from_setup(lifted)
    binned = bin_last_outcome(raw)
    for inputs in binned.scenario.joint_inputs():
        for a in range(2):
            for b in range(2):
                # merged mass: (a,b), plus no-click combos folded into 0
                expected = raw.prob(inputs, (a, b))
                if a == 0:
                    expected += raw.prob(inputs, (2, b))
                if b == 0:
                    expected += raw.prob(inputs, (a, 2))
                if a == 0 and b == 0:
                    expected += raw.prob(inputs, (2, 2))
                assert binned.prob(inputs, (a, b)) == pytest.approx(expected, abs=1e-12)


def reference_binning(behavior):
    """Fold each party's last outcome into outcome 0, entry by entry."""
    sc = behavior.scenario
    target = Scenario(inputs_per_party=sc.inputs_per_party,
                      outputs=tuple(tuple(n - 1 for n in row) for row in sc.outputs))
    vec = np.zeros(target.dimension)
    for joint in sc.joint_inputs():
        counts = sc.outputs_for(joint)
        for outs in sc.joint_outputs(joint):
            folded = tuple(0 if o == counts[p] - 1 else o for p, o in enumerate(outs))
            vec[flat_index(target, joint, folded)] += behavior.prob(joint, outs)
    return validate_behavior(target, vec, tol=behavior.tol)


def _lifted_32(seed, inputs, efficiency):
    setup = random_setup(seed, dims=(3, 2), inputs=inputs)
    return behavior_from_setup(BellSetup(state=setup.state,
                                         alice=lift_with_efficiency(setup.alice, efficiency),
                                         bob=lift_with_efficiency(setup.bob, efficiency)))


def _random_table(rng, sc):
    """A random table: each input block a normalized draw."""
    raw = rng.random(sc.dimension)
    for joint in sc.joint_inputs():
        raw[sc.block_slice(joint)] /= raw[sc.block_slice(joint)].sum()
    return raw


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_binning_equals_the_entry_by_entry_reference(seed):
    """Lifted setups of a qutrit and a qubit, and a table on uneven
    alphabets: the same bits as the fold written entry by entry."""
    uneven = Scenario(inputs_per_party=(2, 2), outputs=((2, 3), (3, 2)))
    behaviors = [_lifted_32(seed, inputs, efficiency)
                 for inputs in ((2, 2), (2, 3)) for efficiency in (0.6, 0.9)]
    behaviors.append(validate_behavior(uneven, _random_table(np.random.default_rng(seed), uneven)))
    for behavior in behaviors:
        binned, want = bin_last_outcome(behavior), reference_binning(behavior)
        assert binned.scenario == want.scenario
        assert binned.probs.tobytes() == want.probs.tobytes()


def test_binning_requires_room():
    sc = Scenario.uniform(2, 2, 1)
    beh = named_behavior("uniform", sc)
    with pytest.raises(ValidationError):
        bin_last_outcome(beh)


# -- random setups ----------------------------------------------------------

def test_random_setup_reproducible():
    a = random_setup(seed=5)
    b = random_setup(seed=5)
    np.testing.assert_array_equal(a.state.rho, b.state.rho)
    for x in range(len(a.alice.effects)):
        for m, n in zip(a.alice.effects[x], b.alice.effects[x]):
            np.testing.assert_array_equal(m, n)


def test_random_setups_differ_across_seeds():
    a = random_setup(seed=5)
    b = random_setup(seed=6)
    diff = max(float(np.abs(m - n).max())
               for x in range(2)
               for m, n in zip(a.alice.effects[x], b.alice.effects[x]))
    assert diff > 1e-6


@pytest.mark.parametrize("seed", [-1, -3, np.int64(-2)])
def test_random_setup_refuses_a_negative_seed(seed):
    """numpy refused it with its own ValueError."""
    with pytest.raises(ValidationError, match="must be a nonnegative integer"):
        random_setup(seed=seed)


@pytest.mark.parametrize("sample, message", [
    (lambda: random_setup(1.5), "seed 1.5 must be a nonnegative integer"),
    (lambda: random_setup(None), "seed None must be a nonnegative integer"),
    (lambda: random_local_model(Scenario.uniform(2, 2, 2), 1.5),
     "seed 1.5 must be a nonnegative integer"),
    (lambda: random_setup(1, inputs=(2.5, 2)), r"inputs \(2.5, 2\) are not all integers"),
    (lambda: random_setup(1, dims=(2.0, 2)), r"dims \(2.0, 2\) are not all integers"),
    (lambda: random_setup(True), "seed True must be a nonnegative integer"),
    (lambda: random_setup(1, dims=(True, 2)), r"dims \(True, 2\) are not all integers"),
    (lambda: random_setup(1, dims=None), "dims None are not all integers"),
    (lambda: random_setup(1, dims=(2, 2, 2)), r"dims \(2, 2, 2\) are not two counts in \[1, 4\]"),
    (lambda: random_setup(1, inputs=(2,)), r"inputs \(2,\) are not two counts >= 1"),
    (lambda: random_setup(1, inputs=(0, 2)), r"inputs \(0, 2\) are not two counts >= 1"),
    (lambda: lift_with_efficiency(named_setup("singlet_chsh").alice, "a"),
     r"efficiency 'a' outside \[0, 1\]"),
    (lambda: named_setup("werner", "a"), r"visibility 'a' outside \[0, 1\]"),
], ids=["setup-seed", "setup-seed-none", "model-seed", "inputs", "dims", "seed-bool",
        "dims-bool", "dims-none", "three-dims", "one-input-count", "zero-inputs",
        "efficiency", "werner"])
def test_a_sampler_parameter_that_is_not_a_number_is_refused(sample, message):
    """numpy's SeedSequence, range() and a comparison with a string
    raised TypeError on the first five and the last two but seed None,
    which drew an unseeded setup; a bool read as 1, dims None raised
    TypeError, and three dims or one input count ValueError."""
    with pytest.raises(ValidationError, match=message):
        sample()


def test_random_setup_dims_cap():
    with pytest.raises(ValidationError):
        random_setup(seed=0, dims=(5, 2))


@pytest.mark.parametrize("dims", [(2, 2), (2, 3), (4, 2), (3, 3)])
def test_random_setup_various_dims_no_signalling(dims):
    setup = random_setup(seed=17, dims=dims)
    beh = behavior_from_setup(setup)
    assert no_signalling_defect(beh).max_defect <= 1e-9


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_setup_behaviors_stay_no_signalling(seed):
    beh = behavior_from_setup(random_setup(seed=seed))
    assert no_signalling_defect(beh).max_defect <= 1e-9
    assert np.all(beh.probs >= 0.0)
