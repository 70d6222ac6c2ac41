"""No-signalling across every proper party subset.

A group of parties must not see its joint statistics move with the
inputs of the others, even when each member's own marginal stays flat
(Barrett et al., PRA 71, 022101 (2005)).  The reference here is a plain
loop over every proper subset, kept in this file, that sums the table
entry by entry.
"""

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bellbox import Scenario, validate_behavior
import bellbox.analysis as analysis
import bellbox.scenario
from bellbox.analysis import (DEFAULT_TOL, MODEL_TOL, Verdict, _canonical_cut, _decide, classify,
                              derive_critical_inequality, membership)
from bellbox.cli import main
from bellbox.documents import write_document
from bellbox.errors import SizeCapError, StalledError
from bellbox.polytope import BellFunctional, local_bound, strategy_matrix
from bellbox.scenario import (_marginal_difference_count, flat_index, marginal_differences,
                              marginal_indicator, named_behavior, no_signalling_defect)

THREE = Scenario.uniform(3, 2, 2)


def pair_signalling_table() -> np.ndarray:
    """Party 0 a fair coin, party 1 answers a + z (mod 2), party 2 a fair
    coin: every one-party marginal is flat, but the pair (0, 1) reads z."""
    t = np.zeros((2,) * 6)
    for xs in itertools.product(range(2), repeat=3):
        for a, b, c in itertools.product(range(2), repeat=3):
            if b == (a ^ xs[2]):
                t[xs + (a, b, c)] = 0.25
    return t.reshape(-1)


def pair_signalling():
    return validate_behavior(THREE, pair_signalling_table())


def marginal(scenario, probs, T, t_inputs, t_outputs, context) -> float:
    """P(T's outputs | T's inputs) with the other parties at ``context``,
    summed entry by entry over the flat layout."""
    others = [p for p in range(scenario.parties) if p not in T]
    total = 0.0
    k = 0
    for inputs in scenario.joint_inputs():
        for outputs in scenario.joint_outputs(inputs):
            if (all(inputs[p] == x for p, x in zip(T, t_inputs))
                    and all(inputs[p] == x for p, x in zip(others, context))
                    and all(outputs[p] == a for p, a in zip(T, t_outputs))):
                total += probs[k]
            k += 1
    return total


def brute_defect(scenario, probs) -> float:
    """Largest max - min of any proper subset's joint marginal over the
    remote contexts."""
    best = 0.0
    for size in range(1, scenario.parties):
        for T in itertools.combinations(range(scenario.parties), size):
            contexts = list(itertools.product(
                *(range(scenario.inputs_per_party[p])
                  for p in range(scenario.parties) if p not in T)))
            for t_inputs in itertools.product(*(range(scenario.inputs_per_party[p]) for p in T)):
                for t_outputs in itertools.product(
                        *(range(scenario.outputs[p][x]) for p, x in zip(T, t_inputs))):
                    vals = [marginal(scenario, probs, T, t_inputs, t_outputs, c)
                            for c in contexts]
                    best = max(best, max(vals) - min(vals))
    return best


def named_shift(report, scenario, probs) -> float:
    """Shift of the report's named marginal between its two contexts."""
    party, x, a, (hi, lo) = report.worst_marginal
    if isinstance(party, int):
        party, x, a = (party,), (x,), (a,)
    return (marginal(scenario, probs, party, x, a, hi)
            - marginal(scenario, probs, party, x, a, lo))


# -- the pair-signalling table ----------------------------------------------

def test_pair_signalling_table_is_signalling():
    c = classify(pair_signalling())
    assert c.verdict is Verdict.SIGNALLING
    assert c.signalling.max_defect == 0.5
    assert c.signalling.worst_party == (0, 1)
    parties, inputs, outputs, contexts = c.signalling.worst_marginal
    assert parties == (0, 1)
    assert len(inputs) == len(outputs) == 2
    assert contexts == ((0,), (1,))
    assert named_shift(c.signalling, THREE, pair_signalling().probs) == 0.5
    assert "parties (0, 1)" in c.summary


def test_pair_signalling_classify_cli_exits_zero(capsys, tmp_path):
    path = tmp_path / "pair.json"
    write_document(pair_signalling(), path)
    assert main(["classify", str(path), "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "signalling"
    witness = payload["witness"]
    assert witness["type"] == "signalling"
    assert witness["max_defect"] == 0.5
    assert witness["party"] == [0, 1]
    assert len(witness["input"]) == len(witness["output"]) == 2
    assert witness["contexts"] == [[0], [1]]
    assert main(["classify", str(path)]) == 0
    assert "parties (0, 1), outputs" in capsys.readouterr().out


def assert_shift_witness(behavior, res, report):
    """``membership``'s witness on a table whose defect exceeds tol: the
    report's worst marginal at its high context minus the same marginal
    at its low one, local bound 0 by enumeration, an integer form, and
    the defect as its violation."""
    party, x, a, (hi, lo) = report.worst_marginal
    if isinstance(party, int):
        party, x, a = (party,), (x,), (a,)
    sc = behavior.scenario
    want = marginal_indicator(sc, party, x, a, hi) - marginal_indicator(sc, party, x, a, lo)
    f = res.functional
    assert not res.is_local and res.model is None
    assert f.coeffs.tobytes() == want.tobytes()
    assert f.local_bound == 0.0 and local_bound(f)[0] == 0.0
    assert f.integer_coeffs == tuple(int(v) for v in want) and f.integer_bound == 0
    assert abs(res.violation - report.max_defect) <= 1e-12
    assert res.violation == f.value(behavior) - f.local_bound


def test_pair_signalling_membership_is_its_marginal_shift(capsys, tmp_path):
    """No program is solved: the shift of the pair (0, 1)'s joint marginal
    with party 2's input is the witness, violated by the defect 0.5."""
    with mock.patch.object(analysis, "solve", wraps=analysis.solve) as solves:
        res = membership(pair_signalling())
    assert solves.call_count == 0
    report = no_signalling_defect(pair_signalling())
    assert_shift_witness(pair_signalling(), res, report)
    assert res.violation == 0.5
    path = tmp_path / "pair.json"
    write_document(pair_signalling(), path)
    assert main(["membership", str(path), "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["is_local"] is False
    assert payload["witness"]["type"] == "functional"
    assert payload["witness"]["violation"] == 0.5
    assert payload["witness"]["functional"]["local_bound"] == 0.0


@pytest.mark.parametrize("name", ["pair", "signalling_demo"])
def test_derived_inequality_of_a_signalling_table_is_its_marginal_shift(name):
    """``derive_critical_inequality`` reads ``membership``'s flow: beyond
    tol of no-signalling it solves no program and returns the shift."""
    behavior = pair_signalling() if name == "pair" else named_behavior(name)
    with mock.patch.object(analysis, "solve", wraps=analysis.solve) as solves:
        f = derive_critical_inequality(behavior)
    assert solves.call_count == 0
    report = no_signalling_defect(behavior)
    assert_shift_witness(behavior, membership(behavior), report)
    assert f.coeffs.tobytes() == membership(behavior).functional.coeffs.tobytes()
    assert f.value(behavior) - f.local_bound == pytest.approx(report.max_defect, abs=1e-12)


def test_pure_gauge_cut_is_an_internal_failure():
    """The cut comes from the solver; failing to canonicalize it is the
    package's failure (exit 3), not the input's (exit 2).  The pair
    table's own distance cut lies in the no-signalling gauge span."""
    is_local, cut = _decide(pair_signalling())
    assert not is_local
    with pytest.raises(StalledError, match="canonical form"):
        _canonical_cut(BellFunctional(scenario=THREE, coeffs=cut), pair_signalling())


def test_signalling_below_tol_does_not_make_a_local_box_nonlocal():
    """A (3,2,2) deterministic mixture with 1e-9 of pair signalling: its
    defect is 5e-10, within tol, yet its l1 distance from the local set
    is 8e-9, and the cut that parts them is pure no-signalling gauge.
    ``classify`` calls it local, with a model within MODEL_TOL."""
    rng = np.random.default_rng(0)
    probs = _deterministic_mixture(rng, THREE)
    behavior = validate_behavior(THREE, (1.0 - 1e-9) * probs + 1e-9 * _group_signalling(rng, 2))
    assert 0.0 < no_signalling_defect(behavior).max_defect <= DEFAULT_TOL
    result = classify(behavior)
    assert result.verdict is Verdict.LOCAL
    gap = np.abs(strategy_matrix(THREE) @ result.model.weights - behavior.probs).max()
    assert gap <= MODEL_TOL


# -- the marginal-difference matrix ------------------------------------------

@pytest.mark.parametrize("scenario", [
    THREE,
    Scenario.uniform(2, 3, 2),
    Scenario(inputs_per_party=(2, 3), outputs=((2, 3), (3, 2, 2))),
    Scenario(inputs_per_party=(1, 2, 3), outputs=((2,), (2, 3), (2, 2, 2))),
])
def test_each_row_is_its_labelled_marginal_difference(scenario):
    md = marginal_differences(scenario)
    rng = np.random.default_rng(5)
    probs = rng.random(scenario.dimension)
    assert md.matrix.shape == (len(md.labels), scenario.dimension)
    for r, (T, t_inputs, t_outputs, context) in enumerate(md.labels):
        base = (0,) * len(context)
        want = (marginal(scenario, probs, T, t_inputs, t_outputs, context)
                - marginal(scenario, probs, T, t_inputs, t_outputs, base))
        assert md.matrix[r] @ probs == pytest.approx(want, abs=1e-12)
    # a group is every non-base context of one (T, inputs, outputs)
    keys = [label[:3] for label in md.labels]
    assert [keys.index(key) for key in dict.fromkeys(keys)] == list(md.starts)


@pytest.mark.parametrize("scenario", [
    THREE,
    Scenario.uniform(1, 3, 2),
    Scenario.uniform(2, 3, 2),
    Scenario(inputs_per_party=(2, 3), outputs=((2, 3), (3, 2, 2))),
    Scenario(inputs_per_party=(1, 2, 3), outputs=((2,), (2, 3), (2, 2, 2))),
    Scenario(inputs_per_party=(1, 1), outputs=((2,), (3,))),
])
def test_the_size_cap_counts_the_rows_that_are_built(scenario):
    """The cap is checked on a count made without building any row; it
    must be the number of rows the matrix then has."""
    assert _marginal_difference_count(scenario) == marginal_differences(scenario).matrix.shape[0]


def test_one_party_scenario_has_no_conditions():
    sc = Scenario.uniform(1, 3, 2)
    assert marginal_differences(sc).matrix.shape == (0, sc.dimension)


# -- property test -----------------------------------------------------------

def _pr_box_on_pair(rng, k):
    """PR box a_q - a_p = x_p x_q + al x_p + be x_q + ga (mod k) on a random
    pair (p, q), the third party answering from a random local table."""
    p, q = sorted(rng.choice(3, size=2, replace=False))
    r = 3 - p - q
    al, be, ga = rng.integers(0, k, size=3)
    third = rng.dirichlet(np.ones(k), size=2)
    t = np.zeros((2,) * 3 + (k,) * 3)
    for xs in itertools.product(range(2), repeat=3):
        for outs in itertools.product(range(k), repeat=3):
            x, y = xs[p], xs[q]
            if (outs[q] - outs[p]) % k == (x * y + al * x + be * y + ga) % k:
                t[xs + outs] = third[xs[r], outs[r]] / k
    return t.reshape(-1)


def _deterministic_mixture(rng, scenario):
    V = strategy_matrix(scenario)
    return V @ rng.dirichlet(np.full(V.shape[1], 0.2))


def _group_signalling(rng, k):
    """A random pair reads the third party's input through its parity;
    each member alone stays uniform."""
    p, q = sorted(rng.choice(3, size=2, replace=False))
    r = 3 - p - q
    t = np.zeros((2,) * 3 + (k,) * 3)
    for xs in itertools.product(range(2), repeat=3):
        for outs in itertools.product(range(k), repeat=3):
            if (outs[q] - outs[p]) % k == xs[r]:
                t[xs + outs] = 1.0 / k ** 2
    return t.reshape(-1)


def _random_table(rng, scenario):
    return np.concatenate([rng.dirichlet(np.ones(scenario.block_size(j)))
                           for j in scenario.joint_inputs()])


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([2, 3]),
       ns=st.sampled_from(["deterministic", "pr"]),
       signalling=st.sampled_from([None, "group", "random"]),
       w=st.floats(0.0, 1.0, allow_nan=False))
def test_defect_matches_every_subset_brute_force(seed, k, ns, signalling, w):
    scenario = Scenario.uniform(3, 2, k)
    rng = np.random.default_rng(seed)
    probs = (_deterministic_mixture(rng, scenario) if ns == "deterministic"
             else _pr_box_on_pair(rng, k))
    if signalling is not None:
        other = (_group_signalling(rng, k) if signalling == "group"
                 else _random_table(rng, scenario))
        probs = (1.0 - w) * probs + w * other
    behavior = validate_behavior(scenario, probs)
    want = brute_defect(scenario, behavior.probs)
    assume(abs(want - DEFAULT_TOL) > 1e-12)
    report = no_signalling_defect(behavior)
    assert report.max_defect == pytest.approx(want, abs=1e-12)
    if signalling is None:
        assert want <= 1e-12
    if report.max_defect > 0.0:
        assert named_shift(report, scenario, behavior.probs) == pytest.approx(want, abs=1e-12)
    assert (classify(behavior).verdict is Verdict.SIGNALLING) == (want > DEFAULT_TOL)


# -- one decision flow -------------------------------------------------------

CHSH = Scenario.uniform(2, 2, 2)
UNEVEN = Scenario(inputs_per_party=(2, 3), outputs=((2, 3), (3, 2, 2)))


def _embedded_pr_box(scenario):
    """A two-party PR box on inputs 0 and 1 and outputs 0 and 1; a party
    on any other input answers 0.  Every marginal is flat or fixed
    whatever the remote input, so the table is no-signalling."""
    t = np.zeros(scenario.dimension)
    for x, y in scenario.joint_inputs():
        a_outs = (0, 1) if x < 2 else (0,)
        b_outs = (0, 1) if y < 2 else (0,)
        pairs = [(a, b) for a in a_outs for b in b_outs
                 if x >= 2 or y >= 2 or (a ^ b) == (x & y)]
        for a, b in pairs:
            t[flat_index(scenario, (x, y), (a, b))] = 1.0 / len(pairs)
    return t


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), scenario=st.sampled_from([CHSH, THREE, UNEVEN]),
       nonlocal_weight=st.floats(0.0, 1.0, allow_nan=False),
       signalling_weight=st.sampled_from([0.0, 1e-11, 1e-3, 0.2, 1.0]))
def test_membership_and_classify_share_one_decision(seed, scenario, nonlocal_weight,
                                                     signalling_weight):
    """Local, PR-box and random (signalling) parts mixed at random: both
    entry points scan for signalling once and agree on locality, and a
    signalling table's membership witness is its marginal shift, found
    with no program solved."""
    rng = np.random.default_rng(seed)
    pr = _pr_box_on_pair(rng, 2) if scenario == THREE else _embedded_pr_box(scenario)
    probs = (1.0 - nonlocal_weight) * _deterministic_mixture(rng, scenario) + nonlocal_weight * pr
    probs = (1.0 - signalling_weight) * probs + signalling_weight * _random_table(rng, scenario)
    behavior = validate_behavior(scenario, probs)
    with mock.patch.object(analysis, "no_signalling_defect",
                           wraps=analysis.no_signalling_defect) as scans:
        verdict = classify(behavior).verdict
        assert scans.call_count == 1
        with mock.patch.object(analysis, "solve", wraps=analysis.solve) as solves:
            res = membership(behavior)
        assert scans.call_count == 2
    assert res.is_local == (verdict is Verdict.LOCAL)
    if verdict is Verdict.SIGNALLING:
        assert solves.call_count == 0
        assert_shift_witness(behavior, res, no_signalling_defect(behavior))


def test_marginal_difference_matrix_is_capped_before_any_row(monkeypatch, tmp_path):
    """A declared (2,64,2) table has 16,128 marginal-difference rows of
    16,384 entries, a 2.1 GB matrix: refused (exit 3) before a row is
    built, so a patched row builder never runs."""
    behavior = named_behavior("uniform", Scenario.uniform(2, 64, 2))
    path = tmp_path / "wide.json"
    write_document(behavior, path)

    def no_rows(*args, **kwargs):
        raise AssertionError("a marginal-difference row was built")

    monkeypatch.setattr(bellbox.scenario, "marginal_indicator", no_rows)
    for decide in (classify, membership):
        with pytest.raises(SizeCapError, match="marginal-difference matrix"):
            decide(behavior)
    for verb in ("classify", "membership"):
        assert main([verb, str(path)]) == 3
