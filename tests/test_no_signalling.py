"""No-signalling across every proper party subset.

A group of parties must not see its joint statistics move with the
inputs of the others, even when each member's own marginal stays flat
(Barrett et al., PRA 71, 022101 (2005)).  The references here are
plain loops, kept in this file: one sums the table entry by entry, and
one builds the marginal rows one at a time, as the package once did,
for the package's marginal index to match bit for bit.
"""

import itertools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bellbox import Scenario, validate_behavior
import bellbox.analysis as analysis
from bellbox.analysis import (DEFAULT_TOL, MODEL_TOL, Verdict, _canonical_cut, _decide, classify,
                              derive_critical_inequality, membership)
import bellbox.polytope as polytope
from bellbox.cli import main
from bellbox.documents import write_document
from bellbox.errors import SizeCapError, StalledError
from bellbox.polytope import (BellFunctional, _gauge_basis, local_bound, reduced_space,
                              strategy_matrix)
from bellbox.scenario import (_blocks, _layout, _marginal_index, flat_index, named_behavior,
                              no_signalling_defect)
from bellbox.tolerances import GAUGE_RANK_TOL

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


def marginal_indicator(scenario, T, t_inputs, t_outputs, context) -> np.ndarray:
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


def reference_keys(scenario, T):
    """Every (T's inputs, T's outputs, remote context) in the order the
    rows were built one at a time: inputs, then outputs, then context."""
    contexts = list(itertools.product(
        *(range(n) for p, n in enumerate(scenario.inputs_per_party) if p not in T)))
    return [(t_inputs, t_outputs, context)
            for t_inputs in itertools.product(*(range(scenario.inputs_per_party[p]) for p in T))
            for t_outputs in itertools.product(
                *(range(scenario.outputs[p][x]) for p, x in zip(T, t_inputs)))
            for context in contexts]


def reference_differences(scenario):
    """The marginal-difference rows D, D p = 0 exactly when p is
    no-signalling, with their labels (T, T's inputs, T's outputs,
    context): per proper subset and group, the marginal at every
    non-base context minus the one at the base context."""
    rows, labels = [], []
    for size in range(1, scenario.parties):
        for T in itertools.combinations(range(scenario.parties), size):
            for t_inputs, t_outputs, context in reference_keys(scenario, T):
                if any(context):
                    base = (0,) * len(context)
                    rows.append(marginal_indicator(scenario, T, t_inputs, t_outputs, context)
                                - marginal_indicator(scenario, T, t_inputs, t_outputs, base))
                    labels.append((T, t_inputs, t_outputs, context))
    return np.array(rows).reshape(len(rows), scenario.dimension), labels


def reference_reduced_space(scenario):
    rows = []
    for size in range(1, scenario.parties + 1):
        for T in itertools.combinations(range(scenario.parties), size):
            for t_inputs, t_outputs, context in reference_keys(scenario, T):
                last = any(a == scenario.outputs[p][x] - 1
                           for p, x, a in zip(T, t_inputs, t_outputs))
                if not any(context) and not last:
                    rows.append(marginal_indicator(scenario, T, t_inputs, t_outputs, context))
    return np.array(rows).reshape(len(rows), scenario.dimension)


def reference_gauge_basis(scenario):
    normalization = [marginal_indicator(scenario, (), (), (), joint)
                     for joint in scenario.joint_inputs()]
    gauge = np.vstack([normalization, reference_differences(scenario)[0]])
    u, s, _ = np.linalg.svd(gauge.T, full_matrices=False)
    return u[:, :int((s > GAUGE_RANK_TOL * s[0]).sum())]


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
    ``classify`` calls it local, with a model within MODEL_TOL, read off
    the one solve of its distance program."""
    rng = np.random.default_rng(0)
    probs = _deterministic_mixture(rng, THREE)
    behavior = validate_behavior(THREE, (1.0 - 1e-9) * probs + 1e-9 * _group_signalling(rng, 2))
    assert 0.0 < no_signalling_defect(behavior).max_defect <= DEFAULT_TOL
    with mock.patch.object(analysis, "solve", wraps=analysis.solve) as solves:
        result = classify(behavior)
    assert solves.call_count == 1
    assert result.verdict is Verdict.LOCAL
    gap = np.abs(strategy_matrix(THREE) @ result.model.weights - behavior.probs).max()
    assert gap <= MODEL_TOL


# -- the marginal index -------------------------------------------------------

CHSH = Scenario.uniform(2, 2, 2)
UNEVEN = Scenario(inputs_per_party=(2, 3), outputs=((2, 3), (3, 2, 2)))
REFERENCE = [
    THREE,
    Scenario.uniform(1, 3, 2),
    Scenario.uniform(2, 3, 2),
    UNEVEN,
    Scenario(inputs_per_party=(1, 2, 3), outputs=((2,), (2, 3), (2, 2, 2))),
    Scenario(inputs_per_party=(2, 2), outputs=((1, 1), (1, 1))),
    Scenario.uniform(4, 2, 2),
]


@pytest.mark.parametrize("scenario", REFERENCE)
def test_reduced_space_and_gauge_equal_the_row_by_row_reference(scenario):
    """Same rows in the same order, so canonical cuts and facets do not move."""
    assert reduced_space(scenario).tobytes() == reference_reduced_space(scenario).tobytes()
    assert reduced_space(scenario).shape == reference_reduced_space(scenario).shape
    want = reference_gauge_basis(scenario)
    assert _gauge_basis(scenario).shape == want.shape
    assert _gauge_basis(scenario).tobytes() == want.tobytes()


@pytest.mark.parametrize("scenario", REFERENCE)
def test_each_cell_is_its_labelled_marginal(scenario):
    """Every cell of every subset, the empty one's normalization rows
    included, is the reference marginal row at its key, and the keys come
    in the order the reference built its rows."""
    index = _marginal_index(scenario)
    for k, T in enumerate(index.subsets):
        count = index.tables[k].dimension * index.contexts[k]
        keys = [index.key(k, cell) for cell in range(count)]
        assert keys == reference_keys(scenario, T)
        rows = index.rows(k, np.arange(count))
        for cell, key in enumerate(keys):
            assert rows[cell].tobytes() == marginal_indicator(scenario, T, *key).tobytes()
            assert index.cell(k, key) == cell


@pytest.mark.parametrize("scenario", REFERENCE + [Scenario(inputs_per_party=(1, 1),
                                                           outputs=((2,), (3,)))])
def test_the_size_cap_counts_the_rows_that_are_built(scenario):
    """The gauge checks its cap on a row count read off the index's
    shape; it must be the number of marginal differences the reference
    builds, and every cell must hold an entry."""
    with mock.patch.object(polytope, "check_entries", wraps=polytope.check_entries) as caps:
        _gauge_basis.__wrapped__(scenario)
    rows = reference_differences(scenario)[0].shape[0]
    assert caps.call_args_list == [mock.call("marginal-difference matrix", rows, scenario.dimension)]
    index = _marginal_index(scenario)
    for k in range(len(index.subsets)):
        count = index.tables[k].dimension * index.contexts[k]
        assert np.unique(index.cells(k)).tolist() == list(range(count))


def test_marginal_difference_matrix_is_capped_before_any_row():
    """(2,64,2): 16,128 difference rows of 16,384 entries each are past
    the cap, which refuses them before a cell is built."""
    sc = Scenario.uniform(2, 64, 2)
    assert _peak_bytes(_refused(_gauge_basis, sc, "marginal-difference matrix")) < 2**20


def test_one_party_scenario_has_no_conditions():
    """No proper subset, no marginal difference: any table, however far
    from uniform, passes the scan, and the gauge is normalization alone."""
    sc = Scenario.uniform(1, 3, 2)
    assert reference_differences(sc)[0].shape == (0, sc.dimension)
    assert _marginal_index(sc).subsets == ((), (0,))
    behavior = validate_behavior(sc, [1.0, 0.0, 0.0, 1.0, 0.3, 0.7])
    assert no_signalling_defect(behavior).max_defect == 0.0
    assert _gauge_basis(sc).shape == (sc.dimension, sc.joint_input_count)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 2**32 - 1), scenario=st.sampled_from(REFERENCE),
       w=st.sampled_from([0.0, 1e-12, 1e-3, 0.3, 1.0]))
def test_scan_matches_the_dense_reference(seed, scenario, w):
    """The bincount scan against D p from the reference rows: the same
    verdict at tol, the defect within 1e-15, and the named marginal's
    shift within 1e-15 of the reference defect.  Round-off may name the
    other of two marginals that tie."""
    rng = np.random.default_rng(seed)
    probs = (1.0 - w) * _deterministic_mixture(rng, scenario) + w * _random_table(rng, scenario)
    behavior = validate_behavior(scenario, probs)
    D, labels = reference_differences(scenario)
    shifts = D @ behavior.probs
    groups = {}
    for shift, (T, t_inputs, t_outputs, _) in zip(shifts, labels):
        groups.setdefault((T, t_inputs, t_outputs), [0.0]).append(float(shift))
    want = max((max(g) - min(g) for g in groups.values()), default=0.0)
    assume(abs(want - DEFAULT_TOL) > 1e-15)
    report = no_signalling_defect(behavior)
    assert abs(report.max_defect - want) <= 1e-15
    if report.max_defect > 0.0:
        party, x, a, (hi, lo) = report.worst_marginal
        if isinstance(party, int):
            party, x, a = (party,), (x,), (a,)
        named = (marginal_indicator(scenario, party, x, a, hi)
                 - marginal_indicator(scenario, party, x, a, lo)) @ behavior.probs
        assert abs(named - want) <= 1e-15
    verdict = classify(behavior).verdict
    assert (verdict is Verdict.SIGNALLING) == (want > DEFAULT_TOL)
    if verdict is Verdict.SIGNALLING:
        assert_shift_witness(behavior, membership(behavior), report)


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


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _refused(decide, behavior, match):
    def call():
        with pytest.raises(SizeCapError, match=match):
            decide(behavior)
    return call


@pytest.mark.parametrize("shape", [(2, 32, 2), (2, 64, 2), (7, 2, 2), (8, 2, 2)],
                         ids=lambda shape: "-".join(map(str, shape)))
def test_wide_table_is_refused_before_any_large_allocation(shape, tmp_path):
    """Uniform tables the scan admits, refused by the LP cap (exit 3)
    before a strategy is enumerated.  The scan holds one subset's cells
    at a time: a dense marginal-difference matrix would take 130 MB or
    2.1 GB on the (2,32,2) and (2,64,2) ones, and every subset's cells at
    once 19 MB or 134 MB on the (7,2,2) and (8,2,2) ones."""
    behavior = named_behavior("uniform", Scenario.uniform(*shape))
    for decide in (classify, membership):
        assert _peak_bytes(_refused(decide, behavior, "LP of size")) < 16 * 2**20
    path = tmp_path / "wide.json"
    write_document(behavior, path)
    for verb in ("classify", "membership"):
        assert main([verb, str(path)]) == 3


def test_many_party_table_is_refused_by_the_scan_cap():
    """(10,2,2): 1,022 proper subsets times 2**20 entries is past the
    scan's cap, which builds nothing: no per-entry layout, no cell."""
    sc = Scenario.uniform(10, 2, 2)
    layouts = _layout.cache_info()
    behavior = named_behavior("uniform", sc)
    for decide in (classify, membership):
        with pytest.raises(SizeCapError, match="no-signalling scan"):
            decide(behavior)
    assert _layout.cache_info() == layouts
    assert "kept" not in vars(_marginal_index(sc))


def _input_reader(inputs):
    """Party 0 answers the parity of party 1's input; party 1 a fair coin."""
    t = np.zeros((inputs, inputs, 2, 2))
    for y in range(inputs):
        t[:, y, y % 2, :] = 0.5
    return validate_behavior(Scenario.uniform(2, inputs, 2), t.reshape(-1))


def test_signalling_table_past_the_lp_cap(tmp_path, capsys):
    """The scan calls a (2,32,2) signalling table with no program.  Its
    membership witness is the marginal shift, whose local bound is
    rechecked over the two input blocks it reads, not by a best response
    over party 0's 2**32 strategies, which is past the cap."""
    behavior = _input_reader(32)
    with mock.patch.object(analysis, "solve", wraps=analysis.solve) as solves:
        result = classify(behavior)
        assert _peak_bytes(lambda: membership(behavior)) < 16 * 2**20
    assert solves.call_count == 0
    assert result.verdict is Verdict.SIGNALLING and result.signalling.max_defect == 1.0
    res = membership(behavior)
    party, x, a, (hi, lo) = result.signalling.worst_marginal
    want = (marginal_indicator(behavior.scenario, (party,), (x,), (a,), hi)
            - marginal_indicator(behavior.scenario, (party,), (x,), (a,), lo))
    assert res.functional.coeffs.tobytes() == want.tobytes()
    assert res.functional.local_bound == 0.0 and res.functional.integer_bound == 0
    assert not res.is_local and res.violation == 1.0
    with pytest.raises(SizeCapError, match="strategy matrix"):
        local_bound(res.functional)
    path = tmp_path / "reader.json"
    write_document(behavior, path)
    assert main(["classify", str(path)]) == 0
    assert "signalling" in capsys.readouterr().out
    assert main(["membership", str(path)]) == 0
    assert "  local bound: 0\n  violation: 1\n" in capsys.readouterr().out


def _input_copier(outputs):
    """Party 0 answers party 1's input and party 1 answers 0, on (2,4,k)."""
    sc = Scenario.uniform(2, 4, outputs)
    (blocks, (a, b)), inputs = _layout(sc), _blocks(sc).inputs
    return validate_behavior(sc, np.where((a == inputs[1, blocks]) & (b == 0), 1.0, 0.0))


@pytest.mark.parametrize("outputs", [4, 5])
def test_signalling_table_past_the_strategy_matrix(outputs, tmp_path, capsys):
    """The strategy matrix of (2,4,4) takes 134 MB and that of (2,4,5) is
    past the cap, but the shift witness's bound 0 is a best response over
    party 0's 256 or 625 strategies, so membership and the derived
    inequality answer in a few MB, through the API and the command line."""
    behavior = _input_copier(outputs)
    report = no_signalling_defect(behavior)
    assert report.max_defect == 1.0
    assert _peak_bytes(lambda: membership(behavior)) < 16 * 2**20
    assert_shift_witness(behavior, membership(behavior), report)
    f = derive_critical_inequality(behavior)
    assert f.integer_bound == 0 and f.local_bound == 0.0
    assert f.coeffs.tobytes() == membership(behavior).functional.coeffs.tobytes()
    path = tmp_path / "copier.json"
    write_document(behavior, path)
    for verb in ("membership", "derive-inequality"):
        assert main([verb, str(path)]) == 0
    assert capsys.readouterr().out.count(" with bound 0\n") == 2  # each integer form
    assert main(["membership", str(path), "--format", "structured"]) == 0
    witness = json.loads(capsys.readouterr().out)["witness"]
    assert witness["functional"]["local_bound"] == 0.0 and witness["violation"] == 1.0
