"""Document round-trips and the failure modes of parsing.

The format law under test: emitting a parsed document reproduces the
emitted bytes exactly, and parsing an emitted value reproduces the value
exactly, including floats at full precision.
"""

import json

import numpy as np
import pytest

from bellbox import Scenario, named_behavior
from bellbox.analysis import chsh_value
from bellbox.documents import (
    emit_document,
    parse_document,
    parse_document_text,
    write_document,
)
from bellbox.errors import ValidationError
from bellbox.fixtures import fixture_names, fixture_path
from bellbox.polytope import BellFunctional, canonicalize, chsh_functional
from bellbox.quantum import BellSetup, behavior_from_setup, named_setup


def test_scenario_document_exact_bytes():
    doc = emit_document(Scenario.uniform(2, 2, 2))
    payload = json.loads(doc)
    assert list(payload) == ["kind", "parties", "inputs", "outputs"]
    assert payload == {
        "kind": "scenario",
        "parties": 2,
        "inputs": [2, 2],
        "outputs": [[2, 2], [2, 2]],
    }
    assert parse_document_text(doc) == Scenario.uniform(2, 2, 2)


def test_scenario_ragged_round_trip():
    sc = Scenario(inputs_per_party=(2, 1), outputs=((2, 3), (2,)))
    assert parse_document_text(emit_document(sc)) == sc


def test_behavior_round_trip_is_byte_identical():
    beh = named_behavior("pr_box")
    doc = emit_document(beh)
    again = emit_document(parse_document_text(doc))
    assert doc == again


def test_behavior_probs_survive_bit_exactly():
    vec = np.zeros(16)
    third = 1.0 / 3.0
    for block in range(4):
        vec[4 * block : 4 * block + 4] = [third, third, third - 1e-16, 1.0 - 3.0 * third + 1e-16]
    from bellbox import validate_behavior

    beh = validate_behavior(Scenario.uniform(2, 2, 2), vec)
    parsed = parse_document_text(emit_document(beh))
    assert parsed.probs.tolist() == beh.probs.tolist()
    assert parsed.tol == beh.tol


def test_behavior_document_checks_invariants():
    beh = named_behavior("uniform")
    payload = json.loads(emit_document(beh))
    payload["probs"][0] = -0.01
    with pytest.raises(ValidationError, match="negative"):
        parse_document_text(json.dumps(payload))


def test_behavior_document_checks_length():
    payload = json.loads(emit_document(named_behavior("uniform")))
    payload["probs"] = payload["probs"][:-1]
    with pytest.raises(ValidationError, match="length"):
        parse_document_text(json.dumps(payload))


def test_malformed_document_reports_line():
    text = '{\n  "kind": "scenario",\n  "parties" 2\n}\n'
    with pytest.raises(ValidationError, match="line 3"):
        parse_document_text(text)


def test_unknown_kind_rejected():
    with pytest.raises(ValidationError, match="unknown document kind"):
        parse_document_text('{"kind": "telegram"}')


def test_missing_field_named():
    with pytest.raises(ValidationError, match="probs"):
        parse_document_text(
            '{"kind": "behavior", "parties": 2, "inputs": [2, 2], '
            '"outputs": [[2, 2], [2, 2]], "tol": 1e-9}'
        )


def test_parties_field_must_agree():
    with pytest.raises(ValidationError, match="parties"):
        parse_document_text(
            '{"kind": "scenario", "parties": 3, "inputs": [2, 2], '
            '"outputs": [[2, 2], [2, 2]]}'
        )


def test_document_must_be_an_object():
    with pytest.raises(ValidationError, match="object"):
        parse_document_text("[1, 2, 3]")


def test_functional_round_trip_keeps_note_and_values():
    f = canonicalize(chsh_functional())
    import dataclasses

    f = dataclasses.replace(f, note="facet")
    doc = emit_document(f)
    parsed = parse_document_text(doc)
    assert isinstance(parsed, BellFunctional)
    assert parsed.note == "facet"
    assert parsed.local_bound == f.local_bound
    assert parsed.coeffs.tolist() == f.coeffs.tolist()
    assert emit_document(parsed) == doc


def test_functional_without_note():
    f = BellFunctional(scenario=Scenario.uniform(2, 2, 2), coeffs=np.arange(16.0))
    parsed = parse_document_text(emit_document(f))
    assert parsed.note is None
    assert parsed.local_bound is None
    assert parsed.coeffs.tolist() == list(map(float, range(16)))


def test_setup_round_trip_end_to_end():
    setup = named_setup("singlet_chsh")
    doc = emit_document(setup)
    parsed = parse_document_text(doc)
    assert isinstance(parsed, BellSetup)
    assert emit_document(parsed) == doc
    np.testing.assert_array_equal(parsed.state.rho, setup.state.rho)
    s = chsh_value(behavior_from_setup(parsed))
    assert s == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-9)


def test_setup_document_validates_state():
    payload = json.loads(emit_document(named_setup("singlet_chsh")))
    payload["state"][0][0] = [0.7, 0.0]
    with pytest.raises(ValidationError, match="trace"):
        parse_document_text(json.dumps(payload))


def test_write_and_parse_file(tmp_path):
    target = tmp_path / "box.json"
    write_document(named_behavior("pr_box"), target)
    parsed = parse_document(target)
    assert parsed.probs.tolist() == named_behavior("pr_box").probs.tolist()


def test_parse_missing_file(tmp_path):
    with pytest.raises(ValidationError, match="missing.json"):
        parse_document(tmp_path / "missing.json")


def test_non_finite_probability_rejected():
    payload = json.loads(emit_document(named_behavior("uniform")))
    payload["probs"][3] = float("nan")
    with pytest.raises(ValidationError, match="finite"):
        parse_document_text(json.dumps(payload))


def test_nan_document_tolerance_rejected():
    """Python's json reads NaN; at that tol a table of threes would parse
    as the uniform table."""
    payload = json.loads(emit_document(named_behavior("uniform")))
    payload["probs"] = [3.0] * 16
    payload["tol"] = float("nan")
    with pytest.raises(ValidationError, match="tol must be positive and finite"):
        parse_document_text(json.dumps(payload))


def test_string_document_tolerance_rejected():
    payload = json.loads(emit_document(named_behavior("uniform")))
    payload["tol"] = "loose"
    with pytest.raises(ValidationError, match="tol must be a number"):
        parse_document_text(json.dumps(payload))


# -- shipped fixtures --------------------------------------------------------

def test_fixture_catalog():
    names = fixture_names()
    for required in ("uniform", "pr_box", "signalling_demo", "singlet_chsh",
                     "werner_0.60", "werner_0.80", "chsh_scenario"):
        assert required in names


def test_fixtures_parse_and_are_emit_normalized():
    for name in fixture_names():
        path = fixture_path(name)
        raw = path.read_text()
        parsed = parse_document_text(raw)
        assert emit_document(parsed) == raw


def test_unknown_fixture():
    with pytest.raises(ValidationError, match="no_such_thing"):
        fixture_path("no_such_thing")
