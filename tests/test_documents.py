"""Document round-trips and the failure modes of parsing.

The format law under test: emitting a parsed document reproduces the
emitted bytes exactly, and parsing an emitted value reproduces the value
exactly, including floats at full precision.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from bellbox import Scenario, named_behavior
from bellbox.analysis import chsh_value
from bellbox.cli import main
from bellbox.documents import (
    emit_document,
    parse_document,
    parse_document_text,
    render_json,
    write_document,
)
from bellbox.errors import ValidationError
from bellbox.fixtures import fixture_names, fixture_path
from bellbox.polytope import BellFunctional, canonicalize, chsh_functional, strategy_matrix
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


# -- numbers in documents ----------------------------------------------------

def _uniform_payload() -> dict:
    return json.loads(emit_document(named_behavior("uniform")))


@pytest.mark.parametrize("field, value", [
    ("inputs", [2.7, 2]),
    ("inputs", [2.0, 2]),
    ("inputs", ["2", 2]),
    ("inputs", [True, 2]),
    ("outputs", [[2, "2"], [2, 2]]),
    ("outputs", [[2, 2], [2.0, 2]]),
    ("outputs", [[True, 2], [2, 2]]),
    ("parties", "2"),
    ("parties", 2.0),
])
def test_count_fields_take_json_integers_only(field, value):
    """2.7 used to truncate to 2, and "2" and true to parse as counts."""
    payload = _uniform_payload()
    payload[field] = value
    with pytest.raises(ValidationError, match="integer"):
        parse_document_text(json.dumps(payload))


def test_parties_true_is_not_one_party():
    payload = {"kind": "scenario", "parties": True, "inputs": [2], "outputs": [[2, 2]]}
    with pytest.raises(ValidationError, match="parties must be an integer"):
        parse_document_text(json.dumps(payload))


@pytest.mark.parametrize("entry", ["0.25", True, None, [0.25]])
def test_probabilities_take_json_numbers_only(entry):
    payload = _uniform_payload()
    payload["probs"][0] = entry
    with pytest.raises(ValidationError, match="probs must be a flat list of numbers"):
        parse_document_text(json.dumps(payload))


def test_boolean_table_is_not_a_table():
    """[true, false, ...] is not the 0/1 table it spells."""
    payload = _uniform_payload()
    payload["probs"] = [bool(v) for v in named_behavior("pr_box").probs]
    with pytest.raises(ValidationError, match="probs"):
        parse_document_text(json.dumps(payload))


def test_integer_probabilities_stay_accepted():
    payload = _uniform_payload()
    payload["probs"] = [int(v) for v in strategy_matrix(Scenario.uniform(2, 2, 2))[:, 5]]
    assert set(payload["probs"]) == {0, 1}
    table = parse_document_text(json.dumps(payload))
    assert table.probs.tolist() == [float(v) for v in payload["probs"]]


@pytest.mark.parametrize("big", [10 ** 400, -(10 ** 400)], ids=["huge", "minus-huge"])
def test_integer_too_large_for_a_float_is_refused(big):
    """float(10 ** 400) raises OverflowError, which used to escape."""
    payload = _uniform_payload()
    payload["probs"][0] = big
    with pytest.raises(ValidationError, match="probs"):
        parse_document_text(json.dumps(payload))
    payload = _uniform_payload()
    payload["tol"] = big
    with pytest.raises(ValidationError, match="tol must be positive and finite"):
        parse_document_text(json.dumps(payload))


def test_integer_past_the_digit_limit_is_refused():
    text = emit_document(named_behavior("uniform")).replace("0.25", "9" * 5000, 1)
    with pytest.raises(ValidationError, match="number"):
        parse_document_text(text)


def test_deeply_nested_document_is_refused():
    """json.loads recurses once per nested array; past the interpreter's
    limit that is a RecursionError, which must be the input's fault."""
    with pytest.raises(ValidationError, match="too deeply"):
        parse_document_text("[" * 200_000)


def test_overflowing_json_float_is_refused_as_non_finite():
    """json reads 1e999 as inf; the table's own check refuses it."""
    text = emit_document(named_behavior("uniform")).replace("0.25", "1e999", 1)
    with pytest.raises(ValidationError, match="finite"):
        parse_document_text(text)


@pytest.mark.parametrize("entry", ["1", True, 10 ** 400], ids=["string", "bool", "huge"])
def test_coefficients_and_bounds_take_json_numbers_only(entry):
    payload = json.loads(emit_document(chsh_functional()))
    payload["coeffs"][0] = entry
    with pytest.raises(ValidationError, match="coeffs"):
        parse_document_text(json.dumps(payload))
    payload = json.loads(emit_document(chsh_functional()))
    payload["local_bound"] = entry
    with pytest.raises(ValidationError, match="local_bound must be a number"):
        parse_document_text(json.dumps(payload))


@pytest.mark.parametrize("entry", ["0.5", False, 10 ** 400], ids=["string", "bool", "huge"])
def test_matrix_entries_take_json_numbers_only(entry):
    payload = json.loads(emit_document(named_setup("singlet_chsh")))
    payload["state"][0][0][0] = entry
    with pytest.raises(ValidationError, match="state must be a matrix"):
        parse_document_text(json.dumps(payload))
    payload = json.loads(emit_document(named_setup("singlet_chsh")))
    payload["alice"][0][0][1][1][1] = entry
    with pytest.raises(ValidationError, match="alice effect"):
        parse_document_text(json.dumps(payload))


@pytest.mark.parametrize("entry", [[1, 0, 3], [1], []], ids=["three", "one", "none"])
def test_matrix_entries_are_exactly_pairs(entry, tmp_path):
    """Every complex entry is a two-element [re, im] list (README).  One
    with more numbers is refused like one with fewer, and the command
    line exits 2 on it, not 0 with the extra numbers dropped."""
    payload = json.loads(emit_document(named_setup("singlet_chsh")))
    payload["state"][1][1] = entry
    with pytest.raises(ValidationError, match="state must be a matrix of \\[re, im\\] pairs"):
        parse_document_text(json.dumps(payload))
    payload = json.loads(emit_document(named_setup("singlet_chsh")))
    payload["bob"][0][1][0][0] = entry
    with pytest.raises(ValidationError, match="bob effect \\(0, 1\\) must be a matrix"):
        parse_document_text(json.dumps(payload))
    path = tmp_path / "setup.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path)]) == 2


@pytest.mark.parametrize("dims", [[2.0, 2], ["2", 2], [True, 2]])
def test_setup_dims_take_json_integers_only(dims):
    payload = json.loads(emit_document(named_setup("singlet_chsh")))
    payload["dims"] = dims
    with pytest.raises(ValidationError, match="dims must be two integers"):
        parse_document_text(json.dumps(payload))


@pytest.mark.parametrize("effects", [5, [5]], ids=["number", "list-of-numbers"])
def test_setup_effects_that_are_no_lists_are_refused(effects):
    """A number where the effect lists belong raised TypeError."""
    payload = json.loads(emit_document(named_setup("singlet_chsh")))
    payload["bob"] = effects
    with pytest.raises(ValidationError, match="bob must list, per input, a list of effects"):
        parse_document_text(json.dumps(payload))


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_local_bound_is_refused(spelling):
    """json reads all four spellings as floats; the bound was taken as it
    came and emitted again as NaN or Infinity, which is not JSON."""
    text = emit_document(chsh_functional())
    assert '"local_bound": 2.0' in text
    with pytest.raises(ValidationError, match="local_bound must be finite"):
        parse_document_text(text.replace('"local_bound": 2.0', f'"local_bound": {spelling}'))


# -- the structured-output encoder -------------------------------------------

_FLOATS = st.one_of(
    st.floats(),  # NaN and the infinities included: they take the fallback
    st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e22, 0.1, 1e308, -1e308]),
    st.floats(allow_nan=False).map(np.float64),
)
_STRINGS = st.one_of(
    st.text(),
    st.sampled_from(['"', "\\", "\n\t\r\x00\x1f\x7f", "caf\u00e9", "\u2028", "\U0001f600",
                     'a "quoted" key']),
)
_SCALARS = st.one_of(_FLOATS, st.integers(), st.integers(-10 ** 40, 10 ** 40),
                     st.booleans(), st.none(), _STRINGS)
_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_STRINGS, inner, max_size=5),
        # flat float lists, the tables' shape, finite or not
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
        st.lists(st.floats(), min_size=1, max_size=8),
        st.lists(_FLOATS, max_size=8),
        # number lists, which the C encoder renders, with a bool or not
        st.lists(st.one_of(st.floats(), st.integers(), st.integers(-10 ** 40, 10 ** 40)),
                 min_size=1, max_size=8),
        st.lists(st.one_of(st.floats(), st.integers(), st.booleans()), min_size=1, max_size=8),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
@example([0.5, float("nan")])
@example({"a": [float("-inf"), 1.0], "b": {}})
@example({"w": [-0.0, float("nan"), float("inf"), -float("inf"), 0, 10 ** 40, 5e-324]})
@example([[1, 2.5], (3, -0.0), [1, True], [np.float64(0.5), 1.0]])
def test_render_json_is_json_dumps_byte_for_byte(payload):
    assert render_json(payload) == json.dumps(payload, indent=2)


def test_render_json_on_emitted_documents():
    for obj in (chsh_functional(), named_behavior("pr_box"), named_setup("singlet_chsh"),
                Scenario.uniform(3, 2, 2)):
        payload = json.loads(emit_document(obj))
        assert emit_document(obj) == json.dumps(payload, indent=2) + "\n"
