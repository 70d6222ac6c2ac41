"""Command-line behavior: verbs, exit codes, determinism, file errors.

Frozen contract: exit 0 on success, 2 on validation problems, 3 when a
size cap or an internal consistency stop fires; structured output is
byte-identical across identical invocations.
"""

import json
import subprocess
import sys
import time
from unittest import mock

import numpy as np
import pytest

from bellbox import Scenario, cli, documents, named_behavior, validate_behavior
from bellbox.cli import _build_parser, main
from bellbox.documents import emit_document, parse_document_text, write_document
from bellbox.fixtures import fixture_names, fixture_path
from bellbox.polytope import BellFunctional, strategy_matrix
from bellbox.quantum import (BellSetup, MeasurementSet, behavior_from_setup, bin_last_outcome,
                             lift_with_efficiency, named_setup, random_setup)

ROOT2 = float(np.sqrt(2.0))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name):
    return str(fixture_path(name))


# -- validate ----------------------------------------------------------------

def test_validate_good_fixture(capsys):
    code, out, err = run_cli(capsys, "validate", fx("pr_box"))
    assert code == 0
    assert "behavior" in out
    assert "ok" in out
    assert err == ""


def test_validate_bad_block_names_it(capsys, tmp_path):
    payload = json.loads(emit_document(named_behavior("uniform")))
    payload["probs"][0] = 0.15  # block (0, 0) now sums to 0.9
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert "(0, 0)" in err
    assert err.strip().count("\n") == 0  # one-line message


def test_validate_deeply_nested_document_exits_2(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "validate", str(deep))
    assert code == 2
    assert out == "" and "too deeply" in err
    assert "Traceback" not in err


def test_validate_env_tolerance_override(capsys, tmp_path, monkeypatch):
    payload = json.loads(emit_document(named_behavior("uniform")))
    payload["probs"][0] = 0.2495  # off by 5e-4
    doc = tmp_path / "noisy.json"
    doc.write_text(json.dumps(payload))
    code, _, _ = run_cli(capsys, "validate", str(doc))
    assert code == 2
    monkeypatch.setenv("BELLBOX_TOL", "1e-2")
    code, out, _ = run_cli(capsys, "validate", str(doc))
    assert code == 0
    assert "0.01" in out  # tolerance echo reflects the override


def test_non_numeric_env_tolerance_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("BELLBOX_TOL", "abc")
    code, out, err = run_cli(capsys, "validate", fx("uniform"))
    assert (code, out) == (2, "")
    assert err == "error: BELLBOX_TOL must be a number, got 'abc'\n"


def test_validate_flag_beats_env(capsys, tmp_path, monkeypatch):
    payload = json.loads(emit_document(named_behavior("uniform")))
    payload["probs"][0] = 0.2495
    doc = tmp_path / "noisy.json"
    doc.write_text(json.dumps(payload))
    monkeypatch.setenv("BELLBOX_TOL", "1e-9")
    code, _, _ = run_cli(capsys, "validate", "--tol", "1e-2", str(doc))
    assert code == 0


def test_infinite_tolerance_exits_2(capsys, monkeypatch):
    code, _, err = run_cli(capsys, "classify", "--tol", "inf", fx("pr_box"))
    assert code == 2
    assert "positive and finite" in err
    monkeypatch.setenv("BELLBOX_TOL", "inf")
    code, _, err = run_cli(capsys, "membership", fx("pr_box"))
    assert code == 2
    assert "positive and finite" in err


def test_missing_file(capsys):
    code, out, err = run_cli(capsys, "classify", "/no/such/file.json")
    assert code == 2
    assert "file.json" in err


def test_validate_document_that_is_not_utf8_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, "validate", str(bad))
    assert code == 2
    assert out == "" and "bad.json: not UTF-8 text" in err
    assert "Traceback" not in err


# -- classify ----------------------------------------------------------------

def test_classify_pr_box_structured(capsys):
    code, out, _ = run_cli(capsys, "classify", "--format", "structured", fx("pr_box"))
    assert code == 0
    payload = json.loads(out)
    assert payload["verb"] == "classify"
    assert payload["verdict"] == "weakly nonlocal"
    assert payload["tolerance"] == 1e-9
    assert payload["witness"]["type"] == "functional"
    assert payload["witness"]["violation"] == pytest.approx(2.0, abs=1e-9)


def test_classify_uniform_text(capsys):
    code, out, _ = run_cli(capsys, "classify", fx("uniform"))
    assert code == 0
    assert "verdict: local" in out
    assert "summary:" in out


def test_classify_signalling_text(capsys):
    code, out, _ = run_cli(capsys, "classify", fx("signalling_demo"))
    assert code == 0
    assert "verdict: signalling" in out
    assert "1" in out


def test_classify_accepts_setup_documents(capsys):
    code, out, _ = run_cli(capsys, "classify", "--format", "structured", fx("singlet_chsh"))
    assert code == 0
    assert json.loads(out)["verdict"] == "weakly nonlocal"


def test_classify_refuses_a_functional_document(capsys, tmp_path):
    doc = tmp_path / "functional.json"
    write_document(BellFunctional(scenario=Scenario.uniform(2, 2, 2), coeffs=np.ones(16)), doc)
    code, out, err = run_cli(capsys, "classify", str(doc))
    assert (code, out) == (2, "")
    assert err == (f"error: {doc} holds a functional document; "
                   "this verb needs a behavior or setup\n")


def test_functional_note_that_is_not_a_string_exits_2(capsys, tmp_path):
    payload = json.loads(emit_document(BellFunctional(scenario=Scenario.uniform(2, 2, 2),
                                                      coeffs=np.ones(16), note="facet")))
    payload["note"] = 7
    doc = tmp_path / "functional.json"
    doc.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "validate", str(doc))
    assert (code, out) == (2, "")
    assert err == "error: functional document: note must be a string\n"


@pytest.mark.parametrize(("parties", "seed"), [(2, 2), (2, 12), (3, 0)])
def test_local_model_support_is_counted_once(capsys, tmp_path, parties, seed):
    """Six strategies under white noise: the simplex can leave weights of
    1e-17 basic.  The summary, the structured support and the text
    witness all count the model's nonzero weights, and none of those is
    round-off."""
    sc = Scenario.uniform(parties, 2, 2)
    V = strategy_matrix(sc)
    rng = np.random.default_rng(seed)
    idx = rng.choice(V.shape[1], 6, replace=False)
    w = rng.dirichlet(np.ones(6))
    noise = rng.uniform(0.1, 0.3)
    probs = (1.0 - noise) * V[:, idx] @ w + noise * V.mean(axis=1)
    doc = tmp_path / "mixture.json"
    write_document(validate_behavior(sc, probs), doc)
    code, out, _ = run_cli(capsys, "classify", "--format", "structured", str(doc))
    assert code == 0
    payload = json.loads(out)
    weights = np.array(payload["witness"]["weights"])
    support = int(np.count_nonzero(weights))
    assert payload["witness"]["support"] == support
    assert f"a mixture of {support} deterministic" in payload["summary"]
    assert weights[weights > 0.0].min() > 1e-9
    code, out, _ = run_cli(capsys, "classify", str(doc))
    assert f"local model mixing {support} deterministic strategies" in out
    assert out.count("  strategy ") == support


def test_classify_werner_fixtures_split(capsys):
    code, out, _ = run_cli(capsys, "classify", "--format", "structured", fx("werner_0.60"))
    assert json.loads(out)["verdict"] == "local"
    code, out, _ = run_cli(capsys, "classify", "--format", "structured", fx("werner_0.80"))
    assert json.loads(out)["verdict"] == "weakly nonlocal"


# -- membership --------------------------------------------------------------

def test_membership_uniform_structured(capsys):
    code, out, _ = run_cli(capsys, "membership", "--format", "structured", fx("uniform"))
    assert code == 0
    payload = json.loads(out)
    assert payload["is_local"] is True
    weights = payload["witness"]["weights"]
    assert len(weights) == 16
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)


def test_membership_pr_structured(capsys):
    code, out, _ = run_cli(capsys, "membership", "--format", "structured", fx("pr_box"))
    payload = json.loads(out)
    assert payload["is_local"] is False
    doc = payload["witness"]["functional"]
    assert doc["kind"] == "functional"
    assert doc["local_bound"] == 2.0


# -- derive-inequality -------------------------------------------------------

def test_derive_inequality_emits_document(capsys):
    code, out, _ = run_cli(
        capsys, "derive-inequality", "--format", "structured", fx("pr_box"))
    assert code == 0
    f = parse_document_text(out)
    assert isinstance(f, BellFunctional)
    assert f.note == "certificate"
    assert f.local_bound == 2.0


def test_derive_inequality_on_local_input(capsys):
    code, out, err = run_cli(capsys, "derive-inequality", fx("uniform"))
    assert code == 2
    assert "no inequality" in err


# -- facets ------------------------------------------------------------------

def test_facets_of_chsh_scenario(capsys):
    code, out, _ = run_cli(capsys, "facets", "--format", "structured", fx("chsh_scenario"))
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 24
    assert len(payload["facets"]) == 24
    assert all(doc["kind"] == "functional" for doc in payload["facets"])
    assert all(doc["note"] == "facet" for doc in payload["facets"])


def test_facets_of_a_one_point_polytope(capsys, tmp_path):
    """Every alphabet has one output: one strategy, so no facet.  This
    used to end in a numpy traceback (exit 1) on an empty reduced space."""
    doc = tmp_path / "single.json"
    doc.write_text(json.dumps({"kind": "scenario", "parties": 2, "inputs": [2, 2],
                               "outputs": [[1, 1], [1, 1]]}))
    code, out, err = run_cli(capsys, "facets", "--format", "structured", str(doc))
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["count"] == 0 and payload["facets"] == []
    code, out, _ = run_cli(capsys, "facets", str(doc))
    assert code == 0 and out.startswith("count: 0\n")


def test_facets_text_lists_each_facet_by_its_integer_form(capsys):
    code, out, err = run_cli(capsys, "facets", fx("chsh_scenario"))
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[:3] == ["count: 24", "tolerance: 1.0000000000000001e-09",
                         "facet 0: -4 2 2 0 -1 -1 1 1 -1 1 -1 1 0 0 0 0 with bound 2"]
    assert len(lines) == 26
    for i, line in enumerate(lines[2:]):
        head, bound = line.split(" with bound ")
        label, coeffs = head.split(": ")
        assert label == f"facet {i}" and bound in ("0", "2")
        assert len([int(v) for v in coeffs.split()]) == 16


def test_facets_text_prints_floats_where_no_integer_form_exists(capsys, tmp_path):
    """72 of the 97 facets of two parties with two and three outputs
    have no integer form; their lines give every float to 17 digits."""
    doc = tmp_path / "2323.json"
    write_document(Scenario((2, 2), ((2, 3), (2, 3))), doc)
    code, out, err = run_cli(capsys, "facets", str(doc))
    assert (code, err) == (0, "")
    lines = out.splitlines()[2:]
    assert len(lines) == 97
    floats = [line for line in lines if "." in line]
    assert len(floats) == 72
    for line in floats:
        numbers = line.split(": ")[1].replace(" with bound", "").split()
        assert len(numbers) == 26
        assert all(f"{float(v):.17g}" == v for v in numbers)


def test_facets_cap_exit(capsys, tmp_path):
    big = tmp_path / "big.json"
    write_document(Scenario.uniform(2, 5, 2), big)
    code, out, err = run_cli(capsys, "facets", str(big))
    assert code == 3
    assert err.strip()


# -- chsh --------------------------------------------------------------------

def test_chsh_pr_box(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--format", "structured", fx("pr_box"))
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(4.0, abs=1e-12)


def test_chsh_singlet_fixture(capsys):
    code, out, _ = run_cli(capsys, "chsh", "--format", "structured", fx("singlet_chsh"))
    assert json.loads(out)["value"] == pytest.approx(2.0 * ROOT2, abs=1e-9)


def test_chsh_wrong_shape(capsys, tmp_path):
    doc = tmp_path / "wide.json"
    write_document(named_behavior("uniform", Scenario.uniform(2, 3, 2)), doc)
    code, _, err = run_cli(capsys, "chsh", str(doc))
    assert code == 2
    assert "scenario" in err


# -- quantum -----------------------------------------------------------------

def test_quantum_emits_behavior_document(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "quantum", "--format", "structured", fx("singlet_chsh"))
    assert code == 0
    beh = parse_document_text(out)
    assert beh.scenario == Scenario.uniform(2, 2, 2)
    generated = tmp_path / "generated.json"
    generated.write_text(out)
    code, out, _ = run_cli(capsys, "classify", "--format", "structured", str(generated))
    assert json.loads(out)["verdict"] == "weakly nonlocal"


def test_quantum_efficiency_and_binning(capsys):
    code, out, _ = run_cli(capsys, "quantum", "--format", "structured",
                           "--efficiency", "0.9", fx("singlet_chsh"))
    assert parse_document_text(out).scenario.outputs == ((3, 3), (3, 3))
    code, out, _ = run_cli(capsys, "quantum", "--format", "structured",
                           "--efficiency", "0.9", "--bin", fx("singlet_chsh"))
    assert parse_document_text(out).scenario == Scenario.uniform(2, 2, 2)


def test_quantum_seeded(capsys):
    code, first, _ = run_cli(capsys, "quantum", "--format", "structured", "--seed", "11")
    assert code == 0
    _, second, _ = run_cli(capsys, "quantum", "--format", "structured", "--seed", "11")
    assert first == second
    _, third, _ = run_cli(capsys, "quantum", "--format", "structured", "--seed", "12")
    assert first != third


def test_quantum_needs_exactly_one_source(capsys):
    code, _, err = run_cli(capsys, "quantum")
    assert code == 2
    assert "seed" in err
    code, _, err = run_cli(capsys, "quantum", "--seed", "3", fx("singlet_chsh"))
    assert code == 2


def test_quantum_refuses_a_negative_seed(capsys):
    """numpy's refusal of a negative seed used to leave main as a
    traceback."""
    code, out, err = run_cli(capsys, "quantum", "--seed", "-1")
    assert (code, out) == (2, "")
    assert err == "error: seed -1 must be a nonnegative integer\n"


def _uneven_setup():
    """A (3, 2)-dimensional, (3, 2)-input random setup with party 0's
    input 1 and party 1's input 0 lifted by a no-click outcome, so that
    its inputs have 3, 4, 3 and 3, 2 outcomes."""
    base = random_setup(1, dims=(3, 2), inputs=(3, 2))
    alice = MeasurementSet(dim=3, effects=(
        base.alice.effects[0], lift_with_efficiency(base.alice, 0.8).effects[1],
        base.alice.effects[2]))
    bob = MeasurementSet(dim=2, effects=(
        lift_with_efficiency(base.bob, 0.8).effects[0], base.bob.effects[1]))
    return BellSetup(state=base.state, alice=alice, bob=bob)


def _per_entry_report(beh):
    """The quantum text report as first written: one ``Behavior.prob``
    lookup per joint input and joint output."""
    sc = beh.scenario
    lines = [f"scenario: inputs {sc.inputs_per_party}, outputs {sc.outputs}"]
    for joint in sc.joint_inputs():
        for outs in sc.joint_outputs(joint):
            lines.append(f"P{outs}|{joint} = {beh.prob(joint, outs):.17g}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("lossy", [[], ["--efficiency", "0.9"], ["--efficiency", "0.9", "--bin"]],
                         ids=["plain", "lossy", "lossy-binned"])
def test_quantum_text_report_matches_the_per_entry_lookup(capsys, tmp_path, lossy):
    """On uneven alphabets the report read off the table's layout has
    the bytes of one lookup per entry."""
    setup = _uneven_setup()
    write_document(setup, tmp_path / "setup.json")
    code, out, err = run_cli(capsys, "quantum", str(tmp_path / "setup.json"), *lossy)
    assert (code, err) == (0, "")
    if lossy:
        setup = BellSetup(setup.state, lift_with_efficiency(setup.alice, 0.9),
                          lift_with_efficiency(setup.bob, 0.9))
    beh = behavior_from_setup(setup)
    if "--bin" in lossy:
        beh = bin_last_outcome(beh)
    assert len(set(beh.scenario.outputs[0])) > 1  # uneven alphabets
    assert out == _per_entry_report(beh)


def test_quantum_rejects_behavior_document(capsys):
    code, _, err = run_cli(capsys, "quantum", fx("pr_box"))
    assert code == 2
    assert "setup" in err


# -- threshold ---------------------------------------------------------------

def test_threshold_visibility_cli(capsys):
    code, out, _ = run_cli(capsys, "threshold", "visibility", "--format", "structured",
                           "--tol", "1e-3", fx("werner_0.80"), fx("uniform"))
    assert code == 0
    payload = json.loads(out)
    assert payload["parameter"] == "visibility"
    assert payload["tolerance"] == 1e-3
    # werner(0.8) reaches S = 0.8 * 2*sqrt(2); threshold against white
    # noise is 2/S
    assert payload["critical"] == pytest.approx(1.0 / (0.8 * ROOT2), abs=2e-3)
    lo, hi = payload["bracket"]
    assert hi - lo <= 1e-3


def test_threshold_efficiency_cli(capsys):
    code, out, _ = run_cli(capsys, "threshold", "efficiency", "--format", "structured",
                           "--tol", "1e-3", fx("singlet_chsh"))
    assert code == 0
    payload = json.loads(out)
    assert payload["parameter"] == "efficiency"
    assert payload["critical"] == pytest.approx(2.0 / (1.0 + ROOT2), abs=2e-3)


def test_threshold_text_report(capsys):
    code, out, err = run_cli(capsys, "threshold", "visibility", "--tol", "1e-3",
                             fx("werner_0.80"), fx("uniform"))
    assert (code, err) == (0, "")
    report = dict(line.split(": ") for line in out.splitlines())
    assert list(report) == ["parameter", "critical", "bracket", "iterations", "tolerance"]
    assert report["parameter"] == "visibility" and report["tolerance"] == "0.001"
    lo, hi = map(float, report["bracket"].strip("[]").split(", "))
    assert float(report["critical"]) == lo == pytest.approx(1.0 / (0.8 * ROOT2), abs=1e-9)
    assert 0.0 < hi - lo <= 1e-3
    assert int(report["iterations"]) >= 0


def test_threshold_efficiency_refuses_a_behavior_document(capsys):
    code, out, err = run_cli(capsys, "threshold", "efficiency", fx("pr_box"))
    assert (code, out) == (2, "")
    assert err == (f"error: {fx('pr_box')} holds a behavior document; the efficiency "
                   "threshold needs a setup with detectors to degrade\n")


@pytest.mark.parametrize(("verb_args", "width"), [
    (("visibility", fx("pr_box"), fx("uniform")), "2.000e-09"),
    (("efficiency", fx("singlet_chsh")), "5.000e-10"),
], ids=["visibility", "efficiency"])
def test_threshold_narrower_than_its_certificates_exits_3(capsys, verb_args, width):
    """A width below the certificates' bracket stops after the solve,
    naming the width it has, where it once was refused below 2**-52."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "threshold", *verb_args, "--tol", "1e-20")
    assert time.perf_counter() - start < 5.0
    assert (code, out) == (3, "")
    assert f"{width} wide, wider than the tolerance 1e-20" in err


def test_threshold_rejects_local_target(capsys):
    code, _, err = run_cli(capsys, "threshold", "visibility", fx("uniform"), fx("uniform"))
    assert code == 2
    assert "local" in err


def test_threshold_visibility_never_exits_1_on_a_ququart_table(tmp_path):
    """Seed 10's (2,3,4) table loses its simplex basis in the staged solve,
    which ended in a traceback from the reinversion and exit 1.  A
    fresh process answers it or stops with exit 3."""
    target, noise = tmp_path / "t.json", tmp_path / "u.json"
    behavior = behavior_from_setup(random_setup(10, dims=(4, 4), inputs=(3, 3)))
    write_document(behavior, target)
    write_document(named_behavior("uniform", behavior.scenario), noise)
    proc = subprocess.run(
        [sys.executable, "-m", "bellbox", "threshold", "visibility", str(target), str(noise)],
        capture_output=True, text=True)
    assert proc.returncode in (0, 3)
    assert "Traceback" not in proc.stderr


def test_threshold_rejects_local_target_that_is_not_the_noise(capsys):
    code, out, err = run_cli(capsys, "threshold", "visibility", fx("werner_0.60"), fx("uniform"))
    assert code == 2
    assert out == ""
    assert "already local at full visibility" in err


# -- determinism spot check --------------------------------------------------

def test_structured_output_is_deterministic(capsys):
    for argv in (
        ["classify", "--format", "structured", fx("pr_box")],
        ["facets", "--format", "structured", fx("chsh_scenario")],
        ["membership", "--format", "structured", fx("uniform")],
    ):
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def _structured_invocations() -> list[list[str]]:
    """Every verb's structured report, on the bundled fixtures."""
    setups = ["singlet_chsh", "werner_0.60", "werner_0.80"]
    runs = [["validate", fx(name)] for name in fixture_names()]
    runs += [["classify", fx(name)] for name in ("uniform", "pr_box", "signalling_demo", *setups)]
    runs += [["membership", fx(name)] for name in ("uniform", "pr_box", "signalling_demo")]
    runs += [["derive-inequality", fx(name)] for name in ("pr_box", "singlet_chsh")]
    runs += [["facets", fx("chsh_scenario")], ["chsh", fx("pr_box")],
             ["quantum", fx("werner_0.80")], ["quantum", "--seed", "7", "--dims", "2", "3"],
             ["threshold", "visibility", "--tol", "1e-3", fx("werner_0.80"), fx("uniform")],
             ["threshold", "efficiency", "--tol", "1e-3", fx("singlet_chsh")]]
    return [argv + ["--format", "structured"] for argv in runs]


@pytest.mark.parametrize("argv", _structured_invocations(), ids=" ".join)
def test_structured_reports_are_json_dumps_byte_for_byte(capsys, argv):
    """The package's encoder gives the bytes of json.dumps(..., indent=2)
    on every verb's report."""
    code, ours, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")

    def reference(payload):
        return json.dumps(payload, indent=2)

    with mock.patch.object(cli, "render_json", reference), \
            mock.patch.object(documents, "render_json", reference):
        code, theirs, _ = run_cli(capsys, *argv)
    assert code == 0
    assert ours.encode() == theirs.encode()


def test_parser_is_built_once(capsys):
    _build_parser.cache_clear()
    code, structured, _ = run_cli(capsys, "chsh", "--format", "structured", fx("pr_box"))
    assert code == 0
    code, text, _ = run_cli(capsys, "chsh", fx("pr_box"))
    assert code == 0
    assert _build_parser.cache_info().misses == 1
    # the second call's defaults do not inherit the first call's flags
    assert structured.lstrip().startswith("{")
    assert not text.lstrip().startswith("{")


# -- process-level entry point ----------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bellbox", "chsh", fx("pr_box")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "4" in proc.stdout


_VERBS_WITHOUT_SCIPY = """
import contextlib, io, sys
from bellbox import cli
table = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()) as doc:
    assert cli.main(["quantum", "--seed", "1", "--inputs", "3", "3",
                     "--format", "structured"]) == 0
with open(table, "w") as handle:
    handle.write(doc.getvalue())
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["classify", sys.argv[2]]) == 0
    assert cli.main(["membership", table]) == 0
print("scipy" in sys.modules)
"""


def test_package_verbs_never_import_scipy(tmp_path):
    """numpy is the one declared dependency; scipy is a test-only oracle.
    A fresh interpreter classifies the PR box and decides membership of
    a (2,3,2) table without scipy ever entering ``sys.modules``."""
    proc = subprocess.run(
        [sys.executable, "-c", _VERBS_WITHOUT_SCIPY, str(tmp_path / "t232.json"), fx("pr_box")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_verb_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "bellbox", "frobnicate"],
        capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_document_numbers_that_are_no_floats_exit_2(capsys, tmp_path):
    """An integer too large for a float used to raise OverflowError out of
    main; a string probability used to parse as a number."""
    payload = json.loads(emit_document(named_behavior("uniform")))
    for entry in (10 ** 400, "0.25"):
        payload["probs"][0] = entry
        doc = tmp_path / "table.json"
        doc.write_text(json.dumps(payload))
        code, out, err = run_cli(capsys, "classify", str(doc))
        assert (code, out) == (2, "")
        assert "probs must be a flat list of numbers" in err


@pytest.mark.parametrize("spelling", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_non_finite_local_bound_exits_2(capsys, tmp_path, spelling):
    """validate used to accept such a bound and print it as NaN or
    Infinity, which is not JSON."""
    text = emit_document(BellFunctional(scenario=Scenario.uniform(2, 2, 2),
                                        coeffs=np.ones(16), local_bound=4.0))
    doc = tmp_path / "functional.json"
    doc.write_text(text.replace('"local_bound": 4.0', f'"local_bound": {spelling}'))
    code, out, err = run_cli(capsys, "validate", "--format", "structured", str(doc))
    assert (code, out) == (2, "")
    assert "local_bound must be finite" in err
