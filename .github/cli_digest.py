"""Print a digest of every command-line operation the benchmark decks and
the packaged fixtures drive: one JSON line per operation.

usage: python3 .github/cli_digest.py > DIGEST.jsonl
       python3 .github/cli_digest.py --against DIGEST.jsonl

The operations are every item of both perfbench decks at seeds 1-3;
then validate, classify and membership, in both output formats, on
every packaged fixture; then every other verb: derive-inequality and
chsh on every fixture, facets on chsh_scenario, quantum on random
3x3-dimensional, 3-input setups at seeds 1-3, plain and with lossy
detectors binned, and threshold efficiency on singlet_chsh; then
membership and derive-inequality, in both formats, on the (2,4,4) and
(2,4,5) signalling tables where party 0 answers party 1's input; then,
where a layout change can go wrong, tables on uneven alphabets in both
formats: validate, classify, membership and derive-inequality on a
local, a nonlocal and a signalling table of ``UNEVEN``, and classify
and quantum on a setup document whose inputs have different outcome
counts; then facets, in both formats, on a scenario document of two
parties with two inputs each, of two and three outputs, where 72 of the
97 facets have no integer form, and in the structured format on 3322;
then threshold visibility, in both formats, of the (2,3,3) tables of
random 3x3-dimensional, 3-input setups at seeds 4 and 8 against the
uniform table, whose second stages run past a hundred pivots; then
threshold visibility, in both formats, of singlet_chsh and pr_box
against uniform at --tol 5e-9, which their certificates' brackets meet,
and at --tol 1e-9, which they do not, and of the (2,3,4) table of the
random 4x4-dimensional, 3-input setup at seed 10 against the uniform
table, whose staged simplex once lost its basis on a tiny tied pivot;
then threshold efficiency, in both formats, on setup documents of the
random 2x2-dimensional, 2-input setups at seeds 16, 20 and 24, the
nonlocal ones among seeds 1-39, and at seed 1, which is local at full
efficiency and is refused; then classify and membership, in both
formats, on tables where the distance program's closed-form start is at
an edge: a deterministic strategy of (2,4,2), whose start is at
distance 0 on rows that are all degenerate, the uniform (3,2,2) table,
on which every strategy ties as the one nearest the table, and the
one-entry table of the scenario with one input and one output per
party; then classify, membership and threshold visibility against the
uniform (3,2,2) table, in both formats, on the GHZ table of three
qubits under Mermin's X and Y settings, a quantum table of three
parties.  New operations go at the end, so digests of older checkouts
still compare by name.  Each runs through ``bellbox.cli.main`` in this
process, with bellbox imported from this checkout's src; perfbench/decks.py
is imported and not written to.  Documents go to a temporary directory,
whose path is masked as ``<tmp>`` in the output.  A line holds the
operation's name, its command line, the exit code, the sha256 of its
stdout and of its stderr, and the simplex iteration count of each LP it
solved, read through wrappers on ``bellbox.analysis.solve`` and on the
staged solve ``bellbox.analysis._solve_then_maximize``, which counts once
with the pivots of both its stages.

Two runs in one checkout must print the same bytes.  The lines of two
checkouts, compared by name, show which operations a change moved:
``--against FILE`` runs the operations and, instead of printing the
digest, compares each line with the line of the same name in FILE, a
saved digest.  It prints each operation whose exit code, command line,
output hashes or iteration counts differ, with the fields that differ,
and each operation that only one side has; it exits 1 if it prints any.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files next to perfbench/decks.py
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
os.environ.pop("BELLBOX_TOL", None)  # the command line reads it as its default tolerance

import bellbox.analysis  # noqa: E402
import decks  # noqa: E402
import numpy as np  # noqa: E402
from bellbox import Scenario, named_behavior, validate_behavior  # noqa: E402
from bellbox.cli import main  # noqa: E402
from bellbox.documents import emit_document  # noqa: E402
from bellbox.fixtures import fixture_names, fixture_path  # noqa: E402
from bellbox.polytope import strategy_matrix  # noqa: E402
from bellbox.quantum import (BellSetup, MeasurementSet, behavior_from_setup,  # noqa: E402
                             lift_with_efficiency, random_setup)

SEEDS = (1, 2, 3)
FIXTURE_VERBS = ("validate", "classify", "membership")
MORE_FIXTURE_VERBS = ("derive-inequality", "chsh")
FORMATS = ("text", "structured")
UNEVEN = Scenario((2, 3), ((2, 3), (3, 2, 2)))
UNEVEN_VERBS = ("validate", "classify", "membership", "derive-inequality")
# 72 of the first scenario's 97 facets have no integer form and print
# float coefficients; 3322's 684 all have integer forms
FACET_SCENARIOS = (("uneven-23-23", Scenario((2, 2), ((2, 3), (2, 3))), FORMATS),
                   ("3322", Scenario.uniform(2, 3, 2), ("structured",)))
QUTRIT_THRESHOLD_SEEDS = (4, 8)
FINE_THRESHOLD_TOLS = ("5e-9", "1e-9")
QUQUART_THRESHOLD_SEED = 10
EFFICIENCY_THRESHOLD_SEEDS = (16, 20, 24, 1)  # seed 1 is local at full efficiency


def operations():
    """(name, argv, documents) of every operation, in a fixed order."""
    for workload, deck in decks.DECKS.items():
        for seed in SEEDS:
            for items in deck(seed):
                for item in items:
                    yield f"{workload}/seed{seed}/{item.index}", item.argv, item.docs
    for verbs in (FIXTURE_VERBS, MORE_FIXTURE_VERBS):
        for fixture in fixture_names():
            for verb in verbs:
                for fmt in FORMATS:
                    yield fixture_operation(fixture, [verb], fmt)
    for fmt in FORMATS:
        yield fixture_operation("chsh_scenario", ["facets"], fmt)
    for seed in SEEDS:
        for lossy in ([], ["--efficiency", "0.9", "--bin"]):
            argv = ["quantum", "--seed", str(seed), "--dims", "3", "3", "--inputs", "3", "3", *lossy]
            for fmt in FORMATS:
                name = f"quantum/seed{seed}{'/lossy-binned' if lossy else ''}/{fmt}"
                yield name, argv + ["--format", fmt], {}
    for fmt in FORMATS:
        yield fixture_operation("singlet_chsh", ["threshold", "efficiency"], fmt)
    for outputs in (4, 5):
        doc = f"input-copier-2-4-{outputs}.json"
        text = emit_document(input_copier(outputs))
        for verb in ("membership", "derive-inequality"):
            for fmt in FORMATS:
                yield (f"signalling/input-copier-2-4-{outputs}/{verb}/{fmt}",
                       [verb, doc, "--format", fmt], {doc: text})
    for label, prob in UNEVEN_TABLES.items():
        doc = f"uneven-{label}.json"
        text = emit_document(uneven_table(prob))
        for verb in UNEVEN_VERBS:
            for fmt in FORMATS:
                yield f"uneven/{label}/{verb}/{fmt}", [verb, doc, "--format", fmt], {doc: text}
    doc = "uneven-setup.json"
    text = emit_document(uneven_setup())
    for verb in ("classify", "quantum"):
        for fmt in FORMATS:
            yield f"uneven/setup/{verb}/{fmt}", [verb, doc, "--format", fmt], {doc: text}
    for label, scenario, formats in FACET_SCENARIOS:
        doc, text = f"{label}.json", emit_document(scenario)
        for fmt in formats:
            yield f"facets/{label}/{fmt}", ["facets", doc, "--format", fmt], {doc: text}
    noise = emit_document(named_behavior("uniform", Scenario.uniform(2, 3, 3)))
    for seed in QUTRIT_THRESHOLD_SEEDS:
        doc = f"qutrit-seed{seed}.json"
        text = emit_document(behavior_from_setup(random_setup(seed, dims=(3, 3), inputs=(3, 3))))
        docs = {doc: text, "uniform-233.json": noise}
        for fmt in FORMATS:
            yield (f"threshold-visibility/qutrit-seed{seed}/{fmt}",
                   ["threshold", "visibility", doc, "uniform-233.json", "--format", fmt], docs)
    noise = fixture_path("uniform").read_text()
    for fixture in ("singlet_chsh", "pr_box"):
        docs = {f"{fixture}.json": fixture_path(fixture).read_text(), "uniform.json": noise}
        for tol in FINE_THRESHOLD_TOLS:
            for fmt in FORMATS:
                yield (f"threshold-visibility/{fixture}/tol{tol}/{fmt}",
                       ["threshold", "visibility", f"{fixture}.json", "uniform.json",
                        "--tol", tol, "--format", fmt], docs)
    seed = QUQUART_THRESHOLD_SEED
    doc = f"ququart-seed{seed}.json"
    docs = {doc: emit_document(behavior_from_setup(random_setup(seed, dims=(4, 4), inputs=(3, 3)))),
            "uniform-234.json": emit_document(named_behavior("uniform", Scenario.uniform(2, 3, 4)))}
    for fmt in FORMATS:
        yield (f"threshold-visibility/ququart-seed{seed}/{fmt}",
               ["threshold", "visibility", doc, "uniform-234.json", "--format", fmt], docs)
    for seed in EFFICIENCY_THRESHOLD_SEEDS:
        doc = f"setup-seed{seed}.json"
        docs = {doc: emit_document(random_setup(seed, dims=(2, 2), inputs=(2, 2)))}
        for fmt in FORMATS:
            yield (f"threshold-efficiency/seed{seed}/{fmt}",
                   ["threshold", "efficiency", doc, "--format", fmt], docs)
    for label, table in start_edge_tables():
        doc, text = f"{label}.json", emit_document(table)
        for verb in ("classify", "membership"):
            for fmt in FORMATS:
                yield f"start-edge/{label}/{verb}/{fmt}", [verb, doc, "--format", fmt], {doc: text}
    docs = {"ghz3.json": emit_document(ghz3_mermin()),
            "uniform-322.json": emit_document(named_behavior("uniform", Scenario.uniform(3, 2, 2)))}
    for label, argv in (("classify", ["classify", "ghz3.json"]),
                        ("membership", ["membership", "ghz3.json"]),
                        ("threshold-visibility",
                         ["threshold", "visibility", "ghz3.json", "uniform-322.json"])):
        for fmt in FORMATS:
            yield f"ghz3/{label}/{fmt}", [*argv, "--format", fmt], docs


def start_edge_tables():
    """(label, table) of the tables where the distance program's
    closed-form start is at an edge."""
    sc = Scenario.uniform(2, 4, 2)
    yield "strategy-242", validate_behavior(sc, strategy_matrix(sc)[:, 77])
    yield "uniform-322", named_behavior("uniform", Scenario.uniform(3, 2, 2))
    yield "one-entry", validate_behavior(Scenario((1, 1), ((1,), (1,))), [1.0])


def ghz3_mermin():
    """The state (|000> + |111>)/sqrt(2) under X (input 0) and Y (input 1)
    at every party, outcome 0 the +1 eigenvalue (Mermin, PRL 65, 1838
    (1990)), each entry by Kronecker products of the parties' projectors."""
    X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    Y = np.array([[0.0, -1j], [1j, 0.0]])
    proj = [[(np.eye(2) + sign * M) / 2.0 for sign in (1.0, -1.0)] for M in (X, Y)]
    psi = np.zeros(8, dtype=complex)
    psi[0] = psi[7] = 1.0 / np.sqrt(2.0)
    sc = Scenario.uniform(3, 2, 2)
    return validate_behavior(sc, [
        (psi.conj() @ np.kron(np.kron(proj[x][a], proj[y][b]), proj[z][c]) @ psi).real
        for x, y, z in sc.joint_inputs() for a, b, c in sc.joint_outputs((x, y, z))])


def input_copier(outputs):
    """The (2,4,outputs) table where party 0 answers party 1's input and
    party 1 answers 0."""
    sc = Scenario.uniform(2, 4, outputs)
    table = np.zeros((4, 4, outputs, outputs))
    for y in range(4):
        table[:, y, y, 0] = 1.0
    return validate_behavior(sc, table.reshape(-1))


def _tri(n):
    return n * (n + 1) // 2


UNEVEN_TABLES = {
    # a product of (a + 1) and (b + 1) weights
    "local": lambda x, y, a, b: (a + 1) * (b + 1) / (_tri(UNEVEN.outputs[0][x])
                                                     * _tri(UNEVEN.outputs[1][y])),
    # a PR box on inputs and outputs 0 and 1, and independent fair coins at y = 2
    "nonlocal": lambda x, y, a, b: (0.0 if a > 1 or b > 1 else 0.25 if y == 2
                                    else 0.5 if a ^ b == x & y else 0.0),
    # party 0 answers party 1's input, as far as its alphabet reaches
    "signalling": lambda x, y, a, b: float(a == y % UNEVEN.outputs[0][x] and b == 0),
}


def uneven_table(prob):
    """The table on UNEVEN with entry prob(x, y, a, b), laid out block by
    block from the scenario's joint inputs and outputs."""
    return validate_behavior(UNEVEN, [prob(x, y, a, b) for x, y in UNEVEN.joint_inputs()
                                      for a, b in UNEVEN.joint_outputs((x, y))])


def uneven_setup():
    """A (3, 2)-dimensional, (3, 2)-input random setup at seed 1 with
    party 0's input 1 and party 1's input 0 lifted by a no-click outcome
    at efficiency 0.8."""
    base = random_setup(1, dims=(3, 2), inputs=(3, 2))
    alice = MeasurementSet(dim=3, effects=(
        base.alice.effects[0], lift_with_efficiency(base.alice, 0.8).effects[1],
        base.alice.effects[2]))
    bob = MeasurementSet(dim=2, effects=(
        lift_with_efficiency(base.bob, 0.8).effects[0], base.bob.effects[1]))
    return BellSetup(state=base.state, alice=alice, bob=bob)


def fixture_operation(fixture, verb, fmt):
    """(name, argv, documents) of one verb, a list of words, on a fixture."""
    doc = f"{fixture}.json"
    return (f"fixture/{fixture}/{'-'.join(verb)}/{fmt}", [*verb, doc, "--format", fmt],
            {doc: fixture_path(fixture).read_text()})


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest():
    """Each operation's line, as a dict, in the order of ``operations``."""
    iterations = []
    solve, staged = bellbox.analysis.solve, bellbox.analysis._solve_then_maximize

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        iterations.append(out.iterations)
        return out

    def counted_staged(*args, **kwargs):
        first, second = staged(*args, **kwargs)
        iterations.append((second or first).iterations)
        return first, second

    bellbox.analysis.solve = counted
    bellbox.analysis._solve_then_maximize = counted_staged
    with tempfile.TemporaryDirectory() as tmp:
        def mask(text: str) -> str:
            return text.replace(tmp, "<tmp>")

        for name, argv, docs in operations():
            for doc, text in docs.items():
                Path(tmp, doc).write_text(text)
            argv = [os.path.join(tmp, arg) if arg in docs else arg for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            iterations.clear()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            yield {"op": name, "argv": [mask(arg) for arg in argv], "exit": code,
                   "stdout": sha256(mask(out.getvalue())), "stderr": sha256(mask(err.getvalue())),
                   "iterations": list(iterations)}


def compare(path) -> int:
    """Print every operation that moved against the digest saved at
    ``path``, and every operation that only one side has; 1 if any did."""
    saved = {}
    for text in Path(path).read_text().splitlines():
        line = json.loads(text)
        saved[line["op"]] = line
    moved = 0
    for line in digest():
        old = saved.pop(line["op"], None)
        if old is None:
            print(f"{line['op']}: only in this checkout")
        else:
            fields = [key for key in {**old, **line} if old.get(key) != line.get(key)]
            if not fields:
                continue
            print(f"{line['op']}: {', '.join(fields)} moved")
        moved += 1
    for op in saved:
        print(f"{op}: only in {path}")
        moved += 1
    return 1 if moved else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Digest every command-line operation.")
    parser.add_argument("--against", metavar="FILE",
                        help="name the operations that moved against a saved digest")
    args = parser.parse_args()
    if args.against is not None:
        sys.exit(compare(args.against))
    for line in digest():
        print(json.dumps(line))
