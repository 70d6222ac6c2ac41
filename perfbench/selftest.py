"""Self-test of the benchmark: decks are reproducible, checks have teeth.

    python3 perfbench/selftest.py

1. Every deck regenerates byte-identically from its seed, and a second
   seed changes every seeded deck.
2. Each check accepts the package's real outputs and rejects a
   deliberately wrong answer: a flipped verdict, a wrong witness, a wrong
   threshold, a threshold reported at a looser precision than the deck's.
Exits 0 when all of this holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

import checks
import decks
import worker

HERE = Path(__file__).resolve().parent

FAILURES: list[str] = []


def expect(cond: bool, what: str):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        FAILURES.append(what)


def deck_digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for items in decks.DECKS[workload](seed):
        for item in items:
            h.update(json.dumps([item.index, item.kind, item.argv]).encode())
            for name, text in sorted(item.docs.items()):
                h.update(name.encode() + text.encode())
            for key, value in sorted(item.truth.items()):
                data = np.asarray(value).tobytes() if isinstance(value, np.ndarray) else repr(value)
                h.update(key.encode() + (data if isinstance(data, bytes) else data.encode()))
    return h.hexdigest()


def test_decks():
    for workload in decks.DECKS:
        a, b = deck_digest(workload, 7), deck_digest(workload, 7)
        expect(a == b, f"{workload}: deck regenerates byte-identically from seed 7")
        expect(a != deck_digest(workload, 8), f"{workload}: seed 8 gives another deck")


def real_outputs(bb, workload: str, seed: int, picks) -> tuple[dict, dict]:
    """Run the chosen deck items through the package and return
    (items by index, outputs as the worker reports them)."""
    rounds = decks.DECKS[workload](seed)
    deckdir = HERE / "out" / f"selftest-{workload}.deck"
    worker._write_deck(rounds, deckdir)
    try:
        runner = worker.Runner(bb, rounds, deckdir)
        items = {item.index: item for rnd in rounds for item in rnd}
        for index in picks:
            runner.run(items[index])
        outputs = json.loads(json.dumps({str(k): v for k, v in runner.outputs.items()}))
        return items, outputs
    finally:
        shutil.rmtree(deckdir, ignore_errors=True)


def _edit(outputs: dict, key: str, change) -> dict:
    bad = copy.deepcopy(outputs)
    code, text = bad[key]
    payload = json.loads(text)
    change(payload)
    bad[key] = [code, json.dumps(payload)]
    return bad


def test_cli_checks(bb):
    round0 = decks.DECKS["verdicts"](3)[0]
    by_expect = {}
    for item in round0:
        by_expect.setdefault((item.kind, item.truth.get("expect"), item.truth.get("known_failure")),
                             item.index)
    local = by_expect[("classify", "local", None)]
    nonlocal_ = by_expect[("classify", "weakly nonlocal", None)]
    signalling = by_expect[("classify", "signalling", None)]
    pair = by_expect[("classify", "signalling", True)]
    threshold = by_expect[("threshold", None, None)]
    items, out = real_outputs(bb, "verdicts", 3, [local, nonlocal_, signalling, pair, threshold])
    expect(checks.check_cli(items, out) == [], "verdicts: real outputs pass")
    expect(out[str(pair)][0] != 0 or json.loads(out[str(pair)][1])["verdict"] == "signalling",
           "verdicts: pair-signalling table fails or is called signalling")

    def flip(p):
        p["verdict"] = "weakly nonlocal" if p["verdict"] == "local" else "local"

    for index in (local, nonlocal_, signalling):
        expect(checks.check_cli(items, _edit(out, str(index), flip)) != [],
               f"verdicts: flipped verdict on item {index} is rejected")

    def bad_weights(p):
        w = p["witness"]["weights"]
        k = int(np.argmax(w))
        w[k] -= 1e-3
        w[(k + 1) % len(w)] += 1e-3

    def bad_bound(p):
        p["witness"]["functional"]["local_bound"] += 1e-3

    def bad_shift(p):
        p["witness"]["max_defect"] += 1e-3

    def bad_threshold(p):
        p["critical"] += 1e-3
        p["bracket"] = [p["bracket"][0] + 1e-3, p["bracket"][1] + 1e-3]

    def loose_threshold(p):
        # a coarser bisection that still brackets the right value
        p["tolerance"] = 1e-2
        p["bracket"] = [p["bracket"][0] - 4e-3, p["bracket"][1] + 4e-3]
        p["critical"] = p["bracket"][0]

    for index, change, what in ((local, bad_weights, "local model"),
                                (nonlocal_, bad_bound, "inequality bound"),
                                (signalling, bad_shift, "signalling shift"),
                                (threshold, bad_threshold, "visibility threshold"),
                                (threshold, loose_threshold, "threshold precision")):
        expect(checks.check_cli(items, _edit(out, str(index), change)) != [],
               f"verdicts: wrong {what} is rejected")
    failing = copy.deepcopy(out)
    failing[str(local)] = [3, "error: made up"]
    expect(checks.check_cli(items, failing) != [], "verdicts: an unexpected failure is rejected")

    items, out = real_outputs(bb, "membership-242", 3, [0, 1])
    expect(checks.check_cli(items, out) == [], "membership-242: real outputs pass")
    for index in (0, 1):
        def flip_local(p):
            p["is_local"] = not p["is_local"]
        expect(checks.check_cli(items, _edit(out, str(index), flip_local)) != [],
               f"membership-242: flipped decision on item {index} is rejected")


def main() -> int:
    test_decks()
    bb = worker._import_bellbox()
    test_cli_checks(bb)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
