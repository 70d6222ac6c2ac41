"""One workload in one fresh process: set up, run whole passes, report.

Started by ``run.py``; writes one JSON report to ``--out``.  Set-up is
timed from ``--t0``, the parent's ``time.monotonic()`` just before it
started this process, to the moment the first operation could start; it
covers interpreter start, imports, deck generation and the strategy
matrix caches, and runs no operation of the workload.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import decks
from gauge import Gauge
from layertrace import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_bellbox():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import bellbox

    if not Path(bellbox.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bellbox imported from {bellbox.__file__}, not from {src}")
    import bellbox.cli  # noqa: F401  (trace patch points live in these modules)
    import bellbox.documents  # noqa: F401
    return bellbox


class Runner:
    """Runs deck items and keeps the first output of each for the checks."""

    def __init__(self, bellbox, rounds, deckdir: Path):
        self.bb = bellbox
        self.rounds = rounds
        self.deckdir = deckdir
        self.outputs: dict[int, object] = {}
        self.nondeterministic = 0

    def prime(self):
        """Build the strategy matrix of every scenario the deck uses."""
        scenarios = {tuple(item.truth["inputs"]) for items in self.rounds for item in items}
        for inputs in sorted(scenarios):
            sc = self.bb.Scenario(inputs_per_party=inputs, outputs=tuple((2,) * m for m in inputs))
            self.bb.polytope.strategy_matrix(sc)

    def run(self, item) -> bool:
        """One operation through the command line; returns whether it succeeded."""
        buf = io.StringIO()
        err = io.StringIO()
        argv = [str(self.deckdir / a) if a.endswith(".json") else a for a in item.argv]
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            code = self.bb.cli.main(argv)
        ok = code == 0
        out = [code, buf.getvalue() if ok else err.getvalue()]
        first = self.outputs.setdefault(item.index, out)
        if first is not out and first != out:
            self.nondeterministic += 1
        return ok


def _write_deck(rounds, deckdir: Path):
    deckdir.mkdir(parents=True, exist_ok=True)
    for items in rounds:
        for item in items:
            for name, text in item.docs.items():
                (deckdir / name).write_text(text)


def measure(runner: Runner, seconds: float, tracer: Tracer | None) -> dict:
    """Run whole passes over the deck until ``seconds`` have passed.

    Untraced, a gauge (gauge.py) runs after every operation, and the
    report carries its slowdown.  With a tracer, each deck round runs
    twice, plain and traced, in the order plain-traced, traced-plain, ...
    so that drift cancels in the tracing overhead; only the traced rounds
    feed the layer figures, and the run ends on a round pair.
    """
    rounds = runner.rounds
    gauge = Gauge() if tracer is None else None
    latencies: list[float] = []  # ms, successful operations only
    attempted = failed = 0
    ops = {False: 0, True: 0}  # operations and their time, by traced or not
    busy = {False: 0.0, True: 0.0}
    period = 2 if tracer is not None else len(rounds)
    start = time.perf_counter()
    r = 0
    while True:
        traced = tracer is not None and (r % 2 == 1) != (r // 2 % 2 == 1)
        if tracer is not None:
            (tracer.install if traced else tracer.uninstall)()
        deck_round = rounds[(r // 2 if tracer is not None else r) % len(rounds)]
        for item in deck_round:
            rec = tracer.begin_op(attempted, item.kind) if traced else None
            t = time.perf_counter()
            ok = runner.run(item)
            dt = time.perf_counter() - t
            if rec is not None:
                tracer.end_op(rec)
            if gauge is not None:
                gauge.follow(dt)
            attempted += 1
            busy[traced] += dt
            if ok:
                latencies.append(1000.0 * dt)
            else:
                failed += 1
        ops[traced] += len(deck_round)
        r += 1
        if time.perf_counter() - start >= seconds and r % period == 0:
            break
    report = {
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy[False] + busy[True],
        "latencies_ms": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": {str(k): v for k, v in runner.outputs.items()},
        "nondeterministic": runner.nondeterministic,
    }
    if gauge is not None:
        report["slowdown"] = gauge.slowdown()
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer.spans, ops[True])
        plain_rate, traced_rate = ops[False] / busy[False], ops[True] / busy[True]
        layers["trace.overhead_pct"] = 100.0 * (plain_rate / traced_rate - 1.0)
        report["layers"] = layers
        report["spans"] = tracer.spans
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    out_path = Path(args.out)
    deckdir = out_path.with_suffix(".deck")

    bb = _import_bellbox()
    tracer = Tracer()
    if args.trace:
        tracer.install()
    try:
        rounds = decks.DECKS[args.workload](args.seed)
        _write_deck(rounds, deckdir)
        runner = Runner(bb, rounds, deckdir)
        runner.prime()
        setup_s = time.monotonic() - args.t0
        if args.setup_only:
            out_path.write_text(json.dumps({"setup_s": setup_s}))
            return 0

        report = measure(runner, args.seconds, tracer if args.trace else None)
        report["setup_s"] = setup_s
        out_path.write_text(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(deckdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
