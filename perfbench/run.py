"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in fresh,
single-threaded worker processes (worker.py): a few that only set up,
for the set-up time, then one that sets up and runs whole passes over
the workload's deck until ``--seconds`` have passed.  Operation times
are reported in reference seconds: divided by the slowdown of a fixed
kernel timed between operations (gauge.py).  The outputs are then
checked independently (checks.py).  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: end-to-end metrics with ``--trace 0``, per-layer metrics
from a traced run with ``--trace 1``.  Without ``--workload`` every
workload runs in turn, each printing its own line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import decks
from layertrace import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = list(decks.DECKS)
SETUP_PROBES = 8  # set-up-only processes per run; set-up is their median with the run's own
WORKER_TIMEOUT_S = 150

# one thread everywhere, BLAS pools included
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
os.environ.update(SINGLE_THREAD)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker(workload: str, seed: int, seconds: float, trace: int, tag: str,
            setup_only: bool = False) -> dict:
    out = OUT / f"{workload}-s{seed}-{os.getpid()}-{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=WORKER_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise BenchError(f"worker for {workload} exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(out.read_text())
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker for {workload} ran over {WORKER_TIMEOUT_S} s") from None
    finally:
        out.unlink(missing_ok=True)


def _check(workload: str, seed: int, report: dict) -> list[str]:
    items = {item.index: item for rnd in decks.DECKS[workload](seed) for item in rnd}
    errors = checks.check_cli(items, report["outputs"])
    if report["nondeterministic"]:
        errors.append(f"{report['nondeterministic']} repeated operations changed their output")
    return errors


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    def probes(first: int) -> list[float]:
        if trace:
            return []
        return [_worker(workload, seed, seconds, 0, f"setup{k}", setup_only=True)["setup_s"]
                for k in range(first, first + SETUP_PROBES // 2)]

    # half the set-up probes run before the measured run and half after,
    # so the median spans the run's whole stretch of machine time
    setups = probes(0)
    report = _worker(workload, seed, seconds, trace, "run")
    setups += probes(SETUP_PROBES // 2) + [report["setup_s"]]
    if setups[1:]:
        print("setup_s samples: " + " ".join(f"{v:.4f}" for v in setups), file=sys.stderr)

    try:
        errors = _check(workload, seed, report)
    except (KeyError, ValueError, TypeError, IndexError) as exc:
        errors = [f"malformed output: {exc!r}"]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)

    if trace:
        metrics = {name: {"value": report["layers"][name], "unit": unit}
                   for name, unit in PER_LAYER}
        trace_path = OUT / f"trace-{workload}-s{seed}.json"
        trace_path.write_text(json.dumps({"layers": report["layers"], "spans": report["spans"]}))
    else:
        lat = report["latencies_ms"]
        if not lat:
            raise BenchError(f"{workload}: no operation succeeded")
        # operation time in reference seconds: wall time over the gauge's slowdown
        slow = report["slowdown"]
        print(f"wall clock: {len(lat) / report['busy_s']:.4f} op/s, "
              f"p50 {statistics.median(lat):.4f} ms, slowdown {slow:.4f}", file=sys.stderr)
        metrics = {
            "ops_per_ref_s": {"value": len(lat) * slow / report["busy_s"], "unit": "op/s"},
            "op_p50_ref_ms": {"value": statistics.median(lat) / slow, "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    return {
        "correct": not errors,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None,
                    help="workload to run (default: every workload in turn)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bellbox" / "__init__.py").is_file():
        print(f"error: no bellbox sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else WORKLOADS
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds, args.trace)
            if args.workload is None:
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
