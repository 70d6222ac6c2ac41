"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/steadiness.py --workload verdicts --seeds 1-10 --seconds 20

For every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, next to the bound from
BENCHMARK.json.  It also prints the share of failed operations per run,
and the same figures for what each run prints on standard error: the
wall-clock throughput and median latency, the gauge's slowdown, and
the measured worker's own set-up time.  Runs
are untraced.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = re.compile(r"setup_s samples: (.*)")
WALL = re.compile(r"wall clock: (\S+) op/s, p50 (\S+) ms, slowdown (\S+)")


def _seeds(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["seed"] = seed
        wall = WALL.search(proc.stderr)
        for name, unit, value in zip(("wall.ops_per_s", "wall.op_p50_ms", "wall.slowdown"),
                                     ("op/s", "ms", "1"), wall.groups()):
            res["metrics"][name] = {"value": float(value), "unit": unit}
        own = SETUPS.search(proc.stderr).group(1).split()[-1]
        res["metrics"]["own.setup_s"] = {"value": float(own), "unit": "s"}
        results.append(res)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}", flush=True)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share per run: {shares}")
    print(f"{'metric':28} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name, float("nan"))
        print(f"{name:28} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} {bound:6.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
