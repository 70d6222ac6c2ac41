"""Fail unless every line of a perfbench/run.py JSONL output is correct
and no workload's failed share grew.

usage: python3 .github/check_bench.py BENCH.jsonl

run.py exits 0 even when its answer checks fail, so its lines are read
here.  verdicts has one known failure in each round of 13 (the
pair-signalling table); membership-242 has none.
"""
import json
import sys

WITHIN = {"verdicts": lambda r: 13 * r["failed"] <= r["attempted"],
          "membership-242": lambda r: r["failed"] == 0}

lines = [json.loads(s) for s in open(sys.argv[1]) if s.strip()]
print(*lines, sep="\n")
sys.exit(0 if lines and all(r["correct"] is True and WITHIN[r["workload"]](r)
                            for r in lines) else 1)
