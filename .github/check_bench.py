"""Fail unless every line of a perfbench/run.py JSONL output is correct
and no operation of any workload failed.

usage: python3 .github/check_bench.py BENCH.jsonl

run.py exits 0 even when its answer checks fail, so its lines are read
here.  Neither verdicts nor membership-242 has a known failure.
"""
import json
import sys

lines = [json.loads(s) for s in open(sys.argv[1]) if s.strip()]
print(*lines, sep="\n")
sys.exit(0 if lines and all(r["correct"] is True and r["failed"] == 0 for r in lines) else 1)
