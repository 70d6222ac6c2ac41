"""Fail unless every line of a perfbench/run.py JSONL output is correct,
no operation of any workload failed, a traced membership-242 line
averages at most 35 simplex pivots per operation, and a traced verdicts
line at most 0.75 LP solves per operation.

usage: python3 .github/check_bench.py BENCH.jsonl

run.py exits 0 even when its answer checks fail, so its lines are read
here.  Neither verdicts nor membership-242 has a known failure.  The
pivot gate reads ``lp.pivots`` of a traced run made without
``--workload`` (only those lines name their workload), so a regression
in the pricing rule or the ratio test fails: steepest-edge pricing with
long steps across the slack pairs takes about 21-25 pivots per
membership-242 operation (seeds 1-3), the plain ratio test about 40,
and pricing by the most negative reduced cost about 87.  The solve gate
reads ``lp.solves`` of a traced verdicts line the same way.  The trace
counts calls of ``bellbox.analysis.solve``, and a CHSH visibility
threshold makes none: it decides the noise and finds the threshold on
one staged simplex (``_solve_then_maximize``), which the trace does not
wrap.  Every 13-item round then takes 8 solves, 0.615 per operation.  A
threshold that goes back to a separate decision of the noise fails,
with 11 per round (0.846), and so does one that goes back to two
solves, with 14 (1.077).
"""
import json
import sys

MAX_PIVOTS_242 = 35
MAX_SOLVES_VERDICTS = 0.75


def failures(r: dict) -> list[str]:
    out = []
    if r["correct"] is not True or r["failed"] != 0:
        out.append("answer checks failed or operations failed")
    pivots = r["metrics"].get("lp.pivots")
    if r.get("workload") == "membership-242" and pivots is not None:
        if pivots["value"] > MAX_PIVOTS_242:
            out.append(f"membership-242 takes {pivots['value']:.1f} pivots per operation, "
                       f"above {MAX_PIVOTS_242}")
    solves = r["metrics"].get("lp.solves")
    if r.get("workload") == "verdicts" and solves is not None:
        if solves["value"] > MAX_SOLVES_VERDICTS:
            out.append(f"verdicts takes {solves['value']:.3f} LP solves per operation, "
                       f"above {MAX_SOLVES_VERDICTS}")
    return out


lines = [json.loads(s) for s in open(sys.argv[1]) if s.strip()]
print(*lines, sep="\n")
problems = [p for r in lines for p in failures(r)]
for p in problems:
    print(f"check_bench: {p}", file=sys.stderr)
sys.exit(0 if lines and not problems else 1)
