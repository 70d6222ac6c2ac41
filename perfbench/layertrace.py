"""Spans and counts recorded from outside the package.

``Tracer.install`` replaces public names at the point where the calling
module looks them up (``bellbox.analysis.solve`` rather than
``bellbox.lp.solve``) with wrappers that record a span per call;
``uninstall`` puts the originals back.  Nothing under ``src/`` changes.
Spans stay in memory; ``layer_metrics`` turns them into per-operation
figures, using self times: a span's duration minus its direct children's.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name); each span name belongs to the layer
# before its first dot
PATCH_POINTS = [
    ("bellbox.cli", "main", "cli.main"),
    ("bellbox.cli", "parse_document", "documents.parse"),
    ("bellbox.cli", "document_payload", "documents.emit"),
    ("bellbox.cli", "emit_document", "documents.emit"),
    ("bellbox.cli", "behavior_from_setup", "quantum.born"),
    ("bellbox.cli", "classify", "analysis.classify"),
    ("bellbox.cli", "membership", "analysis.membership"),
    ("bellbox.cli", "visibility_threshold", "analysis.visibility_threshold"),
    ("bellbox.analysis", "membership", "analysis.membership"),
    ("bellbox.analysis", "solve", "lp.solve"),
    ("bellbox.analysis", "canonicalize", "polytope.canonicalize"),
    ("bellbox.analysis", "strategy_matrix", "polytope.strategy_matrix"),
    ("bellbox.analysis", "no_signalling_defect", "scenario.ns_check"),
    ("bellbox.analysis", "behavior_from_setup", "quantum.born"),
    ("bellbox.polytope", "canonicalize", "polytope.canonicalize"),
    ("bellbox.polytope", "strategy_matrix", "polytope.strategy_matrix"),
    ("bellbox.polytope", "validate_behavior", "scenario.validate"),
    ("bellbox.scenario", "validate_behavior", "scenario.validate"),
    ("bellbox.scenario", "no_signalling_defect", "scenario.ns_check"),
    ("bellbox.quantum", "validate_behavior", "scenario.validate"),
    ("bellbox.quantum", "behavior_from_setup", "quantum.born"),
    ("bellbox.documents", "validate_behavior", "scenario.validate"),
    ("bellbox.documents", "emit_document", "documents.emit"),
]

PER_LAYER = [
    ("lp.solve_ms", "ms"),
    ("lp.pivots", "count"),
    ("lp.us_per_pivot", "us"),
    ("lp.rows", "count"),
    ("lp.cols", "count"),
    ("lp.solves", "count"),
    ("analysis.bisect_steps", "count"),
    ("analysis.self_ms", "ms"),
    ("polytope.canonicalize_ms", "ms"),
    ("polytope.canonicalize_calls", "count"),
    ("polytope.strategy_matrix_ms", "ms"),
    ("scenario.ns_check_ms", "ms"),
    ("scenario.validate_ms", "ms"),
    ("quantum.born_ms", "ms"),
    ("documents.parse_ms", "ms"),
    ("documents.emit_ms", "ms"),
    ("cli.self_ms", "ms"),
    ("trace.overhead_pct", "%"),
]


class Tracer:
    """Records spans as [name, start, end, parent index, op id, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._originals: list[tuple] = []
        self.op_id = -1
        self.first_matrix: set = set()  # scenarios whose strategy matrix was built

    def span(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else -1
            rec = [name, 0.0, 0.0, parent, tracer.op_id, None]
            idx = len(tracer.spans)
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            rec[5] = _extra(name, args, result, tracer)
            return result

        return wrapper

    def begin_op(self, op_id: int, kind: str):
        self.op_id = op_id
        rec = [f"op.{kind}", time.perf_counter(), 0.0, -1, op_id, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end_op(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()
        self.op_id = -1

    def install(self):
        if self._originals:
            return  # already installed; wrapping twice would record every span twice
        for mod_name, attr, span_name in PATCH_POINTS:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._originals.append((mod, attr, original))
            setattr(mod, attr, self.span(span_name, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._originals):
            setattr(mod, attr, original)
        self._originals.clear()


def _extra(name, args, result, tracer):
    if name == "lp.solve":
        rows, cols = args[0].shape
        return [int(result.iterations), rows, cols]
    if name == "analysis.visibility_threshold":
        return [int(result.iterations)]
    if name == "polytope.strategy_matrix":
        key = args[0]
        if key not in tracer.first_matrix:
            tracer.first_matrix.add(key)
            return ["first"]
    return None


def layer_metrics(spans: list[list], traced_ops: int) -> dict[str, float]:
    """Per-operation layer figures from spans of ``traced_ops`` operations;
    spans outside any operation (set-up) only feed the strategy matrix
    first-build time."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    total: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    pivots = rows = cols = solves = bisect = 0
    first_matrix = 0.0
    for i, (name, start, end, _parent, op, extra) in enumerate(spans):
        dur = end - start
        if name == "polytope.strategy_matrix" and extra == ["first"]:
            first_matrix += dur
        if op < 0:
            continue
        total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        if name == "lp.solve":
            pivots += extra[0]
            rows += extra[1]
            cols += extra[2]
            solves += 1
        elif name == "analysis.visibility_threshold":
            bisect += extra[0]

    n = max(traced_ops, 1)

    def ms(d: dict, key: str) -> float:
        return 1000.0 * d.get(key, 0.0) / n

    analysis_self = sum(v for k, v in self_t.items() if k.startswith("analysis."))
    return {
        "lp.solve_ms": ms(total, "lp.solve"),
        "lp.pivots": pivots / n,
        "lp.us_per_pivot": 1e6 * total.get("lp.solve", 0.0) / pivots if pivots else 0.0,
        "lp.rows": rows / solves if solves else 0.0,
        "lp.cols": cols / solves if solves else 0.0,
        "lp.solves": solves / n,
        "analysis.bisect_steps": bisect / n,
        "analysis.self_ms": 1000.0 * analysis_self / n,
        "polytope.canonicalize_ms": ms(total, "polytope.canonicalize"),
        "polytope.canonicalize_calls": calls.get("polytope.canonicalize", 0) / n,
        "polytope.strategy_matrix_ms": 1000.0 * first_matrix,
        "scenario.ns_check_ms": ms(total, "scenario.ns_check"),
        "scenario.validate_ms": ms(total, "scenario.validate"),
        "quantum.born_ms": ms(self_t, "quantum.born"),
        "documents.parse_ms": ms(self_t, "documents.parse"),
        "documents.emit_ms": ms(total, "documents.emit"),
        "cli.self_ms": ms(self_t, "cli.main"),
    }
