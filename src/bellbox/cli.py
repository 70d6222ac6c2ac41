"""Command-line front end for black-box correlation analysis.

Verbs map one-to-one onto the library: validate documents, classify
behaviors, decide local-set membership, derive violated inequalities,
enumerate facets, evaluate CHSH, simulate quantum setups, and locate
noise thresholds.  Exit codes: 0 success, 2 validation failure, 3 when a
size cap or an internal consistency stop fires.

Structured output is JSON with a fixed key order, so identical
invocations produce byte-identical reports.  Text output renders every
numeric value with 17 significant digits.  The environment variable
``BELLBOX_TOL`` replaces each verb's default tolerance; an explicit
``--tol`` wins over both.  The defaults come from ``tolerances``, and a
tolerance that is not positive and finite exits with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

from .analysis import (
    chsh_value,
    classify,
    derive_critical_inequality,
    efficiency_threshold,
    membership,
    visibility_threshold,
)
from .documents import document_payload, emit_document, parse_document, render_json
from .errors import SizeCapError, StalledError, ValidationError
from .polytope import BellFunctional, enumerate_facets
from .quantum import (
    BellSetup,
    behavior_from_setup,
    bin_last_outcome,
    lift_with_efficiency,
    random_setup,
)
from .scenario import Behavior, Scenario
from .tolerances import DEFAULT_TOL, EFFICIENCY_TOL, VISIBILITY_TOL, require_tolerance

ENV_TOL = "BELLBOX_TOL"


def _fmt(x: float) -> str:
    # 17 significant digits round-trip any double
    return f"{float(x):.17g}"


def _effective_tol(args, default: float) -> float:
    if getattr(args, "tol", None) is not None:
        value = float(args.tol)
    else:
        raw = os.environ.get(ENV_TOL)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ValidationError(f"{ENV_TOL} must be a number, got {raw!r}")
    return require_tolerance(value)


def _emit_structured(payload: dict) -> None:
    sys.stdout.write(render_json(payload) + "\n")


def _emit_text(lines: list[str]) -> None:
    sys.stdout.write("\n".join(lines) + "\n")


def _kind_of(obj) -> str:
    if isinstance(obj, Scenario):
        return "scenario"
    if isinstance(obj, Behavior):
        return "behavior"
    if isinstance(obj, BellFunctional):
        return "functional"
    return "setup"


def _load_behavior(path: str, tol: float) -> Behavior:
    """Read a behavior, converting a setup document on the fly."""
    obj = parse_document(path, tol=tol)
    if isinstance(obj, BellSetup):
        return behavior_from_setup(obj, tol=tol)
    if isinstance(obj, Behavior):
        return obj
    raise ValidationError(
        f"{path} holds a {_kind_of(obj)} document; this verb needs a behavior or setup"
    )


def _scenario_of(obj) -> Scenario:
    if isinstance(obj, Scenario):
        return obj
    return obj.scenario


# -- witness rendering -------------------------------------------------------

def _functional_witness(functional: BellFunctional, violation: float) -> dict:
    doc = document_payload(dataclasses.replace(functional, note="certificate"))
    return {"type": "functional", "functional": doc, "violation": violation}


def _witness_payload(c) -> dict:
    if c.model is not None:
        weights = [float(w) for w in c.model.weights]
        return {"type": "local_model", "support": c.model.support.size, "weights": weights}
    if c.functional is not None:
        return _functional_witness(c.functional, c.violation)
    party, x, a, (ctx_hi, ctx_lo) = c.signalling.worst_marginal
    return {
        "type": "signalling",
        "max_defect": c.signalling.max_defect,
        "party": party,
        "input": x,
        "output": a,
        "contexts": [list(ctx_hi), list(ctx_lo)],
    }


def _functional_lines(f: BellFunctional, indent: str = "  ") -> list[str]:
    lines = [f"{indent}coefficients: {' '.join(_fmt(v) for v in f.coeffs)}"]
    if f.integer_coeffs is not None:
        ints = " ".join(str(v) for v in f.integer_coeffs)
        lines.append(f"{indent}integer form: {ints} with bound {f.integer_bound}")
    lines.append(f"{indent}local bound: {_fmt(f.local_bound)}")
    return lines


def _witness_lines(c) -> list[str]:
    if c.model is not None:
        support = c.model.support
        lines = [f"witness: local model mixing {support.size} deterministic strategies"]
        lines += [f"  strategy {i}: {_fmt(float(c.model.weights[i]))}" for i in support]
        return lines
    if c.functional is not None:
        return (["witness: violated inequality"]
                + _functional_lines(c.functional)
                + [f"  violation: {_fmt(c.violation)}"])
    party, x, a, (ctx_hi, ctx_lo) = c.signalling.worst_marginal
    if isinstance(party, int):
        marginal = f"party {party}, output {a} under input {x}"
    else:
        marginal = f"parties {party}, outputs {a} under inputs {x}"
    return [
        "witness: marginal shift",
        f"  max defect: {_fmt(c.signalling.max_defect)}",
        f"  {marginal}, remote contexts {ctx_hi} vs {ctx_lo}",
    ]


# -- verb handlers -----------------------------------------------------------

def _cmd_validate(args) -> int:
    tol = _effective_tol(args, DEFAULT_TOL)
    obj = parse_document(args.file, tol=tol)
    kind = _kind_of(obj)
    if args.format == "structured":
        _emit_structured({
            "verb": "validate",
            "tolerance": tol,
            "kind": kind,
            "ok": True,
            "document": document_payload(obj),
        })
    else:
        _emit_text([
            f"kind: {kind}",
            f"tolerance: {_fmt(tol)}",
            f"ok: {args.file} is a valid {kind} document",
        ])
    return 0


def _cmd_classify(args) -> int:
    tol = _effective_tol(args, DEFAULT_TOL)
    c = classify(_load_behavior(args.file, tol), tol=tol)
    if args.format == "structured":
        _emit_structured({
            "verb": "classify",
            "tolerance": tol,
            "verdict": c.verdict.value,
            "witness": _witness_payload(c),
            "summary": c.summary,
        })
    else:
        lines = [f"verdict: {c.verdict.value}", f"tolerance: {_fmt(tol)}"]
        lines += _witness_lines(c)
        lines.append(f"summary: {c.summary}")
        _emit_text(lines)
    return 0


def _cmd_membership(args) -> int:
    tol = _effective_tol(args, DEFAULT_TOL)
    res = membership(_load_behavior(args.file, tol), tol=tol)
    if args.format == "structured":
        _emit_structured({
            "verb": "membership",
            "tolerance": tol,
            "is_local": res.is_local,
            "witness": _witness_payload(res),
        })
    else:
        lines = [
            f"is_local: {'yes' if res.is_local else 'no'}",
            f"tolerance: {_fmt(tol)}",
        ]
        lines += _witness_lines(res)
        _emit_text(lines)
    return 0


def _cmd_derive(args) -> int:
    tol = _effective_tol(args, DEFAULT_TOL)
    f = derive_critical_inequality(_load_behavior(args.file, tol), tol=tol)
    f = dataclasses.replace(f, note="certificate")
    if args.format == "structured":
        sys.stdout.write(emit_document(f))
    else:
        _emit_text(_functional_lines(f, indent="") + [f"tolerance: {_fmt(tol)}"])
    return 0


def _cmd_facets(args) -> int:
    tol = _effective_tol(args, DEFAULT_TOL)
    sc = _scenario_of(parse_document(args.file, tol=tol))
    facets = enumerate_facets(sc)
    if args.format == "structured":
        _emit_structured({
            "verb": "facets",
            "tolerance": tol,
            "count": len(facets),
            "facets": [
                document_payload(dataclasses.replace(f, note="facet"))
                for f in facets
            ],
        })
    else:
        lines = [f"count: {len(facets)}", f"tolerance: {_fmt(tol)}"]
        for i, f in enumerate(facets):
            if f.integer_coeffs is not None:
                desc = " ".join(str(v) for v in f.integer_coeffs)
                desc += f" with bound {f.integer_bound}"
            else:
                desc = " ".join(_fmt(v) for v in f.coeffs)
                desc += f" with bound {_fmt(f.local_bound)}"
            lines.append(f"facet {i}: {desc}")
        _emit_text(lines)
    return 0


def _cmd_chsh(args) -> int:
    tol = _effective_tol(args, DEFAULT_TOL)
    value = chsh_value(_load_behavior(args.file, tol))
    if args.format == "structured":
        _emit_structured({"verb": "chsh", "tolerance": tol, "value": value})
    else:
        _emit_text([f"value: {_fmt(value)}", f"tolerance: {_fmt(tol)}"])
    return 0


def _cmd_quantum(args) -> int:
    tol = _effective_tol(args, DEFAULT_TOL)
    if (args.file is None) == (args.seed is None):
        raise ValidationError(
            "provide exactly one source: a setup document or --seed"
        )
    if args.file is not None:
        obj = parse_document(args.file, tol=tol)
        if not isinstance(obj, BellSetup):
            raise ValidationError(
                f"{args.file} holds a {_kind_of(obj)} document; quantum needs a setup"
            )
        setup = obj
    else:
        setup = random_setup(args.seed, dims=tuple(args.dims), inputs=tuple(args.inputs))
    if args.efficiency is not None:
        setup = BellSetup(
            state=setup.state,
            alice=lift_with_efficiency(setup.alice, args.efficiency),
            bob=lift_with_efficiency(setup.bob, args.efficiency),
        )
    behavior = behavior_from_setup(setup, tol=tol)
    if args.bin:
        behavior = bin_last_outcome(behavior)
    if args.format == "structured":
        sys.stdout.write(emit_document(behavior))
    else:
        sc = behavior.scenario
        lines = [f"scenario: inputs {sc.inputs_per_party}, outputs {sc.outputs}"]
        for joint in sc.joint_inputs():
            for outs in sc.joint_outputs(joint):
                lines.append(
                    f"P{outs}|{joint} = {_fmt(behavior.prob(joint, outs))}"
                )
        _emit_text(lines)
    return 0


def _threshold_report(args, res) -> int:
    if args.format == "structured":
        _emit_structured({
            "verb": "threshold",
            "parameter": res.parameter,
            "tolerance": res.tolerance,
            "critical": res.critical,
            "bracket": [res.bracket[0], res.bracket[1]],
            "iterations": res.iterations,
        })
    else:
        _emit_text([
            f"parameter: {res.parameter}",
            f"critical: {_fmt(res.critical)}",
            f"bracket: [{_fmt(res.bracket[0])}, {_fmt(res.bracket[1])}]",
            f"iterations: {res.iterations}",
            f"tolerance: {_fmt(res.tolerance)}",
        ])
    return 0


def _cmd_threshold_visibility(args) -> int:
    tol = _effective_tol(args, VISIBILITY_TOL)
    target = _load_behavior(args.target, DEFAULT_TOL)
    noise = _load_behavior(args.noise, DEFAULT_TOL)
    return _threshold_report(args, visibility_threshold(target, noise, tol=tol))


def _cmd_threshold_efficiency(args) -> int:
    tol = _effective_tol(args, EFFICIENCY_TOL)
    obj = parse_document(args.file, tol=DEFAULT_TOL)
    if not isinstance(obj, BellSetup):
        raise ValidationError(
            f"{args.file} holds a {_kind_of(obj)} document; the efficiency "
            "threshold needs a setup with detectors to degrade"
        )
    return _threshold_report(args, efficiency_threshold(obj, tol=tol))


# -- parser ------------------------------------------------------------------

def _add_common(sub, with_tol: bool = True):
    sub.add_argument("--format", choices=("text", "structured"), default="text",
                     help="report style: human text or stable JSON")
    if with_tol:
        sub.add_argument("--tol", type=float, default=None,
                         help="numerical tolerance for this verb")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: it reads no environment,
    and ``parse_args`` leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bellbox",
        description="Analyze black-box correlations: locality, signalling, "
                    "Bell inequalities, quantum setups, noise thresholds.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    p = sub.add_parser("validate", help="check a document against its invariants")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("classify", help="call a behavior local, weakly nonlocal, or signalling")
    p.add_argument("file", help="behavior or setup document")
    _add_common(p)
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("membership", help="decide local-set membership with a witness")
    p.add_argument("file", help="behavior or setup document")
    _add_common(p)
    p.set_defaults(handler=_cmd_membership)

    p = sub.add_parser("derive-inequality",
                       help="emit a violated inequality for a nonlocal behavior")
    p.add_argument("file", help="behavior or setup document")
    _add_common(p)
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("facets", help="enumerate the facets of a scenario's local polytope")
    p.add_argument("file", help="any document; its scenario is used")
    _add_common(p)
    p.set_defaults(handler=_cmd_facets)

    p = sub.add_parser("chsh", help="evaluate the CHSH combination on a (2,2,2) behavior")
    p.add_argument("file", help="behavior or setup document")
    _add_common(p)
    p.set_defaults(handler=_cmd_chsh)

    p = sub.add_parser("quantum", help="turn a quantum setup into its behavior")
    p.add_argument("file", nargs="?", default=None, help="setup document")
    p.add_argument("--seed", type=int, default=None,
                   help="generate a random setup instead of reading one")
    p.add_argument("--dims", type=int, nargs=2, default=(2, 2), metavar=("DA", "DB"),
                   help="local dimensions for --seed (default 2 2)")
    p.add_argument("--inputs", type=int, nargs=2, default=(2, 2), metavar=("NA", "NB"),
                   help="inputs per party for --seed (default 2 2)")
    p.add_argument("--efficiency", type=float, default=None,
                   help="detector efficiency; adds a no-click outcome per party")
    p.add_argument("--bin", action="store_true",
                   help="fold each party's last outcome into outcome 0")
    _add_common(p)
    p.set_defaults(handler=_cmd_quantum)

    p = sub.add_parser("threshold", help="bisect for a critical noise parameter")
    tsub = p.add_subparsers(dest="parameter", required=True, metavar="parameter")

    tv = tsub.add_parser("visibility", help="critical weight of a behavior against noise")
    tv.add_argument("target", help="behavior or setup document to attenuate")
    tv.add_argument("noise", help="behavior or setup document mixed in")
    _add_common(tv)
    tv.set_defaults(handler=_cmd_threshold_visibility)

    te = tsub.add_parser("efficiency", help="critical detector efficiency of a setup")
    te.add_argument("file", help="setup document")
    _add_common(te)
    te.set_defaults(handler=_cmd_threshold_efficiency)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SizeCapError, StalledError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
