"""Reading and writing the package's JSON documents.

Four document kinds share one layout rule: a ``kind`` field first, then
the payload fields in a fixed order.  Floats are emitted in Python's
shortest round-trip representation, so parsing an emitted document
reproduces the value exactly and re-emitting a parsed document
reproduces the bytes exactly.  Complex matrices are written as nested
lists of [re, im] pairs.  A behavior document's ``tol`` defaults to
``tolerances.DEFAULT_TOL`` and must be a positive, finite number.
Counts (parties, inputs, outputs, dims) are JSON integers, and table,
coefficient, bound and matrix entries are JSON numbers: a bool or a
string is neither, and a number that does not make a finite float is
refused.  ``render_json`` writes every document and every structured
command-line report with the bytes of ``json.dumps(..., indent=2)``.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .polytope import BellFunctional
from .quantum import BellSetup, MeasurementSet, QuantumState
from .scenario import Behavior, Scenario, validate_behavior
from .tolerances import DEFAULT_TOL, require_tolerance


def _scenario_fields(sc: Scenario) -> dict:
    return {
        "parties": sc.parties,
        "inputs": list(sc.inputs_per_party),
        "outputs": [list(row) for row in sc.outputs],
    }


def _matrix_pairs(mat: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(mat)]


def document_payload(obj) -> dict:
    """Ordered payload dictionary for a scenario, behavior, functional,
    or setup; ``emit_document`` is its JSON rendering."""
    if isinstance(obj, Scenario):
        return {"kind": "scenario", **_scenario_fields(obj)}
    if isinstance(obj, Behavior):
        return {
            "kind": "behavior",
            **_scenario_fields(obj.scenario),
            "probs": [float(v) for v in obj.probs],
            "tol": float(obj.tol),
        }
    if isinstance(obj, BellFunctional):
        payload = {
            "kind": "functional",
            **_scenario_fields(obj.scenario),
            "coeffs": [float(v) for v in obj.coeffs],
            "local_bound": None if obj.local_bound is None else float(obj.local_bound),
        }
        if obj.note is not None:
            payload["note"] = obj.note
        return payload
    if isinstance(obj, BellSetup):
        return {
            "kind": "setup",
            "dims": [obj.state.dim_a, obj.state.dim_b],
            "state": _matrix_pairs(obj.state.rho),
            "alice": [[_matrix_pairs(m) for m in row] for row in obj.alice.effects],
            "bob": [[_matrix_pairs(m) for m in row] for row in obj.bob.effects],
        }
    raise ValidationError(f"cannot serialize a {type(obj).__name__} as a document")


_encode_string = json.encoder.encode_basestring_ascii
# JSON numbers as ``json`` reads them; a bool is not one, though it is an int
_NUMBER = (int, float)


def _indented(obj, pad: str) -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` renders it at indentation
    ``pad``.  Strings, finite floats, ints, bools, None and the lists and
    str-keyed dicts of them are rendered here, and a list of nothing but
    floats and ints by the C encoder; anything else, a non-finite float
    outside such a list included, is left to ``json.dumps``, re-indented."""
    if isinstance(obj, str):
        return _encode_string(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float) and math.isfinite(obj):
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)).issubset(_NUMBER):
            # floats and ints (a bool's type is neither), NaN and the
            # infinities included, are rendered by the C encoder as the
            # indenting one renders them
            body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
        else:
            body = (",\n" + inner).join(_indented(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, dict) and all(isinstance(k, str) for k in obj):
        if not obj:
            return "{}"
        items = (_encode_string(k) + ": " + _indented(v, inner) for k, v in obj.items())
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    # strings are escaped to ASCII, so every newline here is a line break
    return json.dumps(obj, indent=2).replace("\n", "\n" + pad)


def render_json(payload) -> str:
    """``json.dumps(payload, indent=2)``, byte for byte, without the
    standard library's pure-Python indenting encoder."""
    return _indented(payload, "")


def emit_document(obj) -> str:
    """Serialize a scenario, behavior, functional, or setup."""
    return render_json(document_payload(obj)) + "\n"


def write_document(obj, path) -> None:
    Path(path).write_text(emit_document(obj))


def _require(payload: dict, field: str, kind: str):
    if field not in payload:
        raise ValidationError(f"{kind} document is missing field {field!r}")
    return payload[field]


def _refuse():
    raise TypeError


def _parse_scenario_fields(payload: dict, kind: str) -> Scenario:
    parties = _require(payload, "parties", kind)
    inputs = _require(payload, "inputs", kind)
    outputs = _require(payload, "outputs", kind)
    try:
        # counts are JSON integers as they stand: 2.7, "2" and true are refused
        inputs = tuple(v if type(v) is int else _refuse() for v in inputs)
        outputs = tuple(tuple(v if type(v) is int else _refuse() for v in row)
                        for row in outputs)
    except TypeError:
        raise ValidationError(
            f"{kind} document: inputs and outputs must be integer tables"
        ) from None
    if type(parties) is not int:
        raise ValidationError(f"{kind} document: parties must be an integer, got {parties!r}")
    if parties != len(inputs):
        raise ValidationError(
            f"{kind} document: parties field says {parties}, "
            f"inputs lists {len(inputs)} parties"
        )
    return Scenario(inputs_per_party=inputs, outputs=outputs)


def _float_list(raw, what: str) -> np.ndarray:
    # a JSON integer too large for a float overflows; inf and nan, which
    # json reads too, are refused where the values are validated
    try:
        return np.array([float(v) if type(v) in _NUMBER else _refuse() for v in raw],
                        dtype=np.float64)
    except (TypeError, OverflowError):
        raise ValidationError(f"{what} must be a flat list of numbers") from None


def _pair_array(raw, ndim: int) -> np.ndarray | None:
    """``raw`` read at once as an ``ndim``-dimensional complex array, when
    it nests lists of [re, im] pairs of JSON numbers evenly; None
    otherwise, for ``_complex_matrix`` to read entry by entry or refuse
    with its message.  A number is read as ``float`` reads it, -0.0
    included; an integer too large for a float gives None."""
    try:
        leaves = np.array(raw, dtype=object)
    except ValueError:
        return None
    if (leaves.ndim != ndim + 1 or leaves.shape[-1] != 2
            or not set(map(type, leaves.flat)).issubset(_NUMBER)):
        return None
    try:
        return leaves.astype(np.float64).view(complex)[..., 0]
    except OverflowError:
        return None


def _complex_matrix(raw, what: str) -> np.ndarray:
    mat = _pair_array(raw, 2)
    if mat is not None:
        return mat
    try:  # each entry is exactly two numbers, [re, im]
        return np.array(
            [[complex(*(float(v) if type(v) in _NUMBER else _refuse() for v in e))
              if len(e) == 2 else _refuse() for e in row] for row in raw]
        )
    except (TypeError, ValueError, OverflowError, IndexError, KeyError):
        raise ValidationError(f"{what} must be a matrix of [re, im] pairs") from None


def _parse_behavior(payload: dict, tol: float | None) -> Behavior:
    sc = _parse_scenario_fields(payload, "behavior")
    probs = _float_list(_require(payload, "probs", "behavior"), "probs")
    if tol is None:
        tol = require_tolerance(payload.get("tol", DEFAULT_TOL), "behavior document: tol")
    return validate_behavior(sc, probs, tol=tol)


def _parse_functional(payload: dict) -> BellFunctional:
    sc = _parse_scenario_fields(payload, "functional")
    coeffs = _float_list(_require(payload, "coeffs", "functional"), "coeffs")
    bound = payload.get("local_bound")
    if bound is not None:
        try:
            bound = float(bound) if type(bound) in _NUMBER else _refuse()
        except (TypeError, OverflowError):
            raise ValidationError("functional document: local_bound must be a number") from None
    note = payload.get("note")
    if note is not None and not isinstance(note, str):
        raise ValidationError("functional document: note must be a string")
    return BellFunctional(
        scenario=sc,
        coeffs=coeffs,
        local_bound=bound,
        note=note,
    )


def _effects(rows, field: str) -> tuple[tuple[np.ndarray, ...], ...]:
    """One party's effects, per input: read as one array when every
    effect is a matrix of one shape, and effect by effect otherwise."""
    if type(rows) is list and all(type(row) is list for row in rows):
        counts = [len(row) for row in rows]
        stack = _pair_array([m for row in rows for m in row], 3)
        if stack is not None:
            ends = itertools.accumulate(counts)
            return tuple(tuple(stack[end - c:end]) for c, end in zip(counts, ends))
    try:
        return tuple(
            tuple(_complex_matrix(m, f"{field} effect ({x}, {a})") for a, m in enumerate(row))
            for x, row in enumerate(rows)
        )
    except TypeError:
        raise ValidationError(
            f"setup document: {field} must list, per input, a list of effects"
        ) from None


def _parse_setup(payload: dict) -> BellSetup:
    dims = _require(payload, "dims", "setup")
    try:
        dim_a, dim_b = (v if type(v) is int else _refuse() for v in dims)
    except (TypeError, ValueError):
        raise ValidationError("setup document: dims must be two integers") from None
    state = QuantumState(
        dim_a=dim_a,
        dim_b=dim_b,
        rho=_complex_matrix(_require(payload, "state", "setup"), "state"),
    )
    sides = []
    for field, dim in (("alice", dim_a), ("bob", dim_b)):
        rows = _require(payload, field, "setup")
        sides.append(MeasurementSet(dim=dim, effects=_effects(rows, field)))
    return BellSetup(state=state, alice=sides[0], bob=sides[1])


def parse_document_text(text: str, tol: float | None = None):
    """Parse one document; the kind is read from the ``kind`` field.

    ``tol`` overrides a behavior document's own tolerance field, which is
    how the command line loosens validation for noisy measured tables.
    """
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValidationError(
            f"document grammar error at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from None
    except ValueError as err:  # an integer literal past Python's digit limit
        raise ValidationError(f"document number error: {err}") from None
    except RecursionError:
        raise ValidationError("document nests arrays or objects too deeply") from None
    if not isinstance(payload, dict):
        raise ValidationError("document must be a JSON object with a 'kind' field")
    kind = payload.get("kind")
    if kind == "scenario":
        return _parse_scenario_fields(payload, "scenario")
    if kind == "behavior":
        return _parse_behavior(payload, tol)
    if kind == "functional":
        return _parse_functional(payload)
    if kind == "setup":
        return _parse_setup(payload)
    raise ValidationError(f"unknown document kind {kind!r}")


def parse_document(path, tol: float | None = None):
    """Parse the document stored at a filesystem path."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise ValidationError(f"cannot read document {path}: {err.strerror}") from None
    return parse_document_text(text, tol=tol)
