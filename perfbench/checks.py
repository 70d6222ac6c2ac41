"""Independent checks of a workload run's outputs.

Each check recomputes the answer with the benchmark's own code (decks.py)
and scipy, never with the package's solver: scipy's linprog gives the
local/nonlocal decision, bounds come from this file's enumeration of
deterministic strategies, thresholds from the CHSH values.  A check
returns a list of error strings; an empty list means the outputs are
right.
"""

from __future__ import annotations

import json

import numpy as np

import decks

MODEL_TOL = 1e-7
BOUND_TOL = 1e-9


def is_local(table: np.ndarray, inputs) -> bool:
    """Whether the table is a mixture of deterministic strategies (scipy)."""
    from scipy.optimize import linprog

    V = decks.strategy_matrix(tuple(inputs))
    A = np.vstack([V, np.ones((1, V.shape[1]))])
    b = np.append(table, 1.0)
    res = linprog(np.zeros(V.shape[1]), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    if res.status not in (0, 2):
        raise RuntimeError(f"scipy linprog ended with status {res.status}: {res.message}")
    return res.status == 0


def _check_local_model(witness: dict, item) -> list[str]:
    V = decks.strategy_matrix(tuple(item.truth["inputs"]))
    w = np.array(witness["weights"])
    if w.shape != (V.shape[1],) or w.min() < 0.0 or abs(w.sum() - 1.0) > 1e-9:
        return [f"item {item.index}: local model weights are not a distribution"]
    miss = float(np.abs(V @ w - item.truth["table"]).max())
    if miss > MODEL_TOL:
        return [f"item {item.index}: local model misses its table by {miss:.3e}"]
    return []


def _check_functional(witness: dict, item) -> list[str]:
    V = decks.strategy_matrix(tuple(item.truth["inputs"]))
    f = witness["functional"]
    c = np.array(f["coeffs"])
    bound = float((c @ V).max())
    if abs(bound - f["local_bound"]) > BOUND_TOL * max(1.0, abs(bound)):
        return [f"item {item.index}: reported bound {f['local_bound']!r}, "
                f"enumeration gives {bound!r}"]
    violation = float(c @ item.truth["table"]) - bound
    if not violation > 0.0:
        return [f"item {item.index}: inequality is not violated ({violation:.3e})"]
    if abs(violation - witness["violation"]) > BOUND_TOL:
        return [f"item {item.index}: reported violation {witness['violation']!r}, "
                f"recomputed {violation!r}"]
    return []


def _marginal(table: np.ndarray, inputs, party: int, x: int, a: int, remote) -> float:
    n = len(inputs)
    t = table.reshape(tuple(inputs) + (decks.K,) * n)
    xs = list(remote[:party]) + [x] + list(remote[party:])
    block = t[tuple(xs)]
    return float(np.take(block, a, axis=party).sum())


def _check_signalling(witness: dict, item) -> list[str]:
    truth = item.truth
    errors = []
    if witness["party"] != truth["receiver"]:
        errors.append(f"item {item.index}: shift reported at party {witness['party']}, "
                      f"built in at party {truth['receiver']}")
    hi, lo = witness["contexts"]
    args = (truth["table"], truth["inputs"], witness["party"], witness["input"], witness["output"])
    shift = _marginal(*args, hi) - _marginal(*args, lo)
    for name, value in (("reported", witness["max_defect"]), ("witnessed", shift)):
        if abs(value - truth["shift"]) > BOUND_TOL:
            errors.append(f"item {item.index}: {name} shift {value!r}, "
                          f"built in {truth['shift']!r}")
    return errors


def _check_decision(item, payload: dict) -> list[str]:
    """Verdict of a classify or membership report against scipy and the deck."""
    truth = item.truth
    expect = truth["expect"]
    if item.kind == "classify":
        verdict = payload["verdict"]
    else:
        verdict = "local" if payload["is_local"] else "weakly nonlocal"
    if verdict != expect:
        return [f"item {item.index}: verdict {verdict!r}, expected {expect!r}"]
    if expect != "signalling" and is_local(truth["table"], truth["inputs"]) != (expect == "local"):
        return [f"item {item.index}: scipy disagrees with verdict {verdict!r}"]
    witness = payload["witness"]
    if witness["type"] == "local_model":
        return _check_local_model(witness, item)
    if witness["type"] == "functional":
        return _check_functional(witness, item)
    if item.truth.get("known_failure"):
        return []  # once it passes, its witness format is the fixer's to choose
    return _check_signalling(witness, item)


def _check_threshold(item, payload: dict) -> list[str]:
    """The precision is the deck's, not whatever tolerance the output reports."""
    want = item.truth["critical"]
    lo, hi = payload["bracket"]
    tol = decks.THRESHOLD_TOL
    if payload["tolerance"] > tol or hi - lo > tol:
        return [f"item {item.index}: threshold tolerance {payload['tolerance']!r}, "
                f"bracket width {hi - lo!r}; the deck asks for {tol!r}"]
    if not (lo - BOUND_TOL <= want <= hi + BOUND_TOL) or abs(payload["critical"] - want) > tol:
        return [f"item {item.index}: threshold {payload['critical']!r} "
                f"(bracket {lo!r}, {hi!r}), expected 2/S_max = {want!r}"]
    return []


def check_cli(items: dict, outputs: dict) -> list[str]:
    errors = []
    for key, (code, text) in outputs.items():
        item = items[int(key)]
        if code != 0:
            if not item.truth.get("known_failure"):
                errors.append(f"item {item.index} ({item.argv[0]}) exited {code}: {text.strip()}")
            continue
        payload = json.loads(text)
        if item.kind == "threshold":
            errors += _check_threshold(item, payload)
        else:
            errors += _check_decision(item, payload)
    return errors
