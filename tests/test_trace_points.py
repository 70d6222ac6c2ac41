"""The benchmark's traced runs wrap package names from outside, listed in
``perfbench/layertrace.py`` as ``PATCH_POINTS``.  A rename or a moved
import breaks them without failing any other test, so every listed
(module, attribute) is checked here against the installed package.  The
list is read as source, with ``ast``, so that nothing of the benchmark is
imported.

The trace and ``.github/cli_digest.py`` also read what the LP calls of
``bellbox.analysis`` receive and return: the trace the shape of
``solve``'s first argument and its outcome's ``iterations``, and both the
iterations of ``solve`` and of the staged ``_solve_then_maximize``;
``.github/check_bench.py`` gates on the counts they give.  Those calls
are wrapped here the way the digest wraps them."""

import ast
import importlib
from pathlib import Path

import pytest

import bellbox.analysis
from bellbox import named_behavior
from bellbox.analysis import membership, visibility_threshold
from bellbox.lp import LinearProgram
from bellbox.quantum import behavior_from_setup, named_setup, random_setup

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _patch_points() -> list[tuple[str, str, str]]:
    tree = ast.parse(LAYERTRACE.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCH_POINTS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PATCH_POINTS assignment in {LAYERTRACE}")


def test_patch_points_are_listed():
    points = _patch_points()
    assert points and all(len(point) == 3 for point in points)


@pytest.mark.parametrize(("module", "attr", "span"), _patch_points())
def test_patch_point_resolves(module, attr, span):
    assert callable(getattr(importlib.import_module(module), attr))


def _wrapped_lp_calls(monkeypatch) -> tuple[list, list]:
    """Wrap ``bellbox.analysis.solve`` and ``_solve_then_maximize``, as the
    digest does, and return the lists of (arguments, outcome) that they
    append to, one item per call."""
    solves, staged = [], []
    solve, stages = bellbox.analysis.solve, bellbox.analysis._solve_then_maximize

    def counted(*args, **kwargs):
        out = solve(*args, **kwargs)
        solves.append((args, out))
        return out

    def counted_staged(*args, **kwargs):
        first, second = stages(*args, **kwargs)
        staged.append((args, second or first))
        return first, second

    monkeypatch.setattr(bellbox.analysis, "solve", counted)
    monkeypatch.setattr(bellbox.analysis, "_solve_then_maximize", counted_staged)
    return solves, staged


def test_membership_on_a_242_table_makes_one_traced_solve(monkeypatch):
    solves, staged = _wrapped_lp_calls(monkeypatch)
    membership(behavior_from_setup(random_setup(seed=1, dims=(2, 2), inputs=(4, 4))))
    ((args, out),) = solves
    assert isinstance(args[0], LinearProgram) and args[0].shape == (65, 384)
    assert isinstance(out.iterations, int) and out.iterations > 0
    assert staged == []


def test_a_chsh_visibility_threshold_makes_one_staged_call_and_no_solve(monkeypatch):
    solves, staged = _wrapped_lp_calls(monkeypatch)
    visibility_threshold(behavior_from_setup(named_setup("singlet_chsh")),
                         named_behavior("uniform"))
    ((args, out),) = staged
    assert isinstance(args[0], LinearProgram) and isinstance(out.iterations, int)
    assert solves == []
