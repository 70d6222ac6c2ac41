"""The benchmark's traced runs wrap package names from outside, listed in
``perfbench/layertrace.py`` as ``PATCH_POINTS``.  A rename or a moved
import breaks them without failing any other test, so every listed
(module, attribute) is checked here against the installed package.  The
list is read as source, with ``ast``, so that nothing of the benchmark is
imported."""

import ast
import importlib
from pathlib import Path

import pytest

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
