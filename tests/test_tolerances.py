"""The package's tolerances have one source: ``bellbox.tolerances``.

A tolerance written as a literal anywhere else can drift from the value
its documentation and its sibling checks assume, so this test reads the
source of every module and refuses small float literals outside that one
module.
"""

import ast
from pathlib import Path

import pytest

import bellbox
from bellbox.errors import ValidationError
from bellbox.tolerances import require_tolerance

PACKAGE = Path(bellbox.__file__).parent
# a float literal this small is a tolerance, a floor or a cutoff
SMALL = 1e-3


def _small_float_literals(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.name}:{node.lineno}: {node.value!r}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and 0.0 < abs(node.value) < SMALL]


def test_no_tolerance_literal_outside_the_tolerances_module():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "tolerances.py" in modules
    found = [hit for path in modules if path.name != "tolerances.py"
             for hit in _small_float_literals(path)]
    assert not found, "tolerance literals outside tolerances.py:\n" + "\n".join(found)


def test_the_scan_sees_a_negative_literal(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("FLOOR = -1e-10\nSCALE = 0.5\n")
    assert _small_float_literals(probe) == ["probe.py:1: 1e-10"]


@pytest.mark.parametrize("value", [1e-9, 1, 2.0])
def test_require_tolerance_passes_positive_finite_numbers(value):
    assert require_tolerance(value) == float(value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1e-9, "1e-9", None, True])
def test_require_tolerance_refuses_everything_else(value):
    with pytest.raises(ValidationError, match="tolerance must be"):
        require_tolerance(value)
