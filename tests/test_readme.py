"""The README's library quick start runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    """The README's one ```python block."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def _stated(comment: str) -> tuple[str, bool] | None:
    """The value a ``# ...`` comment states, and whether it is only a
    prefix (it ends in "..."); None for a comment that states no value."""
    m = re.match(r'"([^"]*)"|(\d[\d.]*)', comment)
    if m is None:
        return None
    if m.group(1) is not None:
        return m.group(1), False
    value = m.group(2)
    return (value[:-3], True) if value.endswith("...") else (value, False)


def test_readme_quick_start_prints_what_its_comments_state():
    code = _quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [line.split("#", 1)[1].strip() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments)
    checked = []
    for shown, comment in zip(printed, comments):
        stated = _stated(comment)
        if stated is None:
            continue
        value, prefix = stated
        assert shown.startswith(value) if prefix else shown == value, (shown, comment)
        checked.append(value)
    # the verdict, the violation, the CHSH value and the critical visibility
    assert checked == ["weakly nonlocal", "2.0", "2.8284271247461894", "0.707106"]
