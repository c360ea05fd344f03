"""The README's Python examples run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

import pytest

_README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCKS = re.findall(r"^```python\n(.*?)^```$", _README.read_text(encoding="utf-8"), flags=re.M | re.S)
# a print(...) line's trailing "# value" comment: the printed line, or its prefix before "..."
_EXPECTED = re.compile(r"^print\(.*\)\s+#\s*(\S+)$")


def test_readme_has_python_examples():
    assert _BLOCKS


@pytest.mark.parametrize("block", _BLOCKS, ids=[f"block{k}" for k in range(len(_BLOCKS))])
def test_readme_example_prints_its_comments(block):
    expected = [m.group(1) for m in map(_EXPECTED.match, block.splitlines()) if m]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(_README), "exec"), {"__name__": "__readme__"})
    printed = out.getvalue().splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want
