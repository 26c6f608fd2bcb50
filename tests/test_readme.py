"""The README's code examples run against the library as it is."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_fences(text: str) -> list:
    """The bodies of the ```python fences in a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_library_use_example_prints_a_completion(capsys):
    (code,) = python_fences(README.read_text())
    exec(compile(code, str(README), "exec"), {})
    completion = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= completion <= 1.0
