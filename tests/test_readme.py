"""The README's code examples run against the library as it is."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import numpy as np

from tractfield.cli import main
from tractfield.tracking import DRAW_BLOCK, _substreams

README = Path(__file__).resolve().parents[1] / "README.md"


def python_fences(text: str) -> list:
    """The bodies of the ```python fences in a Markdown text."""
    return re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)


def test_library_use_example_prints_a_completion(capsys):
    code, _ = python_fences(README.read_text())
    exec(compile(code, str(README), "exec"), {})
    completion = float(capsys.readouterr().out.split()[-1])
    assert 0.0 <= completion <= 1.0


def test_keying_example_regenerates_a_lines_noise():
    # Past one draw block, so that the tracker's block refill counts too.
    _, code = python_fences(README.read_text())
    x, y, z = 1.5, -0.0, 5e-324
    scope = dict(np=np, x=x, y=y, z=z, rep=2, rng_seed=-5, sigma=0.1, turns=DRAW_BLOCK + 3)
    exec(compile(code, str(README), "exec"), scope)
    rng = _substreams(-5, [(x, y, z)], 3)[2]
    blocks = np.concatenate([rng.normal(0.0, 0.1, (DRAW_BLOCK, 3)) for _ in range(2)])
    assert scope["noise"].tobytes() == blocks[:DRAW_BLOCK + 3].tobytes()


def test_quick_start_pipeline_prints_the_record(tmp_path, monkeypatch, capsys):
    # The spec fence is written to the file it names and the pipeline command
    # runs where that file is, so its relative paths stay as printed.
    text = README.read_text()
    spec = re.search(r"^```\n(# (\S+) - .*?)^```$", text, re.M | re.S)
    command = re.search(r"^tractfield (pipeline .*)$", text, re.M).group(1)
    record = re.search(r"record, `(overlap=[^`]*)`", text).group(1)
    (tmp_path / spec.group(2)).write_text(spec.group(1))
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out.splitlines()[0] == record
