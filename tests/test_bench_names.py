"""The names the benchmark tracer wraps must exist where it looks them up.

``perfbench/layers.py`` patches ``<owner>.<attr>`` for every traced call;
a refactor that renames or moves one of them fails here instead of in a
traced benchmark run.  The file is executed from source, read only.
"""

import runpy
from pathlib import Path

from tractfield import cli

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_traced_name_exists():
    patches = runpy.run_path(str(LAYERS))["patches"]()
    assert patches
    for owner, attr, name, _ in patches:
        assert attr in owner.__dict__, (getattr(owner, "__name__", owner), attr, name)
    assert callable(cli._load_endpoints)
