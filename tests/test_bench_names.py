"""The library names the benchmark uses must exist where it looks them up.

``perfbench/layers.py`` patches ``<owner>.<attr>`` for every traced call,
and the benchmark scripts call ``tractfield`` (imported as ``tf``) and
``tractfield.cli`` by attribute; a refactor that renames, moves or deletes
one of them fails here instead of in a benchmark run.  The benchmark files
are executed or parsed from source, read only.
"""

import ast
import runpy
from pathlib import Path

import tractfield
from tractfield import Mask, PolyField, PriorField, cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def attributes_read(module_name):
    """Every ``<module_name>.<attr>`` read in the benchmark's scripts."""
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == module_name):
                names.add(node.attr)
    return names


def test_every_traced_name_exists():
    patches = runpy.run_path(str(LAYERS))["patches"]()
    assert patches
    for owner, attr, name, _ in patches:
        assert attr in owner.__dict__, (getattr(owner, "__name__", owner), attr, name)


def test_every_module_name_the_benchmark_reads_exists():
    for module, alias in ((tractfield, "tf"), (cli, "cli")):
        names = attributes_read(alias)
        assert names, alias
        missing = sorted(name for name in names if not hasattr(module, name))
        assert not missing, (alias, missing)


def test_methods_the_benchmark_calls_exist():
    for cls, attr in ((PriorField, "samples"), (PolyField, "divergence_many"),
                      (Mask, "foreground_points")):
        assert callable(cls.__dict__.get(attr)), (cls.__name__, attr)
