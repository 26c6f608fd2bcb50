"""Every module of the package uses each name it imports, and none imports
scipy at module level.

Stdlib ``ast`` checks: deleting the last use of a helper must also delete
its import (``__init__.py`` is exempt because its imports are the package's
public names), and scipy is imported only inside the functions that call
it, so that ``import tractfield`` and the stages that never call it start
without its ~0.5 s import.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tractfield"
ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source: str) -> list:
    """Names bound by the import statements of ``source`` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_checker_finds_a_dead_import():
    source = "import os\nimport numpy as np\nfrom .grids import Tract, _fmt\nnp.zeros(Tract)\n"
    assert unused_imports(source) == ["_fmt", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def top_level_scipy_imports(source: str) -> list:
    """Line numbers of module-level statements that import scipy.

    Statements nested in ``if``/``try`` blocks and class bodies run at
    import time too; only imports inside a function body are deferred.
    """
    found = []
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if not node.level else []
        else:
            pending.extend(n for n in ast.iter_child_nodes(node) if isinstance(n, ast.stmt))
            continue
        if any(n.split(".")[0] == "scipy" for n in names):
            found.append(node.lineno)
    return sorted(found)


def test_checker_finds_a_top_level_scipy_import():
    source = (
        "import numpy as np\n"
        "from scipy.spatial import cKDTree\n"
        "try:\n    import scipy.sparse as sp\nexcept ImportError:\n    sp = None\n"
        "from .scipy_like import x\n"
        "def f():\n    from scipy import linalg\n    return linalg\n"
        "class C:\n    import scipy.ndimage\n    def g(self):\n        import scipy\n"
    )
    assert top_level_scipy_imports(source) == [2, 4, 12]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_module_defers_scipy(path):
    assert top_level_scipy_imports(path.read_text()) == [], path.name
