"""Every name a module of the package imports is used in that module.

No linter ships with the toolchain, so this stdlib ``ast`` scan stands in for
an unused-import rule. ``__init__.py`` is exempt (its imports are the public
re-exports), as are ``from __future__`` imports.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "posetturan"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports in ``source`` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_detector_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import comb, gcd\n"
        "def f(x):\n    return gcd(x, 2) + j.loads('1')\n"
    )
    assert unused_imports(source) == ["comb", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []
