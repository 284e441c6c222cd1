"""Every module-level import in ``src/awfskit`` is read by its module.

An import that nothing reads is dead weight that a reader must still
trace: this test parses each module (``__init__.py``, whose imports are
the package's public names, is exempt), lists the names its module-level
``import`` and ``from ... import`` statements bind (``from __future__``
exempt), and fails on any that no name in the module reads (an
attribute's root is a name).  It uses the standard library only.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "awfskit"


def _bound(tree: ast.Module) -> dict:
    """The names the module-level imports bind, with their line numbers."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
    return out


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.stem}.{name} (line {line})"
            for name, line in _bound(tree).items() if name not in read]


def test_every_module_level_import_is_read():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert modules
    assert [name for path in modules for name in unused_imports(path)] == []


def test_an_unread_import_is_named(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from __future__ import annotations\nimport os, sys as system\n"
                      "from typing import Optional\n\ndef f(x: Optional[int]):\n"
                      "    return os.sep\n")
    assert unused_imports(module) == ["sample.system (line 2)"]
