"""Every module-level import in ``src/awfskit`` is read by its module, and
every module parses under the oldest Python ``pyproject.toml`` admits.

An import that nothing reads is dead weight that a reader must still
trace: this test parses each module (``__init__.py``, whose imports are
the package's public names, is exempt), lists the names its module-level
``import`` and ``from ... import`` statements bind (``from __future__``
exempt), and fails on any that no name in the module reads (an
attribute's root is a name).  The grammar check parses each module with
``feature_version`` set to ``requires-python``'s floor, so syntax newer
than that floor (``except*``, for one) fails here on any interpreter that
runs the suite.  It uses the standard library only.

Every function and class that ``src/awfskit`` defines is read somewhere
in ``src/awfskit`` (``__init__.py`` included), or is listed in
``UNREFERENCED`` with the reason it is kept.  A definition counts as read
when any name, attribute or imported name in the package spells it.  The
check matches bare names, so a method shares cover with every other use
of its name: a method named like another definition, or like an
attribute of some other object, passes although nothing calls it.
Dunder methods, which Python calls, are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "awfskit"
OLDEST_PYTHON = (3, 10)  # pyproject.toml: requires-python = ">=3.10"


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


# definitions nothing in the package reads, by qualified name, with why they stay
UNREFERENCED = {
    "verify._enumerate_liftings": "the benchmark tracer wraps it (perfbench/tracing.py)",
    "step.compose_mediated": "cross-check of the comparison squares, run by the tests",
    "step.iterate_mediated": "cross-check of the comparison squares, run by the tests",
    "chain.Certificate.from_result": "the certificate of a run; the tests build theirs with it",
    "chain.ChainTrace.verify_laws": "the chain-law check, called by the acceptance tests",
    "cli._Parser.error": "overrides argparse.ArgumentParser.error, which argparse calls",
    "serialize.dumps": "public API: canonical JSON text",
    "presentation.ValidationReport.axioms": "public API: the labels of a report",
    "presentation.PlainPresentation.build": "public API: constructor from plain tuples",
    "presentation.DoubleCatPresentation.build": "public API: constructor from plain tuples",
}


def _definitions(tree: ast.Module, prefix: str) -> dict:
    """Qualified name -> bare name of every function and class, nested ones included."""
    out = {}
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[f"{prefix}.{node.name}"] = node.name
            out.update(_definitions(node, f"{prefix}.{node.name}"))
        else:
            out.update(_definitions(node, prefix))
    return out


def _reads(tree: ast.Module) -> set:
    """Every name, attribute and imported name the module spells."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
    return out


def unreferenced_definitions(modules) -> set:
    defs, read = {}, set()
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs.update(_definitions(tree, path.stem))
        read |= _reads(tree)
    return {q for q, name in defs.items()
            if name not in read and not (name.startswith("__") and name.endswith("__"))}


def test_every_definition_is_read_or_has_a_stated_reason():
    modules = sorted(SRC.glob("*.py"))
    assert any(p.name == "__init__.py" for p in modules)
    assert unreferenced_definitions(modules) == set(UNREFERENCED)


def test_an_unread_definition_is_named(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("class A:\n    def __init__(self):\n        self.used()\n\n"
                      "    def used(self):\n        def inner():\n            pass\n\n"
                      "    def unused(self):\n        pass\n")
    assert unreferenced_definitions([module]) == {"sample.A", "sample.A.used.inner",
                                                  "sample.A.unused"}


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


def test_requires_python_floor_is_the_checked_grammar():
    pyproject = (SRC.parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in pyproject


def test_every_module_parses_under_the_oldest_supported_python():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=OLDEST_PYTHON)


def test_newer_syntax_is_refused_by_the_grammar_check():
    sample = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(sample, feature_version=(3, 11))  # the release that brought it
    with pytest.raises(SyntaxError, match="3.11"):
        ast.parse(sample, feature_version=OLDEST_PYTHON)
