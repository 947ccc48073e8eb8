"""Every public bfcg name, and every private function, has a caller
outside the tests.

A name in a module's __all__ that no other library code and no perfbench
workload reaches is served only by the tests: it belongs in the tests, as
an oracle, or nowhere.  A module-level private function that nothing in the
library or in perfbench reads is a leftover of a cut.  These tests read the
source files without importing them.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "bfcg"
PERFBENCH = ROOT / "perfbench"


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _library_files():
    return sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _exported():
    """(module, name) of every entry of a module-level __all__ list."""
    out = []
    for path in _library_files():
        for node in _tree(path).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                out += [(path.stem, elt.value) for elt in node.value.elts]
    return out


def _private_functions():
    """(module, name) of every module-level function named _name."""
    return [(path.stem, node.name) for path in _library_files()
            for node in _tree(path).body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and not node.name.startswith("__")]


def _references():
    """Identifiers read or imported in src/bfcg (outside __init__.py) and in
    perfbench/, plus the parts of perfbench's dotted name strings (the
    functions tracing.SPANNED wraps by name)."""
    refs = set()
    for path in _library_files() + sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.name.rsplit(".", 1)[-1])
            elif (path.parent == PERFBENCH and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                refs.update(node.value.split("."))
    return refs


REFERENCES = _references()


def test_the_surface_is_not_empty():
    assert len(_exported()) > 40
    assert ("relations", "offshell_relations") in _exported()


@pytest.mark.parametrize("module, name", _exported())
def test_exported_name_has_a_caller(module, name):
    if name not in REFERENCES:
        pytest.fail(f"bfcg.{module}.{name} is called only by tests")


@pytest.mark.parametrize("module, name", _private_functions())
def test_private_function_has_a_caller(module, name):
    if name not in REFERENCES:
        pytest.fail(f"bfcg.{module}.{name} is never read by library code")
