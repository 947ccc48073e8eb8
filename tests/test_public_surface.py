"""Every public bfcg name, and every private function, has a caller
outside the tests.

A name in a module's __all__ that no other library code and no perfbench
workload reaches is served only by the tests: it belongs in the tests, as
an oracle, or nowhere.  A module-level private function that nothing in the
library or in perfbench reads is a leftover of a cut.  The 4D kernels
contract structure tensors through the helpers, and the check registry
names no function of the held 4D path.  These tests read the source files
without importing them.
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



def _einsum_calls(path):
    """(enclosing module-level function, line, cm.<tensor> operands, per
    site) of every np.einsum call in the file; a call is per site unless
    its subscripts are a string constant without "...", an operand with
    lattice axes."""
    out = []
    for top in _tree(path).body:
        for node in ast.walk(top):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "einsum"):
                continue
            tensors = [f"cm.{sub.attr}" for arg in node.args
                       for sub in ast.walk(arg)
                       if isinstance(sub, ast.Attribute)
                       and isinstance(sub.value, ast.Name)
                       and sub.value.id == "cm"]
            subs = node.args[0]
            per_site = not (isinstance(subs, ast.Constant)
                            and "..." not in subs.value)
            out.append((getattr(top, "name", None), node.lineno, tensors,
                        per_site))
    return out


@pytest.mark.parametrize("module", ["curvature", "gauge", "relations"])
def test_kernels_contract_structure_tensors_through_the_helpers(module):
    """The lattice kernels contract every structure tensor and metric with
    a field through crossed_module.contract, which skips its zeros and its
    +-1 products, not through a dense np.einsum: no per-site einsum takes a
    cm.<tensor> operand.  In the 4D kernels no einsum takes one at all, and
    the one einsum left is the per-site rotation of gauge._apply, whose
    matrices are not a module's; relations keeps the einsums of the
    independent right-side oracle _rhs, whose operands it looks up by
    name, and those that combine module tensors alone."""
    calls = _einsum_calls(SRC / f"{module}.py")
    assert not [c for c in calls if c[2] and c[3]], calls
    if module != "relations":
        assert not [c for c in calls if c[2]], calls
        assert {fn for fn, *_ in calls} <= {"_apply"}, calls


# the held 4D path: realized configurations, in-place transforms, full
# curvatures and dense rotations
HELD_PATH = {"curvature_F", "thin_gauge_transform", "fat_gauge_transform",
             "realize", "copy", "_generators", "einsum"}


def test_check_registry_reads_no_held_path():
    """Every 4D check streams its configuration: the check registry names
    none of the functions that realize a held configuration, transform one
    in place or form a full curvature, nor np.einsum, so no check slides
    back onto the held path."""
    names = set()
    for node in ast.walk(_tree(SRC / "checks.py")):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    assert not names & HELD_PATH, sorted(names & HELD_PATH)
