"""The benchmark harness finds every bfcg name it looks up.

perfbench/ wraps the functions named in tracing.SPANNED and
tracing.EXTRA_SPANNED and imports names from bfcg in workloads.py.  A name
deleted or renamed in the library breaks the benchmark, and only its own
self-test would notice; these tests read perfbench/ without changing it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _spanned():
    tracing = _tracing()
    return [(layer, qualname)
            for table in (tracing.SPANNED, tracing.EXTRA_SPANNED)
            for layer, names in table.items() for qualname in names]


def _workload_imports():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    return sorted({(node.module, alias.name) for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module
                   and node.module.split(".")[0] == "bfcg"
                   for alias in node.names})


def test_the_contract_is_not_empty():
    assert len(_spanned()) > 30
    assert ("bfcg.relations", "offshell_refinement") in _workload_imports()


@pytest.mark.parametrize("layer, qualname", _spanned())
def test_spanned_name_resolves(layer, qualname):
    obj = importlib.import_module(f"bfcg.{layer}")
    for part in qualname.split("."):
        assert hasattr(obj, part), f"bfcg.{layer}.{qualname}"
        obj = getattr(obj, part)
    assert callable(obj)


@pytest.mark.parametrize("module, name", _workload_imports())
def test_workload_import_exists(module, name):
    mod = importlib.import_module(module)
    if not hasattr(mod, name):   # `from bfcg import cli` names a submodule
        importlib.import_module(f"{module}.{name}")


def test_families_hold_the_benchmarked_names():
    """canonical-n32's setup builds every name of FAMILIES: a tuple derived
    from the classification must keep the same 24 names."""
    from bfcg.constraints import FAMILIES
    assert FAMILIES == (
        "P(B)_0i", "P(B)_jk", "P(C)_0", "P(C)_k", "P(A)_0", "P(A)_i",
        "P(beta)_0i", "P(beta)_jk",
        "S(H)", "S(G)", "S(CB)", "S(BCbeta)",
        "phi(B)", "phi(C)", "phi(beta)", "phi(A)",
        "phi(H)", "phi(G)", "phi(CB)", "phi(BCbeta)",
        "chi(B)", "chi(C)", "chi(A)", "chi(beta)",
    )
