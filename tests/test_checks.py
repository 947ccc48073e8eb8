"""The check registry: the order gate, run configurations and records."""

import pytest

from bfcg import checks
from bfcg.checks import (CHECKS, ORDER_WINDOW, RunConfig, check_dof,
                         check_offshell, order_ok)
from bfcg.crossed_module import builtin_module


@pytest.mark.parametrize("order, ok", [
    ("exact", True), (ORDER_WINDOW[0], True), (2.0, True),
    (ORDER_WINDOW[1], True), (1.79, False), (2.21, False), (2.6, False),
    (float("nan"), False), (float("inf"), False),
])
def test_order_ok_is_the_window(order, ok):
    assert order_ok(order) is ok


@pytest.mark.parametrize("key", ["ra", "rb"])
@pytest.mark.parametrize("order, ok", [(2.6, False), (float("nan"), False),
                                       ("exact", True)])
def test_offshell_gate_is_the_order_window(monkeypatch, key, order, ok):
    """Off-shell orders outside [1.8, 2.2] fail, as every refinement gate."""
    def fake_refinement(cm, n_list, **kwargs):
        out = {f"{k}_{s}": 2.0 for k in ("ra", "rb")
               for s in ("order", "bianchi_order")}
        out.update(ra_residuals=[4e-3, 2e-3, 1e-3], rb_residuals=[4e-3, 2e-3, 1e-3])
        out[f"{key}_order"] = order
        return out

    monkeypatch.setattr(checks, "offshell_refinement", fake_refinement)
    rec = check_offshell(builtin_module("adjoint(su2)"), RunConfig())
    assert rec.ok is ok
    assert rec.orders[key] is order


def test_nan_fundamental_bracket_fails_algebra(monkeypatch):
    """A NaN bracket residual is not dropped by the worst-case reduction."""
    monkeypatch.setattr(checks, "fundamental_bracket_residuals",
                        lambda cm, point, seed: {"conjugate": float("nan"),
                                                 "cross": 0.0})
    rec = checks.check_algebra(builtin_module("abelian(1,1)"), RunConfig(ns=(4,)))
    assert not rec.ok
    assert rec.lines[-1] == "fundamental-brackets worst nan"


def test_run_config_defaults_spacing_to_first_rung():
    assert RunConfig(ns=(6, 12, 24)).a == 1 / 6
    assert RunConfig(ns=(6,), a=0.25).a == 0.25


def test_records_hold_plain_floats():
    """A record keeps report lines and floats, never a lattice array."""
    cm = builtin_module("abelian(1,1)")
    cfg = RunConfig(seed=2, ns=(4,))
    records = [check(cm, cfg) for name, check in CHECKS.items()
               if name != "bianchi"] + [check_dof(cm.p, cm.q)]
    for rec in records:
        assert rec.ok, rec.name
        assert all(isinstance(line, str) for line in rec.lines)
        for values in rec.residuals.values():
            assert isinstance(values, tuple)
            assert all(type(v) is float for v in values)
        assert all(o == "exact" or type(o) is float for o in rec.orders.values())
