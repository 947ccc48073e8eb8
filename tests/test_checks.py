"""The check registry: the order gate, run configurations and records."""

from dataclasses import replace

import numpy as np
import pytest

import bfcg
from bfcg import checks
from bfcg import curvature, gauge, relations
from bfcg.checks import (CHECKS, ORDER_WINDOW, RunConfig, check_algebra,
                         check_bianchi, check_curvature, check_dof,
                         check_offshell, order_ok)
from bfcg.cli import main
from bfcg.crossed_module import builtin_module, dump_crossed_module
from bfcg.lattice import Lattice, slab_derivative, slabs


@pytest.mark.parametrize("order, ok", [
    ("exact", True), (ORDER_WINDOW[0], True), (2.0, True),
    (ORDER_WINDOW[1], True), (1.79, False), (2.21, False), (2.6, False),
    (float("nan"), False), (float("inf"), False),
])
def test_order_ok_is_the_window(order, ok):
    assert order_ok(order) is ok


def _ladder(order, ns):
    """Residual ladder r = 4 a^order over the rungs ns (a = 1/n); NaN rungs
    for a NaN order and zeros for "exact"."""
    if order == "exact":
        return [0.0] * len(ns)
    return [4.0 * n ** -order for n in ns]


@pytest.mark.parametrize("key", ["ra", "rb"])
@pytest.mark.parametrize("order, ok", [(2.6, False), (float("nan"), False),
                                       ("exact", True)])
def test_offshell_gate_is_the_order_window(monkeypatch, key, order, ok):
    """Off-shell orders outside [1.8, 2.2] fail, as every refinement gate."""
    def fake_refinement(cm, n_list, **kwargs):
        out = {f"{k}_{s}": 2.0 for k in ("ra", "rb")
               for s in ("order", "bianchi_order")}
        out["spacings"] = [1.0 / n for n in n_list]
        out.update((f"{k}_residuals", _ladder(order if k == key else 2.0, n_list))
                   for k in ("ra", "rb"))
        return out

    monkeypatch.setattr(checks, "offshell_refinement", fake_refinement)
    rec = check_offshell(builtin_module("adjoint(su2)"), RunConfig())
    assert rec.ok is ok
    got = rec.orders[key]
    assert got == order if order == "exact" else np.isclose(got, order,
                                                            equal_nan=True)


def test_nan_fundamental_bracket_fails_algebra(monkeypatch):
    """A NaN bracket residual is not dropped by the worst-case reduction,
    and fails its gate."""
    nan = float("nan")
    monkeypatch.setattr(checks, "fundamental_bracket_residuals",
                        lambda cm, point, seed: {
                            "conjugate": nan, "cross": 0.0,
                            "brackets": [(nan, 1.0), (0.0, 1.0)]})
    rec = checks.check_algebra(builtin_module("abelian(1,1)"), RunConfig(ns=(4,)))
    assert not rec.ok
    assert rec.lines[-1] == "fundamental-brackets worst nan"


@pytest.mark.parametrize("a", [None, 1e3], ids=["default", "a=1e3"])
@pytest.mark.parametrize("name", ["abelian(1,1)", "adjoint(su2)"])
def test_fundamental_brackets_are_gated_on_their_size(name, a, monkeypatch):
    """Each fundamental bracket is gated at FUNDAMENTAL_TOL (1 + the sum of
    |terms| of it), as a relation is.  At a = 1e3 the brackets, of order
    a^3, are 1.2e-4 off the expected sums (the printed worst) and PASS.  A
    value scaled by 1 + 1e-6 in the fundamental brackets alone FAILs at
    either spacing, while every relation row still PASSes."""
    cm = builtin_module(name)
    cfg = RunConfig(seed=1, ns=(8,), a=a)
    assert check_algebra(cm, cfg).ok
    size = relations.bracket_size
    residuals = checks.fundamental_bracket_residuals

    def scaled(*args):
        value, terms = size(*args)
        return value * (1 + 1e-6), terms

    def mutant(cm, point, seed):
        with monkeypatch.context() as m:
            m.setattr(relations, "bracket_size", scaled)
            return residuals(cm, point, seed=seed)

    monkeypatch.setattr(checks, "fundamental_bracket_residuals", mutant)
    rec = check_algebra(cm, cfg)
    assert not rec.ok
    rows = [line for line in rec.lines if line.startswith("relation ")]
    assert rows and all(line.endswith("exact PASS") for line in rows)


def test_nan_on_the_last_slab_reaches_the_curvature_norm(monkeypatch):
    """T is NaN on the last stored pair of the last of two slabs (n = 16)
    only.  The NaN reaches the printed T norm and the check FAILs, while the
    action, which does not read T, stays finite: the maxima are reduced by
    np.max, where the built-in max would keep the first finite value."""
    assert len(slabs(Lattice(4, 16, 1.0 / 16))) == 2
    kernel = gauge._curvature_T_pair

    def nan_at_the_end(cm, slab, P):
        out = kernel(cm, slab, P)
        if slab.rows.stop == slab.lattice.n and P == 5:
            out[...] = np.nan
        return out

    # the curvature check's pass, gauge.curvature_residuals, looks T up there
    monkeypatch.setattr(gauge, "_curvature_T_pair", nan_at_the_end)
    rec = check_curvature(builtin_module("adjoint(su2)"), RunConfig(ns=(16,)))
    assert "curvature T maxabs nan" in rec.lines
    assert np.isfinite(float(rec.lines[-1].split()[-1]))
    assert np.isfinite([rec.residuals[k][0] for k in "FHG"]).all()
    assert not rec.ok


@pytest.mark.parametrize("metric, value", [("Q", 0.0), ("Q", 1e-12),
                                           ("qf", 0.0), ("qf", 1e-12)])
@pytest.mark.parametrize("command", [name for name in CHECKS
                                     if name != "validate"])
def test_degenerate_metric_never_reaches_a_verdict(tmp_path, capsys, command,
                                                   metric, value):
    """A metric that validate FAILs as degenerate, exactly or nearly
    singular, makes every other check a usage error (exit 2), never a PASS."""
    cm = builtin_module("abelian(2,2)")
    M = getattr(cm, metric).copy()
    M[1, 1] = value
    path = tmp_path / "degenerate.cmspec"
    path.write_text(dump_crossed_module(replace(cm, **{metric: M})))
    assert main(["validate", "--spec", str(path)]) == 1
    capsys.readouterr()
    code = main([command, "--spec", str(path), "--n", "4,6,8"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: the metric") and "degenerate" in err


def test_degenerate_metric_full_report_keeps_validate(tmp_path, capsys):
    """A full report stopped by a degenerate metric prints the records it
    reached, validate's with the failing row, then exits 2 without a
    verdict."""
    cm = builtin_module("abelian(2,2)")
    Q = cm.Q.copy()
    Q[1, 1] = 1e-12
    path = tmp_path / "degenerate.cmspec"
    path.write_text(dump_crossed_module(replace(cm, Q=Q)))
    code = main(["full-report", "--spec", str(path), "--n", "4,6,8"])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: the metric Q") and "degenerate" in err
    lines = out.splitlines()
    assert lines[:2] == ["bfcg-report schema 1", f"version {bfcg.__version__}"]
    assert lines[2].startswith("config n=4,6,8 ")
    assert lines[3] == "module abelian(2,2) p=2 q=2"
    assert any(line.startswith("identity Q_nondegenerate ")
               and line.endswith(" FAIL") for line in lines)
    assert lines[-1].startswith("[FAIL] validate  failing: ")
    assert "Q_nondegenerate" in lines[-1]


def test_run_config_defaults_spacing_to_first_rung():
    assert RunConfig(ns=(6, 12, 24)).a == 1 / 6
    assert RunConfig(ns=(6,), a=0.25).a == 0.25


@pytest.mark.parametrize("name", ["abelian(1,1)", "trivial_bf(1)"])
def test_records_hold_plain_floats(name):
    """A record keeps report lines and floats, never a lattice array; at
    q = 0 (trivial_bf) every h-sector term is empty and still PASSes."""
    cm = builtin_module(name)
    cfg = RunConfig(seed=2, ns=(4,))
    records = [check(cm, cfg) for name, check in CHECKS.items()
               if name != "bianchi"] + [check_dof(cm.p, cm.q)]
    for rec in records:
        assert rec.ok, rec.name
        assert all(isinstance(line, str) for line in rec.lines)
        for values in rec.residuals.values():
            assert isinstance(values, tuple)
            assert all(type(v) is float for v in values)
        assert all(o == "exact" or type(o) is float
                   for o in (*rec.orders.values(), *rec.fits.values()))


def _forward_bianchi_orders(monkeypatch, ring_only):
    """The Bianchi record on a ladder where the exact stencil passes, with a
    forward difference slipped into the covariant derivative along axis 0:
    into every one, or only into those of the slab-ring fields F, T and the
    d_A triples of B and beta, which the rings' reductions difference."""
    cm = builtin_module("adjoint(su2)")
    cfg = RunConfig(seed=1, ns=(12, 16, 24))
    assert check_bianchi(cm, cfg).ok
    central, ring = curvature._cov_derivative, curvature._ring
    ring_fields = []   # the ring fields of the reduction under way

    def tracked_ring(source, kernel, reduce, edges):
        def tracked(ring):
            ring_fields[:] = [ring[k] for k in ("F", "T", "dB", "dbeta")
                              if k in ring.windows]
            try:
                return reduce(ring)
            finally:
                ring_fields.clear()
        return ring(source, kernel, tracked, edges)

    def forward_on_axis_0(slab, coupling, window, axis):
        out = central(slab, coupling, window, axis)
        _, mid, after = window
        in_ring = any(np.may_share_memory(mid, f) for f in ring_fields)
        if axis == 0 and (in_ring or not ring_only):
            lat = slab.lattice
            ahead = np.concatenate([mid[..., 1:, :, :, :], after], axis=-4)
            out += ((ahead - mid) / lat.a
                    - slab_derivative(window, 0, lat))
        return out

    monkeypatch.setattr(curvature, "_ring", tracked_ring)
    monkeypatch.setattr(curvature, "_cov_derivative", forward_on_axis_0)
    return check_bianchi(cm, cfg)


def test_first_order_stencil_in_one_bianchi_term_fails(monkeypatch):
    """A forward difference slipped into the covariant derivative along
    axis 0 of the Bianchi identities leaves an O(a) residual in each of the
    four, which FAILs on a ladder where the exact stencil passes."""
    rec = _forward_bianchi_orders(monkeypatch, ring_only=False)
    assert not rec.ok
    assert abs(rec.orders["bianchi_F"] - 1.0) < 0.2
    for key in ("bianchi_T", "bianchi_GB", "bianchi_G"):
        assert abs(rec.orders[key] - 1.0) < 0.2, (key, rec.orders[key])


def test_first_order_stencil_in_the_ring_differences_fails(monkeypatch):
    """Slipped only into the differences of slab-ring windows, the forward
    difference still moves all four orders to 1: each identity differences
    a ring field along axis 0 (F, T, and the d_A triple of B and of beta),
    and does so through the one covariant derivative."""
    rec = _forward_bianchi_orders(monkeypatch, ring_only=True)
    assert not rec.ok
    for key in ("bianchi_F", "bianchi_T", "bianchi_GB", "bianchi_G"):
        assert abs(rec.orders[key] - 1.0) < 0.2, (key, rec.orders[key])


class _Poisoned:
    """A configuration recipe whose realized and streamed configurations
    are the held ones of `recipe` with one entry of `field` set to value."""

    def __init__(self, recipe, field, value):
        self.recipe, self.field, self.value = recipe, field, value

    def realize(self, lat):
        cfg = self.recipe.realize(lat)
        getattr(cfg, self.field)[1, 0, 2, 3, 1, 0] = self.value
        return cfg

    stream = realize


@pytest.mark.parametrize("name", ["vector_poincare", "adjoint(su2)"])
@pytest.mark.parametrize("field", ["beta", "B"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_entry_fails_curvature_and_eom(monkeypatch, name, field,
                                                  value):
    """The metric and del contractions skip the zeros of their matrices, so
    no 0 * inf gives NaN; one inf or NaN entry of beta or B still makes a
    printed value of the curvature and eom records non-finite, and both
    FAIL, whether del is zero (vector_poincare) or not."""
    recipe = checks._recipe
    monkeypatch.setattr(checks, "_recipe", lambda cm, cfg: _Poisoned(
        recipe(cm, cfg), field, value))
    cm = builtin_module(name)
    with np.errstate(invalid="ignore", over="ignore"):
        records = [checks.check_curvature(cm, RunConfig(ns=(4,))),
                   checks.check_eom(cm, RunConfig(ns=(4,)))]
    for rec in records:
        printed = [float(tok) for line in rec.lines for tok in line.split()
                   if _is_float(tok)]
        assert not np.isfinite(printed).all(), rec.lines
        assert not rec.ok, rec.lines


def _is_float(tok):
    try:
        float(tok)
    except ValueError:
        return False
    return True


def _broken(kind):
    """adjoint(su2) with one entry of f, act, phi or del moved by 0.1 (f and
    phi antisymmetrically): a module that validate FAILs."""
    cm = builtin_module("adjoint(su2)")
    T = {"f": cm.f, "act": cm.act, "phi": cm.phi, "del": cm.del_}[kind].copy()
    if kind == "del":
        T[0, 1] += 0.1
    else:
        T[0, 1, 2] += 0.1
        if kind != "act":
            T[0, 2, 1] -= 0.1
    return replace(cm, **{"del_" if kind == "del" else kind: T})


def _fat_row(rec):
    row, = [line for line in rec.lines
            if line.startswith("curvature H fat-invariance ")]
    return row


@pytest.mark.parametrize("kind", ["f", "act", "phi", "del"])
def test_a_broken_module_identity_fails_curvature(kind):
    """The fake curvature's fat invariance reads the identities that
    validate gates, so each single-entry mutant FAILs curvature, the phi
    one included, which eom, algebra and consistency PASS."""
    cm = _broken(kind)
    assert not checks.check_validate(cm, RunConfig()).ok
    rec = check_curvature(cm, RunConfig(ns=(6,)))
    assert _fat_row(rec).endswith(" FAIL") and not rec.ok
    assert rec.residuals["H_fat"][0] > 1e-2


def _honest(name):
    """A catalog module, adjoint(su2) with f, act and phi scaled by 0.7 (a
    crossed module with non-unit entries), or abelian(2,3) with a random
    del (any del is a crossed module when the rest is zero)."""
    if name == "adjoint(su2) x0.7":
        cm = builtin_module("adjoint(su2)")
        return replace(cm, f=0.7 * cm.f, act=0.7 * cm.act, phi=0.7 * cm.phi)
    if name == "abelian(2,3) random del":
        return replace(builtin_module("abelian(2,3)"),
                       del_=np.random.default_rng(3).normal(size=(3, 2)))
    return builtin_module(name)


@pytest.mark.parametrize("n", [8, 16, 24])
@pytest.mark.parametrize("name", ["adjoint(su2)", "adjoint(su2) x0.7",
                                  "abelian(2,3) random del", "vector_poincare",
                                  "trivial_bf(3)"])
def test_the_fake_curvature_is_fat_invariant(name, n):
    """On valid modules the H fat-invariance row PASSes at n = 8, 16 and 24
    (1, 2 and 12 slabs), at roundoff; at q = 0 eta is empty and the row is
    an exact zero."""
    cm = _honest(name)
    assert checks.check_validate(cm, RunConfig()).ok
    rec = check_curvature(cm, RunConfig(ns=(n,)))
    assert rec.ok and _fat_row(rec).endswith(" PASS"), rec.lines
    dH, H = rec.residuals["H_fat"][0], rec.residuals["H"][0]
    assert dH <= 1e-13 * max(1.0, H)
    if cm.q == 0:
        assert dH == 0.0
