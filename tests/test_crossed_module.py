"""Crossed-module algebra: validation, catalog, T map, derived tensors, IO."""

from dataclasses import replace

import numpy as np
import pytest

from bfcg.constraints import constraint_density
from bfcg.crossed_module import (CrossedModuleError,
                                 DifferentialCrossedModule, builtin_module,
                                 dump_crossed_module, load_crossed_module,
                                 t_map, validate_crossed_module)

CATALOG = ["trivial_bf(1)", "trivial_bf(3)", "adjoint(su2)",
           "vector_poincare", "abelian(2,3)", "abelian(1,1)"]


# ---------------------------------------------------------------------------
# brute-force oracles: every identity re-checked with plain index loops
# ---------------------------------------------------------------------------

def _loop_violations(cm):
    p, q = cm.p, cm.q
    f, phi, del_, act, Q, qf = cm.f, cm.phi, cm.del_, cm.act, cm.Q, cm.qf
    actlow = np.zeros((q, p, q))
    for al in range(q):
        for a in range(p):
            for be in range(q):
                actlow[al, a, be] = sum(qf[al, g] * act[g, a, be] for g in range(q))
    out = {}
    out["f_antisymmetry"] = max(
        (abs(f[a, b, c] + f[a, c, b]) for a in range(p) for b in range(p)
         for c in range(p)), default=0.0)
    jac = 0.0
    for d in range(p):
        for a in range(p):
            for b in range(p):
                for e in range(p):
                    lhs = sum(f[d, a, c] * f[c, b, e] for c in range(p))
                    rhs = sum(f[c, a, b] * f[d, c, e] - f[c, a, e] * f[d, c, b]
                              for c in range(p))
                    jac = max(jac, abs(lhs - rhs))
    out["jacobi_g"] = jac
    equi = 0.0
    for b in range(p):
        for a in range(p):
            for al in range(q):
                lhs = sum(act[g, a, al] * del_[g, b] for g in range(q))
                rhs = sum(del_[al, c] * f[b, a, c] for c in range(p))
                equi = max(equi, abs(lhs - rhs))
    out["equivariance"] = equi
    comp = 0.0
    for g in range(q):
        for al in range(q):
            for be in range(q):
                lhs = sum(del_[al, a] * act[g, a, be] for a in range(p))
                comp = max(comp, abs(lhs - phi[g, al, be]))
    out["composition_peiffer"] = comp
    mixed = 0.0
    for al in range(q):
        for b in range(p):
            for c in range(p):
                for be in range(q):
                    lhs = sum(f[a, b, c] * actlow[al, a, be] for a in range(p))
                    rhs = sum(actlow[al, b, g] * act[g, c, be]
                              - actlow[al, c, g] * act[g, b, be]
                              for g in range(q))
                    mixed = max(mixed, abs(lhs - rhs))
    out["mixed_representation"] = mixed
    qinv = 0.0
    for a in range(p):
        for b in range(p):
            for d in range(p):
                val = sum(f[c, a, b] * Q[c, d] + f[c, a, d] * Q[c, b]
                          for c in range(p))
                qinv = max(qinv, abs(val))
    out["Q_invariance"] = qinv
    out["act_antisymmetry"] = max(
        (abs(actlow[al, a, be] + actlow[be, a, al]) for al in range(q)
         for a in range(p) for be in range(q)), default=0.0)
    return out


@pytest.mark.parametrize("name", CATALOG)
def test_catalog_passes_validation(name):
    cm = builtin_module(name)
    report = validate_crossed_module(cm, tol=1e-10)
    assert report.passed, report.failures()


def test_catalog_shapes_and_content():
    su2 = builtin_module("adjoint(su2)")
    assert su2.p == 3 and su2.q == 3
    assert np.array_equal(su2.del_, np.eye(3))
    assert np.array_equal(su2.phi, su2.f) and np.array_equal(su2.act, su2.f)
    assert su2.f[0, 1, 2] == 1.0 and su2.f[0, 2, 1] == -1.0
    vp = builtin_module("vector_poincare")
    assert vp.p == 6 and vp.q == 4
    assert np.max(np.abs(vp.del_)) == 0.0
    assert np.array_equal(vp.qf, np.diag([-1.0, 1.0, 1.0, 1.0]))
    ab = builtin_module("abelian(2,3)")
    for attr in ("f", "phi", "del_", "act"):
        assert np.max(np.abs(getattr(ab, attr))) == 0.0


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare", "abelian(2,3)"])
def test_vectorized_identities_match_loop_oracle(name):
    cm = builtin_module(name)
    violation = {name: v for name, v, _ in validate_crossed_module(cm).entries}
    oracle = _loop_violations(cm)
    for key, val in oracle.items():
        assert abs(violation[key] - val) < 1e-13


def test_vector_poincare_tensors_are_exact_integers():
    """The so(3,1) structure constants are read from commutator entries, not
    fitted: f, act, Q and qf are exact integers, and every identity of
    validate holds exactly."""
    cm = builtin_module("vector_poincare")
    for name in ("f", "act", "Q", "qf"):
        tensor = getattr(cm, name)
        assert np.array_equal(tensor, np.rint(tensor)), name
    assert [viol for _, viol, _ in validate_crossed_module(cm).entries] == [
        0.0] * 13


def test_adjoint_composition_reproduces_phi_exactly():
    cm = builtin_module("adjoint(su2)")
    composed = np.einsum("da,gab->gdb", cm.del_, cm.act)
    assert np.array_equal(composed, cm.phi)


def test_perturbed_jacobi_detected():
    cm = builtin_module("adjoint(su2)")
    f = cm.f.copy()
    f[0, 1, 2] += 0.1
    bad = replace(cm, f=f)
    report = validate_crossed_module(bad)
    assert not report.passed
    assert max(v for _, v, _ in report.entries) >= 0.01


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare", "trivial_bf(3)"])
def test_every_single_entry_perturbation_detected(name):
    cm = builtin_module(name)
    for attr in ("f", "phi", "del_", "act"):
        base = getattr(cm, attr)
        for idx in np.ndindex(*base.shape):
            tensor = base.copy()
            tensor[idx] += 0.1
            bad = replace(cm, **{attr: tensor})
            assert not validate_crossed_module(bad).passed, (name, attr, idx)


def test_abelian_act_perturbations_detected_del_is_not():
    # del-perturbed abelian modules satisfy every identity (they are valid
    # crossed modules), so only f, phi, act perturbations are detectable
    cm = builtin_module("abelian(2,3)")
    for attr in ("f", "phi", "act"):
        base = getattr(cm, attr)
        for idx in np.ndindex(*base.shape):
            tensor = base.copy()
            tensor[idx] += 0.1
            bad = replace(cm, **{attr: tensor})
            assert not validate_crossed_module(bad).passed, (attr, idx)
    del_ = cm.del_.copy()
    del_[0, 0] += 0.1
    assert validate_crossed_module(replace(cm, del_=del_)).passed


def test_replaced_module_gets_fresh_cache():
    """dataclasses.replace must not hand the new module the derived tensors
    and expanded densities of the old one."""
    cm = builtin_module("adjoint(su2)")
    assert np.max(np.abs(cm.actlow)) == 1.0
    dens = constraint_density(cm, "S(CB)")
    new = replace(cm, act=np.zeros_like(cm.act))
    assert np.array_equal(new.actlow, np.zeros_like(cm.actlow))
    assert constraint_density(new, "S(CB)") is not dens
    assert constraint_density(cm, "S(CB)") is dens


def test_degenerate_metric_fails():
    cm = builtin_module("abelian(2,2)")
    Q = cm.Q.copy()
    Q[1, 1] = 0.0
    report = validate_crossed_module(replace(cm, Q=Q))
    assert "Q_nondegenerate" in report.failures()


# ---------------------------------------------------------------------------
# T map
# ---------------------------------------------------------------------------

def test_t_map_abelian_is_zero():
    cm = builtin_module("abelian(2,3)")
    assert np.array_equal(t_map(cm), np.zeros((2, 3, 3)))


def test_t_map_adjoint_identity_metric():
    cm = builtin_module("adjoint(su2)")
    T = t_map(cm)
    # Q = identity: T^a_{al be} = -act_{al a be}
    expect = -np.einsum("abd->bad", cm.actlow)
    assert np.max(np.abs(T - expect)) < 1e-14


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_t_map_defining_relation_and_antisymmetry(name):
    cm = builtin_module(name)
    T = t_map(cm)
    # dense-inverse oracle
    oracle = -np.einsum("ba,acd->bcd", np.linalg.inv(cm.Q),
                        np.einsum("abd->bad", cm.actlow))
    assert np.max(np.abs(T - oracle)) < 1e-12
    resid = np.einsum("ba,bxy->xay", cm.Q, T) + cm.actlow
    assert np.max(np.abs(resid)) < 1e-12
    assert np.max(np.abs(T + np.swapaxes(T, 1, 2))) < 1e-12


def test_t_map_singular_Q_raises():
    cm = builtin_module("abelian(2,2)")
    bad = replace(cm, Q=np.zeros((2, 2)))
    with pytest.raises(np.linalg.LinAlgError):
        t_map(bad)


# ---------------------------------------------------------------------------
# derived tensors
# ---------------------------------------------------------------------------

def test_raised_del_vanishes_for_poincare():
    cm = builtin_module("vector_poincare")
    assert np.max(np.abs(cm.dup)) == 0.0


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

def test_spec_file_round_trip():
    cm = builtin_module("vector_poincare")
    text = dump_crossed_module(cm)
    back = load_crossed_module(text)
    assert back.p == cm.p and back.q == cm.q
    for attr in ("f", "phi", "del_", "act", "Q", "qf"):
        assert np.array_equal(getattr(back, attr), getattr(cm, attr))
    assert validate_crossed_module(back).passed


def test_trivial_q0_spec_round_trip():
    cm = builtin_module("trivial_bf(1)")
    back = load_crossed_module(dump_crossed_module(cm))
    assert back.q == 0 and back.phi.shape == (0, 0, 0)


def test_load_shape_mismatch_rejected():
    cm = builtin_module("adjoint(su2)")
    text = dump_crossed_module(cm).replace("tensor f 3 3 3", "tensor f 3 3 2")
    with pytest.raises(CrossedModuleError):
        load_crossed_module(text)


def test_load_non_numeric_rejected():
    text = "name x\np 1\nq 0\ntensor f 1 1 1\nnan_is_fine_but_words_arent\n"
    with pytest.raises(CrossedModuleError):
        load_crossed_module(text)


def test_load_unknown_tensor_rejected():
    text = dump_crossed_module(builtin_module("abelian(1,1)")) + "tensor fx 1\n0.0\n"
    with pytest.raises(CrossedModuleError, match="unknown tensor 'fx'"):
        load_crossed_module(text)


@pytest.mark.parametrize("extra", ["tensor f 3 3 3\n" + "0.0\n" * 27, "p 3\n",
                                   "q 3\n", "name again\n"],
                         ids=["tensor", "p", "q", "name"])
def test_load_repeated_entry_rejected(extra):
    """A second f block of zeros would silently make adjoint(su2) abelian."""
    text = dump_crossed_module(builtin_module("adjoint(su2)")) + extra
    with pytest.raises(CrossedModuleError, match="repeated entry"):
        load_crossed_module(text)


def test_constructor_rejects_non_finite():
    with pytest.raises(CrossedModuleError):
        DifferentialCrossedModule(
            p=1, q=0, f=np.full((1, 1, 1), np.nan), phi=np.zeros((0, 0, 0)),
            del_=np.zeros((0, 1)), act=np.zeros((0, 1, 0)),
            Q=np.eye(1), qf=np.zeros((0, 0)))


def test_unknown_builtin():
    with pytest.raises(KeyError):
        builtin_module("octonionic")
