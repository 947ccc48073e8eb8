"""Constraint-algebra relations, consistency, off-shell identities, reduction."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bfcg.constraints import (constraint_density, evaluate_constraint,
                              family_shape, total_hamiltonian_functional)
from bfcg.crossed_module import builtin_module, contract
from bfcg.curvature import _bianchi_g, _bianchi_h, curvature_F
from bfcg.lattice import (EPS3_PAIR, FieldConfiguration, Lattice, Slab,
                          discrete_derivative, slab_window)
from bfcg.localpoly import LocalFunctional, poisson_bracket, smear
from bfcg import relations
from bfcg.phase import CANONICAL_PAIRS, PhasePoint, random_phase_point
from bfcg.relations import (SECONDARY_RELATIONS, FIRSTCLASS_RELATIONS, MIXED_RELATIONS,
                            PRIMARY_RELATIONS, RELATIONS, ZERO_RELATIONS,
                            check_algebra_relation, consistency_residuals,
                            fundamental_bracket_residuals, offshell_refinement,
                            offshell_relations, reduction_residual,
                            relation_table)
from support import curvature_T

SU2 = builtin_module("adjoint(su2)")
VP = builtin_module("vector_poincare")
AB = builtin_module("abelian(2,2)")
LAT = Lattice(D=3, n=5, a=0.2)

ALL_TABLE = PRIMARY_RELATIONS + SECONDARY_RELATIONS + FIRSTCLASS_RELATIONS + MIXED_RELATIONS


def test_catalog_covers_the_tables():
    assert len(PRIMARY_RELATIONS) == 2
    assert len(SECONDARY_RELATIONS) == 5
    assert len(FIRSTCLASS_RELATIONS) == 5
    assert len(MIXED_RELATIONS) == 9
    assert set(ALL_TABLE + ZERO_RELATIONS) == set(RELATIONS)


def test_the_doc_tables_state_the_catalog():
    """docs/relations.md lists each of the 26 relations once, in a table row
    whose relation is the RelationSpec's note, word for word."""
    doc = (Path(__file__).resolve().parents[1] / "docs" / "relations.md")
    rows = re.findall(r"^\| (\w+) \| `([^`]*)` \| (\w+) \|$",
                      doc.read_text(encoding="utf-8"), re.M)
    assert len(rows) == len(RELATIONS) == 26
    assert {rid: (note, cls) for rid, note, cls in rows} == {
        rid: (spec.note, "exact") for rid, spec in RELATIONS.items()}


def test_unknown_relation_id():
    pt = random_phase_point(SU2, LAT, seed=1, rule="random")
    with pytest.raises(KeyError):
        check_algebra_relation(SU2, "sc99", pt)


@pytest.mark.parametrize("cm", [SU2, VP], ids=["su2", "poincare"])
def test_fundamental_brackets_machine_exact(cm):
    pt = random_phase_point(cm, LAT, seed=2, rule="random")
    res = fundamental_bracket_residuals(cm, pt, seed=5)
    assert res["conjugate"] < 1e-12
    assert res["cross"] < 1e-12


def test_fundamental_brackets_differentiate_each_block_once(monkeypatch):
    """One gradient per smeared block (16), not one per side of each of the
    120 brackets (240)."""
    pt = random_phase_point(SU2, LAT, seed=2, rule="random")
    calls = []
    gradient = LocalFunctional.gradient

    def counted(self, point):
        calls.append(self)
        return gradient(self, point)

    monkeypatch.setattr(LocalFunctional, "gradient", counted)
    fundamental_bracket_residuals(SU2, pt, seed=5)
    assert len(calls) == 2 * len(CANONICAL_PAIRS) == 16


@pytest.mark.parametrize("cm", [SU2, VP], ids=["su2", "poincare"])
@pytest.mark.parametrize("rid", ALL_TABLE + ZERO_RELATIONS)
def test_every_table_relation_lattice_exact(cm, rid):
    pt = random_phase_point(cm, LAT, seed=3, rule="random")
    res = check_algebra_relation(cm, rid, pt, seed=7)
    assert res.residual <= 1e-10 * max(1.0, res.scale), (rid, res)


def test_abelian_relations_trivially_zero():
    pt = random_phase_point(AB, LAT, seed=4, rule="random")
    for rid in SECONDARY_RELATIONS + FIRSTCLASS_RELATIONS + MIXED_RELATIONS:
        res = check_algebra_relation(AB, rid, pt, seed=9)
        assert abs(res.lhs) < 1e-12 and abs(res.rhs) < 1e-12, rid


def test_zero_relations_are_nontrivial_cancellations():
    """{S(H), S(CB)} and {S(CB), S(CB)} vanish through crossed-module identities."""
    pt = random_phase_point(SU2, LAT, seed=6, rule="random")
    for rid in ("sc0_HCB", "sc0_CBCB"):
        res = check_algebra_relation(SU2, rid, pt, seed=11)
        assert res.residual < 1e-10
    # breaking the composition identity breaks the closure
    bad_act = SU2.act.copy()
    bad_act[0, 0, 1] += 0.4
    bad_act[0, 1, 0] += 0.1
    bad = replace(SU2, act=bad_act)
    res = check_algebra_relation(bad, "sc0_CBCB", pt, seed=11)
    assert res.residual > 1e-6


# ---------------------------------------------------------------------------
# the relation table at one point
# ---------------------------------------------------------------------------

FULL_TABLE = ALL_TABLE + ZERO_RELATIONS
LAT6 = Lattice(D=3, n=6, a=1 / 6)


def _count_work(monkeypatch):
    """Counters of LocalFunctional.gradient calls and of the right-side
    density arrays the relations evaluate."""
    counts = {"gradient": 0, "array": 0}
    gradient, evaluate = LocalFunctional.gradient, relations.evaluate_density

    def counted_gradient(self, point):
        counts["gradient"] += 1
        return gradient(self, point)

    def counted_evaluate(*args):
        counts["array"] += 1
        return evaluate(*args)

    monkeypatch.setattr(LocalFunctional, "gradient", counted_gradient)
    monkeypatch.setattr(relations, "evaluate_density", counted_evaluate)
    return counts


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare",
                                  "abelian(2,3)", "trivial_bf(1)"])
def test_relation_table_equals_each_relation_alone(name):
    cm = builtin_module(name)
    pt = random_phase_point(cm, LAT6, seed=12, rule="random")
    alone = [check_algebra_relation(cm, rid, pt, seed=4) for rid in FULL_TABLE]
    assert relation_table(cm, FULL_TABLE, pt, seed=4) == alone


def test_relation_table_shares_gradients_and_arrays(monkeypatch):
    """22 distinct (system, family, side) gradients and 12 distinct (name,
    system) right-side arrays, where relation by relation takes 52 and 19."""
    pt = random_phase_point(VP, LAT, seed=13, rule="random")
    counts = _count_work(monkeypatch)
    relation_table(VP, FULL_TABLE, pt, seed=2)
    assert counts == {"gradient": 22, "array": 12}
    for rid in FULL_TABLE:
        check_algebra_relation(VP, rid, pt, seed=2)
    assert counts == {"gradient": 22 + 52, "array": 12 + 19}


def test_relation_table_repeated_id():
    pt = random_phase_point(SU2, LAT, seed=14, rule="random")
    first, again, other, last = relation_table(
        SU2, ("mixed1", "mixed1", "sc2", "mixed1"), pt, seed=5)
    assert first == again == last
    assert other == check_algebra_relation(SU2, "sc2", pt, seed=5)


def test_relation_table_unknown_id_before_any_work(monkeypatch):
    pt = random_phase_point(SU2, LAT, seed=15, rule="random")
    counts = _count_work(monkeypatch)
    with pytest.raises(KeyError, match="sc99"):
        relation_table(SU2, ("prim1", "fc1", "sc99"), pt)
    assert counts == {"gradient": 0, "array": 0}


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------

def test_consistency_zero_point_all_zero():
    pt = PhasePoint(LAT, SU2.p, SU2.q, {})
    rows = consistency_residuals(SU2, pt, seed=1)
    assert all(r == 0.0 for _, r in rows)


def test_consistency_onshell_exact():
    pt = random_phase_point(SU2, LAT, seed=8, rule="on_shell")
    rows = dict(consistency_residuals(SU2, pt, seed=2))
    for label, r in rows.items():
        if "weak" in label:
            continue
        assert r < 1e-10, (label, r)


def test_consistency_random_point_phi_rows_exact():
    pt = random_phase_point(SU2, LAT, seed=9, rule="random")
    rows = dict(consistency_residuals(SU2, pt, seed=2))
    for label, r in rows.items():
        if "vs phi" in label:
            assert r < 1e-10, (label, r)
        if "vs secondary" in label:
            assert r > 1e-6  # chi tails are visible off the on-shell surface


@pytest.mark.parametrize("cm", [SU2, VP], ids=["su2", "vp"])
def test_consistency_off_shell_rows_are_those_of_all_rows(cm):
    """off_shell forms the four temporal-vs-completion rows alone, bitwise
    as they are among all sixteen, in the same order."""
    pt = random_phase_point(cm, LAT, seed=9, rule="random")
    rows = consistency_residuals(cm, pt, seed=2)
    assert len(rows) == 16
    assert consistency_residuals(cm, pt, seed=2, off_shell=True) == [
        (label, r) for label, r in rows if "vs phi" in label]


def test_consistency_abelian_secondaries_preserved_exactly():
    pt = random_phase_point(AB, LAT, seed=10, rule="random")
    rows = dict(consistency_residuals(AB, pt, seed=3))
    for label, r in rows.items():
        if "weak" in label:
            assert r < 1e-11, (label, r)


def _consistency_rows_one_bracket_each(cm, point, seed):
    """consistency_residuals rebuilt with a full poisson_bracket per row, so
    H_T is differentiated afresh for every row."""
    from bfcg.constraints import SECOND_CLASS, TEMPORAL
    from bfcg.relations import _vol_sum, make_test
    lat = point.lattice
    ht = total_hamiltonian_functional(cm, lat)
    fams = ([row.primary for row in TEMPORAL] + list(SECOND_CLASS)
            + ["S(H)", "S(G)", "S(CB)", "S(BCbeta)"])

    def bracket(fam):
        t = make_test(family_shape(cm, fam), lat,
                      seed=seed * 9176 + 101 * (fams.index(fam) + 1))
        fn = smear(constraint_density(cm, fam), t, lat)
        return t, poisson_bracket(fn, ht, point.blocks, CANONICAL_PAIRS)

    def paired(t, arr):
        return _vol_sum(lat, np.sum(t * arr, axis=tuple(range(t.ndim - 3))))

    rows = []
    for row in TEMPORAL:
        fam, phi_fam, sec_kind = row.primary, row.completion, row.secondary
        t, br = bracket(fam)
        phi_val = paired(t, evaluate_constraint(cm, phi_fam, point))
        sec_val = paired(t, evaluate_constraint(cm, sec_kind, point))
        rows.append((f"{fam} vs {phi_fam}", abs(br - phi_val)))
        rows.append((f"{fam} vs secondary", abs(br - sec_val)))
    for fam in SECOND_CLASS:
        rows.append((f"{fam} preservation", abs(bracket(fam)[1])))
    for fam in ("S(H)", "S(G)", "S(CB)", "S(BCbeta)"):
        rows.append((f"{fam} preservation (weak)", abs(bracket(fam)[1])))
    return rows


@pytest.mark.parametrize("cm", [SU2, VP], ids=["su2", "poincare"])
@pytest.mark.parametrize("rule", ["random", "on_shell"])
def test_consistency_reused_HT_gradient_matches_fresh_brackets(cm, rule):
    pt = random_phase_point(cm, Lattice(D=3, n=6, a=1.0 / 6), seed=4, rule=rule)
    rows = consistency_residuals(cm, pt, seed=3)
    assert rows == _consistency_rows_one_bracket_each(cm, pt, seed=3)


# ---------------------------------------------------------------------------
# off-shell dependencies
# ---------------------------------------------------------------------------

def test_offshell_zero_point():
    out = offshell_relations(SU2, PhasePoint(LAT, SU2.p, SU2.q, {}))
    assert out["ra_residual"] == 0.0 and out["rb_residual"] == 0.0


def test_offshell_abelian_exact():
    pt = random_phase_point(AB, LAT, seed=12, rule="random")
    out = offshell_relations(AB, pt)
    assert out["ra_residual"] < 1e-12
    assert out["rb_residual"] < 1e-12


def _offshell_rhs_loop_oracle(cm, cfg3):
    """The Bianchi content of the two off-shell identities as eps^{ijk} loops
    over stored pairs: rhs_a = eps^{ijk} nabla_i F_{a jk}, and rhs_b =
    eps^{ijk} (nabla^act_i T_{al jk} - act_{al a be} F^a_{jk} C^be_i)."""
    lat, A, C = cfg3.lattice, cfg3.A, cfg3.C
    F3 = curvature_F(cm, cfg3)
    F3_low = np.einsum("ab,Pb...->Pa...", cm.Q, F3)
    T3 = curvature_T(cm, cfg3)
    T3_low = np.einsum("xy,Py...->Px...", cm.qf, T3)
    rhs_a = np.zeros((cm.p,) + lat.shape)
    rhs_b = np.zeros((cm.q,) + lat.shape)
    for i in range(3):
        for P in range(3):
            s = EPS3_PAIR[i, P]
            if not s:
                continue
            rhs_a += s * (discrete_derivative(F3_low[P], i, lat)
                          + contract(cm.flow, A[i], F3[P]))
            if cm.q:
                rhs_b += s * (discrete_derivative(T3_low[P], i, lat)
                              + contract(cm.actlow, A[i], T3[P]))
                rhs_b -= s * contract(cm.actlow, F3[P], C[i])
    return rhs_a, rhs_b


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare",
                                  "abelian(2,3)", "trivial_bf(3)"])
def test_offshell_bianchi_content_matches_loop_oracle(name, n):
    """rhs_a = 1/2 Q.d_A F and rhs_b = 1/2 (q.d_A T - W(actlow; F, C)) on the
    spatial triple (0, 1, 2), as offshell_relations forms them."""
    cm = builtin_module(name)
    pt = random_phase_point(cm, Lattice(D=3, n=n, a=1.0 / n), seed=n,
                            rule="random")
    b = pt.blocks
    cfg3 = FieldConfiguration(pt.lattice, b["A"], b["be"], b["B"], b["C"])
    rhs_a, rhs_b = _offshell_rhs_loop_oracle(cm, cfg3)
    lat = pt.lattice
    whole = Slab(lat, slice(0, lat.n), {
        name: slab_window(X, lat, slice(None))
        for name, X in (("A", b["A"]), ("C", b["C"]),
                        ("F", curvature_F(cm, cfg3)),
                        ("T", curvature_T(cm, cfg3)))})
    out = offshell_relations(cm, pt)
    for got, want, norm in (
            (0.5 * _bianchi_g(cm, whole, (0, 1, 2)), rhs_a, "ra_bianchi_norm"),
            (0.5 * _bianchi_h(cm, whole, (0, 1, 2)), rhs_b,
             "rb_bianchi_norm")):
        scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
        assert got.shape == want.shape
        assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale
        assert abs(out[norm] - float(np.max(np.abs(want), initial=0.0))) \
            <= 1e-12 * scale


def test_offshell_su2_converges():
    out = offshell_refinement(SU2, (8, 12, 16), seed=648)
    for key in ("ra_order", "rb_order"):
        order = out[key]
        assert order == "exact" or order >= 1.6, (key, out)
    # residuals are genuinely nonzero at finite spacing
    assert out["ra_residuals"][0] > 0.1


# ---------------------------------------------------------------------------
# gauge-fixed reduction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cm", [SU2, VP, AB], ids=["su2", "poincare", "abelian"])
def test_reduction_to_secondary_densities(cm):
    pt = random_phase_point(cm, LAT, seed=13, rule="random")
    assert reduction_residual(cm, pt) < 1e-12


def test_reduction_keeps_a_nan_row(monkeypatch):
    """A NaN in a later phi row reaches the result instead of being
    dropped by the running maximum."""
    pt = random_phase_point(SU2, LAT, seed=13, rule="random")
    evaluate = relations.evaluate_constraint

    def nan_for_bcbeta(cm, family, point):
        arr = evaluate(cm, family, point)
        return np.full_like(arr, np.nan) if family == "S(BCbeta)" else arr

    monkeypatch.setattr(relations, "evaluate_constraint", nan_for_bcbeta)
    assert np.isnan(reduction_residual(SU2, pt))


def test_q_zero_pure_bf_sector():
    """The whole canonical stack degrades gracefully to pure BF (q = 0)."""
    from bfcg.constraints import regrouping_residual
    import numpy as np
    cm = builtin_module("trivial_bf(3)")
    pt = random_phase_point(cm, LAT, seed=3, rule="random")
    worst = max(check_algebra_relation(cm, rid, pt, seed=2).residual
                for rid in ALL_TABLE)
    assert worst < 1e-10
    assert regrouping_residual(cm, pt) < 1e-10
    assert reduction_residual(cm, pt) < 1e-12
    out = offshell_relations(cm, pt)
    assert out["rb_residual"] == 0.0  # empty h sector
