"""Constraint-algebra relations, consistency, off-shell identities, reduction."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bfcg.checks import RunConfig, check_algebra
from bfcg.constraints import (constraint_density, evaluate_constraint,
                              family_shape, total_hamiltonian_functional)
from bfcg.crossed_module import builtin_module, contract
from bfcg.curvature import _bianchi_g, _bianchi_h, curvature_F
from bfcg.lattice import (EPS3_PAIR, FieldConfiguration, Lattice, Slab,
                          discrete_derivative, slab_window)
from bfcg.localpoly import (LocalFunctional, evaluate_density,
                            poisson_bracket, smear)
from bfcg import relations
from bfcg.phase import (CANONICAL_PAIRS, GAUGE_FIXED_PAIRS, PhasePoint,
                        random_phase_point)
from bfcg.relations import (SECONDARY_RELATIONS, FIRSTCLASS_RELATIONS, MIXED_RELATIONS,
                            PRIMARY_RELATIONS, RELATIONS, ZERO_RELATIONS,
                            check_algebra_relation, consistency_residuals,
                            fundamental_bracket_residuals, offshell_refinement,
                            offshell_relations, reduction_residual,
                            relation_table, RelationResult)
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

    def counted(self, point, paired=None):
        calls.append(self)
        return gradient(self, point, paired)

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

    def counted_gradient(self, point, paired=None):
        counts["gradient"] += 1
        return gradient(self, point, paired)

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
# paired-only gradients against unrestricted ones, paired product by product
# ---------------------------------------------------------------------------

def _oracle_sum(x, y, fn=None):
    """np.sum(fn(x * y)) of two gradient blocks, None absent: a missing side
    gives 0.0, or NaN when the present side holds a non-finite entry."""
    if x is None or y is None:
        z = y if x is None else x
        return 0.0 if z is None or np.isfinite(z).all() else np.nan
    prod = x * y
    return np.sum(prod if fn is None else fn(prod))


def _oracle_bracket(gf, gg, pairs, a):
    """(bracket, 1 + its sum of |terms|) of two unrestricted gradients, each
    product formed once for the bracket and again for the sum."""
    lhs = scale = 0.0
    for qb, pb in pairs:
        lhs += float(_oracle_sum(gf.get(qb), gg.get(pb))
                     - _oracle_sum(gf.get(pb), gg.get(qb)))
    for qb, pb in pairs:
        scale += float(_oracle_sum(gf.get(qb), gg.get(pb), np.abs)
                       + _oracle_sum(gf.get(pb), gg.get(qb), np.abs))
    return lhs / a ** 3, 1.0 + scale / a ** 3


def _oracle_relation(cm, rid, point, seed):
    rel = RELATIONS[rid]
    lat = point.lattice
    tests, grads = [], []
    for fam, offset in ((rel.famA, 11), (rel.famB, 23)):
        t = relations.make_test(family_shape(cm, fam), lat,
                                seed=seed * 7919 + offset)
        tests.append(t)
        grads.append(smear(relations._density(cm, fam, rel.system), t,
                           lat).gradient(point.blocks))
    pairs = GAUGE_FIXED_PAIRS if rel.system == "gf" else CANONICAL_PAIRS
    lhs, scale = _oracle_bracket(*grads, pairs, lat.a)
    dens = {name: evaluate_density(relations._density(cm, name, rel.system),
                                   point.blocks, lat)
            for name in rel.operands if "(" in name}
    rhs = relations._rhs(cm, rel, point, *tests, dens)
    return RelationResult(rid, lhs, rhs, abs(lhs - rhs), scale)


def _oracle_consistency(cm, point, seed):
    lat = point.lattice
    g_ht = total_hamiltonian_functional(cm, lat).gradient(point.blocks)
    rows = []
    for i, (fam, targets) in enumerate(relations._CONSISTENCY_ROWS):
        t = relations.make_test(family_shape(cm, fam), lat,
                                seed=seed * 9176 + 101 * (i + 1))
        g_fn = smear(constraint_density(cm, fam), t, lat).gradient(
            point.blocks)
        br = _oracle_bracket(g_fn, g_ht, CANONICAL_PAIRS, lat.a)[0]
        for label, dens in targets:
            val = 0.0 if dens is None else relations._vol_sum(lat, np.sum(
                t * evaluate_constraint(cm, dens, point),
                axis=tuple(range(t.ndim - 3))))
            rows.append((label, abs(br - val)))
    return rows


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_paired_only_rows_equal_the_unrestricted_pairing(name, n):
    """relation_table (gradients paired in the blocks some partner of the
    whole table reads), each relation alone (its one partner) and
    consistency_residuals give exactly the rows of unrestricted gradients
    paired product by product."""
    cm = builtin_module(name)
    lat = Lattice(D=3, n=n, a=1.0 / n)
    pt = random_phase_point(cm, lat, seed=17, rule="random")
    want = [_oracle_relation(cm, rid, pt, 3) for rid in FULL_TABLE]
    assert relation_table(cm, FULL_TABLE, pt, seed=3) == want
    assert [check_algebra_relation(cm, rid, pt, seed=3)
            for rid in FULL_TABLE] == want
    on_shell = random_phase_point(cm, lat, seed=18, rule="on_shell")
    for point in (pt, on_shell):
        assert (consistency_residuals(cm, point, seed=4)
                == _oracle_consistency(cm, point, 4))


UNPAIRED = {
    # (entry put at one site of pB, spacing): does the B partial overflow?
    "NaN": ((np.nan, 1 / 6), True),
    "inf": ((np.inf, 1 / 6), True),
    "1e200, overflowing": ((1e200, 1e40), True),
    "1e200, finite": ((1e200, 1 / 6), False),
}


@pytest.mark.parametrize("case", UNPAIRED.values(), ids=UNPAIRED.keys())
def test_unpaired_block_keeps_the_nan_of_a_non_finite_entry(case):
    """mixed6 on adjoint(su2): pB enters the phi(BCbeta) gradient only
    through its B block, whose conjugate pB chi(A) does not read, so B
    faces an absent block and is left out where a bound proves it finite.
    A NaN or inf in pB, or 1e200 times the a^3 = 1e120 of spacing 1e40,
    puts a non-finite entry in B, which must still make the left side and
    the scale NaN, as unrestricted gradients do; 1e200 at spacing 1/6
    leaves B finite, and the row is the unrestricted one."""
    (bad, a), overflows = case
    lat = Lattice(D=3, n=6, a=a)
    pt = random_phase_point(SU2, lat, seed=19, rule="random")
    pt.blocks["pB"][1, 2, 0, 3, 4] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        got = check_algebra_relation(SU2, "mixed6", pt, seed=5)
        table = relation_table(SU2, ("mixed6", "mixed7"), pt, seed=5)[0]
        want = _oracle_relation(SU2, "mixed6", pt, 5)
    for res in (got, table):
        assert np.isnan(res.lhs) == np.isnan(res.scale) == overflows
        if overflows:
            assert np.isnan(want.lhs) and np.isnan(want.scale)
            assert res.rhs == want.rhs
        else:
            assert res == want


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


def test_relation_scale_does_not_grow_as_n_cubed():
    """The scale is 1 plus the absolute terms of the bracket, each already
    paired with its 1/a^3: a Riemann sum that settles as n grows, so the
    gate tol * max(1, scale) does not widen as n^3."""
    worst = {}
    for n in (8, 16):
        pt = random_phase_point(SU2, Lattice(3, n, 1.0 / n), seed=1,
                                rule="random")
        worst[n] = max(r.scale for r in relation_table(
            SU2, ALL_TABLE + ZERO_RELATIONS, pt, seed=1))
    assert 1.0 < worst[8] < 8 ** 3 and worst[16] < 1.5 * worst[8], worst


def test_algebra_fails_a_right_side_off_by_1e_8(monkeypatch):
    """An error of 1e-8 in every right side FAILs the algebra check at n = 8
    (the relations of scale below 100 are gated below it)."""
    rhs = relations._rhs
    monkeypatch.setattr(relations, "_rhs", lambda *args: rhs(*args) + 1e-8)
    rec = check_algebra(SU2, RunConfig(ns=(8,)))
    assert not rec.ok
    assert any(line.endswith("exact FAIL") for line in rec.lines)
