"""Phase space, constraint densities, Hamiltonians, multipliers."""

import numpy as np
import pytest

from bfcg.constraints import (FAMILIES, constraint_density,
                              evaluate_constraint, family_shape,
                              gauge_fixed_density, regrouping_residual,
                              total_hamiltonian_functional)
from bfcg.crossed_module import builtin_module
from bfcg.lattice import EPS3_PAIR, Lattice, pair_index, pairs
from bfcg.localpoly import poisson_bracket, smear
from bfcg.phase import (CANONICAL_PAIRS, GAUGE_FIXED_PAIRS, PhasePoint,
                        block_shapes, random_phase_point)

CM = builtin_module("adjoint(su2)")
LAT = Lattice(D=3, n=4, a=0.25)
P3 = pairs(3)
PIDX = pair_index(3)
S3 = EPS3_PAIR

PRIMARY_FAMILIES = ("P(B)_0i", "P(B)_jk", "P(C)_0", "P(C)_k",
                    "P(A)_0", "P(A)_i", "P(beta)_0i", "P(beta)_jk")


def test_zero_point_zero_constraints():
    pt = PhasePoint(LAT, CM.p, CM.q, {})
    for fam in PRIMARY_FAMILIES + ("S(H)", "S(G)", "S(CB)", "S(BCbeta)",
                                   "phi(H)", "phi(G)", "phi(CB)", "phi(BCbeta)"):
        arr = evaluate_constraint(CM, fam, pt)
        assert np.max(np.abs(arr)) == 0.0 if arr.size else True


def test_onshell_point_kills_primaries():
    pt = random_phase_point(CM, LAT, seed=13, rule="on_shell")
    for fam in PRIMARY_FAMILIES:
        arr = evaluate_constraint(CM, fam, pt)
        assert np.max(np.abs(arr)) < 1e-13, fam


def test_random_momenta_violate_primaries():
    pt = random_phase_point(CM, LAT, seed=5, rule="random")
    worst = max(np.max(np.abs(evaluate_constraint(CM, fam, pt)))
                for fam in PRIMARY_FAMILIES)
    assert worst > 1e-3


# ---------------------------------------------------------------------------
# duplicate-implementation oracle for phi(H)
# ---------------------------------------------------------------------------

def _D(field, ax, a):
    """Central difference along lattice axis ax, written with np.roll."""
    return (np.roll(field, -1, axis=field.ndim - 3 + ax)
            - np.roll(field, 1, axis=field.ndim - 3 + ax)) / (2 * a)


def _phiH_loop_oracle(cm, pt):
    """Plain-loop reimplementation of the phi(H) density."""
    lat = pt.lattice
    A, be = pt.blocks["A"], pt.blocks["be"]
    pB, pC = pt.blocks["pB"], pt.blocks["pC"]
    out = np.zeros((3, cm.p) + lat.shape)

    def D(field, ax):
        return _D(field, ax, lat.a)

    for i in range(3):
        for aa in range(cm.p):
            acc = np.zeros(lat.shape)
            for P, (j, k) in enumerate(P3):
                s = S3[i, P]
                if not s:
                    continue
                for b in range(cm.p):
                    acc += s * cm.Q[aa, b] * (D(A[k, b], j) - D(A[j, b], k))
                for b in range(cm.p):
                    for c in range(cm.p):
                        acc += s * cm.flow[aa, b, c] * A[j, b] * A[k, c]
                for al in range(cm.q):
                    acc -= s * cm.dlow[al, aa] * be[P, al]
            for j in range(3):
                if j == i:
                    continue
                P, sig = PIDX[(i, j)]
                acc -= sig * D(pB[P, aa], j)
                for c in range(cm.p):
                    for b in range(cm.p):
                        acc -= sig * cm.f[c, aa, b] * A[j, b] * pB[P, c]
            for al in range(cm.q):
                acc -= cm.dup[al, aa] * pC[i, al]
            out[i, aa] = acc
    return out


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_phiH_matches_loop_oracle(name):
    cm = builtin_module(name)
    pt = random_phase_point(cm, LAT, seed=17, rule="random")
    engine = evaluate_constraint(cm, "phi(H)", pt)
    oracle = _phiH_loop_oracle(cm, pt)
    assert np.max(np.abs(engine - oracle)) < 1e-12


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_secondaries_match_curvature_oracles(name):
    """S(H) is the spatial curvature F minus del.beta, and S(CB) is the
    q-lowered 2-form curvature T of C minus dlow.B, on every stored pair."""
    cm = builtin_module(name)
    pt = random_phase_point(cm, LAT, seed=19, rule="random")
    A, B, C, be = (pt.blocks[k] for k in ("A", "B", "C", "be"))
    SH = evaluate_constraint(cm, "S(H)", pt)
    SCB = evaluate_constraint(cm, "S(CB)", pt)
    for P, (j, k) in enumerate(P3):
        F = (_D(A[k], j, LAT.a) - _D(A[j], k, LAT.a)
             + np.einsum("abc,b...,c...->a...", cm.f, A[j], A[k]))
        T = (_D(C[k], j, LAT.a) - _D(C[j], k, LAT.a)
             + np.einsum("xag,a...,g...->x...", cm.act, A[j], C[k])
             - np.einsum("xag,a...,g...->x...", cm.act, A[k], C[j]))
        expect_H = F - np.einsum("xa,x...->a...", cm.del_, be[P])
        expect_CB = (np.einsum("xy,y...->x...", cm.qf, T)
                     - np.einsum("xb,b...->x...", cm.dlow, B[P]))
        assert np.max(np.abs(SH[P] - expect_H)) <= 1e-12
        assert np.max(np.abs(SCB[P] - expect_CB)) <= 1e-12


STRUCTURE_MODULES = ("trivial_bf(1)", "trivial_bf(3)", "adjoint(su2)",
                     "vector_poincare", "abelian(1,1)", "abelian(2,3)",
                     "abelian(4,2)")
BUILT_NAMES = FAMILIES + ("S(H)_dual", "S(CB)_dual", "S(G)_low", "lam(A)",
                          "lam(beta)", "lam(C)", "lam(B)")
GAUGE_FIXED = ("S(H)", "S(G)", "S(CB)", "S(BCbeta)")


@pytest.mark.parametrize("name", STRUCTURE_MODULES)
def test_expanded_densities_fit_their_slots(name):
    """Every monomial of every expanded density sits on a valid free
    component and reads valid phase-space entries."""
    cm = builtin_module(name)
    blocks = block_shapes(cm.p, cm.q)
    gf_blocks = {b for pair in GAUGE_FIXED_PAIRS for b in pair}
    built = [(fam, constraint_density(cm, fam), blocks) for fam in BUILT_NAMES]
    built += [(fam, gauge_fixed_density(cm, fam), gf_blocks)
              for fam in GAUGE_FIXED]
    for fam, dens, allowed in built:
        assert dens.comp_shape == family_shape(cm, fam), fam
        free = set(np.ndindex(*dens.comp_shape))
        for fc, terms in dens.items():
            assert fc in free, (fam, fc)
            for _, factors in terms:
                for block, comp, daxis in factors:
                    assert block in allowed, (fam, block)
                    shape = blocks[block]
                    assert len(comp) == len(shape), (fam, block, comp)
                    assert all(0 <= c < n for c, n in zip(comp, shape)), \
                        (fam, block, comp)
                    assert daxis in (-1, 0, 1, 2), (fam, block, daxis)


@pytest.mark.parametrize("expand", [constraint_density, gauge_fixed_density])
def test_class_alias_shares_its_primary_expansion(expand):
    """phi(X) and chi(X) name the registry entry of their primary, so the
    module expands each primary once under either name."""
    cm = builtin_module("adjoint(su2)")
    assert expand(cm, "chi(A)") is expand(cm, "P(A)_i")
    assert expand(cm, "P(A)_0") is expand(cm, "phi(A)")
    assert expand(cm, "chi(A)") is not expand(cm, "phi(A)")


def test_sigma_H_abelian_stencil():
    """Abelian S(H) is the plain discrete curl of A."""
    cm = builtin_module("abelian(2,2)")
    pt = random_phase_point(cm, LAT, seed=19, rule="random")
    arr = evaluate_constraint(cm, "S(H)", pt)
    A = pt.blocks["A"]
    for P, (j, k) in enumerate(P3):
        dA = ((np.roll(A[k], -1, axis=1 + j) - np.roll(A[k], 1, axis=1 + j))
              - (np.roll(A[j], -1, axis=1 + k) - np.roll(A[j], 1, axis=1 + k))) / (2 * LAT.a)
        assert np.max(np.abs(arr[P] - dA)) < 1e-13


# ---------------------------------------------------------------------------
# smearing and gradients on real densities
# ---------------------------------------------------------------------------

def test_smeared_PC0_gradient_is_test_field():
    dens = constraint_density(CM, "P(C)_0")
    rng = np.random.default_rng(3)
    t = rng.normal(size=(CM.q,) + LAT.shape)
    fn = smear(dens, t, LAT)
    pt = random_phase_point(CM, LAT, seed=23, rule="random")
    grad = fn.gradient(pt.blocks)
    assert np.max(np.abs(grad["pC0"] - LAT.a ** 3 * t)) < 1e-15
    for name, arr in grad.items():
        if name != "pC0":
            assert np.max(np.abs(arr)) == 0.0


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_smeared_PC0_gradient_reads_only_pC0(name):
    cm = builtin_module(name)
    lat = Lattice(D=3, n=6, a=1.0 / 6)
    dens = constraint_density(cm, "P(C)_0")
    pt = random_phase_point(cm, lat, seed=5, rule="random")
    t = np.random.default_rng(7).normal(size=(cm.q,) + lat.shape)
    assert set(smear(dens, t, lat).gradient(pt.blocks)) == {"pC0"}


def test_constraint_gradient_matches_finite_differences():
    dens = constraint_density(CM, "phi(BCbeta)")
    rng = np.random.default_rng(29)
    t = rng.normal(size=(CM.p,) + LAT.shape)
    fn = smear(dens, t, LAT)
    pt = random_phase_point(CM, LAT, seed=31, rule="random")
    grad = fn.gradient(pt.blocks)
    h = 1e-6
    worst = 0.0
    for block in ("A", "B", "C", "be", "pA", "pB", "pC", "pbe"):
        idx = (0, 1, 2, 1, 3) if pt.blocks[block].ndim == 5 else (1, 2, 1, 3)
        pt.blocks[block][idx] += h
        up = fn.value(pt.blocks)
        pt.blocks[block][idx] -= 2 * h
        dn = fn.value(pt.blocks)
        pt.blocks[block][idx] += h
        worst = max(worst, abs((up - dn) / (2 * h) - grad[block][idx]))
    assert worst < 1e-7


# ---------------------------------------------------------------------------
# Hamiltonians
# ---------------------------------------------------------------------------

def total_hamiltonian(cm, pt, **lam0):
    """The value of H_T at a phase point."""
    return total_hamiltonian_functional(cm, pt.lattice, **lam0).value(pt.blocks)


def _Hc_from_secondaries(cm, pt):
    """H_c by its defining formula: minus the temporal fields paired with the
    secondary densities S(H), S(G), S(CB) and S(BCbeta), summed over sites."""
    b = pt.blocks
    dens = (np.einsum("iP,ab,ib...,Pa...->...", S3, cm.Q, b["B0"],
                      evaluate_constraint(cm, "S(H)", pt))
            + np.einsum("xy,y...,x...->...", cm.qf, b["C0"],
                        evaluate_constraint(cm, "S(G)", pt))
            + np.einsum("kP,kx...,Px...->...", S3, b["be0"],
                        evaluate_constraint(cm, "S(CB)", pt))
            + np.einsum("a...,a...->...", b["A0"],
                        evaluate_constraint(cm, "S(BCbeta)", pt)))
    return -pt.lattice.a ** 3 * float(np.sum(dens))


def test_Hc_zero_point():
    assert total_hamiltonian(CM, PhasePoint(LAT, CM.p, CM.q, {})) == 0.0


def test_Hc_vanishes_without_temporal_components():
    """Every determined multiplier carries a temporal factor, so with zero
    temporal fields H_T is H_c."""
    pt = random_phase_point(CM, LAT, seed=37, rule="on_shell")
    for name in ("A0", "B0", "C0", "be0"):
        pt.blocks[name] = np.zeros_like(pt.blocks[name])
    assert abs(total_hamiltonian(CM, pt)) < 1e-14


def test_HT_minus_Hc_is_multiplier_sum():
    pt = random_phase_point(CM, LAT, seed=41, rule="random")
    rng = np.random.default_rng(43)
    lam0 = dict(
        lamA0=rng.normal(size=(CM.p,) + LAT.shape),
        lamB0=rng.normal(size=(3, CM.p) + LAT.shape),
        lamC0=rng.normal(size=(CM.q,) + LAT.shape),
        lambe0=rng.normal(size=(3, CM.q) + LAT.shape),
    )
    ht = total_hamiltonian(CM, pt, **lam0)
    hc = _Hc_from_secondaries(CM, pt)
    blocks = pt.blocks
    a3 = LAT.a ** 3

    def _pair_sum(lam, fam):
        dens = constraint_density(CM, fam)
        from bfcg.localpoly import evaluate_density
        arr = evaluate_density(dens, blocks, LAT)
        return float(np.sum(lam * arr))

    direct = 0.0
    direct += _pair_sum(lam0["lamA0"], "P(A)_0")
    direct += _pair_sum(lam0["lamB0"], "P(B)_0i")
    direct += _pair_sum(lam0["lamC0"], "P(C)_0")
    direct += _pair_sum(lam0["lambe0"], "P(beta)_0i")
    for lam, prim in (("lam(A)", "P(A)_i"), ("lam(B)", "P(B)_jk"),
                      ("lam(C)", "P(C)_k"), ("lam(beta)", "P(beta)_jk")):
        direct += _pair_sum(evaluate_constraint(CM, lam, pt), prim)
    assert abs((ht - hc) - a3 * direct) < 1e-11 * max(1.0, abs(ht))


@pytest.mark.parametrize("name", STRUCTURE_MODULES)
def test_total_hamiltonian_entries_have_distinct_factor_sets(name):
    """H_T is one density: the multiplier products merge with H_c and with
    each other, so no two entries share a factor set."""
    entries = total_hamiltonian_functional(builtin_module(name), LAT).entries
    keys = [tuple(sorted(factors)) for _, _, factors in entries]
    assert len(set(keys)) == len(keys)
    assert len(entries) == {"adjoint(su2)": 414,
                            "vector_poincare": 906}.get(name, len(entries))


def test_regrouping_identity_exact():
    """H_T equals the first-class regrouping to machine precision."""
    for name in ("adjoint(su2)", "vector_poincare", "abelian(2,2)"):
        cm = builtin_module(name)
        pt = random_phase_point(cm, LAT, seed=47, rule="random")
        rng = np.random.default_rng(53)
        lam0 = dict(
            lamA0=rng.normal(size=(cm.p,) + LAT.shape),
            lamB0=rng.normal(size=(3, cm.p) + LAT.shape),
            lamC0=rng.normal(size=(cm.q,) + LAT.shape),
            lambe0=rng.normal(size=(3, cm.q) + LAT.shape),
        )
        assert regrouping_residual(cm, pt, **lam0) < 1e-10


# ---------------------------------------------------------------------------
# multipliers
# ---------------------------------------------------------------------------

def test_multipliers_zero_point():
    pt = PhasePoint(LAT, CM.p, CM.q, {})
    for lam in ("lam(A)", "lam(B)", "lam(C)", "lam(beta)"):
        assert np.max(np.abs(evaluate_constraint(CM, lam, pt))) == 0.0


def test_lamA_hand_formula_with_A_zero():
    """With A = 0, lam(A)^a_i = del_g^a beta^g_{0i} (abelian: zero)."""
    pt = random_phase_point(CM, LAT, seed=59, rule="random")
    pt.blocks["A"] = np.zeros_like(pt.blocks["A"])
    pt.blocks["A0"] = np.zeros_like(pt.blocks["A0"])
    lamA = evaluate_constraint(CM, "lam(A)", pt)
    expect = np.einsum("ga,ig...->ia...", CM.del_, pt.blocks["be0"])
    assert np.max(np.abs(lamA - expect)) < 1e-13
    cm_ab = builtin_module("abelian(2,2)")
    pt2 = random_phase_point(cm_ab, LAT, seed=61, rule="random")
    pt2.blocks["A"] = np.zeros_like(pt2.blocks["A"])
    pt2.blocks["A0"] = np.zeros_like(pt2.blocks["A0"])
    assert np.max(np.abs(evaluate_constraint(cm_ab, "lam(A)", pt2))) < 1e-13


@pytest.mark.parametrize("fn", [total_hamiltonian, regrouping_residual])
@pytest.mark.parametrize("shape", [(2,), (4, 4, 4), (3, 5, 5, 5), (3,)])
def test_free_multiplier_bad_shape_raises(fn, shape):
    pt = random_phase_point(CM, LAT, seed=79, rule="random")
    with pytest.raises(ValueError, match="free multiplier"):
        fn(CM, pt, lamA0=np.ones(shape))


def test_spatial_consistency_brackets_vanish_on_shell():
    pt = random_phase_point(CM, LAT, seed=67, rule="on_shell")
    ht = total_hamiltonian_functional(CM, LAT)
    rng = np.random.default_rng(71)
    for fam in ("chi(B)", "chi(C)", "chi(A)", "chi(beta)"):
        dens = constraint_density(CM, fam)
        shape = (3, CM.p) if fam in ("chi(B)", "chi(A)") else (3, CM.q)
        t = rng.normal(size=shape + LAT.shape)
        fn = smear(dens, t, LAT)
        val = poisson_bracket(fn, ht, pt.blocks, CANONICAL_PAIRS)
        assert abs(val) < 1e-10, fam
