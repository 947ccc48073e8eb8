"""Catalog of constraint-algebra relations and their numerical checks.

Every bracket relation is stated distributionally as

    {Fam_A(x), Fam_B(y)} = (structure-tensor combination) . Fam_C(x) d(x,y)

and verified in smeared form: the left side is an exact lattice Poisson
bracket of two smeared functionals, the right side an independent direct
lattice sum of the density arrays against the product of test fields.
relation_table evaluates a list of relations at one point and shares their
work: each smeared gradient, one per (system, family, side), and each
right-side density array, one per (density, system), is made once per call.
A gradient is formed only in the blocks whose conjugate some partner of
its side reads, and in any other block that a bound cannot prove finite
(see LocalFunctional.gradient); the read sets are kept on the densities.
Each block product serves both the left side, its sum, and the relation's
scale, the sum of its absolute values.  The arrays come from
evaluate_density, never from the gradients, so the right side stays
independent of the bracket engine.

Every bracket relation in the tables below is lattice-exact: LHS - RHS
vanishes identically on the lattice and is asserted at machine precision.
Their derivations need only pointwise algebra, exact summation by parts,
and the commutativity of lattice shifts, never the product rule.  The
discrete-Leibniz defect appears only in the off-shell dependency
identities and in consistency brackets evaluated away from the
second-class surface (both exactly zero for abelian modules, where every
structure-constant coefficient dies).  The off-shell identities are gated
by refinement.  No refinement covers the consistency brackets:
check_consistency gates the on-shell rows except the weak secondary ones,
which it reports ungated, and at a random point only the "vs phi" rows;
the other random-point rows are neither gated nor reported.

Relations live in two canonical systems: the full Dirac phase space
("full", all eight conjugate block pairs) and the gauge-fixed picture
("gf", pairs (A, pi(A)) and (beta, pi(beta)) with B, C eliminated through
the on-shell momentum map).

See docs/relations.md for the table in human-readable form.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .constraints import (SECOND_CLASS, SECONDARIES, TEMPORAL,
                          constraint_density, evaluate_constraint, family_shape,
                          gauge_fixed_density, total_hamiltonian_functional)
from .crossed_module import _maxabs, contract
from .curvature import (_bianchi_g, _bianchi_h, _cov_derivative,
                        _curvature_F_pair, _curvature_T_pair)
from .lattice import (EPS3_PAIR, PAIR, Lattice, Slab, _random_recipe,
                      fit_order, pair_index, slab_window)
from .localpoly import (bracket_size, evaluate_density, identity,
                        pair_gradients, smear, tensor_density)
from .phase import (CANONICAL_PAIRS, GAUGE_FIXED_PAIRS, PhasePoint,
                    make_phase_recipe, onshell_momenta)

__all__ = [
    "RELATIONS",
    "RelationResult",
    "check_algebra_relation",
    "relation_table",
    "fundamental_bracket_residuals",
    "consistency_residuals",
    "offshell_relations",
    "reduction_residual",
]

PIDX3 = pair_index(3)
_PAIRS = {"full": CANONICAL_PAIRS, "gf": GAUGE_FIXED_PAIRS}
_CONJUGATE = {system: {**dict(pairs), **{p: q for q, p in pairs}}
              for system, pairs in _PAIRS.items()}   # block -> its conjugate


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _density(cm, name, system):
    if system == "gf":
        return gauge_fixed_density(cm, name)
    return constraint_density(cm, name)


def _vol_sum(lat, site_array):
    return float(lat.a ** 3 * np.sum(site_array))


def make_test(shape, lattice, seed):
    """Smooth smearing test field of one Fourier mode per axis."""
    rng = np.random.default_rng(seed)
    return _random_recipe(rng, 3, shape, 1).realize(lattice)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationSpec:
    """One bracket relation; its right side is the direct lattice sum

        coeff * a^3 sum_x einsum(signature, *operands)

    over the named operands: "tA"/"tB" are the test fields of famA/famB, a
    structure-tensor attribute of the crossed module ("f", "Q", "qfinv",
    ...) or "EPS3_PAIR"/"PAIR" is a constant, and any other name is a
    density evaluated in the relation's system.  coeff = 0 means zero.
    """

    rid: str
    system: str
    famA: str
    famB: str
    coeff: float
    signature: str
    operands: tuple
    note: str


RELATIONS = {}


def _rel(rid, system, famA, famB, coeff, signature, operands, note):
    RELATIONS[rid] = RelationSpec(rid, system, famA, famB, coeff, signature,
                                  tuple(operands.split()), note)


_rel("prim1", "full", "P(B)_jk", "P(A)_i", 1, "iP,Pa...,ab,ib...->...",
     "EPS3_PAIR tA Q tB", "{P(B)_a^{jk}, P(A)_b^i} = eps^{ijk} Q_ab d")
_rel("prim2", "full", "P(C)_k", "P(beta)_jk", -1, "kP,kx...,xy,Py...->...",
     "EPS3_PAIR tA qf tB",
     "{P(C)_al^k, P(beta)_be^{ij}} = -eps^{ijk} q_{al be} d")

_rel("sc1", "gf", "S(H)", "S(BCbeta)", 1, "abc,Pa...,b...,Pc...->...",
     "f tA tB S(H)", "{S(H)^a_{ij}, S(BCbeta)_b} = f^a_{bc} S(H)^c_{ij} d")
_rel("sc2", "gf", "S(G)", "S(CB)", -2, "x...,xby,Py...,Pb...->...",
     "tA act tB S(H)",
     "{S(G)^al, S(CB)_{de ij}} = -2 act^al_{b de} S(H)^b_{ij} d")
_rel("sc3", "gf", "S(BCbeta)", "S(BCbeta)", 1, "cab,a...,b...,c...->...",
     "f tA tB S(BCbeta)", "{S(BCbeta)_a, S(BCbeta)_b} = f^c_{ab} S(BCbeta)_c d")
_rel("sc4", "gf", "S(G)", "S(BCbeta)", 1, "x...,xay,a...,y...->...",
     "tA act tB S(G)", "{S(G)^al, S(BCbeta)_a} = act^al_{a be} S(G)^be d")
_rel("sc5", "gf", "S(CB)", "S(BCbeta)", 1, "Px...,xay,a...,Py...->...",
     "tA actmix tB S(CB)",
     "{S(CB)_{al ij}, S(BCbeta)_a} = act_{al a}^{de} S(CB)_{de ij} d")

_rel("sc0_HH", "gf", "S(H)", "S(H)", 0, "", "", "{S(H), S(H)} = 0")
_rel("sc0_HG", "gf", "S(H)", "S(G)", 0, "", "", "{S(H), S(G)} = 0")
_rel("sc0_GG", "gf", "S(G)", "S(G)", 0, "", "", "{S(G), S(G)} = 0")
_rel("sc0_HCB", "gf", "S(H)", "S(CB)", 0, "", "",
     "{S(H), S(CB)} = 0")
_rel("sc0_CBCB", "gf", "S(CB)", "S(CB)", 0, "", "",
     "{S(CB), S(CB)} = 0")

_rel("fc1", "full", "phi(G)", "phi(CB)", -2, "x...,xcy,ly...,ca,la...->...",
     "tA actlow tB Qinv phi(H)",
     "{phi(G)_al, phi(CB)_de^l} = -2 act_{al c de} phi(H)^{cl} d")
_rel("fc2", "full", "phi(G)", "phi(BCbeta)", 1, "x...,xay,a...,y...->...",
     "tA actmix tB phi(G)",
     "{phi(G)_al, phi(BCbeta)_a} = act_{al a}^{de} phi(G)_de d")
_rel("fc3", "full", "phi(CB)", "phi(BCbeta)", 1, "kx...,xay,a...,ky...->...",
     "tA actmix tB phi(CB)",
     "{phi(CB)_al^k, phi(BCbeta)_a} = act_{al a}^{de} phi(CB)_de^k d")
_rel("fc4", "full", "phi(H)", "phi(BCbeta)", 1, "cab,ia...,b...,ic...->...",
     "f tA tB phi(H)", "{phi(H)_a^i, phi(BCbeta)_b} = f^c_{ab} phi(H)_c^i d")
_rel("fc5", "full", "phi(BCbeta)", "phi(BCbeta)", 1, "cab,a...,b...,c...->...",
     "f tA tB phi(BCbeta)",
     "{phi(BCbeta)_a, phi(BCbeta)_b} = f^c_{ab} phi(BCbeta)_c d")

_rel("mixed1", "full", "phi(H)", "chi(A)", -1, "Pil,cae,ia...,le...,Pc...->...",
     "PAIR f tA tB chi(B)",
     "{phi(H)_a^i, chi(A)_e^l} = -f^c_{ae} chi(B)_c^{il} d")
_rel("mixed2", "full", "phi(G)", "chi(A)", 2, "x...,xey,le...,ly...->...",
     "tA actmix tB chi(C)",
     "{phi(G)_al, chi(A)_e^l} = 2 act_{al e}^{de} chi(C)_de^l d")
_rel("mixed3", "full", "phi(G)", "chi(beta)", -2, "x...,xey,Py...,Pe...->...",
     "tA actQ tB chi(B)",
     "{phi(G)_al, chi(beta)_ga^{jk}} = -2 act_al^e_ga chi(B)_e^{jk} d")
_rel("mixed4", "full", "phi(CB)", "chi(A)", 1,
     "Plk,xay,kx...,la...,yz,Pz...->...", "PAIR actlow tA tB qfinv chi(beta)",
     "{phi(CB)_al^k, chi(A)_a^l} = act_{al a ga} chi(beta)^{ga lk} d")
_rel("mixed5", "full", "phi(CB)", "chi(C)", -1, "Plk,xey,kx...,ly...,Pe...->...",
     "PAIR actQ tA tB chi(B)",
     "{phi(CB)_al^k, chi(C)_de^l} = -act_al^e_de chi(B)_e^{lk} d")
_rel("mixed6", "full", "phi(BCbeta)", "chi(A)", 1, "cae,a...,le...,lc...->...",
     "f tA tB chi(A)", "{phi(BCbeta)_a, chi(A)_e^l} = f^c_{ae} chi(A)_c^l d")
_rel("mixed7", "full", "phi(BCbeta)", "chi(beta)", 1, "a...,xay,Py...,Px...->...",
     "tA act tB chi(beta)",
     "{phi(BCbeta)_a, chi(beta)_ga^{jk}} = act^de_{a ga} chi(beta)_de^{jk} d")
_rel("mixed8", "full", "phi(BCbeta)", "chi(C)", 1, "a...,xay,ly...,lx...->...",
     "tA act tB chi(C)",
     "{phi(BCbeta)_a, chi(C)_de^l} = act^ga_{a de} chi(C)_ga^l d")
_rel("mixed9", "full", "phi(BCbeta)", "chi(B)", 1, "a...,cae,Pe...,Pc...->...",
     "tA f tB chi(B)", "{phi(BCbeta)_a, chi(B)_e^{jk}} = f^c_{ae} chi(B)_c^{jk} d")


def _rhs(cm, rel, point, tA, tB, dens) -> float:
    """The relation's right side as a direct lattice sum (see RelationSpec);
    dens maps each density operand to its evaluate_density array.

    The constant operands are contracted with each other first and then,
    site by site, into the last per-site operand; the per-site product runs
    over that folded array and the other site operands only.  Every step is
    a plain einsum, so no step is multithreaded.
    """
    if rel.coeff == 0:
        return 0.0
    fixed = {"tA": tA, "tB": tB, "EPS3_PAIR": EPS3_PAIR, "PAIR": PAIR, **dens}
    ops = [fixed[name] if name in fixed else getattr(cm, name)
           for name in rel.operands]
    subs = rel.signature.split("->")[0].split(",")
    const = [k for k, sub in enumerate(subs) if not sub.endswith("...")]
    *rest, last = [k for k, sub in enumerate(subs) if sub.endswith("...")]
    rest_idx = set("".join(subs[k] for k in rest)) - {"."}
    k_idx = "".join(dict.fromkeys(c for k in const for c in subs[k]
                                  if c in rest_idx or c in subs[last]))
    keep = "".join(sorted((set(k_idx) | set(subs[last])) & rest_idx))
    K = np.einsum(",".join(subs[k] for k in const) + "->" + k_idx,
                  *[ops[k] for k in const])
    folded = np.einsum(f"{k_idx},{subs[last]}->{keep}...", K, ops[last])
    acc = np.einsum(",".join([keep + "..."] + [subs[k] for k in rest])
                    + "->...", folded, *[ops[k] for k in rest])
    return rel.coeff * _vol_sum(point.lattice, acc)


PRIMARY_RELATIONS = ("prim1", "prim2")
SECONDARY_RELATIONS = tuple(f"sc{i}" for i in range(1, 6))
FIRSTCLASS_RELATIONS = tuple(f"fc{i}" for i in range(1, 6))
MIXED_RELATIONS = tuple(f"mixed{i}" for i in range(1, 10))
ZERO_RELATIONS = ("sc0_HH", "sc0_HG", "sc0_GG", "sc0_HCB", "sc0_CBCB")


@dataclass
class RelationResult:
    rid: str
    lhs: float
    rhs: float
    residual: float
    scale: float    # 1 + sum of |terms| of lhs; check_algebra's gate reads it


def relation_table(cm, rel_ids, point: PhasePoint, seed: int = 0) -> list:
    """Evaluate relations at one phase point with smooth smearings; one
    RelationResult per id, in order.

    Relations share their work: the smeared gradient of a (system, family,
    side) and the right-side density array of a (name, system) are each
    made once per call, and dropped after their last use.  A gradient holds
    the blocks its partners pair (see the module docstring).
    """
    unknown = [rid for rid in rel_ids if rid not in RELATIONS]
    if unknown:
        raise KeyError(f"unknown relation id {unknown[0]!r}")
    rels = [RELATIONS[rid] for rid in rel_ids]
    lat = point.lattice

    def sides(rel):
        return ((rel.system, rel.famA, "A"), (rel.system, rel.famB, "B"))

    def arrays(rel):
        return [(name, rel.system) for name in rel.operands if "(" in name]

    uses = Counter(key for rel in rels for key in (*sides(rel), *arrays(rel)))
    memo = {}

    def take(key, make):
        if key not in memo:
            memo[key] = make(*key)
        uses[key] -= 1
        return memo[key] if uses[key] else memo.pop(key)

    # each side's gradient is paired only in the blocks whose conjugate some
    # partner reads
    partner_reads = defaultdict(set)
    for rel in rels:
        side_a, side_b = sides(rel)
        partner_reads[side_a] |= _density(cm, rel.famB, rel.system).blocks
        partner_reads[side_b] |= _density(cm, rel.famA, rel.system).blocks

    def smeared(system, fam, side):
        t = make_test(family_shape(cm, fam), lat,
                      seed=seed * 7919 + (11 if side == "A" else 23))
        conj = _CONJUGATE[system]
        paired = {conj[b] for b in partner_reads[system, fam, side]
                  if b in conj}
        return t, smear(_density(cm, fam, system), t, lat).gradient(
            point.blocks, paired)

    def evaluated(name, system):
        return evaluate_density(_density(cm, name, system), point.blocks, lat)

    out = []
    for rel in rels:
        (tA, gA), (tB, gB) = (take(key, smeared) for key in sides(rel))
        lhs, size = bracket_size(gA, gB, _PAIRS[rel.system], lat.a)
        dens = {key[0]: take(key, evaluated) for key in arrays(rel)}
        rhs = _rhs(cm, rel, point, tA, tB, dens)
        out.append(RelationResult(rid=rel.rid, lhs=lhs, rhs=rhs,
                                  residual=abs(lhs - rhs), scale=1.0 + size))
    return out


def check_algebra_relation(cm, rel_id: str, point: PhasePoint,
                           seed: int = 0) -> RelationResult:
    """Evaluate one relation at a phase point with smooth smearings."""
    return relation_table(cm, (rel_id,), point, seed)[0]


# ---------------------------------------------------------------------------
# fundamental brackets
# ---------------------------------------------------------------------------

def fundamental_bracket_residuals(cm, point: PhasePoint, seed: int = 0) -> dict:
    """Reproduce the fundamental PB table: {q[f], p[g]} = a^3 sum f.g,
    all cross-block brackets zero.  Each smeared block is differentiated
    once and its gradient paired with every other."""
    lat = point.lattice
    rng = np.random.default_rng(seed)
    names = [n for pr in CANONICAL_PAIRS for n in pr]
    tests, grads = {}, {}
    for name in names:
        shape = point.blocks[name].shape[:-3]
        tests[name] = t = _random_recipe(rng, 3, shape, 1).realize(lat)
        dens = tensor_density(shape, (identity(shape), (name, len(shape), False)))
        grads[name] = smear(dens, t, lat).gradient(point.blocks)

    def bracket(na, nb):
        return pair_gradients(grads[na], grads[nb], CANONICAL_PAIRS, lat.a)

    worst_pair = worst_zero = 0.0
    for qb, pb in CANONICAL_PAIRS:
        tq, tp = tests[qb], tests[pb]
        expect = _vol_sum(lat, np.sum(tq * tp, axis=tuple(range(tq.ndim - 3))))
        worst_pair = float(np.max([worst_pair, abs(bracket(qb, pb) - expect)]))
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            if (na, nb) not in CANONICAL_PAIRS and (nb, na) not in CANONICAL_PAIRS:
                worst_zero = float(np.max([worst_zero, abs(bracket(na, nb))]))
    return {"conjugate": worst_pair, "cross": worst_zero}


# ---------------------------------------------------------------------------
# consistency conditions
# ---------------------------------------------------------------------------

# family bracketed with H_T -> its rows (label, density the bracket is
# compared to, None for zero), in row and test-seed order
_CONSISTENCY_ROWS = (
    *((row.primary, ((f"{row.primary} vs {row.completion}", row.completion),
                     (f"{row.primary} vs secondary", row.secondary)))
      for row in TEMPORAL),
    *((fam, ((f"{fam} preservation", None),)) for fam in SECOND_CLASS),
    *((fam, ((f"{fam} preservation (weak)", None),)) for fam in SECONDARIES),
)
_COMPLETIONS = {row.completion for row in TEMPORAL}


def consistency_residuals(cm, point: PhasePoint, seed: int = 0,
                          off_shell: bool = False) -> list:
    """Rows (label, residual) for every primary-constraint consistency bracket.

    Temporal primaries: {P[f], H_T} equals the first-class smearing exactly,
    and equals the secondary-constraint smearing wherever the second-class
    constraints vanish (in particular at on-shell points).  Spatial
    primaries: {chi[g], H_T} is an exact linear combination of second-class
    values, hence vanishes at on-shell points; the raw bracket is reported.
    Secondary rows report the raw bracket value {S[f], H_T} (identically
    zero for abelian modules).

    With off_shell, only the rows that hold at any point are formed: each
    temporal primary against its first-class completion.  A row's test
    field depends on its place among all the rows, so it is the same row
    either way.
    """
    lat = point.lattice
    g_ht = total_hamiltonian_functional(cm, lat).gradient(point.blocks)
    rows = []
    for i, (fam, targets) in enumerate(_CONSISTENCY_ROWS):
        if off_shell:
            targets = [(label, dens) for label, dens in targets
                       if dens in _COMPLETIONS]
            if not targets:
                continue
        t = make_test(family_shape(cm, fam), lat, seed=seed * 9176 + 101 * (i + 1))
        g_fn = smear(constraint_density(cm, fam), t, lat).gradient(point.blocks)
        br = pair_gradients(g_fn, g_ht, CANONICAL_PAIRS, lat.a)
        for label, dens in targets:
            val = 0.0 if dens is None else _vol_sum(lat, np.sum(
                t * evaluate_constraint(cm, dens, point),
                axis=tuple(range(t.ndim - 3))))
            rows.append((label, abs(br - val)))
    return rows


# ---------------------------------------------------------------------------
# off-shell dependencies of the first-class constraints
# ---------------------------------------------------------------------------

def offshell_relations(cm, point: PhasePoint) -> dict:
    """Residuals of the two off-shell dependency identities.

    Each identity pairs a divergence of first-class densities (plus
    second-class tails) against half the lambda=0 component of the
    corresponding Bianchi identity, the Bianchi 3-form on the spatial triple
    (0, 1, 2); both sides vanish in the continuum, and the difference
    vanishes exactly for abelian modules and at O(a^2) otherwise.
    """
    lat = point.lattice
    A = point.blocks["A"]
    be = point.blocks["be"]
    C = point.blocks["C"]
    B = point.blocks["B"]
    every = slice(0, lat.n)   # the whole spatial lattice is one slab

    def window(X):
        return slab_window(X, lat, every)

    # the spatial curvatures F and T are the curvature layer's at D = 3
    whole = Slab(lat, every, {"A": window(A), "C": window(C)})
    F3 = np.stack([_curvature_F_pair(cm, whole, P) for P in range(3)])
    T3 = np.stack([_curvature_T_pair(cm, whole, P) for P in range(3)])
    whole.windows.update(F=window(F3), T=window(T3))

    # each constraint array lives only while its terms are added, and each
    # sector's arrays go once it is reduced to its two floats
    def constraint(family):
        return evaluate_constraint(cm, family, point)

    chiB = constraint("chi(B)")

    # first dependency (g sector); f^c_{ab} as [a, b, c] is the coadjoint
    # coupling of a lowered g index
    f_abc = cm.f.transpose(1, 2, 0)
    phiH = constraint("phi(H)")
    lhs_a = sum(_cov_derivative(whole, f_abc, window(phiH[i]), i)
                for i in range(3))
    del phiH
    lhs_a += 0.5 * contract(cm.dup.T, constraint("phi(G)"))
    mix1 = np.einsum("ga,ged->ade", cm.dup, cm.actQ)
    for P in range(3):
        lhs_a += contract(mix1, be[P], chiB[P])
    for P in range(3):
        lhs_a += contract(f_abc, F3[P], chiB[P])
    rhs_a = 0.5 * _bianchi_g(cm, whole, (0, 1, 2))
    out = {"ra_residual": _maxabs(lhs_a - rhs_a),
           "ra_bianchi_norm": _maxabs(rhs_a)}
    del lhs_a, rhs_a

    # second dependency (h sector)
    # actmix = actlow . qfinv is the coupling of a lowered h index
    phiCB = constraint("phi(CB)")
    lhs_b = sum(_cov_derivative(whole, cm.actmix, window(phiCB[k]), k)
                for k in range(3))
    del phiCB
    lhs_b += contract(cm.del_, constraint("phi(BCbeta)"))
    del_f = np.einsum("xa,ead->xde", cm.del_, cm.f)
    phi_xbg = cm.phi.transpose(1, 2, 0)  # phi^g_{xb} as [x, b, g]
    actQ_xde = cm.actQ.transpose(0, 2, 1)  # actQ[x, e, d] as [x, d, e]
    chibe = constraint("chi(beta)")
    for P in range(3):
        lhs_b += contract(cm.actlow, F3[P], contract(cm.qfinv, chibe[P]))
        lhs_b -= contract(del_f, B[P], chiB[P])
        lhs_b -= contract(phi_xbg, be[P], chibe[P])
    del chibe
    chiC = constraint("chi(C)")
    for k in range(3):
        lhs_b -= contract(phi_xbg, C[k], chiC[k])
    del chiC
    for k in range(3):
        for m in range(3):
            if m == k:
                continue
            Pmk, sig = PIDX3[(m, k)]
            gradC = _cov_derivative(whole, cm.act, window(C[m]), k)
            lhs_b += sig * contract(actQ_xde, gradC, chiB[Pmk])
            covchi = _cov_derivative(whole, f_abc, window(chiB[Pmk]), k)
            lhs_b += sig * contract(actQ_xde, C[m], covchi)
    SH = constraint("S(H)")
    for k in range(3):
        for P in range(3):
            s = EPS3_PAIR[k, P]
            if s:
                lhs_b -= s * contract(cm.actlow, SH[P], C[k])
    del SH

    rhs_b = 0.5 * _bianchi_h(cm, whole, (0, 1, 2))
    out.update(rb_residual=_maxabs(lhs_b - rhs_b),
               rb_bianchi_norm=_maxabs(rhs_b))
    return out


def offshell_refinement(cm, n_list, seed: int = 0, mode_count: int = 1) -> dict:
    """offshell_relations of one random recipe on each n of n_list, in a
    box of extent 1; returns the spacings, residual and Bianchi-norm ladders
    and their all-rung fits."""
    recipe = make_phase_recipe(cm, mode_count, seed=seed * 433 + 7, rule="random")
    res_a, res_b, norm_a, norm_b, spac = [], [], [], [], []
    for n in n_list:
        lat = Lattice(D=3, n=n, a=1.0 / n)
        point = recipe.realize_with(cm, lat)
        out = offshell_relations(cm, point)
        res_a.append(out["ra_residual"])
        res_b.append(out["rb_residual"])
        norm_a.append(out["ra_bianchi_norm"])
        norm_b.append(out["rb_bianchi_norm"])
        spac.append(lat.a)
    return {
        "spacings": spac,
        "ra_residuals": res_a,
        "ra_order": fit_order(spac, res_a),
        "rb_residuals": res_b,
        "rb_order": fit_order(spac, res_b),
        "ra_bianchi_order": fit_order(spac, norm_a),
        "rb_bianchi_order": fit_order(spac, norm_b),
    }


# ---------------------------------------------------------------------------
# gauge-fixed reduction of the first-class constraints
# ---------------------------------------------------------------------------

def reduction_residual(cm, point: PhasePoint) -> float:
    """Impose chi = 0 and compare each phi density to its Sigma dual.

    Setting the second-class constraints to zero (spatial momenta on shell)
    must reduce phi(H), phi(G), phi(CB), phi(BCbeta) componentwise to the
    epsilon-dualized secondary densities.
    """
    reduced = point.copy()
    reduced.blocks.update(onshell_momenta(cm, reduced.blocks, point.lattice))
    worst = 0.0
    for row in TEMPORAL:
        diff = (evaluate_constraint(cm, row.completion, reduced)
                - evaluate_constraint(cm, row.secondary, reduced))
        worst = float(np.max([worst, _maxabs(diff)]))
    return worst
