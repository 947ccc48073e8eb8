"""Constraint densities, Hamiltonians, and Lagrange multipliers.

Every density is stated once, at tensor level, as a list of terms

    (coefficient tensor, factor, factor, ...)

expanded into component monomials by localpoly.tensor_density only: H_c and
H_T (_product) and the gauge-fixed densities (_gauge_fix) are composed from
terms too.  A factor is a phase-space block of phase.PhasePoint, written
"X", or "dX" for its central difference; the coefficient axes are the free
components, then per factor its derivative axis (for "dX") and its
component axes.  Coefficients are np.einsum products of the structure
tensors of a crossed module with the spatial constants of bfcg.lattice:
EPS3_PAIR[i, P] = eps^{ijk} for the stored pair P = (j, k), j < k;
PAIR[P, j, k] = +1 on the stored order, -1 reversed; and eye(3).

Families (free components in brackets; Lie indices on momenta and on all
phi/chi densities are lowered):

  primary        P(B)^{0i} [i,a]   P(B)^{jk} [P,a]   P(C)^0 [al]  P(C)^k [k,al]
                 P(A)^0 [a]        P(A)^i [i,a]      P(beta)^{0i} [i,al]
                 P(beta)^{jk} [P,al]
  secondary      S(H)^a_{jk} [P,a] (upper a),  S(G)^al [al] (upper),
                 S(CB)_{al ij} [P,al],         S(BCbeta)_a [a]
  first class    phi(B) phi(C) phi(beta) phi(A) = temporal primaries, and

    phi(H)_a^i   = 1/2 eps^{ijk} S(H)_{a jk} - nabla_j P(B)_a^{ij}
                   - del^al_a P(C)_al^i
    phi(G)_al    = S(G)_al + 2 nabla^act_k P(C)_al^k
                   - beta^de_{mn} act_al^e_de P(B)_e^{mn}        (all pairs)
    phi(CB)_al^k = 1/2 eps^{ijk} S(CB)_{al ij} + nabla^act_j P(beta)_al^{jk}
                   - del_al^a P(A)_a^k - C^de_m act_al^e_de P(B)_e^{mk}
    phi(BCb)_a   = S(BCbeta)_a + nabla_i P(A)_a^i
                   + 1/2 f^e_{ad} B^d_{mn} P(B)_e^{mn}           (all pairs)
                   + C^g_k act^al_{ag} P(C)_al^k
                   + 1/2 beta^be_{jk} act^al_{a be} P(beta)_al^{jk}

  second class   chi(B), chi(C), chi(A), chi(beta) = spatial primaries.

The canonical Hamiltonian is the velocity-free form

  H_c = - sum_x [ 1/2 eps^{ijk} B_{a 0i} S(H)^a_{jk} + C_{al 0} S(G)^al
                  + 1/2 eps^{ijk} beta^al_{0k} S(CB)_{al ij}
                  + A^a_0 S(BCbeta)_a ] a^3,

a term list (_H_c) that H_T is composed from, not a registry density; and
the determined multipliers (solving the spatial-primary consistency
conditions exactly on the lattice; registry densities, so
evaluate_constraint(cm, "lam(A)", point) gives lam(A) per site) are

  lam(A)^a_i     = nabla_i A^a_0 + del_g^a beta^g_{0i}
  lam(beta)^al_{ij} = nabla^act_[i beta^al_{0 j]} - act^al_{a be} A^a_0 beta^be_{ij}
  lam(C)^al_k    = 2 nabla^act_k C^al_0 + del^al_a B^a_{0k}
                   - act^al_{ag} A^a_0 C^g_k
  lam(B)^a_{ij}  = nabla_[i B^a_{0 j]} + 2 C_{g0} act^{g a}_de beta^de_{ij}
                   + act_g^a_de ( C^de_i beta^g_{0j} - C^de_j beta^g_{0i} )
                   - f^a_{bd} A^b_0 B^d_{ij}.

With these definitions H_T regroups exactly (a lattice identity, tested) as

  H_T = int [ lam(B)_{0i} phi(B)^i + lam(C)_0 phi(C) + lam(beta)_{0i} phi(beta)^i
              + lam(A)_0 phi(A) - B^a_{0i} phi(H)_a^i - C^al_0 phi(G)_al
              - beta^al_{0k} phi(CB)_al^k - A^a_0 phi(BCb)_a ].
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .lattice import EPS3_PAIR, PAIR, Lattice
from .localpoly import (Density, LocalFunctional, evaluate_density, identity,
                        smear, tensor_density)
from .phase import (COORD_BLOCKS, PhasePoint, block_shapes, component_shape,
                    onshell_map)

__all__ = [
    "constraint_density",
    "family_shape",
    "FAMILIES",
    "TEMPORAL",
    "SECONDARIES",
    "FIRST_CLASS",
    "SECOND_CLASS",
    "evaluate_constraint",
    "gauge_fixed_density",
    "total_hamiltonian_functional",
    "regrouping_residual",
]

E3 = EPS3_PAIR
I3 = np.eye(3)
_RANK = {block: len(shape) for block, shape in block_shapes(1, 1).items()}


def _factor(spec):
    """'X' is block X, 'dX' its central difference: (block, rank, deriv)."""
    block = spec[1:] if spec.startswith("d") else spec
    return (block, _RANK[block], block != spec)


def _momentum(block):
    """Registry entry of the bare momentum density pi(X) of block X."""
    code = COORD_BLOCKS[block]
    return code, lambda cm: [(identity(component_shape(code, cm.p, cm.q)),
                              "p" + block)]


def _eps_dual(terms):
    """1/2 eps^{ijk} X_{jk} of terms whose first free axis is a stored pair."""
    return [(np.einsum("iP,P...->i...", E3, c), *fs) for c, *fs in terms]


def _product(a_terms, b_terms):
    """Scalar terms sum_free a[free] b[free]: coefficients of two term lists
    with the same free axes contracted over them, factor lists joined."""
    out = []
    for ca, *fa in a_terms:
        free = list(range(ca.ndim - sum(r + d for _, r, d in map(_factor, fa))))
        out += [(np.tensordot(ca, cb, axes=(free, free)), *fa, *fb)
                for cb, *fb in b_terms]
    return out


# ---------------------------------------------------------------------------
# primary and secondary constraints
# ---------------------------------------------------------------------------

def _chi_A(cm):
    """P(A)_a^i = pi(A)_a^i - 1/2 eps^{ijk} Q_ab B^b_jk = pi(A) - M . B,
    with M the on-shell map of phase.onshell_map."""
    return [(identity((3, cm.p)), "pA"), (-onshell_map(cm)["pA"][1], "B")]


def _chi_beta(cm):
    """P(beta)_al^{jk} = pi(beta)_al^{jk} + eps^{ljk} q_{al be} C^be_l
    = pi(beta) - M . C, with M the on-shell map of phase.onshell_map."""
    return [(identity((3, cm.q)), "pbe"), (-onshell_map(cm)["pbe"][1], "C")]


def _S_H(cm, lowered):
    """S(H)^a_jk = D_j A^a_k - D_k A^a_j + f^a_bc A^b_j A^c_k
    - del_al^a beta^al_jk, or its Q-lowered form (Q, flow, dlow)."""
    met, f, d = ((cm.Q, cm.flow, cm.dlow) if lowered
                 else (np.eye(cm.p), cm.f, cm.del_))
    return [(np.einsum("Pdk,ab->Padkb", PAIR, met), "dA"),
            (0.5 * np.einsum("Pjk,abc->Pajbkc", PAIR, f), "A", "A"),
            (-np.einsum("PQ,xa->PaQx", I3, d), "be")]


def _S_G(cm, lowered):
    """S(G)^al = eps^{ijk} (D_i beta^al_jk + act^al_{a ga} A^a_i beta^ga_jk),
    or its q-lowered form (qf, actlow)."""
    met, act = (cm.qf, cm.actlow) if lowered else (np.eye(cm.q), cm.act)
    return [(2 * np.einsum("iP,xy->xiPy", E3, met), "dbe"),
            (2 * np.einsum("iP,xag->xiaPg", E3, act), "A", "be")]


def _S_CB(cm):
    """S(CB)_{al jk} = q_{al be} (D_j C^be_k - D_k C^be_j)
    + act_{al a ga} (A^a_j C^ga_k - A^a_k C^ga_j) - del_{al b} B^b_jk."""
    return [(np.einsum("Pdk,xy->Pxdky", PAIR, cm.qf), "dC"),
            (np.einsum("Pjk,xag->Pxjakg", PAIR, cm.actlow), "A", "C"),
            (-np.einsum("PQ,xb->PxQb", I3, cm.dlow), "B")]


def _S_BCb(cm):
    """S(BCbeta)_a = 1/2 eps^{ijk} (Q_ab D_i B^b_jk + f_{abc} A^b_i B^c_jk
    - act_{ga a be} C^ga_i beta^be_jk)."""
    return [(np.einsum("iP,ab->aiPb", E3, cm.Q), "dB"),
            (np.einsum("iP,abc->aibPc", E3, cm.flow), "A", "B"),
            (-np.einsum("iP,gab->aigPb", E3, cm.actlow), "C", "be")]


# ---------------------------------------------------------------------------
# first-class completions
# ---------------------------------------------------------------------------

def _phi_H(cm):
    return _eps_dual(_S_H(cm, lowered=True)) + [
        (-np.einsum("Pid,ac->iadPc", PAIR, np.eye(cm.p)), "dpB"),
        (-np.einsum("Pij,cab->iajbPc", PAIR, cm.f), "A", "pB"),
        (-np.einsum("ik,ga->iakg", I3, cm.dup), "pC")]


def _phi_G(cm):
    return _S_G(cm, lowered=True) + [
        (2 * np.einsum("dk,xy->xdky", I3, np.eye(cm.q)), "dpC"),
        (2 * np.einsum("jk,xad->xjakd", I3, cm.actmix), "A", "pC"),
        (-2 * np.einsum("PQ,xed->xPdQe", I3, cm.actQ), "be", "pB")]


def _phi_CB(cm):
    return _eps_dual(_S_CB(cm)) + [
        (np.einsum("Pdk,xy->kxdPy", PAIR, np.eye(cm.q)), "dpbe"),
        (np.einsum("Pdk,lP,xy->kxdly", PAIR, E3, cm.qf), "dC"),
        (np.einsum("Pjk,xad->kxjaPd", PAIR, cm.actmix), "A", "pbe"),
        (np.einsum("Pjk,lP,xag->kxjalg", PAIR, E3, cm.actlow), "A", "C"),
        (-np.einsum("kj,xa->kxja", I3, cm.del_), "pA"),
        (np.einsum("kP,xb->kxPb", E3, cm.dlow), "B"),
        (-np.einsum("Pmk,xed->kxmdPe", PAIR, cm.actQ), "C", "pB")]


def _phi_BCb(cm):
    return _S_BCb(cm) + [
        (np.einsum("di,ab->adib", I3, np.eye(cm.p)), "dpA"),
        (-np.einsum("dP,ab->adPb", E3, cm.Q), "dB"),
        (np.einsum("ij,cab->aibjc", I3, cm.f), "A", "pA"),
        (-np.einsum("iP,cab,cd->aibPd", E3, cm.f, cm.Q), "A", "B"),
        (np.einsum("PQ,ead->aPdQe", I3, cm.f), "B", "pB"),
        (np.einsum("kl,xag->akglx", I3, cm.act), "C", "pC"),
        (np.einsum("PQ,xab->aPbQx", I3, cm.act), "be", "pbe"),
        (np.einsum("xab,lP,xg->aPblg", cm.act, E3, cm.qf), "be", "C")]


# ---------------------------------------------------------------------------
# canonical Hamiltonian and determined multipliers
# ---------------------------------------------------------------------------

def _H_c(cm):
    return (_product([(-np.einsum("iP,ab->Paib", E3, cm.Q), "B0")],
                     _S_H(cm, lowered=False))
            + _product([(-cm.qf, "C0")], _S_G(cm, lowered=False))
            + _product([(-np.einsum("kP,xy->Pxky", E3, np.eye(cm.q)), "be0")],
                       _S_CB(cm))
            + _product([(-np.eye(cm.p), "A0")], _S_BCb(cm)))


def _H_T(cm):
    """H_c plus every determined multiplier times its spatial primary."""
    return _H_c(cm) + [t for lam, prim in _LAM_PRIMARY for t in _product(
        _REGISTRY[lam][1](cm), _REGISTRY[prim][1](cm))]


def _lam_A(cm):
    return [(np.einsum("di,ab->iadb", I3, np.eye(cm.p)), "dA0"),
            (np.einsum("ij,abc->iajbc", I3, cm.f), "A", "A0"),
            (np.einsum("ij,ga->iajg", I3, cm.del_), "be0")]


def _lam_beta(cm):
    return [(np.einsum("Pdk,xy->Pxdky", PAIR, np.eye(cm.q)), "dbe0"),
            (np.einsum("Pjk,xag->Pxjakg", PAIR, cm.act), "A", "be0"),
            (-np.einsum("PQ,xab->PxaQb", I3, cm.act), "A0", "be")]


def _lam_C(cm):
    return [(2 * np.einsum("dk,xy->kxdy", I3, np.eye(cm.q)), "dC0"),
            (2 * np.einsum("kj,xag->kxjag", I3, cm.act), "A", "C0"),
            (-np.einsum("kj,xag->kxajg", I3, cm.act), "A0", "C"),
            (np.einsum("kj,xa->kxja", I3, cm.dup), "B0")]


def _lam_B(cm):
    return [(np.einsum("Pdn,ab->Padnb", PAIR, np.eye(cm.p)), "dB0"),
            (np.einsum("Pmn,abc->Pambnc", PAIR, cm.f), "A", "B0"),
            (2 * np.einsum("PQ,ead->PaeQd", I3, cm.actQ), "C0", "be"),
            (np.einsum("Pmn,gad->Pamdng", PAIR, cm.actQ), "C", "be0"),
            (-np.einsum("PQ,abd->PabQd", I3, cm.f), "A0", "B")]


# ---------------------------------------------------------------------------
# registry: name -> (free-component shape, tensor terms)
# ---------------------------------------------------------------------------

_REGISTRY = {
    "P(B)_0i": _momentum("B0"),
    "P(B)_jk": _momentum("B"),
    "P(C)_0": _momentum("C0"),
    "P(C)_k": _momentum("C"),
    "P(A)_0": _momentum("A0"),
    "P(A)_i": ("3p", _chi_A),
    "P(beta)_0i": _momentum("be0"),
    "P(beta)_jk": ("3q", _chi_beta),
    "S(H)": ("3p", lambda cm: _S_H(cm, lowered=False)),
    "S(H)_dual": ("3p", lambda cm: _eps_dual(_S_H(cm, lowered=True))),
    "S(G)": ("q", lambda cm: _S_G(cm, lowered=False)),
    "S(G)_low": ("q", lambda cm: _S_G(cm, lowered=True)),
    "S(CB)": ("3q", _S_CB),
    "S(CB)_dual": ("3q", lambda cm: _eps_dual(_S_CB(cm))),
    "S(BCbeta)": ("p", _S_BCb),
    "phi(H)": ("3p", _phi_H),
    "phi(G)": ("q", _phi_G),
    "phi(CB)": ("3q", _phi_CB),
    "phi(BCbeta)": ("p", _phi_BCb),
    "lam(A)": ("3p", _lam_A),
    "lam(beta)": ("3q", _lam_beta),
    "lam(C)": ("3q", _lam_C),
    "lam(B)": ("3p", _lam_B),
    "H_T": ("", _H_T),
}


# ---------------------------------------------------------------------------
# the Dirac classification
# ---------------------------------------------------------------------------

# temporal block -> its momentum primary -> the first-class completion of the
# secondary it generates -> what that reduces to at chi = 0; consistency order
Temporal = namedtuple("Temporal", "block primary completion secondary")
TEMPORAL = (
    Temporal("B0", "P(B)_0i", "phi(H)", "S(H)_dual"),
    Temporal("C0", "P(C)_0", "phi(G)", "S(G)_low"),
    Temporal("be0", "P(beta)_0i", "phi(CB)", "S(CB)_dual"),
    Temporal("A0", "P(A)_0", "phi(BCbeta)", "S(BCbeta)"),
)
_PRIMARIES = tuple(name for name in _REGISTRY if name.startswith("P("))
SECONDARIES = ("S(H)", "S(G)", "S(CB)", "S(BCbeta)")


def _class_name(primary):
    """P(X)_... under its class name: phi(X) if temporal, else chi(X)."""
    temporal = primary in {row.primary for row in TEMPORAL}
    return ("phi" if temporal else "chi") + primary[1:primary.index(")") + 1]


_REGISTRY.update({_class_name(name): _REGISTRY[name] for name in _PRIMARIES})

# first class: temporal primaries and completions; second: spatial primaries
FIRST_CLASS = (*(_class_name(row.primary) for row in TEMPORAL),
               *(row.completion for row in TEMPORAL))
SECOND_CLASS = tuple(name for name in map(_class_name, _PRIMARIES)
                     if name not in FIRST_CLASS)

FAMILIES = _PRIMARIES + SECONDARIES + FIRST_CLASS + SECOND_CLASS

# determined multiplier family -> the spatial primary it multiplies in H_T
_LAM_PRIMARY = (("lam(A)", "P(A)_i"), ("lam(beta)", "P(beta)_jk"),
                ("lam(C)", "P(C)_k"), ("lam(B)", "P(B)_jk"))


def family_shape(cm, name: str) -> tuple:
    """Free-component shape of a registered density (reads cm.p, cm.q)."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown constraint family {name!r}")
    return component_shape(_REGISTRY[name][0], cm.p, cm.q)


def _expand(cm, name: str, gauge_fixed: bool) -> Density:
    """Expand the tensor terms of a registered family once per module; a
    primary and its class alias share one registry entry and one expansion."""
    shape = family_shape(cm, name)
    key = ("gf_density" if gauge_fixed else "density", _REGISTRY[name])
    if key not in cm._cache:
        terms = _REGISTRY[name][1](cm)
        terms = _gauge_fix(cm, terms) if gauge_fixed else terms
        cm._cache[key] = tensor_density(
            shape, *[(c, *map(_factor, fs)) for c, *fs in terms])
    return cm._cache[key]


def constraint_density(cm, name: str) -> Density:
    """Compressed monomial density of a registered family, cached per module.

    Besides FAMILIES this builds S(G)_low, the epsilon duals S(H)_dual
    (Q-lowered) and S(CB)_dual, 1/2 eps^{ijk} S_{jk}, that phi(H) and
    phi(CB) start from, the determined multipliers lam(A), lam(beta),
    lam(C), lam(B) and H_T (without its free temporal multipliers).
    """
    return _expand(cm, name, gauge_fixed=False)


def evaluate_constraint(cm, family: str, point: PhasePoint) -> np.ndarray:
    """Per-site values of a constraint density at a phase point."""
    dens = constraint_density(cm, family)
    return evaluate_density(dens, point.blocks, point.lattice)


# ---------------------------------------------------------------------------
# gauge-fixed substitution (section-4 picture)
# ---------------------------------------------------------------------------

def _gauge_fix(cm, terms):
    """Contract the component axes of every B, dB, C and dC factor of the
    terms with the inverse of its block's on-shell map (phase.onshell_map)
    as a matrix, giving pA, dpA, pbe and dpbe factors."""
    subs = {}
    for mom, (block, M) in onshell_map(cm).items():
        n = M.shape[0] * M.shape[1]
        subs[block] = (mom, np.linalg.inv(M.reshape(n, n)).reshape(
            M.shape[2:] + M.shape[:2]))
    out = []
    for c, *specs in terms:
        pos = c.ndim - sum(r + d for _, r, d in map(_factor, specs))
        for k, spec in enumerate(specs):
            block, rank, deriv = _factor(spec)
            pos += deriv
            if block in subs:
                mom, T = subs[block]
                c = np.moveaxis(np.tensordot(c, T, axes=([pos, pos + 1], [0, 1])),
                                [-2, -1], [pos, pos + 1])
                specs[k] = spec[:-len(block)] + mom
            pos += rank
        out.append((c, *specs))
    return out


def gauge_fixed_density(cm, name: str) -> Density:
    """Rewrite a density on the (A, beta; pi(A), pi(beta)) phase space.

    The eliminated fields are B_{a jk} = eps_{jkl} pi(A)_a^l and
    C_{al k} = -1/2 eps_{kmn} pi(beta)_al^{mn}; upper-index occurrences pick
    up the inverse metrics.  Cached per module.
    """
    return _expand(cm, name, gauge_fixed=True)


# ---------------------------------------------------------------------------
# Hamiltonians and multipliers
# ---------------------------------------------------------------------------

def _free_multipliers(cm, lattice: Lattice, lamA0, lamB0, lamC0, lambe0):
    """(temporal row, per-site weight) of each free temporal multiplier given,
    in argument order; a weight whose shape is not comp + lattice.shape of
    the row's primary raises ValueError."""
    rows = {row.block: row for row in TEMPORAL}
    given = [(rows[block], np.asarray(arr, dtype=float)) for block, arr in zip(
        ("A0", "B0", "C0", "be0"), (lamA0, lamB0, lamC0, lambe0))
        if arr is not None]
    for row, arr in given:
        full = family_shape(cm, row.primary) + lattice.shape
        if arr.shape != full:
            raise ValueError(f"free multiplier has shape {arr.shape}, "
                             f"expected {full}")
    return given


def total_hamiltonian_functional(cm, lattice: Lattice, lamA0=None, lamB0=None,
                                 lamC0=None, lambe0=None) -> LocalFunctional:
    """H_T = H_c + sum of multiplier terms as one local functional.

    Spatial multipliers are phase-space polynomials, multiplied into the
    density H_T at tensor level, so brackets with H_T see their field
    dependence exactly; temporal multipliers enter as fixed weight arrays.
    """
    entries = list(smear(constraint_density(cm, "H_T"), None, lattice).entries)
    for row, weight in _free_multipliers(cm, lattice, lamA0, lamB0, lamC0,
                                         lambe0):
        entries += smear(constraint_density(cm, row.primary), weight,
                         lattice).entries
    return LocalFunctional(lattice, entries)


def regrouping_residual(cm, point: PhasePoint, lamA0=None, lamB0=None,
                        lamC0=None, lambe0=None) -> float:
    """|H_T - (free-multiplier terms - temporal fields . first-class)|.

    This lattice identity ties together H_c, the determined multipliers and
    every first-class density; it holds to machine precision.
    """
    lat, blocks = point.lattice, point.blocks
    ht = total_hamiltonian_functional(cm, lat, lamA0, lamB0, lamC0,
                                      lambe0).value(blocks)
    rhs = 0.0
    for row in TEMPORAL:
        rhs -= float(np.sum(blocks[row.block]
                            * evaluate_constraint(cm, row.completion, point)))
    for row, weight in _free_multipliers(cm, lat, lamA0, lamB0, lamC0, lambe0):
        rhs += float(np.sum(weight * blocks["p" + row.block]))
    return abs(ht - lat.a ** 3 * rhs)
