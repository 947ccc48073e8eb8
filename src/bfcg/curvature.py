"""Curvatures, action, field equations, and Bianchi residuals on the lattice.

Component conventions (all verified by the identity suite):

  F^a_{mn}  = D_m A^a_n - D_n A^a_m + f^a_{bc} A^b_m A^c_n
  H^a_{mn}  = F^a_{mn} - del_al^a beta^al_{mn}                (fake curvature)
  G^al_{mnr} = d_[m beta^al_{nr]} + A^a_[m beta^g_{nr]} act^al_{ag}
  T^al_{mn} = covariant curl of C;   GB^a_{mnr} = like G with (f, B)

Three-form components use the unweighted 6-term antisymmetrization
sum_{p in S3} sgn(p) X_{p(mnr)}.  The action is

  S = a^4 sum_x eps^{mnrs} [ 1/4 B^a_{mn} H^b_{rs} Q_ab
                             + 1/6 C^al_m G^be_{nrs} q_{al be} ],

with eps^{0123} = +1.  With this normalization the stationarity conditions
read (verified against finite differences of S):

  dS/dA^a_s (x)      = -1/2 a^4 E_A[s, a](x),
      E_A = eps^{mnrs} ( nabla_m B_{a nr} + 2 beta^al_{mn} act_{al a be} C^be_r )
  dS/dbeta^al_{rs}(x) = 2 a^4 E_beta[(rs), al](x)   (stored pairs r < s),
      E_beta = eps^{mnrs} ( nabla^act_m C_{al n} - 1/4 del_al^a B_{a mn} )

The two 3-form Bianchi identities hold with the stored 6-term components as

  eps^{lmnr} ( 1/3 nabla_l GB^a_{mnr} - f^a_{bc} F^b_{lm} B^c_{nr} ) = 0
  eps^{lmnr} ( 1/3 nabla^act_l G^al_{mnr} - act^al_{ag} F^a_{lm} beta^g_{nr} ) = 0,

i.e. the usual 2/3 factor applies to 1/3!-normalized components, which are
half of the stored ones.
"""

from __future__ import annotations

import numpy as np

from .crossed_module import contract
from .lattice import (FieldConfiguration, discrete_derivative, eps4,
                      pair_index, pairs, triples)

__all__ = [
    "curvature_F",
    "fake_curvature",
    "curvature_G3",
    "curvature_T",
    "curvature_GB",
    "evaluate_action",
    "eom_residuals",
    "eom_gradient_check",
    "bianchi_residuals",
]


def _D(field, axis, lattice):
    return discrete_derivative(field, axis, lattice)


def _maxabs(arr) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _curvature_F_pair(cm, cfg, P) -> np.ndarray:
    """F^a on the stored pair P, shape (p, sites...)."""
    lat = cfg.lattice
    m, n = pairs(lat.D)[P]
    out = _D(cfg.A[n], m, lat) - _D(cfg.A[m], n, lat)
    out += contract(cm.f, cfg.A[m], cfg.A[n])
    return out


def _fake_curvature_pair(cm, cfg, P) -> np.ndarray:
    """H^a on the stored pair P, shape (p, sites...)."""
    out = _curvature_F_pair(cm, cfg, P)
    if cm.q:
        out -= np.einsum("ga,g...->a...", cm.del_, cfg.beta[P])
    return out


def curvature_F(cm, cfg: FieldConfiguration) -> np.ndarray:
    """F^a on ordered pairs, shape (npairs, p, sites...)."""
    out = np.empty_like(cfg.B)
    for P in range(out.shape[0]):
        out[P] = _curvature_F_pair(cm, cfg, P)
    return out


def fake_curvature(cm, cfg: FieldConfiguration) -> np.ndarray:
    """H^a_{mn} = F^a_{mn} - del_al^a beta^al_{mn}."""
    out = np.empty_like(cfg.B)
    for P in range(out.shape[0]):
        out[P] = _fake_curvature_pair(cm, cfg, P)
    return out


def _three_form_triple(cm, cfg, two_form, coupling, tri) -> np.ndarray:
    """S3-antisymmetrized covariant curl of a pair-stored 2-form on one triple.

    coupling[out, a, in] couples A^a to the 2-form's Lie index.  An odd
    permutation of (d, i, j) swaps the pair as well, so it repeats the term
    of an even one: the 6-term sum is twice the 3 cyclic terms.
    """
    lat = cfg.lattice
    pidx = pair_index(lat.D)
    dim_out = coupling.shape[0] if coupling.size else two_form.shape[1]
    out = np.zeros((dim_out,) + lat.shape)
    for perm in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        d, i, j = tri[perm[0]], tri[perm[1]], tri[perm[2]]
        P, psign = pidx[(i, j)]
        out += psign * _D(two_form[P], d, lat)
        if coupling.size:
            out += psign * contract(coupling, cfg.A[d], two_form[P])
    out *= 2.0
    return out


def _three_form(cm, cfg, two_form, coupling) -> np.ndarray:
    """The 3-form of _three_form_triple on every ordered triple."""
    trs = triples(cfg.lattice.D)
    dim_out = coupling.shape[0] if coupling.size else two_form.shape[1]
    out = np.empty((len(trs), dim_out) + cfg.lattice.shape)
    for Ti, tri in enumerate(trs):
        out[Ti] = _three_form_triple(cm, cfg, two_form, coupling, tri)
    return out


def curvature_G3(cm, cfg: FieldConfiguration) -> np.ndarray:
    """G^al_{mnr} on ordered triples (S3 6-term convention)."""
    return _three_form(cm, cfg, cfg.beta, cm.act)


def curvature_GB(cm, cfg: FieldConfiguration) -> np.ndarray:
    """GB^a_{mnr} = S3[ d B + f A B ] on ordered triples."""
    return _three_form(cm, cfg, cfg.B, cm.f)


def curvature_T(cm, cfg: FieldConfiguration) -> np.ndarray:
    """T^al_{mn} = covariant curl of C on ordered pairs."""
    lat = cfg.lattice
    out = np.empty_like(cfg.beta)
    for P, (m, n) in enumerate(pairs(lat.D)):
        dC = _D(cfg.C[n], m, lat) - _D(cfg.C[m], n, lat)
        out[P] = dC
        if cm.q:
            out[P] += contract(cm.act, cfg.A[m], cfg.C[n])
            out[P] -= contract(cm.act, cfg.A[n], cfg.C[m])
    return out


# ---------------------------------------------------------------------------
# epsilon bookkeeping for D = 4
# ---------------------------------------------------------------------------

def _pair_pair_signs():
    """Disjoint stored-pair combinations (P, P') with eps^{m n r s}."""
    P4 = pairs(4)
    out = []
    for Pi, (m, n) in enumerate(P4):
        for Pj, (r, s) in enumerate(P4):
            e = eps4((m, n, r, s))
            if e:
                out.append((Pi, Pj, e))
    return out


def _axis_triple_signs():
    """(axis, complementary stored triple, eps^{axis, t0, t1, t2})."""
    T4 = triples(4)
    out = []
    for mu in range(4):
        tri = tuple(ax for ax in range(4) if ax != mu)
        Ti = T4.index(tri)
        out.append((mu, Ti, eps4((mu,) + tri)))
    return out


_PP4 = _pair_pair_signs()
_AT4 = _axis_triple_signs()


def evaluate_action(cm, cfg: FieldConfiguration) -> float:
    """BFCG action S on a D=4 periodic lattice.

    H is formed one stored pair and G one stored triple at a time, each
    contracted into the density at once, so the working set is a few site
    arrays whatever the lattice size.
    """
    lat = cfg.lattice
    if lat.D != 4:
        raise ValueError("the action is defined on D=4 configurations")
    dens = np.zeros(lat.shape)
    for Pi, Pj, e in _PP4:
        H = _fake_curvature_pair(cm, cfg, Pj)
        dens += e * np.einsum("a...,ab,b...->...", cfg.B[Pi], cm.Q, H)
    if cm.q:
        T4 = triples(4)
        for mu, Ti, e in _AT4:
            G = _three_form_triple(cm, cfg, cfg.beta, cm.act, T4[Ti])
            dens += e * np.einsum("x...,xy,y...->...", cfg.C[mu], cm.qf, G)
    return float(lat.volume_element * np.sum(dens))


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------

def _cov_D_g_lower(cm, cfg, field_low, up_field, axis):
    """nabla_axis X_a = D X_a + f_{abc} A^b X^c for Q-lowered g fields."""
    lat = cfg.lattice
    out = _D(field_low, axis, lat)
    out += contract(cm.flow, cfg.A[axis], up_field)
    return out


def _cov_D_h_lower(cm, cfg, field_low, up_field, axis):
    """nabla^act_axis X_al = D X_al + A^a act_{al a g} X^g."""
    lat = cfg.lattice
    out = _D(field_low, axis, lat)
    if cm.q:
        out += contract(cm.actlow, cfg.A[axis], up_field)
    return out


def eom_residuals(cm, cfg: FieldConfiguration) -> dict:
    """Field-equation data: curvature norms and the multiplier equations.

    Returns max-abs of H and G (the B/C stationarity conditions) and the
    two epsilon-contracted expressions E_A, E_beta described in the module
    docstring, whose vanishing is the A/beta stationarity.
    """
    lat = cfg.lattice
    if lat.D != 4:
        raise ValueError("equations of motion are defined on D=4 configurations")
    P4 = pairs(4)
    H = fake_curvature(cm, cfg)
    G3 = curvature_G3(cm, cfg) if cm.q else np.zeros((4, 0) + lat.shape)

    B_low = np.einsum("ab,Pb...->Pa...", cm.Q, cfg.B)
    C_low = (np.einsum("xy,my...->mx...", cm.qf, cfg.C)
             if cm.q else cfg.C)

    E_A = np.zeros((4, cm.p) + lat.shape)
    actlow_a = cm.actlow.transpose(1, 0, 2)  # [a, al, be]
    for sig in range(4):
        for mu in range(4):
            for P, (n, r) in enumerate(P4):
                e = eps4((mu, n, r, sig))
                if not e:
                    continue
                E_A[sig] += 2.0 * e * _cov_D_g_lower(cm, cfg, B_low[P], cfg.B[P], mu)
        if cm.q:
            for P, (m, n) in enumerate(P4):
                for rho in range(4):
                    e = eps4((m, n, rho, sig))
                    if not e:
                        continue
                    E_A[sig] += 4.0 * e * contract(
                        actlow_a, cfg.beta[P], cfg.C[rho])

    E_beta = np.zeros((len(P4), cm.q) + lat.shape)
    if cm.q:
        for P, (r, s) in enumerate(P4):
            for mu in range(4):
                for nu in range(4):
                    e = eps4((mu, nu, r, s))
                    if not e:
                        continue
                    E_beta[P] += e * _cov_D_h_lower(cm, cfg, C_low[nu], cfg.C[nu], mu)
            for Pp, (m, n) in enumerate(P4):
                e = eps4((m, n, r, s))
                if not e:
                    continue
                E_beta[P] -= 0.5 * e * np.einsum("xb,b...->x...", cm.dlow, cfg.B[Pp])

    return {
        "H_norm": _maxabs(H),
        "G_norm": _maxabs(G3),
        "E_A": E_A,
        "E_beta": E_beta,
        "E_A_norm": _maxabs(E_A),
        "E_beta_norm": _maxabs(E_beta),
    }


def eom_gradient_check(cm, cfg: FieldConfiguration, n_samples: int = 24,
                       step: float = 1e-6, seed: int = 0) -> float:
    """Max relative error between E_A/E_beta and finite differences of S.

    Central differences in randomly sampled entries of A and beta are
    compared against -1/2 a^4 E_A and 2 a^4 E_beta.  The reduction is
    np.max, so a NaN error (a NaN action) is returned, never dropped.
    """
    lat = cfg.lattice
    res = eom_residuals(cm, cfg)
    rng = np.random.default_rng(seed)
    a4 = lat.volume_element
    worst = 0.0

    def _fd(field_name, idx):
        work = cfg.copy()
        arr = getattr(work, field_name)
        arr[idx] += step
        s_plus = evaluate_action(cm, work)
        arr[idx] -= 2 * step
        s_minus = evaluate_action(cm, work)
        return (s_plus - s_minus) / (2 * step)

    scale = max(1.0, float(np.max(np.abs(res["E_A"]))) * a4)
    for _ in range(n_samples):
        mu = rng.integers(0, 4)
        a = rng.integers(0, cm.p)
        site = tuple(rng.integers(0, lat.n, size=4))
        fd = _fd("A", (mu, a) + site)
        analytic = -0.5 * a4 * res["E_A"][(mu, a) + site]
        worst = float(np.max([worst, abs(fd - analytic) / scale]))
    if cm.q:
        scale_b = max(1.0, float(np.max(np.abs(res["E_beta"]))) * a4)
        for _ in range(n_samples):
            P = rng.integers(0, len(pairs(4)))
            al = rng.integers(0, cm.q)
            site = tuple(rng.integers(0, lat.n, size=4))
            fd = _fd("beta", (P, al) + site)
            analytic = 2.0 * a4 * res["E_beta"][(P, al) + site]
            worst = float(np.max([worst, abs(fd - analytic) / scale_b]))
    return worst


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def bianchi_residuals(cm, cfg: FieldConfiguration) -> dict:
    """Max-abs residuals of the four lattice Bianchi identities."""
    lat = cfg.lattice
    if lat.D != 4:
        raise ValueError("Bianchi residuals are defined on D=4 configurations")
    P4 = pairs(4)
    F = curvature_F(cm, cfg)
    F_low = np.einsum("ab,Pb...->Pa...", cm.Q, F)
    # each identity is reduced to its max as soon as it is formed, and its
    # intermediates are released, so at most one identity's arrays are live
    out = {}

    # eps^{lmnr} nabla_m F_{a nr} = 0
    R1 = np.zeros((4, cm.p) + lat.shape)
    for lam in range(4):
        for mu in range(4):
            for P, (n, r) in enumerate(P4):
                e = eps4((lam, mu, n, r))
                if not e:
                    continue
                R1[lam] += 2.0 * e * _cov_D_g_lower(cm, cfg, F_low[P], F[P], mu)
    out["bianchi_F"] = _maxabs(R1)
    del R1, F_low

    # eps^{lmnr} ( nabla^act_m T_{al nr} - act_{al a be} F^a_{mn} C^be_r ) = 0
    R2 = np.zeros((4, cm.q) + lat.shape)
    if cm.q:
        T = curvature_T(cm, cfg)
        T_low = np.einsum("xy,Py...->Px...", cm.qf, T)
        for lam in range(4):
            for mu in range(4):
                for P, (n, r) in enumerate(P4):
                    e = eps4((lam, mu, n, r))
                    if not e:
                        continue
                    R2[lam] += 2.0 * e * _cov_D_h_lower(cm, cfg, T_low[P], T[P], mu)
            for P, (m, n) in enumerate(P4):
                for rho in range(4):
                    e = eps4((lam, m, n, rho))
                    if not e:
                        continue
                    R2[lam] -= 2.0 * e * contract(cm.actlow, F[P], cfg.C[rho])
        del T, T_low
    out["bianchi_T"] = _maxabs(R2)
    del R2

    # eps^{lmnr} ( 1/3 nabla_l GB_{mnr} - f F_{lm} B_{nr} ) = 0 (Q-lowered)
    GB = curvature_GB(cm, cfg)
    GB_low = np.einsum("ab,Tb...->Ta...", cm.Q, GB)
    R3 = np.zeros((cm.p,) + lat.shape)
    for lam, Ti, e in _AT4:
        R3 += 2.0 * e * _cov_D_g_lower(cm, cfg, GB_low[Ti], GB[Ti], lam)
    for Pi, Pj, e in _PP4:
        R3 -= 4.0 * e * contract(cm.flow, F[Pi], cfg.B[Pj])
    out["bianchi_GB"] = _maxabs(R3)
    del R3, GB, GB_low

    # eps^{lmnr} ( 1/3 nabla^act_l G_{mnr} - act F_{lm} beta_{nr} ) = 0
    R4 = np.zeros((cm.q,) + lat.shape)
    if cm.q:
        G3 = curvature_G3(cm, cfg)
        G3_low = np.einsum("xy,Ty...->Tx...", cm.qf, G3)
        for lam, Ti, e in _AT4:
            R4 += 2.0 * e * _cov_D_h_lower(cm, cfg, G3_low[Ti], G3[Ti], lam)
        for Pi, Pj, e in _PP4:
            R4 -= 4.0 * e * contract(cm.actlow, F[Pi], cfg.beta[Pj])
    out["bianchi_G"] = _maxabs(R4)
    return out
