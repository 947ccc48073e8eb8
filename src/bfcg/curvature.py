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

The four Bianchi identities are, with the stored 6-term components,

  R1 = eps^{lmnr} nabla_m F_{a nr} = 0
  R2 = eps^{lmnr} ( nabla^act_m T_{al nr} - act_{al a be} F^a_{mn} C^be_r ) = 0
  R3 = eps^{lmnr} ( 1/3 nabla_l GB^a_{mnr} - f^a_{bc} F^b_{lm} B^c_{nr} ) = 0
  R4 = eps^{lmnr} ( 1/3 nabla^act_l G^al_{mnr} - act^al_{ag} F^a_{lm} beta^g_{nr} ) = 0,

i.e. the usual 2/3 factor applies to 1/3!-normalized components, which are
half of the stored ones.

Every epsilon contraction is built from three helpers on a stored pair or
triple: the covariant derivative nabla_m X = D_m X + c(A_m, X) with c = f or
act; the covariant curl d_A X|_T = sum_{p in S3} sgn(p) nabla_d X_{ij},
(d, i, j) = p(T), of a pair-stored 2-form; and the wedge

  W(c; X, Y)|_T = 2 sum_{cyclic (d, i, j) of T} sgn(i, j) c(X_{ij}, Y_d).

With T_l the stored triple complementary to the axis l, and P' the stored
pair complementary to P, the free index of each 4D sum picks one triple or
pair, and

  R1[l]     = eps^{l T_l} Q . d_A F |_{T_l}
  R2[l]     = eps^{l T_l} ( q . d_A T - W(actlow; F, C) ) |_{T_l}
  E_A[s]    = -eps^{s T_s} ( Q . d_A B + 2 W(actlow^T; beta, C) ) |_{T_s}
  E_beta[P] = eps^{P' P} ( q . T[P'] - 1/2 dlow . B[P'] ),

with actlow^T[a, al, be] = actlow[al, a, be].  R3 and R4 are 4-forms and sum
the stored (axis, triple) and (pair, pair) terms of eps directly.

Slab streaming.  Every stencil kernel here is evaluated one slab at a time
(lattice.slabs: consecutive rows of lattice axis 0, at most
lattice.SLAB_SITES sites), so its intermediates stay in cache.  A kernel
differences its input through a window: the slab and the neighbour rows
before and after it along axis 0 (lattice.slab_derivative).  A full field's
window is a view of it (lattice.slab_window).  The public curvatures are
full arrays filled slab by slab, but the Bianchi identities never form one:
they difference curvatures held in slab rings (_ring), which compute each
slab once and pass the next difference the current slab with the edge rows
of the slabs around it, so beside the configuration Bianchi holds a few
slabs.  Each site gets the same operations in the same order on any
partition, so the results are bitwise independent of the slab size; the
action's density is one full site array summed once.
"""

from __future__ import annotations

import numpy as np

from .crossed_module import _maxabs, contract
from .lattice import (FieldConfiguration, levi_civita, pair_index, pairs,
                      slab_derivative, slab_window, slabs, triples)

__all__ = [
    "curvature_F",
    "fake_curvature",
    "curvature_G3",
    "curvature_T",
    "evaluate_action",
    "eom_residuals",
    "eom_gradient_check",
    "bianchi_residuals",
]


def _curvature_F_pair(cm, cfg, P, rows) -> np.ndarray:
    """F^a on the stored pair P over the slab `rows`, shape (p, slab...)."""
    lat = cfg.lattice
    m, n = pairs(lat.D)[P]
    out = (slab_derivative(slab_window(cfg.A[n], lat, rows), m, lat)
           - slab_derivative(slab_window(cfg.A[m], lat, rows), n, lat))
    out += contract(cm.f, cfg.A[m, :, rows], cfg.A[n, :, rows])
    return out


def _fake_curvature_pair(cm, cfg, P, rows) -> np.ndarray:
    """H^a on the stored pair P over the slab `rows`, shape (p, slab...)."""
    out = _curvature_F_pair(cm, cfg, P, rows)
    out -= np.einsum("ga,g...->a...", cm.del_, cfg.beta[P, :, rows])
    return out


def _by_slab(cfg, out, kernel) -> np.ndarray:
    """Fill out[k] (lattice axes last) slab by slab with kernel(k, rows)."""
    for rows in slabs(cfg.lattice):
        for k in range(len(out)):
            out[k, :, rows] = kernel(k, rows)
    return out


def curvature_F(cm, cfg: FieldConfiguration) -> np.ndarray:
    """F^a on ordered pairs, shape (npairs, p, sites...)."""
    return _by_slab(cfg, np.empty_like(cfg.B),
                    lambda P, rows: _curvature_F_pair(cm, cfg, P, rows))


def fake_curvature(cm, cfg: FieldConfiguration) -> np.ndarray:
    """H^a_{mn} = F^a_{mn} - del_al^a beta^al_{mn}."""
    return _by_slab(cfg, np.empty_like(cfg.B),
                    lambda P, rows: _fake_curvature_pair(cm, cfg, P, rows))


def _cov_derivative(cfg, coupling, window, axis, rows) -> np.ndarray:
    """D_axis X + coupling(A_axis, X) over the slab `rows`, from the window
    (row before, slab, row after) of X along lattice axis 0, Lie index first
    (lattice.slab_derivative).

    coupling[out, a, in] is f for g-valued and act for h-valued X.
    """
    out = slab_derivative(window, axis, cfg.lattice)
    out += contract(coupling, cfg.A[axis, :, rows], window[1])
    return out


def _cyclic(tri, D):
    """(d, stored pair P of (i, j), its sign) over the cyclic orders (d, i, j)
    of a triple.  An odd permutation of (d, i, j) swaps the pair as well, so
    it repeats the term of an even one: an S3 sum is twice the 3 cyclic
    terms."""
    pidx = pair_index(D)
    for k in range(3):
        yield (tri[k],) + pidx[(tri[(k + 1) % 3], tri[(k + 2) % 3])]


def _three_form_triple(cfg, two_form, coupling, tri, rows) -> np.ndarray:
    """d_A of a pair-stored 2-form, given by its window, on one triple over
    the slab `rows`: the S3-antisymmetrized covariant curl
    sum_{p in S3} sgn(p) nabla_d X_{ij}, (d, i, j) = p(tri)."""
    out = np.zeros(two_form[1][0].shape)
    for d, P, psign in _cyclic(tri, cfg.lattice.D):
        window = tuple(w[P] for w in two_form)
        out += psign * _cov_derivative(cfg, coupling, window, d, rows)
    out *= 2.0
    return out


def _wedge_triple(coupling, two_form, one_form, tri) -> np.ndarray:
    """W(c; X, Y) on one triple over a slab of a 2-form X and a 1-form Y: the
    S3 sum of c(X_{ij}, Y_d), which is 2 sum_{cyclic (d, i, j)} sgn(i, j)
    c(X_P, Y_d)."""
    out = np.zeros((coupling.shape[0],) + two_form.shape[2:])
    for d, P, psign in _cyclic(tri, len(one_form)):
        out += psign * contract(coupling, two_form[P], one_form[d])
    out *= 2.0
    return out


def curvature_G3(cm, cfg: FieldConfiguration) -> np.ndarray:
    """G^al_{mnr} on ordered triples (S3 6-term convention)."""
    tris = triples(cfg.lattice.D)
    return _by_slab(cfg, np.empty((len(tris),) + cfg.beta.shape[1:]),
                    lambda Ti, rows: _three_form_triple(
                        cfg, slab_window(cfg.beta, cfg.lattice, rows), cm.act,
                        tris[Ti], rows))


def _curvature_T_pair(cm, cfg, P, rows) -> np.ndarray:
    """T^al on the stored pair P over the slab `rows`, shape (q, slab...)."""
    lat = cfg.lattice
    m, n = pairs(lat.D)[P]
    out = _cov_derivative(cfg, cm.act, slab_window(cfg.C[n], lat, rows), m, rows)
    out -= _cov_derivative(cfg, cm.act, slab_window(cfg.C[m], lat, rows), n,
                           rows)
    return out


def curvature_T(cm, cfg: FieldConfiguration) -> np.ndarray:
    """T^al_{mn} = nabla^act_m C_n - nabla^act_n C_m on ordered pairs."""
    return _by_slab(cfg, np.empty_like(cfg.beta),
                    lambda P, rows: _curvature_T_pair(cm, cfg, P, rows))


def _lower(metric, X) -> np.ndarray:
    """metric_{ab} X^b on the leading index of X."""
    return np.einsum("ab,b...->a...", metric, X)


def _bianchi_g(cm, cfg, F, tri, rows) -> np.ndarray:
    """Q . d_A F on one triple over the slab `rows`, from the window of F:
    the g-sector Bianchi 3-form."""
    return _lower(cm.Q, _three_form_triple(cfg, F, cm.f, tri, rows))


def _bianchi_h(cm, cfg, F, T, tri, rows) -> np.ndarray:
    """q . d_A T - W(actlow; F, C) on one triple over the slab `rows`, from
    the windows of F and T: the h-sector Bianchi 3-form."""
    out = _lower(cm.qf, _three_form_triple(cfg, T, cm.act, tri, rows))
    out -= _wedge_triple(cm.actlow, F[1], cfg.C[:, :, rows], tri)
    return out


# ---------------------------------------------------------------------------
# epsilon bookkeeping for D = 4: eps^{mnrs} on stored pairs and triples
# ---------------------------------------------------------------------------

# (P, P', eps^{P P'}) for each stored pair P and its complementary pair P'
_PP4 = [(Pi, Pj, levi_civita(P + Pp)) for Pi, P in enumerate(pairs(4))
        for Pj, Pp in enumerate(pairs(4)) if not set(P) & set(Pp)]
# (mu, T, eps^{mu T}) for each axis mu and its complementary stored triple T
_AT4 = [(mu, tri, levi_civita((mu,) + tri)) for mu in range(4)
        for tri in triples(4) if mu not in tri]


def evaluate_action(cm, cfg: FieldConfiguration) -> float:
    """BFCG action S on a D=4 periodic lattice.

    The density is one full site array, filled slab by slab: on each slab H
    is formed one stored pair and G one stored triple at a time and added
    at once, in the same per-site order on any slab partition, and the
    density is summed by one np.sum.
    """
    lat = cfg.lattice
    if lat.D != 4:
        raise ValueError("the action is defined on D=4 configurations")
    dens = np.zeros(lat.shape)
    for rows in slabs(lat):
        slab = dens[rows]
        beta = slab_window(cfg.beta, lat, rows)
        for Pi, Pj, e in _PP4:
            H = _fake_curvature_pair(cm, cfg, Pj, rows)
            slab += e * np.einsum("a...,ab,b...->...", cfg.B[Pi, :, rows],
                                  cm.Q, H)
        for mu, tri, e in _AT4:
            G = _three_form_triple(cfg, beta, cm.act, tri, rows)
            slab += e * np.einsum("x...,xy,y...->...", cfg.C[mu, :, rows],
                                  cm.qf, G)
    return float(lat.volume_element * np.sum(dens))


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------

def eom_residuals(cm, cfg: FieldConfiguration) -> dict:
    """Field-equation data: curvature norms and the multiplier equations.

    Returns max-abs of H and G (the B/C stationarity conditions) and the
    two epsilon-contracted expressions E_A, E_beta described in the module
    docstring, whose vanishing is the A/beta stationarity.
    """
    lat = cfg.lattice
    if lat.D != 4:
        raise ValueError("equations of motion are defined on D=4 configurations")
    H = fake_curvature(cm, cfg)
    G3 = curvature_G3(cm, cfg)

    E_A = np.empty((4, cm.p) + lat.shape)
    actlow_a = cm.actlow.transpose(1, 0, 2)  # [a, al, be]
    for rows in slabs(lat):
        B = slab_window(cfg.B, lat, rows)
        for sig, tri, e in _AT4:
            E = _lower(cm.Q, _three_form_triple(cfg, B, cm.f, tri, rows))
            E += 2.0 * _wedge_triple(actlow_a, cfg.beta[:, :, rows],
                                     cfg.C[:, :, rows], tri)
            E *= -e
            E_A[sig, :, rows] = E

    E_beta = np.zeros((len(pairs(4)), cm.q) + lat.shape)
    T = curvature_T(cm, cfg)
    for Pp, P, e in _PP4:
        E_beta[P] = e * (_lower(cm.qf, T[Pp])
                         - 0.5 * _lower(cm.dlow, cfg.B[Pp]))

    return {
        "H_norm": _maxabs(H),
        "G_norm": _maxabs(G3),
        "E_A": E_A,
        "E_beta": E_beta,
        "E_A_norm": _maxabs(E_A),
        "E_beta_norm": _maxabs(E_beta),
    }


def eom_gradient_check(cm, cfg: FieldConfiguration, res: dict,
                       n_samples: int = 24, seed: int = 0) -> float:
    """Max relative error between E_A/E_beta and finite differences of S.

    res is eom_residuals(cm, cfg).  Central differences of step 1e-6 in
    randomly sampled entries of A and beta are compared against -1/2 a^4
    E_A and 2 a^4 E_beta; an empty field (beta at q = 0) has no entry to
    sample.  The reduction is np.max, so a NaN error (a NaN action) is
    returned, never dropped.
    """
    lat = cfg.lattice
    rng = np.random.default_rng(seed)
    a4 = lat.volume_element
    step = 1e-6
    worst = 0.0

    def _fd(field_name, idx):
        work = cfg.copy()
        arr = getattr(work, field_name)
        arr[idx] += step
        s_plus = evaluate_action(cm, work)
        arr[idx] -= 2 * step
        s_minus = evaluate_action(cm, work)
        return (s_plus - s_minus) / (2 * step)

    for field_name, E, coeff in (("A", res["E_A"], -0.5),
                                 ("beta", res["E_beta"], 2.0)):
        if E.size == 0:
            continue
        scale = max(1.0, _maxabs(E) * a4)
        for _ in range(n_samples):
            comp = tuple(rng.integers(0, k) for k in E.shape[:2])
            site = tuple(rng.integers(0, lat.n, size=4))
            fd = _fd(field_name, comp + site)
            analytic = coeff * a4 * E[comp + site]
            worst = float(np.max([worst, abs(fd - analytic) / scale]))
    return worst


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def _ring(lattice, kernel, reduce) -> list:
    """reduce(rows, windows) on every slab of lattice.slabs, slab 0 last.

    kernel(rows) gives a tuple of fields on the slab `rows` (D = 4 lattice
    axes last), and windows holds one (row before, slab, row after) window
    along lattice axis 0 per field (see lattice.slab_derivative); the
    neighbour rows are the edge rows of the slabs around, read where they
    lie.  Each slab is computed once.  Slab 0 waits for its row before, row
    n - 1, so it is held to the end together with the first row of slab 1;
    beside it the ring holds the current slab, the next one and the last
    row of the previous one.
    """
    def edge(fields, k):
        return tuple(f[..., k:k + 1 or None, :, :, :] for f in fields)

    def copied(fields):
        return tuple(f.copy() for f in fields)

    parts = slabs(lattice)
    zero = kernel(parts[0])
    cur = kernel(parts[1]) if len(parts) > 1 else zero
    before, head = edge(zero, -1), edge(cur, 0)
    out = []
    for s in range(1, len(parts)):
        nxt = kernel(parts[s + 1]) if s + 1 < len(parts) else zero
        out.append(reduce(parts[s], tuple(zip(before, cur, edge(nxt, 0)))))
        before = copied(edge(cur, -1))
        if s == 1:   # let slab 1 go: slab 0 reads only its first row
            head = copied(head)
        cur = nxt
    out.append(reduce(parts[0], tuple(zip(before, zero, head))))
    return out


def _covariant_top_form(cfg, F, X, coupling, metric, dA0, rows) -> float:
    """max |metric . eps^{lmnr} (1/3 nabla_l d_A X_{mnr} - c(F_{lm}, X_{nr}))|
    over the slab `rows`, for a pair-stored 2-form X with coupling c: the
    3-form Bianchi identity.  F is the slab's F, one array per stored pair.

    dA0 is the window of d_A X on the triple (1, 2, 3), the one differenced
    along axis 0.  The other three triples are differenced along axes 1..3
    only, within the slab, so each is formed on the slab and needs no
    neighbour rows.
    """
    window = slab_window(X, cfg.lattice, rows)
    out = np.zeros(window[1][0].shape)
    for lam, tri, e in _AT4:
        dA = dA0 if lam == 0 else (
            None, _three_form_triple(cfg, window, coupling, tri, rows), None)
        out += 2.0 * e * _cov_derivative(cfg, coupling, dA, lam, rows)
    for Pi, Pj, e in _PP4:
        out -= 4.0 * e * contract(coupling, F[Pi], window[1][Pj])
    return _maxabs(_lower(metric, out))


def bianchi_residuals(cm, cfg: FieldConfiguration) -> dict:
    """Max-abs residuals of the four lattice Bianchi identities.

    No curvature is a full array: two slab rings (_ring) make two passes.
    The first carries F and T.  The 2-form identities are eps^{l T} times a
    Bianchi 3-form on the triple T complementary to l; each triple is formed
    on one slab and reduced to its max at once (the sign eps = +-1 does not
    change a max-abs).  The second carries d_A B and d_A beta on the triple
    (1, 2, 3), the only triple the top forms difference along axis 0, and
    forms F again on each slab for their wedge terms.  As two passes, not
    one, they hold two ring fields at a time, not four.  Each site gets the
    same operations as on any other slab partition, so the residuals are
    bitwise independent of the slab size.
    """
    lat = cfg.lattice
    if lat.D != 4:
        raise ValueError("Bianchi residuals are defined on D=4 configurations")
    npairs = len(pairs(4))
    tops = ((cfg.B, cm.f, cm.Q), (cfg.beta, cm.act, cm.qf))
    dA0_triple = _AT4[0][1]   # complementary to axis 0

    def curvatures(rows):
        shape = cfg.A[0, 0, rows].shape
        F = np.empty((npairs, cm.p) + shape)
        T = np.empty((npairs, cm.q) + shape)
        for P in range(npairs):
            F[P] = _curvature_F_pair(cm, cfg, P, rows)
            T[P] = _curvature_T_pair(cm, cfg, P, rows)
        return F, T

    def two_forms(rows, windows):
        F, T = windows
        return [(_maxabs(_bianchi_g(cm, cfg, F, tri, rows)),
                 _maxabs(_bianchi_h(cm, cfg, F, T, tri, rows)))
                for tri in triples(4)]

    def top_triples(rows):
        return tuple(_three_form_triple(cfg, slab_window(X, lat, rows),
                                        coupling, dA0_triple, rows)
                     for X, coupling, _ in tops)

    def top_forms(rows, windows):
        F = [_curvature_F_pair(cm, cfg, P, rows) for P in range(npairs)]
        return [_covariant_top_form(cfg, F, X, coupling, metric, dA0, rows)
                for (X, coupling, metric), dA0 in zip(tops, windows)]

    # np.max, not max: a NaN triple must reach the result
    worst_F, worst_T = np.max(_ring(lat, curvatures, two_forms), axis=(0, 1))
    worst_GB, worst_G = np.max(_ring(lat, top_triples, top_forms), axis=0)
    return {
        "bianchi_F": float(worst_F),
        "bianchi_T": float(worst_T),
        "bianchi_GB": float(worst_GB),
        "bianchi_G": float(worst_G),
    }
