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
reads its configuration, whose fields are held arrays or recipes, only
through its slab source (FieldConfiguration.slabs): a lattice.Slab holds
each field's window, the slab and the neighbour rows before and after it
along axis 0, which a kernel differences with lattice.slab_derivative.
Only curvature_F forms a full curvature, and only the tests and perfbench's
spans call it: the curvature check's one pass (gauge.curvature_residuals)
and the field equations reduce each stored pair or triple of a slab at once,
and the Bianchi identities and the gauge check's covariance
(gauge.thin_covariance) difference fields held in slab rings
(lattice._ring), which compute the last slab first, as a lead that gives row
0 its row before (on a one-slab lattice the lead is slab 0), then each slab
once, and keep only the rows that wait for a neighbour.  Each site gets the
same operations in the same order on any partition, so the results are
bitwise independent of the slab size and of the field kind.
evaluate_action sums the action's density (_density) as one full site
array by one np.sum; the passes that stream it, the curvature check's and
the gauge transforms', sum each slab's or run's density at once in numpy's
pairwise order (lattice._StreamedSum), so to the same bits without the
array.  The finite differences of the field
equations form again only the three rows of density that a perturbed
entry moves, from the windows of that row alone, and sum their change
against the unperturbed density on those rows (_entry_actions).
"""

from __future__ import annotations

import numpy as np

from .crossed_module import _maxabs, contract
from .lattice import (FIELDS, SLAB_SITES, FieldConfiguration, Slab, _fitted,
                      _ring, _window, levi_civita, pair_index, pairs,
                      slab_derivative, triples)

__all__ = [
    "curvature_F",
    "evaluate_action",
    "eom_residuals",
    "eom_gradient_check",
    "bianchi_residuals",
]


def _curvature_F_pair(cm, slab, P) -> np.ndarray:
    """F^a on the stored pair P over the slab, shape (p, slab...)."""
    lat = slab.lattice
    m, n = pairs(lat.D)[P]
    out = slab_derivative(slab.window("A", n), m, lat)
    out -= slab_derivative(slab.window("A", m), n, lat)
    out += contract(cm.f, slab["A"][m], slab["A"][n])
    return out


def _fake_curvature_pair(cm, slab, P) -> np.ndarray:
    """H^a on the stored pair P over the slab, shape (p, slab...)."""
    out = _curvature_F_pair(cm, slab, P)
    out -= contract(cm.del_.T, slab["beta"][P])
    return out


def curvature_F(cm, cfg: FieldConfiguration) -> np.ndarray:
    """F^a on ordered pairs, shape (npairs, p, sites...), slab by slab."""
    _require_fit(cm, cfg)
    out = np.empty((len(pairs(cfg.lattice.D)), cm.p) + cfg.lattice.shape)
    for slab in cfg.slabs(("A",)):
        for P in range(len(out)):
            out[P, :, slab.rows] = _curvature_F_pair(cm, slab, P)
    return out


def _cov_derivative(slab, coupling, window, axis) -> np.ndarray:
    """D_axis X + coupling(A_axis, X) over the slab, from the window (row
    before, slab, row after) of X along lattice axis 0, Lie index first
    (lattice.slab_derivative); A is the slab's.

    coupling[out, a, in] is f for g-valued and act for h-valued X.
    """
    out = slab_derivative(window, axis, slab.lattice)
    out += contract(coupling, slab["A"][axis], window[1])
    return out


def _cyclic(tri, D):
    """(d, stored pair P of (i, j), its sign) over the cyclic orders (d, i, j)
    of a triple.  An odd permutation of (d, i, j) swaps the pair as well, so
    it repeats the term of an even one: an S3 sum is twice the 3 cyclic
    terms."""
    pidx = pair_index(D)
    for k in range(3):
        yield (tri[k],) + pidx[(tri[(k + 1) % 3], tri[(k + 2) % 3])]


def _add_signed(out, sign, x) -> None:
    """out += sign x for a sign +-1, as an add or a subtract in place."""
    if sign > 0:
        out += x
    else:
        out -= x


def _twice_signed_sum(terms) -> np.ndarray:
    """2 sum_t sign_t x_t over the (sign, x) terms of a cyclic sum, each x a
    fresh array: the first x (negated in place for sign -1), with each
    other added or subtracted in turn.  So every value is bitwise that of
    the sum into zeros, but that an exact zero may be -0.0."""
    out = None
    for sign, x in terms:
        if out is None:
            out = x if sign > 0 else np.negative(x, out=x)
        else:
            _add_signed(out, sign, x)
    out *= 2.0
    return out


def _three_form_triple(slab, X, coupling, tri) -> np.ndarray:
    """d_A of the slab's pair-stored 2-form X (a field name) on one triple
    over the slab: the S3-antisymmetrized covariant curl
    sum_{p in S3} sgn(p) nabla_d X_{ij}, (d, i, j) = p(tri)."""
    return _twice_signed_sum(
        (psign, _cov_derivative(slab, coupling, slab.window(X, P), d))
        for d, P, psign in _cyclic(tri, slab.lattice.D))


def _wedge_triple(coupling, two_form, one_form, tri) -> np.ndarray:
    """W(c; X, Y) on one triple over a slab of a 2-form X and a 1-form Y: the
    S3 sum of c(X_{ij}, Y_d), which is 2 sum_{cyclic (d, i, j)} sgn(i, j)
    c(X_P, Y_d)."""
    return _twice_signed_sum(
        (psign, contract(coupling, two_form[P], one_form[d]))
        for d, P, psign in _cyclic(tri, len(one_form)))


def _curvature_T_pair(cm, slab, P) -> np.ndarray:
    """T^al on the stored pair P over the slab, shape (q, slab...)."""
    m, n = pairs(slab.lattice.D)[P]
    out = _cov_derivative(slab, cm.act, slab.window("C", n), m)
    out -= _cov_derivative(slab, cm.act, slab.window("C", m), n)
    return out


def _bianchi_g(cm, slab, tri) -> np.ndarray:
    """Q . d_A F on one triple over the slab, from its window of F: the
    g-sector Bianchi 3-form."""
    return contract(cm.Q, _three_form_triple(slab, "F", cm.f, tri))


def _bianchi_h(cm, slab, tri) -> np.ndarray:
    """q . d_A T - W(actlow; F, C) on one triple over the slab, from its
    windows of F and T: the h-sector Bianchi 3-form."""
    out = contract(cm.qf, _three_form_triple(slab, "T", cm.act, tri))
    out -= _wedge_triple(cm.actlow, slab["F"], slab["C"], tri)
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


# the fields the action density reads with their windows, and by rows
ACTION_FIELDS = (("A", "beta"), ("B", "C"))
# entries of A and of beta that eom_residuals draws for eom_gradient_check
EOM_SAMPLES = 16


def _action_density(cm, slab, out) -> None:
    """Add the action's density over the slab (without a^4) into out, the
    slab's rows of a site array: H one stored pair and G one stored triple
    at a time, in the same per-site order on any slab."""
    for Pi, Pj, e in _PP4:
        _add_pairing(out, e, cm.Q, slab["B"][Pi],
                     _fake_curvature_pair(cm, slab, Pj))
    for mu, tri, e in _AT4:
        _add_pairing(out, e, cm.qf, slab["C"][mu],
                     _three_form_triple(slab, "beta", cm.act, tri))


def _add_pairing(out, sign, metric, X, Y) -> None:
    """out += sign metric(X, Y), one term of the action's density: B with H
    (metric Q) on a stored pair, or C with G (q) on an axis."""
    _add_signed(out, sign, contract(metric[None], X, Y)[0])


def _density(cm, cfg) -> np.ndarray:
    """The action's density (without a^4) of a configuration: one full site
    array, filled slab by slab by _action_density."""
    dens = np.zeros(cfg.lattice.shape)
    for slab in cfg.slabs(*ACTION_FIELDS):
        _action_density(cm, slab, dens[slab.rows])
    return dens


def _action(lattice, dens) -> float:
    """The action from its full density site array, summed by one np.sum."""
    return float(lattice.volume_element * np.sum(dens))


def _require_fit(cm, cfg) -> None:
    """ValueError unless every field of cfg, array or recipe, has the
    components (D, p), (npairs, q), (npairs, p) and (D, q) of the module cm
    (contract would broadcast a size-1 component axis)."""
    D, npairs = cfg.lattice.D, len(pairs(cfg.lattice.D))
    for name, comp in zip(FIELDS, ((D, cm.p), (npairs, cm.q), (npairs, cm.p),
                                   (D, cm.q))):
        _fitted(cfg.lattice, name, getattr(cfg, name), comp)


def _require_4d(cm, cfg, what: str) -> None:
    """ValueError unless cfg is a D=4 configuration that fits cm."""
    if cfg.lattice.D != 4:
        raise ValueError(f"{what} defined on D=4 configurations")
    _require_fit(cm, cfg)


def evaluate_action(cm, cfg) -> float:
    """BFCG action S on a D=4 periodic lattice: the configuration's _density
    summed by one np.sum."""
    _require_4d(cm, cfg, "the action is")
    return _action(cfg.lattice, _density(cm, cfg))


def _worst(arrays) -> float:
    """max |x| over an iterable of arrays by np.max: NaN if any entry is."""
    return float(np.max([_maxabs(x) for x in arrays]))


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------

def _field_equations(cm, slab):
    """(field, lead, E) over the slab: E_A on each axis, then E_beta on each
    stored pair (from T on its complementary pair), one at a time."""
    for sig, tri, e in _AT4:
        E = contract(cm.Q, _three_form_triple(slab, "B", cm.f, tri))
        W = _wedge_triple(cm.actlow.transpose(1, 0, 2), slab["beta"],
                          slab["C"], tri)
        W *= 2.0
        E += W
        if e > 0:   # E *= -e
            np.negative(E, out=E)
        yield "A", sig, E
    for Pp, P, e in _PP4:
        E = contract(cm.qf, _curvature_T_pair(cm, slab, Pp))
        dB = contract(cm.dlow, slab["B"][Pp])
        dB *= 0.5
        E -= dB
        if e < 0:   # E *= e
            np.negative(E, out=E)
        yield "beta", P, E


def eom_residuals(cm, cfg, seed: int = 0) -> dict:
    """Field-equation data of a configuration from one pass over its slabs.

    The max-abs of H and G (the B/C stationarity conditions) and of E_A and
    E_beta (the A/beta stationarity): each is formed per slab and stored
    pair, triple or axis, reduced at once and dropped, so none is a full
    array; np.max reduces the slabs, so a NaN reaches its norm.  "samples"
    holds (index, the field's value, E) at EOM_SAMPLES entries of A and
    then of beta (none of an empty field) drawn from default_rng(seed), and
    "density" the action's density, bitwise _density's, for
    eom_gradient_check.
    """
    lat = cfg.lattice
    _require_4d(cm, cfg, "equations of motion are")
    npairs = len(pairs(4))
    rng = np.random.default_rng(seed)
    draws = {name: [tuple(rng.integers(0, k) for k in lead)
                    + tuple(rng.integers(0, lat.n, size=4))
                    for _ in range(EOM_SAMPLES)] if all(lead) else []
             for name, lead in (("A", (4, cm.p)), ("beta", (npairs, cm.q)))}
    samples = {name: [None] * len(d) for name, d in draws.items()}
    dens = np.zeros(lat.shape)
    worst = []
    for slab in cfg.slabs(FIELDS):
        E_worst = {"A": [], "beta": []}
        for name, lead, E in _field_equations(cm, slab):
            E_worst[name].append(_maxabs(E))
            for k, index in enumerate(draws[name]):
                y = index[2] - slab.rows.start
                if index[0] == lead and 0 <= y < E.shape[1]:
                    at = index[:2] + (y,) + index[3:]
                    samples[name][k] = (index, float(slab[name][at]),
                                        float(E[at[1:]]))
        worst.append((
            _worst(_fake_curvature_pair(cm, slab, P) for P in range(npairs)),
            _worst(_three_form_triple(slab, "beta", cm.act, tri)
                   for tri in triples(4)),
            np.max(E_worst["A"]), np.max(E_worst["beta"])))
        _action_density(cm, slab, dens[slab.rows])
    norms = map(float, np.max(worst, axis=0))
    return {**dict(zip(("H_norm", "G_norm", "E_A_norm", "E_beta_norm"),
                       norms)), "samples": samples, "density": dens}


def _entry_actions(cm, cfg: FieldConfiguration, dens, entries) -> list:
    """(dS, |dS|) for each (field name, index, value) of entries: the change
    of the action when one entry of cfg's A or beta is set, and the size of
    its terms, a^4 sum |d' - d| over the sites it moves; dens is the
    density d that evaluate_action sums for cfg.

    An entry on row y of lattice axis 0 moves the density on rows
    y - 1..y + 1 alone, which read the windows of ACTION_FIELDS[0] from row
    y - 2 to y + 2 and the rows of the others.  Each row's windows
    (lattice._window: views of a held field, copies where its rows wrap,
    or realized once from a recipe) serve all its entries and are dropped
    before the next row's.  d' is formed on the three rows with every
    site's operations of evaluate_action, so bitwise the density with the
    entry set; dS = a^4 sum (d' - d) over them, so its roundoff is that of
    the terms the entry moves, not of the whole action.

    A row's entries are batched on an axis before the lattice axes, every
    window a broadcast view but the three rows of a field a batch sets,
    copied.  Batching pays where a kernel call is mostly overhead, so a
    batch holds SLAB_SITES // (3 n^4) entries, at least one (from n = 10
    on, each entry is a batch).
    """
    lat, n = cfg.lattice, cfg.lattice.n
    ax = 2   # the batch axis: every field has two component axes
    size = max(1, SLAB_SITES // (3 * lat.sites))
    by_row = {}
    for k, (_, index, _) in enumerate(entries):
        by_row.setdefault(index[ax], []).append(k)
    out = [None] * len(entries)
    for y, ks in by_row.items():
        rows = slice(y - 1, y + 2)
        windows = {f: _window(getattr(cfg, f), lat, rows,
                              f in ACTION_FIELDS[0]) for f in FIELDS}
        kept = dens[np.arange(y - 1, y + 2) % n]
        for lo in range(0, len(ks), size):
            batch = ks[lo:lo + size]
            fields = {f: tuple(w if w is None else np.broadcast_to(
                np.expand_dims(w, ax), w.shape[:ax] + (len(batch),)
                + w.shape[ax:]) for w in ws) for f, ws in windows.items()}
            for name in {entries[k][0] for k in batch}:
                before, mid, after = fields[name]
                fields[name] = before, mid.copy(), after
            for j, k in enumerate(batch):
                name, index, value = entries[k]
                fields[name][1][index[:ax] + (j, 1) + index[ax + 1:]] = value
            d = np.zeros((len(batch), 3) + lat.shape[1:])
            _action_density(cm, Slab(lat, rows, fields), d)
            d -= kept
            for j, k in enumerate(batch):
                out[k] = (_action(lat, d[j]), _action(lat, np.abs(d[j])))
        del windows, fields
    return out


def eom_gradient_check(cm, cfg: FieldConfiguration, res: dict) -> float:
    """Max relative error between E_A/E_beta and finite differences of S.

    res is eom_residuals(cm, cfg, seed).  Central differences of step 1e-6
    at its sampled entries, S(x + h) - S(x) and S(x - h) - S(x) with x - h
    formed as (x + h) - 2h, are compared against -1/2 a^4 E_A and
    2 a^4 E_beta.  Each is a local sum over the rows its entry moves
    (_entry_actions), so no configuration is copied or held, and held and
    streamed fields give the same bits.  Each error is relative to the
    larger of |a^4 E| and the size of the difference's terms,
    (|dS+| + |dS-|) / 2h; if both are zero, so is every term, and the error
    is 0.  np.max reduces the errors, so a NaN is returned, never dropped.
    """
    _require_4d(cm, cfg, "equations of motion are")
    a4 = cfg.lattice.volume_element
    step = 1e-6
    samples = [(name, coeff, sample)
               for name, coeff in (("A", -0.5), ("beta", 2.0))
               for sample in res["samples"][name]]
    entries = [(name, index, x) for name, _, (index, value, _) in samples
               for x in (value + step, value + step - 2 * step)]
    dS = _entry_actions(cm, cfg, res["density"], entries)
    worst = 0.0
    for (_, coeff, (_, _, E)), (d_plus, s_plus), (d_minus, s_minus) in zip(
            samples, dS[::2], dS[1::2]):
        fd = (d_plus - d_minus) / (2 * step)
        analytic = coeff * a4 * E
        scale = max(abs(analytic), (s_plus + s_minus) / (2 * step))
        err = abs(fd - analytic) / scale if scale else 0.0
        worst = float(np.max([worst, err]))
    return worst


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def _covariant_top_form(slab, F, X, coupling, metric) -> float:
    """max |metric . eps^{lmnr} (1/3 nabla_l d_A X_{mnr} - c(F_{lm}, X_{nr}))|
    over the slab, for the slab's pair-stored 2-form X (a field name) with
    coupling c: the 3-form Bianchi identity.  F is the slab's F, one array
    per stored pair.

    The slab holds, as the field "d" + X, the window of d_A X on the triple
    (1, 2, 3), the one differenced along axis 0.  The other three triples
    are differenced along axes 1..3 only, within the slab, so each is
    formed on the slab and needs no neighbour rows.
    """
    out = np.zeros(slab[X][0].shape)
    for lam, tri, e in _AT4:
        dA = slab.window("d" + X) if lam == 0 else (
            None, _three_form_triple(slab, X, coupling, tri), None)
        x = _cov_derivative(slab, coupling, dA, lam)
        x *= 2.0
        _add_signed(out, e, x)
    for Pi, Pj, e in _PP4:
        x = contract(coupling, F[Pi], slab[X][Pj])
        x *= 4.0
        _add_signed(out, -e, x)
    return _maxabs(contract(metric, out))


def bianchi_residuals(cm, cfg) -> dict:
    """Max-abs residuals of the four lattice Bianchi identities of a
    configuration.

    No curvature is a full array: two slab rings (_ring) make two
    passes over the configuration's slabs, each led by the last slab.  The
    first reads A and C and
    carries F and T.  The 2-form identities are eps^{l T} times a Bianchi
    3-form on the triple T complementary to l; each triple is formed on one
    run of rows and reduced to its max at once (the sign eps = +-1 does not
    change a max-abs).  The second reads A, B and beta and carries them with
    d_A B and d_A beta on the triple (1, 2, 3), the only triple the top
    forms difference along axis 0, and forms F again on each run for their
    wedge terms.  As two passes, not one, they hold two ring fields at a
    time, not four.  Each site gets the same operations as on any other
    slab partition, so the residuals are bitwise independent of the slab
    size and of the field kind.
    """
    lat = cfg.lattice
    _require_4d(cm, cfg, "Bianchi residuals are")
    npairs = len(pairs(4))
    tops = (("B", cm.f, cm.Q), ("beta", cm.act, cm.qf))
    dA0_triple = _AT4[0][1]   # complementary to axis 0

    def curvatures(slab):
        shape = slab["A"].shape[2:]
        F = np.empty((npairs, cm.p) + shape)
        T = np.empty((npairs, cm.q) + shape)
        for P in range(npairs):
            F[P] = _curvature_F_pair(cm, slab, P)
            T[P] = _curvature_T_pair(cm, slab, P)
        return {"F": F, "T": T, "A": slab["A"], "C": slab["C"]}

    def two_forms(ring):
        return [(_maxabs(_bianchi_g(cm, ring, tri)),
                 _maxabs(_bianchi_h(cm, ring, tri)))
                for tri in triples(4)]

    def top_triples(slab):
        fields = {X: slab[X] for X in ("A", "B", "beta")}
        fields.update(("d" + X, _three_form_triple(slab, X, coupling,
                                                   dA0_triple))
                      for X, coupling, _ in tops)
        return fields

    def top_forms(ring):
        F = [_curvature_F_pair(cm, ring, P) for P in range(npairs)]
        return [_covariant_top_form(ring, F, X, coupling, metric)
                for X, coupling, metric in tops]

    # np.max, not max: a NaN triple must reach the result
    worst_F, worst_T = np.max(_ring(cfg._ring_slabs(("A", "C")),
                                    curvatures, two_forms, ("F", "T")),
                              axis=(0, 1))
    worst_GB, worst_G = np.max(_ring(
        cfg._ring_slabs(rows=("A", "B", "beta")), top_triples, top_forms,
        ("A", "B", "beta", "dB", "dbeta")), axis=0)
    return {
        "bianchi_F": float(worst_F),
        "bianchi_T": float(worst_T),
        "bianchi_GB": float(worst_GB),
        "bianchi_G": float(worst_G),
    }
