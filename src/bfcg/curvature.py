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
Only curvature_F, which the gauge check's covariance compares whole, forms a
full curvature: the norms and the field equations reduce each stored pair
or triple of a slab at once, and the Bianchi identities difference
curvatures held in slab rings (lattice._ring), which compute the last slab
first, as a lead that gives row 0 its row before, then each slab once, and
keep only the rows that wait for a neighbour.  Each site gets the same
operations in the same order on any partition, so the results are bitwise
independent of the slab size and of the field kind; the action's density
(_density) is one full site array summed once.  So the finite differences
of the field equations, which window held fields, form again only the
three rows of density that a perturbed entry moves, and sum their change
against the unperturbed density on those rows (_entry_actions).
"""

from __future__ import annotations

import numpy as np

from .crossed_module import _maxabs, contract
from .lattice import (FIELDS, SLAB_SITES, FieldConfiguration, Slab, _fitted,
                      _ring, levi_civita, pair_index, pairs, slab_derivative,
                      slab_window, triples)

__all__ = [
    "curvature_F",
    "curvature_norms",
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
# entries of A and of beta that eom_gradient_check samples
EOM_SAMPLES = 16


def _action_density(cm, slab, out) -> None:
    """Add the action's density over the slab (without a^4) into out, the
    slab's rows of a site array: H one stored pair and G one stored triple
    at a time, in the same per-site order on any slab."""
    for Pi, Pj, e in _PP4:
        H = _fake_curvature_pair(cm, slab, Pj)
        _add_signed(out, e, contract(cm.Q[None], slab["B"][Pi], H)[0])
    for mu, tri, e in _AT4:
        G = _three_form_triple(slab, "beta", cm.act, tri)
        _add_signed(out, e, contract(cm.qf[None], slab["C"][mu], G)[0])


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


def curvature_norms(cm, cfg) -> dict:
    """max |F|, |H|, |G| and |T| of a configuration in one pass over its
    slabs: each stored pair or triple of a slab, H from the slab's F, is
    reduced to its max as it is formed, and the slabs' maxima by np.max, so
    a NaN reaches its norm."""
    _require_4d(cm, cfg, "curvatures are")
    npairs = len(pairs(4))
    worst = []
    for slab in cfg.slabs(("A", "beta", "C")):
        F = [_curvature_F_pair(cm, slab, P) for P in range(npairs)]
        worst.append((
            _worst(F),
            _worst(F[P] - contract(cm.del_.T, slab["beta"][P])
                   for P in range(npairs)),
            _worst(_three_form_triple(slab, "beta", cm.act, tri)
                   for tri in triples(4)),
            _worst(_curvature_T_pair(cm, slab, P) for P in range(npairs))))
    return dict(zip("FHGT", map(float, np.max(worst, axis=0))))


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------

def eom_residuals(cm, cfg) -> dict:
    """Field-equation data of a configuration: curvature norms and the
    multiplier equations.

    Returns max-abs of H and G (the B/C stationarity conditions) and the
    two epsilon-contracted expressions E_A, E_beta described in the module
    docstring, whose vanishing is the A/beta stationarity, with their
    norms.  One pass over the slabs reduces H and G as curvature_norms
    does, and fills the slab's rows of E_A and E_beta, the only full
    arrays, forming T one stored pair at a time.
    """
    lat = cfg.lattice
    _require_4d(cm, cfg, "equations of motion are")
    npairs = len(pairs(4))
    E_A = np.empty((4, cm.p) + lat.shape)
    E_beta = np.empty((npairs, cm.q) + lat.shape)
    actlow_a = cm.actlow.transpose(1, 0, 2)  # [a, al, be]
    worst = []
    for slab in cfg.slabs(FIELDS):
        worst.append((
            _worst(_fake_curvature_pair(cm, slab, P) for P in range(npairs)),
            _worst(_three_form_triple(slab, "beta", cm.act, tri)
                   for tri in triples(4))))
        for sig, tri, e in _AT4:
            E = contract(cm.Q, _three_form_triple(slab, "B", cm.f, tri))
            W = _wedge_triple(actlow_a, slab["beta"], slab["C"], tri)
            W *= 2.0
            E += W
            if e > 0:   # E *= -e
                np.negative(E, out=E)
            E_A[sig, :, slab.rows] = E
        for Pp, P, e in _PP4:
            E = contract(cm.qf, _curvature_T_pair(cm, slab, Pp))
            dB = contract(cm.dlow, slab["B"][Pp])
            dB *= 0.5
            E -= dB
            if e < 0:   # E *= e
                np.negative(E, out=E)
            E_beta[P, :, slab.rows] = E
    H_norm, G_norm = map(float, np.max(worst, axis=0))
    return {
        "H_norm": H_norm,
        "G_norm": G_norm,
        "E_A": E_A,
        "E_beta": E_beta,
        "E_A_norm": _maxabs(E_A),
        "E_beta_norm": _maxabs(E_beta),
    }


def _batched(window, ax: int, size: int) -> np.ndarray:
    """A view of window with a batch axis of the given size at array axis ax,
    broadcast."""
    window = np.expand_dims(window, ax)
    return np.broadcast_to(window, window.shape[:ax] + (size,)
                           + window.shape[ax + 1:])


def _entry_actions(cm, cfg: FieldConfiguration, dens, name: str,
                   entries) -> list:
    """(dS, |dS|) for each (index, value) of entries: the change of the
    action when one entry of cfg's field `name` (A or beta) is set, and the
    size of its terms, a^4 sum |d' - d| over the sites it moves; dens is the
    density that evaluate_action sums for cfg.

    The density of a row reads the windowed fields of ACTION_FIELDS on the
    row and its one-row window, so an entry on row y of lattice axis 0 moves
    the density on rows y - 1..y + 1 alone.  Each entry's density d' is
    formed on those rows only, from one Slab whose windows end on rows
    y - 2 and y + 2 (slab_window, wrapped mod n as the slab source wraps
    them), and dS is a^4 sum (d' - d) over the three rows: every other
    site's term is an exact zero, so the roundoff of dS is that of the terms
    the entry moves, not of the whole action.

    The entries on one row are batched on an axis before the lattice axes:
    every window is a broadcast view but the rows y - 1..y + 1 of the field
    set, copied once per batch.  Batching pays on lattices far smaller than
    a slab, where a kernel call is mostly overhead, so a batch holds
    SLAB_SITES // (3 n^4) entries, at least one: its three-row blocks hold
    at most SLAB_SITES / n sites, and from n = 10 on each entry is a batch.

    Every site gets the operations of evaluate_action, so d' is bitwise the
    density of the configuration with that entry set.
    """
    lat = cfg.lattice
    ax = getattr(cfg, name).ndim - lat.D   # the batch axis
    size = max(1, SLAB_SITES // (3 * lat.sites))
    by_row = {}
    for k, (index, _) in enumerate(entries):
        by_row.setdefault(index[ax], []).append(k)
    out = [None] * len(entries)
    for y, ks in by_row.items():
        rows = slice(y - 1, y + 2)
        windows = {f: slab_window(getattr(cfg, f), lat, rows) for f in FIELDS}
        moved = np.arange(y - 1, y + 2) % lat.n
        kept = dens[moved]
        for lo in range(0, len(ks), size):
            batch = ks[lo:lo + size]
            fields = {f: tuple(_batched(w, ax, len(batch)) for w in ws)
                      for f, ws in windows.items()}
            before, mid, after = fields[name]
            mid = mid.copy()
            for j, k in enumerate(batch):
                index, value = entries[k]
                mid[index[:ax] + (j, 1) + index[ax + 1:]] = value
            fields[name] = before, mid, after
            d = np.zeros((len(batch), 3) + lat.shape[1:])
            _action_density(cm, Slab(lat, rows, fields), d)
            d -= kept
            for j, k in enumerate(batch):
                out[k] = (_action(lat, d[j]), _action(lat, np.abs(d[j])))
    return out


def eom_gradient_check(cm, cfg: FieldConfiguration, res: dict,
                       seed: int = 0) -> float:
    """Max relative error between E_A/E_beta and finite differences of S.

    res is eom_residuals(cm, cfg).  Central differences of step 1e-6 in
    EOM_SAMPLES random entries each of A and beta are compared against -1/2 a^4
    E_A and 2 a^4 E_beta; an empty field (beta at q = 0) has no entry to
    sample.  S(x + h) - S(x) and S(x - h) - S(x), with x - h formed as
    (x + h) - 2h, are local sums over the three rows the entry moves
    (_entry_actions), so no configuration is copied and their roundoff does
    not grow with the lattice.  Each error is relative to the size of its
    terms: the larger of |a^4 E| at the entry and the finite difference's
    terms, (|dS+| + |dS-|) / 2h, where |dS| sums the moved density's changes
    in absolute value.  Both are zero only where every term is an exact
    zero, and so is the error, which is then 0.  The reduction is np.max, so
    a NaN error (a NaN action) is returned, never dropped.  cfg's fields
    must be held arrays (ValueError on a recipe).
    """
    _require_4d(cm, cfg, "equations of motion are")
    if not all(isinstance(getattr(cfg, k), np.ndarray) for k in FIELDS):
        raise ValueError("the finite differences of the action window held "
                         "fields; realize the configuration's recipes")
    lat = cfg.lattice
    rng = np.random.default_rng(seed)
    a4 = lat.volume_element
    step = 1e-6
    worst = 0.0
    dens = _density(cm, cfg)

    for field_name, key, coeff in (("A", "E_A", -0.5), ("beta", "E_beta", 2.0)):
        E = res[key]
        if E.size == 0:
            continue
        samples = [tuple(rng.integers(0, k) for k in E.shape[:2])
                   + tuple(rng.integers(0, lat.n, size=4))
                   for _ in range(EOM_SAMPLES)]
        entries = []
        for idx in samples:
            plus = getattr(cfg, field_name)[idx] + step
            entries += [(idx, plus), (idx, plus - 2 * step)]
        dS = _entry_actions(cm, cfg, dens, field_name, entries)
        for idx, (d_plus, s_plus), (d_minus, s_minus) in zip(
                samples, dS[::2], dS[1::2]):
            fd = (d_plus - d_minus) / (2 * step)
            analytic = coeff * a4 * E[idx]
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
        return ({"F": F, "T": T, "A": slab["A"], "C": slab["C"]},)

    def two_forms(rings):
        ring, = rings
        return [(_maxabs(_bianchi_g(cm, ring, tri)),
                 _maxabs(_bianchi_h(cm, ring, tri)))
                for tri in triples(4)]

    def top_triples(slab):
        fields = {X: slab[X] for X in ("A", "B", "beta")}
        fields.update(("d" + X, _three_form_triple(slab, X, coupling,
                                                   dA0_triple))
                      for X, coupling, _ in tops)
        return (fields,)

    def top_forms(rings):
        ring, = rings
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
