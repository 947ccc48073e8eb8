"""Thin and fat gauge transformations of lattice field configurations.

Group elements enter only through exponentials of algebra-valued fields.
A thin transformation with parameter field eps^a(x) acts by

    A   ->  exp(-ad_eps) A + dexpinv_eps(D eps)
    B   ->  exp(-ad_eps) B
    beta, C -> exp(-act_eps) beta, C

where ad_eps acts on g indices, act_eps = eps^a act_a on h indices, and
dexpinv_eps(v) = sum_{k=0}^{K} (-ad_eps)^k / (k+1)!  v   (K = 6)
realizes phi^{-1} d phi for phi = exp(eps).

A fat transformation with an h-valued 1-form eta acts exactly:

    A    -> A + del(eta)
    beta -> beta + d eta + A wedge^act eta + eta ^ eta    (phi-bracket)
    C    -> C
    B    -> B + 2 [T(C, eta)]_antisym

The eta^eta coefficient and the factor 2 on the B shift are fixed by exact
invariance of the fake curvature and of the action under this package's
normalization (see docs/conventions.md); both are covered by tests.

Working set.  Each transformation has one body per slab of lattice.slabs
(the package's one block size, lattice.SLAB_SITES sites), which reads the
slab's rows of the configuration and the window of its parameter and writes
the transformed rows where it is told.  A parameter, like each field, is a
full array or a FieldRecipe, checked for its shape alone (_parameter).
thin_gauge_transform and fat_gauge_transform write the rows over the held
configuration they are given (the rows of a recipe are read-only, so a
streamed field raises) and return it without re-validating it, so a
non-finite value reaches the action and FAILs.  transformed_actions writes
them into new slab arrays that a slab ring (lattice._ring) hands to the
action with their neighbour rows, so the gauge check's configuration, its
transforms and their parameters are realized and transformed one slab at a
time and no n^4 field exists.  The thin body is pointwise once D eps is
formed: it holds one slab's (sites, p, p) stacks of one sector at a time
(-ad, its powers T..T^3 scaled by 2**-s, the exponential, the dexpinv sum;
tens of MB) and that slab's D eps, whatever the lattice size.  The fat body
differences only eta, one stored pair at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .crossed_module import contract, t_map
from .curvature import ACTION_FIELDS, _action, _action_density, _require_4d
from .lattice import (FIELDS, FieldConfiguration, _fitted, _ring, pairs,
                      slab_derivative)

__all__ = [
    "expm_batched",
    "thin_gauge_transform",
    "fat_gauge_transform",
    "transformed_actions",
]


# the largest norm with s = ceil(log2(norm / 0.5)) <= 1023, so 2**s is a double
_MAX_NORM = 2.0 ** 1022
# 1/k! of the degree-18 Taylor polynomial, summed in blocks of T^0..T^2
_TAYLOR = [1.0 / math.factorial(k) for k in range(19)]


def expm_batched(M: np.ndarray, return_dexpinv: bool = False):
    """Matrix exponential of a stack of small matrices (..., d, d), and with
    return_dexpinv also sum_{k=0}^{6} M^k / (k+1)! (dexpinv for M = -ad).

    Scaling and squaring of the degree-18 Taylor polynomial of T = M / 2**s
    (norm <= 1/2), evaluated by Paterson-Stockmeyer as a Horner scheme in
    T^3 over blocks in I, T, T^2 (c I added on the diagonal only): 7
    matmuls, then s squarings.  The dexpinv sum is L + H T^3 from the same
    powers (M^k = 2**(s k) T^k), one more matmul.  Past the stack-wide s,
    every step is per matrix.  The working set is seven stacks the size of
    M, M included.  A non-finite norm, or one too large for 2**s to be a
    double, gives NaN stacks.
    """
    if M.shape[-1] == 0:
        return (M.copy(), M.copy()) if return_dexpinv else M.copy()
    norm = float(np.max(np.sum(np.abs(M), axis=-1))) if M.size else 0.0
    if not norm <= _MAX_NORM:   # NaN included
        nan = np.full(M.shape, np.nan)
        return (nan, nan.copy()) if return_dexpinv else nan
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    T = np.divide(M, 2.0 ** s, out=np.empty(M.shape))
    T2 = np.matmul(T, T)
    T3 = np.matmul(T2, T)
    tmp = np.empty(M.shape)
    # (..((c18 T^3 + B_15) T^3 + B_12) T^3 ..) T^3 + B_0, B_j of degree 2
    result = np.multiply(T3, _TAYLOR[18])
    for j in range(15, -1, -3):
        result += np.multiply(T, _TAYLOR[j + 1], out=tmp)
        result += np.multiply(T2, _TAYLOR[j + 2], out=tmp)
        for i in range(M.shape[-1]):   # c_j I, on the diagonal only
            result[..., i, i] += _TAYLOR[j]
        if j:
            np.matmul(result, T3, out=tmp)
            result, tmp = tmp, result
    if return_dexpinv:
        # M^k / (k+1)! = T^k / ((k+1)! 2**(-s k)); L has k <= 3, H T^3 the rest
        div = [math.ldexp(math.factorial(k + 1), -s * k) for k in range(7)]
        dexpinv = np.divide(T3, div[6])
        dexpinv += np.divide(T2, div[5], out=tmp)
        dexpinv += np.divide(T, div[4], out=tmp)
        np.matmul(dexpinv, T3, out=tmp)
        dexpinv, tmp = tmp, dexpinv
        for k, Tk in ((3, T3), (2, T2), (1, T)):
            dexpinv += np.divide(Tk, div[k], out=tmp)
        for i in range(M.shape[-1]):
            dexpinv[..., i, i] += 1.0
    del T, T2, T3
    for _ in range(s):
        np.matmul(result, result, out=tmp)
        result, tmp = tmp, result
    return (result, dexpinv) if return_dexpinv else result


def _apply(mat, field):
    """Apply per-site matrices (sites, d, d) to a slab field (d, rows, ...)."""
    flat = field.reshape(len(field), len(mat))
    return np.einsum("sxy,ys->xs", mat, flat).reshape(field.shape)


def _thin_slab(cm, slab, out) -> None:
    """The thin transformation of one slab, from its rows of the fields and
    its window of "eps", written into out[field] (the slab's rows; out may
    be the slab itself).

    The slab gets its own D eps, ad/act matrices, exponentials and dexpinv
    sum, so its exponentials scale by its own stack-wide 2**s.  The g-sector
    fields are rotated before the h-sector exponential is formed, so at most
    one sector's stacks are alive.
    """
    lat = slab.lattice
    eps = slab["eps"].reshape(cm.p, -1)
    Rg, S = expm_batched(-np.einsum("abc,bs->sac", cm.f, eps),
                         return_dexpinv=True)
    window = slab.window("eps")
    for mu in range(lat.D):
        d_eps = slab_derivative(window, mu, lat)
        out["A"][mu] = _apply(Rg, slab["A"][mu]) + _apply(S, d_eps)
    for P in range(len(slab["B"])):
        out["B"][P] = _apply(Rg, slab["B"][P])
    del Rg, S
    Rh = expm_batched(-np.einsum("xay,as->sxy", cm.act, eps))
    for mu in range(lat.D):
        out["C"][mu] = _apply(Rh, slab["C"][mu])
    for P in range(len(slab["beta"])):
        out["beta"][P] = _apply(Rh, slab["beta"][P])


def _fat_slab(cm, slab, out, T) -> None:
    """The fat transformation of one slab, from its rows of the fields and
    its window of "eta", written into out["A"], out["beta"] and out["B"]
    (the slab's rows; out may be the slab itself); C does not change.  T is
    t_map(cm).

    Only eta is differenced, so the beta and B shifts, which read the rows
    of A and C, are added before the A shift.
    """
    lat = slab.lattice
    A, C, e = slab["A"], slab["C"], slab["eta"]
    for P, (m, n) in enumerate(pairs(lat.D)):
        d_eta = (slab_derivative(slab.window("eta", n), m, lat)
                 - slab_derivative(slab.window("eta", m), n, lat))
        wedge = (contract(cm.act, A[m], e[n])
                 - contract(cm.act, A[n], e[m]))
        etaeta = contract(cm.phi, e[m], e[n])
        np.add(slab["beta"][P], d_eta + wedge + etaeta, out=out["beta"][P])
        np.add(slab["B"][P], 2.0 * (contract(T, C[m], e[n])
                                    - contract(T, C[n], e[m])),
               out=out["B"][P])
    for mu in range(lat.D):
        np.add(A[mu], np.einsum("ga,g...->a...", cm.del_, e[mu]),
               out=out["A"][mu])


def _parameter(cm, lat, name, field):
    """The thin (eps, components (p,)) or fat (eta, (D, q)) parameter, a
    full array or a FieldRecipe, checked for shape only: a non-finite value
    reaches the action and FAILs."""
    return _fitted(lat, name, field,
                   (cm.p,) if name == "eps" else (lat.D, cm.q))


def thin_gauge_transform(cm, cfg: FieldConfiguration,
                         eps_field: np.ndarray) -> FieldConfiguration:
    """Thin transformation with parameter eps^a(x), a full array or a
    FieldRecipe, in place on cfg, which it returns; exact for constant eps.

    Each slab's rows of every field are overwritten with the transformed
    values (_thin_slab).  The result is not re-validated: an unscalable
    exponential leaves NaN in the fields, which reaches the action and
    FAILs.
    """
    _require_4d(cm, cfg, "gauge transformations are")
    eps = _parameter(cm, cfg.lattice, "eps", eps_field)
    for slab in cfg.slabs(rows=FIELDS, eps=eps):
        _thin_slab(cm, slab, slab)
    return cfg


def fat_gauge_transform(cm, cfg: FieldConfiguration,
                        eta_field: np.ndarray) -> FieldConfiguration:
    """Fat transformation with an h-valued 1-form eta^al_mu(x), a full array
    or a FieldRecipe, in place on cfg, which it returns, one slab at a time
    (_fat_slab).  The result is not re-validated: a non-finite shift reaches
    the action and FAILs.
    """
    _require_4d(cm, cfg, "gauge transformations are")
    eta = _parameter(cm, cfg.lattice, "eta", eta_field)
    T = t_map(cm)
    for slab in cfg.slabs(rows=FIELDS, eta=eta):
        _fat_slab(cm, slab, slab, T)
    return cfg


def transformed_actions(cm, cfg, eps, eta) -> tuple:
    """(S, S_thin, S_fat): the action of cfg and of its thin and fat
    transforms with parameters eps and eta, in one pass over cfg's slabs.

    The fields of cfg and the parameters are full arrays or FieldRecipes,
    which the slab source realizes slab by slab.  Each slab is
    transformed once, on the lattice.slabs partition, into new slab arrays
    (C is shared by the fat transform), and a slab ring (lattice._ring)
    gives the action each transformed slab with its neighbour rows.  The
    three values are bitwise those of evaluate_action on cfg and on the
    transforms of a copy of it.
    """
    lat = cfg.lattice
    _require_4d(cm, cfg, "the action is")
    dens = [np.zeros(lat.shape) for _ in range(3)]
    T = t_map(cm)

    def transformed(slab):
        _action_density(cm, slab, dens[0][slab.rows])
        thin = {k: np.empty_like(slab[k]) for k in FIELDS}
        _thin_slab(cm, slab, thin)
        fat = {k: np.empty_like(slab[k]) for k in ("A", "beta", "B")}
        fat["C"] = slab["C"]
        _fat_slab(cm, slab, fat, T)
        return thin, fat

    def actions(rings):
        for ring, d in zip(rings, dens[1:]):
            _action_density(cm, ring, d[ring.rows])

    eps, eta = _parameter(cm, lat, "eps", eps), _parameter(cm, lat, "eta", eta)
    _ring(cfg.slabs(*ACTION_FIELDS, eps=eps, eta=eta), transformed, actions,
          ACTION_FIELDS[0])
    return tuple(_action(lat, d) for d in dens)
