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

Working set.  Both transformations work in place: they overwrite the
configuration they are given, one slab of lattice.slabs (the package's one
block size, lattice.SLAB_SITES sites) at a time, and return it without
re-validating it, so a non-finite value reaches the action and FAILs.  The
thin transformation is pointwise once D eps is formed: it holds one slab's
(sites, p, p) stacks (-ad, its powers T..T^3 scaled by 2**-s, the two
exponentials, the dexpinv sum; tens of MB) and that slab's D eps, whatever
the lattice size.  The fat transformation differences only eta, one slab
and stored pair at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .crossed_module import contract, t_map
from .lattice import (FieldConfiguration, pairs, slab_derivative, slab_window,
                      slabs)

__all__ = [
    "expm_batched",
    "thin_gauge_transform",
    "fat_gauge_transform",
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


def thin_gauge_transform(cm, cfg: FieldConfiguration,
                         eps_field: np.ndarray) -> FieldConfiguration:
    """Thin transformation with parameter eps^a(x), in place on cfg, which
    it returns; exact for constant eps.

    Each slab gets its own D eps, ad/act matrices, exponentials and dexpinv
    sum, and its rows of every field are overwritten with the transformed
    values.  The result is not re-validated: an unscalable exponential
    leaves NaN in the fields, which reaches the action and FAILs.
    """
    lat = cfg.lattice
    eps_field = np.asarray(eps_field, dtype=float)
    if eps_field.shape != (cm.p,) + lat.shape:
        raise ValueError(f"eps field has shape {eps_field.shape}")

    for rows in slabs(lat):
        eps = eps_field[:, rows].reshape(cm.p, -1)
        Rg, S = expm_batched(-np.einsum("abc,bs->sac", cm.f, eps),
                             return_dexpinv=True)
        Rh = expm_batched(-np.einsum("xay,as->sxy", cm.act, eps))
        window = slab_window(eps_field, lat, rows)
        for mu in range(lat.D):
            d_eps = slab_derivative(window, mu, lat)
            cfg.A[mu, :, rows] = (_apply(Rg, cfg.A[mu, :, rows])
                                  + _apply(S, d_eps))
            cfg.C[mu, :, rows] = _apply(Rh, cfg.C[mu, :, rows])
        for P in range(len(cfg.B)):
            cfg.B[P, :, rows] = _apply(Rg, cfg.B[P, :, rows])
            cfg.beta[P, :, rows] = _apply(Rh, cfg.beta[P, :, rows])
    return cfg


def fat_gauge_transform(cm, cfg: FieldConfiguration,
                        eta_field: np.ndarray) -> FieldConfiguration:
    """Fat transformation with an h-valued 1-form eta^al_mu(x), in place on
    cfg, which it returns, one slab at a time.

    Only eta is differenced, so each slab's beta and B shifts, which read
    its rows of A and C, are added before its A shift.  The result is not
    re-validated: a non-finite shift reaches the action and FAILs.
    """
    lat = cfg.lattice
    eta = np.asarray(eta_field, dtype=float)
    if eta.shape != (lat.D, cm.q) + lat.shape:
        raise ValueError(f"eta field has shape {eta.shape}")

    T = t_map(cm)
    for rows in slabs(lat):
        A, C, e = cfg.A[:, :, rows], cfg.C[:, :, rows], eta[:, :, rows]
        for P, (m, n) in enumerate(pairs(lat.D)):
            d_eta = (slab_derivative(slab_window(eta[n], lat, rows), m, lat)
                     - slab_derivative(slab_window(eta[m], lat, rows), n, lat))
            wedge = (contract(cm.act, A[m], e[n])
                     - contract(cm.act, A[n], e[m]))
            etaeta = contract(cm.phi, e[m], e[n])
            cfg.beta[P, :, rows] += d_eta + wedge + etaeta
            cfg.B[P, :, rows] += 2.0 * (
                contract(T, C[m], e[n]) - contract(T, C[n], e[m]))
        for mu in range(lat.D):
            A[mu] += np.einsum("ga,g...->a...", cm.del_, e[mu])
    return cfg
