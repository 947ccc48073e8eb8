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
(sites, p, p) stacks (ad, the exponentials, the dexpinv sum; tens of MB)
and that slab's D eps, whatever the lattice size.  The fat transformation
differences only eta, one slab and stored pair at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .crossed_module import contract, t_map
from .lattice import FieldConfiguration, pairs, slab_derivative, slabs

__all__ = [
    "expm_batched",
    "thin_gauge_transform",
    "fat_gauge_transform",
]


# the largest norm with s = ceil(log2(norm / 0.5)) <= 1023, so 2**s is a double
_MAX_NORM = 2.0 ** 1022


def expm_batched(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of small matrices (..., d, d).

    Scaling and squaring with a Taylor series long enough for double
    precision once the scaled norm is below 1/2.  The terms accumulate in
    place, so the working set is five stacks the size of M.  A stack whose
    norm is non-finite, or too large for its scaling 2**s to be a double,
    gives a NaN stack.
    """
    if M.shape[-1] == 0:
        return M.copy()
    norm = float(np.max(np.sum(np.abs(M), axis=-1))) if M.size else 0.0
    if not norm <= _MAX_NORM:   # NaN included
        return np.full(M.shape, np.nan)
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    T = M / (2.0 ** s)
    d = M.shape[-1]
    result = np.broadcast_to(np.eye(d), M.shape).copy()
    power = result.copy()
    scratch = np.empty_like(result)
    for k in range(1, 19):
        np.matmul(power, T, out=scratch)
        scratch /= k
        power, scratch = scratch, power
        result += power
    for _ in range(s):
        np.matmul(result, result, out=scratch)
        result, scratch = scratch, result
    return result


def _dexpinv(neg_ad: np.ndarray) -> np.ndarray:
    """sum_{k=0}^{6} (-ad)^k / (k+1)! for a stack (..., p, p) of -ad."""
    S = np.broadcast_to(np.eye(neg_ad.shape[-1]), neg_ad.shape).copy()
    power = S.copy()
    scratch = np.empty_like(S)
    fact = 1.0
    for k in range(1, 7):
        np.matmul(power, neg_ad, out=scratch)
        power, scratch = scratch, power
        fact *= (k + 1)
        S += power / fact
    return S


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
        neg_ad = -np.einsum("abc,bs->sac", cm.f, eps)
        Rg, S = expm_batched(neg_ad), _dexpinv(neg_ad)
        Rh = expm_batched(-np.einsum("xay,as->sxy", cm.act, eps))
        for mu in range(lat.D):
            d_eps = slab_derivative(eps_field, mu, lat, rows)
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
            d_eta = (slab_derivative(eta[n], m, lat, rows)
                     - slab_derivative(eta[m], n, lat, rows))
            wedge = (contract(cm.act, A[m], e[n])
                     - contract(cm.act, A[n], e[m]))
            etaeta = contract(cm.phi, e[m], e[n])
            cfg.beta[P, :, rows] += d_eta + wedge + etaeta
            cfg.B[P, :, rows] += 2.0 * (
                contract(T, C[m], e[n]) - contract(T, C[n], e[m]))
        for mu in range(lat.D):
            A[mu] += np.einsum("ga,g...->a...", cm.del_, e[mu])
    return cfg
