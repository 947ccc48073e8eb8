"""Thin and fat gauge transformations of lattice field configurations.

Group elements enter only through exponentials of algebra-valued fields.
A thin transformation with parameter field eps^a(x) acts by

    A   ->  exp(-ad_eps) A + dexpinv_eps(D eps)
    B   ->  exp(-ad_eps) B
    beta, C -> exp(-act_eps) beta, C

where ad_eps acts on g indices, act_eps = eps^a act_a on h indices, and
dexpinv_eps(v) = sum_{k=0}^{K} (-ad_eps)^k / (k+1)!  v   (K = dexp order)
realizes phi^{-1} d phi for phi = exp(eps).

A fat transformation with an h-valued 1-form eta acts exactly:

    A    -> A + del(eta)
    beta -> beta + d eta + A wedge^act eta + eta ^ eta    (phi-bracket)
    C    -> C
    B    -> B + 2 [T(C, eta)]_antisym

The eta^eta coefficient and the factor 2 on the B shift are fixed by exact
invariance of the fake curvature and of the action under this package's
normalization (see docs/conventions.md); both are covered by tests.
"""

from __future__ import annotations

import math

import numpy as np

from .crossed_module import contract, t_map
from .lattice import FieldConfiguration, discrete_derivative, pairs

__all__ = [
    "expm_batched",
    "thin_gauge_transform",
    "fat_gauge_transform",
]


def expm_batched(M: np.ndarray) -> np.ndarray:
    """Matrix exponential of a stack of small matrices (..., d, d).

    Scaling and squaring with a Taylor series long enough for double
    precision once the scaled norm is below 1/2.
    """
    if M.shape[-1] == 0:
        return M.copy()
    norm = float(np.max(np.sum(np.abs(M), axis=-1))) if M.size else 0.0
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    T = M / (2.0 ** s)
    d = M.shape[-1]
    eye = np.broadcast_to(np.eye(d), M.shape).copy()
    result = eye.copy()
    power = eye.copy()
    for k in range(1, 19):
        power = power @ T / k
        result = result + power
    for _ in range(s):
        result = result @ result
    return result


def _ad_matrices(cm, eps_field):
    """(sites..., p, p) with (ad_eps)^a_c = f^a_{bc} eps^b."""
    return np.einsum("abc,b...->...ac", cm.f, eps_field)


def _act_matrices(cm, eps_field):
    """(sites..., q, q) with (act_eps)^al_ga = eps^a act^al_{a ga}."""
    return np.einsum("xay,a...->...xy", cm.act, eps_field)


def _apply(mat, field):
    """Apply per-site matrices (sites..., d, d) to a field (d, sites...)."""
    return np.einsum("...xy,y...->x...", mat, field)


def thin_gauge_transform(cm, cfg: FieldConfiguration, eps_field: np.ndarray,
                         dexp_order: int = 6) -> FieldConfiguration:
    """Thin transformation with parameter eps^a(x); exact for constant eps."""
    if dexp_order < 1:
        raise ValueError("dexp series order must be >= 1")
    lat = cfg.lattice
    eps_field = np.asarray(eps_field, dtype=float)
    if eps_field.shape != (cm.p,) + lat.shape:
        raise ValueError(f"eps field has shape {eps_field.shape}")

    ad = _ad_matrices(cm, eps_field)
    Rg = expm_batched(-ad)
    if cm.q:
        Rh = expm_batched(-_act_matrices(cm, eps_field))

    # dexpinv coefficients sum_k (-ad)^k/(k+1)!
    d = cm.p
    eye = np.broadcast_to(np.eye(d), ad.shape).copy()
    S = eye / 1.0
    power = eye.copy()
    fact = 1.0
    for k in range(1, dexp_order + 1):
        power = power @ (-ad)
        fact *= (k + 1)
        S = S + power / fact

    A_new = np.empty_like(cfg.A)
    for mu in range(lat.D):
        deps = discrete_derivative(eps_field, mu, lat)
        A_new[mu] = _apply(Rg, cfg.A[mu]) + _apply(S, deps)
    B_new = np.stack([_apply(Rg, cfg.B[P]) for P in range(cfg.B.shape[0])])
    if cm.q:
        beta_new = np.stack([_apply(Rh, cfg.beta[P]) for P in range(cfg.beta.shape[0])])
        C_new = np.stack([_apply(Rh, cfg.C[mu]) for mu in range(lat.D)])
    else:
        beta_new = cfg.beta.copy()
        C_new = cfg.C.copy()
    return FieldConfiguration(lat, A_new, beta_new, B_new, C_new)


def fat_gauge_transform(cm, cfg: FieldConfiguration,
                        eta_field: np.ndarray) -> FieldConfiguration:
    """Fat transformation with an h-valued 1-form eta^al_mu(x)."""
    lat = cfg.lattice
    eta = np.asarray(eta_field, dtype=float)
    if eta.shape != (lat.D, cm.q) + lat.shape:
        raise ValueError(f"eta field has shape {eta.shape}")

    A_new = cfg.A.copy()
    if cm.q:
        for mu in range(lat.D):
            A_new[mu] += np.einsum("ga,g...->a...", cm.del_, eta[mu])

    beta_new = cfg.beta.copy()
    B_new = cfg.B.copy()
    if cm.q:
        T = t_map(cm).T
        for P, (m, n) in enumerate(pairs(lat.D)):
            d_eta = (discrete_derivative(eta[n], m, lat)
                     - discrete_derivative(eta[m], n, lat))
            wedge = (contract(cm.act, cfg.A[m], eta[n])
                     - contract(cm.act, cfg.A[n], eta[m]))
            etaeta = contract(cm.phi, eta[m], eta[n])
            beta_new[P] += d_eta + wedge + etaeta
            B_new[P] += 2.0 * (
                contract(T, cfg.C[m], eta[n]) - contract(T, cfg.C[n], eta[m]))
    return FieldConfiguration(lat, A_new, beta_new, B_new, cfg.C.copy())
