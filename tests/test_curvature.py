"""Curvature components, action, field equations, Bianchi residuals."""

import numpy as np
import pytest

from bfcg.checks import order_ok
from bfcg.crossed_module import builtin_module
from bfcg.curvature import (bianchi_residuals, curvature_F, curvature_G3,
                            curvature_GB, curvature_T, eom_gradient_check,
                            eom_residuals, evaluate_action, fake_curvature)
from bfcg.lattice import (FieldConfiguration, Lattice, discrete_derivative,
                          eps4, finest_order, fit_order, make_config_recipe,
                          pair_index, pairs, sample_smooth_fields, triples)


def _zero_config(cm, lat):
    npairs = len(pairs(lat.D))
    return FieldConfiguration(
        lat,
        A=np.zeros((lat.D, cm.p) + lat.shape),
        beta=np.zeros((npairs, cm.q) + lat.shape),
        B=np.zeros((npairs, cm.p) + lat.shape),
        C=np.zeros((lat.D, cm.q) + lat.shape),
    )


def _reconstruct_pair(tensor, D):
    """Expand pair storage to a full antisymmetric (D, D, ...) tensor."""
    full = np.zeros((D, D) + tensor.shape[1:])
    for P, (m, n) in enumerate(pairs(D)):
        full[m, n] = tensor[P]
        full[n, m] = -tensor[P]
    return full


def _perm3_sign(l, m, n):
    """Parity of (l, m, n) relative to its sorted order."""
    inv = sum(1 for a, b in [(l, m), (l, n), (m, n)] if a > b)
    return -1.0 if inv % 2 else 1.0


def _reconstruct_triple(tensor, D):
    full = np.zeros((D, D, D) + tensor.shape[1:])
    pidx = {t: i for i, t in enumerate(triples(D))}
    for l in range(D):
        for m in range(D):
            for n in range(D):
                if len({l, m, n}) < 3:
                    continue
                key = tuple(sorted((l, m, n)))
                full[l, m, n] = _perm3_sign(l, m, n) * tensor[pidx[key]]
    return full


def test_zero_fields_zero_curvatures():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 4, 0.2)
    cfg = _zero_config(cm, lat)
    assert np.max(np.abs(curvature_F(cm, cfg))) == 0.0
    assert np.max(np.abs(fake_curvature(cm, cfg))) == 0.0
    assert np.max(np.abs(curvature_G3(cm, cfg))) == 0.0
    assert np.max(np.abs(curvature_T(cm, cfg))) == 0.0
    assert evaluate_action(cm, cfg) == 0.0


def test_constant_A_abelian_F_zero():
    cm = builtin_module("abelian(2,2)")
    lat = Lattice(4, 4, 0.2)
    cfg = _zero_config(cm, lat)
    cfg.A += np.arange(1, 9).reshape(4, 2, 1, 1, 1, 1)
    assert np.max(np.abs(curvature_F(cm, cfg))) == 0.0


def test_fake_curvature_del_zero_equals_F():
    cm = builtin_module("vector_poincare")
    lat = Lattice(4, 4, 0.2)
    cfg = sample_smooth_fields(cm, lat, 1, 3)
    assert np.array_equal(fake_curvature(cm, cfg), curvature_F(cm, cfg))


def test_fake_curvature_adjoint_compensated():
    """With del = identity, beta := F makes H vanish identically."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 5, 0.2)
    cfg = sample_smooth_fields(cm, lat, 1, 4)
    cfg.beta = curvature_F(cm, cfg).copy()
    assert np.max(np.abs(fake_curvature(cm, cfg))) < 1e-12


def test_three_form_antisymmetry_exact():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 4, 0.25)
    cfg = sample_smooth_fields(cm, lat, 1, 9)
    G3 = _reconstruct_triple(curvature_G3(cm, cfg), 4)
    # total antisymmetry under adjacent swaps
    assert np.max(np.abs(G3 + np.swapaxes(G3, 0, 1))) == 0.0
    assert np.max(np.abs(G3 + np.swapaxes(G3, 1, 2))) == 0.0
    F = _reconstruct_pair(curvature_F(cm, cfg), 4)
    assert np.max(np.abs(F + np.swapaxes(F, 0, 1))) == 0.0


def test_abelian_constant_beta_G_zero():
    cm = builtin_module("abelian(2,2)")
    lat = Lattice(4, 4, 0.2)
    cfg = _zero_config(cm, lat)
    cfg.beta += 1.5
    assert np.max(np.abs(curvature_G3(cm, cfg))) == 0.0


def test_abelian_T_GB_match_exterior_derivative_oracle():
    """For f = act = 0 the curvatures are plain discrete exterior derivatives."""
    cm = builtin_module("abelian(2,3)")
    lat = Lattice(4, 5, 0.3)
    cfg = sample_smooth_fields(cm, lat, 1, 11)
    T = curvature_T(cm, cfg)
    for P, (m, n) in enumerate(pairs(4)):
        dC = (discrete_derivative(cfg.C[n], m, lat)
              - discrete_derivative(cfg.C[m], n, lat))
        assert np.max(np.abs(T[P] - dC)) < 1e-12
    GB = curvature_GB(cm, cfg)
    pidx = pair_index(4)
    for Ti, tri in enumerate(triples(4)):
        acc = np.zeros_like(GB[Ti])
        perms = [((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                 ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1)]
        for perm, sgn in perms:
            d, i, j = (tri[k] for k in perm)
            P, ps = pidx[(i, j)]
            acc += sgn * ps * discrete_derivative(cfg.B[P], d, lat)
        assert np.max(np.abs(GB[Ti] - acc)) < 1e-12


# ---------------------------------------------------------------------------
# action
# ---------------------------------------------------------------------------

def _action_loop_oracle(cm, cfg):
    """Naive scalar-loop implementation of the action density."""
    lat = cfg.lattice
    P4 = pairs(4)
    H = _reconstruct_pair(fake_curvature(cm, cfg), 4)
    B = _reconstruct_pair(cfg.B, 4)
    G = _reconstruct_triple(curvature_G3(cm, cfg), 4)
    total = np.zeros(lat.shape)
    for mu in range(4):
        for nu in range(4):
            for rho in range(4):
                for sig in range(4):
                    e = eps4((mu, nu, rho, sig))
                    if not e:
                        continue
                    total += 0.25 * e * np.einsum(
                        "a...,ab,b...->...", B[mu, nu], cm.Q, H[rho, sig])
                    if cm.q:
                        total += e / 6.0 * np.einsum(
                            "x...,xy,y...->...", cfg.C[mu], cm.qf, G[nu, rho, sig])
    return float(lat.volume_element * np.sum(total))


def test_action_zero_B_and_C():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 4, 0.2)
    cfg = sample_smooth_fields(cm, lat, 1, 5)
    cfg.B = np.zeros_like(cfg.B)
    cfg.C = np.zeros_like(cfg.C)
    assert evaluate_action(cm, cfg) == 0.0


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare", "trivial_bf(3)"])
def test_action_matches_loop_oracle(name):
    cm = builtin_module(name)
    lat = Lattice(4, 4, 0.25)
    cfg = sample_smooth_fields(cm, lat, 1, 6)
    S = evaluate_action(cm, cfg)
    oracle = _action_loop_oracle(cm, cfg)
    assert abs(S - oracle) <= 1e-12 * max(1.0, abs(oracle))


# ---------------------------------------------------------------------------
# equations of motion
# ---------------------------------------------------------------------------

def test_eom_zero_point():
    cm = builtin_module("adjoint(su2)")
    cfg = _zero_config(cm, Lattice(4, 4, 0.2))
    res = eom_residuals(cm, cfg)
    assert res["H_norm"] == 0.0 and res["G_norm"] == 0.0
    assert res["E_A_norm"] == 0.0 and res["E_beta_norm"] == 0.0


def test_eom_matches_action_gradient():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 5, 0.2)
    cfg = make_config_recipe(cm, 4, 1, seed=2, scale=0.4).realize(lat)
    assert eom_gradient_check(cm, cfg, n_samples=10, seed=3) < 1e-6


def test_eom_curvature_part_flat_abelian():
    """A pure-gradient abelian connection has H -> 0 under refinement."""
    cm = builtin_module("abelian(1,1)")
    residuals, spacings = [], []
    rng = np.random.default_rng(12)
    amp = rng.normal(size=4)
    for n in (6, 12, 24):
        lat = Lattice(4, n, 1.0 / n)
        cfg = _zero_config(cm, lat)
        x = 2 * np.pi * np.arange(n) / n
        lam = sum(amp[m] * np.sin(x).reshape([-1 if ax == m else 1 for ax in range(4)])
                  * np.ones(lat.shape) for m in range(4))
        for mu in range(4):
            cfg.A[mu, 0] = discrete_derivative(lam, mu, lat)
        res = eom_residuals(cm, cfg)
        residuals.append(res["H_norm"])
        spacings.append(lat.a)
    # discrete gradient is curl-free exactly on the lattice
    assert max(residuals) < 1e-12


# ---------------------------------------------------------------------------
# Bianchi identities
# ---------------------------------------------------------------------------

def test_bianchi_zero_fields():
    cm = builtin_module("adjoint(su2)")
    res = bianchi_residuals(cm, _zero_config(cm, Lattice(4, 4, 0.25)))
    assert all(v == 0.0 for v in res.values())


def test_bianchi_abelian_exact():
    """All four identities are exact lattice identities for abelian modules."""
    cm = builtin_module("abelian(2,2)")
    lat = Lattice(4, 5, 0.2)
    cfg = sample_smooth_fields(cm, lat, 1, 8)
    res = bianchi_residuals(cm, cfg)
    assert all(v < 1e-11 for v in res.values()), res


def test_bianchi_converges_second_order():
    cm = builtin_module("adjoint(su2)")
    recipe = make_config_recipe(cm, 4, 1, seed=7, scale=0.4)
    table = {k: [] for k in ("bianchi_F", "bianchi_T", "bianchi_GB", "bianchi_G")}
    spacings = []
    for n in (6, 12, 24):
        lat = Lattice(4, n, 1.0 / n)
        res = bianchi_residuals(cm, recipe.realize(lat))
        for k in table:
            table[k].append(res[k])
        spacings.append(lat.a)
    for k, vals in table.items():
        order = finest_order(spacings, vals)
        fit = fit_order(spacings, vals)
        assert vals[0] > 0.1, "residual must be non-trivial"
        assert order_ok(order), (k, order, vals)
        assert 1.6 <= fit <= 2.3, (k, fit, vals)
