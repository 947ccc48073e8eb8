"""Curvature components, action, field equations, Bianchi residuals."""

import numpy as np
import pytest

from bfcg import curvature
from bfcg.checks import RunConfig, check_eom, order_ok
from bfcg.crossed_module import builtin_module, contract
from bfcg.curvature import (bianchi_residuals, curvature_F, curvature_norms,
                            eom_gradient_check, eom_residuals,
                            evaluate_action)
from bfcg.gauge import (fat_gauge_transform, thin_gauge_transform,
                        transformed_actions)
from bfcg.lattice import (FieldConfiguration, FieldRecipe, Lattice, Slab,
                          discrete_derivative, levi_civita, finest_order,
                          fit_order, make_config_recipe, pair_index, pairs,
                          slab_window, triples)
from support import (curvature_G3, curvature_GB, curvature_T, fake_curvature,
                     sample_smooth_fields, traced_peak)


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


@pytest.mark.parametrize("name, n", [("adjoint(su2)", 14),
                                     ("vector_poincare", 16),
                                     ("trivial_bf(3)", 5), ("abelian(2,3)", 6)])
def test_curvature_norms_are_the_full_array_maxima(name, n):
    """The one slab pass gives bitwise the max-abs of the full F, H, G and T
    arrays, of a held and of a streamed configuration, and eom_residuals
    the same H and G norms; n = 14 is two slabs of 11 and 3 rows, n = 16
    two of 8."""
    cm = builtin_module(name)
    lat = Lattice(4, n, 1.0 / n)
    recipe = make_config_recipe(cm, 4, 2, seed=n, scale=0.7)
    cfg = recipe.realize(lat)
    full = {"F": curvature_F(cm, cfg), "H": fake_curvature(cm, cfg),
            "G": curvature_G3(cm, cfg), "T": curvature_T(cm, cfg)}
    want = {k: float(np.max(np.abs(v), initial=0.0)) for k, v in full.items()}
    assert curvature_norms(cm, cfg) == want
    assert curvature_norms(cm, recipe.stream(lat)) == want
    res = eom_residuals(cm, cfg)
    assert (res["H_norm"], res["G_norm"]) == (want["H"], want["G"])


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
                    e = levi_civita((mu, nu, rho, sig))
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

ORACLE_MODULES = ["adjoint(su2)", "vector_poincare", "abelian(2,3)",
                  "trivial_bf(3)"]


def _oracle_config(name, n):
    cm = builtin_module(name)
    recipe = make_config_recipe(cm, 4, 1, seed=n, scale=0.7)
    return cm, recipe.realize(Lattice(4, n, 1.0 / n))


def _assert_close(got, want):
    """got == want to 1e-12 relative to max(1, |want|), empty arrays included."""
    assert np.shape(got) == np.shape(want)
    scale = max(1.0, float(np.max(np.abs(want), initial=0.0)))
    assert float(np.max(np.abs(got - want), initial=0.0)) <= 1e-12 * scale


def _cov_D_lower(cfg, field_low, up_field, axis, coupling_low):
    """nabla_axis of a lowered field: D X_low + coupling_low(A_axis, X_up)."""
    out = discrete_derivative(field_low, axis, cfg.lattice)
    if coupling_low.size:
        out += contract(coupling_low, cfg.A[axis], up_field)
    return out


def _eom_loop_oracle(cm, cfg):
    """E_A and E_beta summed over every eps^{mnrs} term, with lowered fields."""
    lat = cfg.lattice
    P4 = pairs(4)
    B_low = np.einsum("ab,Pb...->Pa...", cm.Q, cfg.B)
    C_low = np.einsum("xy,my...->mx...", cm.qf, cfg.C) if cm.q else cfg.C
    E_A = np.zeros((4, cm.p) + lat.shape)
    actlow_a = cm.actlow.transpose(1, 0, 2)  # [a, al, be]
    for sig in range(4):
        for mu in range(4):
            for P, (n, r) in enumerate(P4):
                e = levi_civita((mu, n, r, sig))
                if e:
                    E_A[sig] += 2.0 * e * _cov_D_lower(
                        cfg, B_low[P], cfg.B[P], mu, cm.flow)
        if cm.q:
            for P, (m, n) in enumerate(P4):
                for rho in range(4):
                    e = levi_civita((m, n, rho, sig))
                    if e:
                        E_A[sig] += 4.0 * e * contract(
                            actlow_a, cfg.beta[P], cfg.C[rho])
    E_beta = np.zeros((len(P4), cm.q) + lat.shape)
    if cm.q:
        for P, (r, s) in enumerate(P4):
            for mu in range(4):
                for nu in range(4):
                    e = levi_civita((mu, nu, r, s))
                    if e:
                        E_beta[P] += e * _cov_D_lower(
                            cfg, C_low[nu], cfg.C[nu], mu, cm.actlow)
            for Pp, (m, n) in enumerate(P4):
                e = levi_civita((m, n, r, s))
                if e:
                    E_beta[P] -= 0.5 * e * np.einsum(
                        "xb,b...->x...", cm.dlow, cfg.B[Pp])
    return E_A, E_beta


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("name", ORACLE_MODULES)
def test_eom_matches_loop_oracle(name, n):
    cm, cfg = _oracle_config(name, n)
    res = eom_residuals(cm, cfg)
    E_A, E_beta = _eom_loop_oracle(cm, cfg)
    _assert_close(res["E_A"], E_A)
    _assert_close(res["E_beta"], E_beta)


def test_eom_residuals_hold_no_curvature_array():
    """eom_residuals forms H, G and T one slab at a time, so on a held
    adjoint(su2) configuration at n = 16 it peaks below one configuration,
    of which the E_A and E_beta it returns are half."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 16, 1.0 / 16)
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(lat)
    one = sum(getattr(cfg, f).nbytes for f in ("A", "beta", "B", "C"))
    _, peak = traced_peak(eom_residuals, cm, cfg)
    assert peak < one, peak / one


def test_nan_on_the_last_slab_reaches_the_eom_norm(monkeypatch):
    """H is NaN on the last stored pair of the last of two slabs (n = 16)
    only; the slabs' maxima are reduced by np.max, so the H norm is NaN."""
    kernel = curvature._fake_curvature_pair

    def nan_at_the_end(cm, slab, P):
        out = kernel(cm, slab, P)
        if slab.rows.stop == slab.lattice.n and P == 5:
            out[...] = np.nan
        return out

    cm = builtin_module("adjoint(su2)")
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(
        Lattice(4, 16, 1.0 / 16))
    monkeypatch.setattr(curvature, "_fake_curvature_pair", nan_at_the_end)
    res = eom_residuals(cm, cfg)
    assert np.isnan(res["H_norm"]) and np.isfinite(res["G_norm"])


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
    assert eom_gradient_check(cm, cfg, eom_residuals(cm, cfg), n_samples=10,
                              seed=3) < 1e-6


@pytest.mark.parametrize("name, n", [
    (name, n) for name in ("trivial_bf(1)", "abelian(4,2)", "adjoint(su2)",
                           "vector_poincare") for n in (4, 5, 6)]
    + [("trivial_bf(1)", 16), ("adjoint(su2)", 16)])
def test_entry_actions_are_the_actions_of_perturbed_copies(name, n):
    """Each action that the finite differences read, formed from the
    density of the unperturbed configuration and the three rows an entry
    moves, is bitwise evaluate_action of a copy with that entry set: on the
    wrap rows 0 and n - 1 and a middle row, and with two samples (four
    entries) at one site in one batch.  beta at q = 0 has no entry."""
    cm = builtin_module(name)
    lat = Lattice(4, n, 1.0 / n)
    cfg = make_config_recipe(cm, 4, 1, seed=n, scale=0.4).realize(lat)
    dens = curvature._density(cm, cfg)
    unperturbed = dens.copy()
    rng = np.random.default_rng(n)
    for field_name in ("A", "beta"):
        field = getattr(cfg, field_name)
        if field.size == 0:
            continue
        entries = []
        for y in (0, n - 1, n // 2):
            index = (tuple(rng.integers(0, k) for k in field.shape[:2]) + (y,)
                     + tuple(rng.integers(0, n, size=3)))
            plus = field[index] + 1e-6
            entries += [(index, plus), (index, plus - 2e-6)]
        index = entries[-1][0]
        entries += [(index, field[index] + 0.5), (index, field[index] - 0.25)]
        got = curvature._entry_actions(cm, cfg, dens, field_name, entries)
        assert np.array_equal(dens, unperturbed)
        for (index, value), S in zip(entries, got):
            work = cfg.copy()
            getattr(work, field_name)[index] = value
            assert S == evaluate_action(cm, work), (field_name, index)


def _gradient_check_oracle(cm, cfg, res, n_samples, seed):
    """eom_gradient_check as a loop over copies: each finite difference
    evaluates the action of a whole configuration copy, twice."""
    lat = cfg.lattice
    rng = np.random.default_rng(seed)
    a4, step, worst = lat.volume_element, 1e-6, 0.0
    for field_name, E, coeff in (("A", res["E_A"], -0.5),
                                 ("beta", res["E_beta"], 2.0)):
        if E.size == 0:
            continue
        scale = max(1.0, np.max(np.abs(E)) * a4)
        for _ in range(n_samples):
            idx = (tuple(rng.integers(0, k) for k in E.shape[:2])
                   + tuple(rng.integers(0, lat.n, size=4)))
            work = cfg.copy()
            arr = getattr(work, field_name)
            arr[idx] += step
            s_plus = evaluate_action(cm, work)
            arr[idx] -= 2 * step
            fd = (s_plus - evaluate_action(cm, work)) / (2 * step)
            worst = float(np.max([worst, abs(fd - coeff * a4 * E[idx]) / scale]))
    return worst


@pytest.mark.parametrize("name, n, seed", [("trivial_bf(1)", 5, 1),
                                           ("abelian(4,2)", 6, 2),
                                           ("adjoint(su2)", 5, 1),
                                           ("vector_poincare", 4, 1)])
def test_eom_gradient_check_is_the_loop_over_copies(name, n, seed):
    """The eom check's relative error is bitwise that of the loop over
    configuration copies, the same draws and steps on the same actions.
    abelian(4,2) at n = 6 and seed 2 moves if x - h is formed other than as
    (x + h) - 2h."""
    cm = builtin_module(name)
    rec = check_eom(cm, RunConfig(seed=seed, ns=(n,)))
    cfg = make_config_recipe(cm, 4, 1, seed=seed, scale=0.4).realize(
        Lattice(4, n, 1.0 / n))
    res = eom_residuals(cm, cfg)
    assert rec.residuals["relerr"] == (
        _gradient_check_oracle(cm, cfg, res, n_samples=16, seed=seed),)


def test_eom_gradient_check_copies_no_configuration():
    """The finite differences form three rows of density per entry and copy
    no configuration: at n = 12 on adjoint(su2) the check peaks below half
    of one configuration, where a copy per sample takes a whole one."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 12, 1.0 / 12)
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(lat)
    res = eom_residuals(cm, cfg)
    one = sum(getattr(cfg, f).nbytes for f in ("A", "beta", "B", "C"))
    worst, peak = traced_peak(eom_gradient_check, cm, cfg, res, 16, 1)
    assert worst < 1e-6
    assert peak < one / 2, peak / one


def test_eom_gradient_check_needs_held_fields():
    """The finite differences window held fields: on recipes they raise a
    ValueError that says so, not an error from inside a kernel."""
    cm = builtin_module("adjoint(su2)")
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).stream(
        Lattice(4, 6, 1.0 / 6))
    with pytest.raises(ValueError, match="held fields"):
        eom_gradient_check(cm, cfg, eom_residuals(cm, cfg))


def _misfits(cm, lat):
    """Configurations of cm's lead shapes whose C or B has one component:
    held, or C as a recipe of components (4, 1)."""
    recipe = make_config_recipe(cm, 4, 1, seed=1, scale=0.4)
    held = recipe.realize(lat)
    thin_C = FieldRecipe(4, (4, 1), {k: (ca[:, :1], sa[:, :1]) for k, (ca, sa)
                                     in recipe.C.coeffs.items()})
    return {"held C": FieldConfiguration(lat, held.A, held.beta, held.B,
                                         held.C[:, :1]),
            "held B": FieldConfiguration(lat, held.A, held.beta,
                                         held.B[:, :1], held.C),
            "recipe C": FieldConfiguration(lat, recipe.A, recipe.beta,
                                           recipe.B, thin_C)}


@pytest.mark.parametrize("reader", [
    curvature_F, curvature_norms, evaluate_action, eom_residuals,
    bianchi_residuals,
    lambda cm, cfg: eom_gradient_check(cm, cfg, {}),
    lambda cm, cfg: thin_gauge_transform(cm, cfg, np.zeros(
        (cm.p,) + cfg.lattice.shape)),
    lambda cm, cfg: fat_gauge_transform(cm, cfg, np.zeros(
        (4, cm.q) + cfg.lattice.shape)),
    lambda cm, cfg: transformed_actions(cm, cfg, np.zeros(
        (cm.p,) + cfg.lattice.shape), np.zeros((4, cm.q) + cfg.lattice.shape)),
], ids=["curvature_F", "curvature_norms", "evaluate_action", "eom_residuals",
        "bianchi_residuals", "eom_gradient_check", "thin_gauge_transform",
        "fat_gauge_transform", "transformed_actions"])
def test_a_configuration_that_misfits_the_module_is_refused(reader):
    """einsum broadcasts a size-1 component axis, so a C or B of one
    component on adjoint(su2) (p = q = 3) would give a finite action; every
    4D entry refuses it, held or recipe, with a ValueError naming the
    field."""
    cm = builtin_module("adjoint(su2)")
    for kind, cfg in _misfits(cm, Lattice(4, 5, 0.2)).items():
        with pytest.raises(ValueError, match=f"field {kind[-1]} does not fit"):
            reader(cm, cfg)


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


def _bianchi_loop_oracle(cm, cfg):
    """The four Bianchi residual arrays summed over every eps^{lmnr} term,
    with lowered fields: R1, R2 per axis lambda, R3, R4 as 4-forms."""
    lat = cfg.lattice
    P4 = pairs(4)
    F = curvature_F(cm, cfg)
    F_low = np.einsum("ab,Pb...->Pa...", cm.Q, F)
    R1 = np.zeros((4, cm.p) + lat.shape)
    R2 = np.zeros((4, cm.q) + lat.shape)
    T = curvature_T(cm, cfg)
    T_low = np.einsum("xy,Py...->Px...", cm.qf, T)
    for lam in range(4):
        for mu in range(4):
            for P, (n, r) in enumerate(P4):
                e = levi_civita((lam, mu, n, r))
                if e:
                    R1[lam] += 2.0 * e * _cov_D_lower(
                        cfg, F_low[P], F[P], mu, cm.flow)
                    R2[lam] += 2.0 * e * _cov_D_lower(
                        cfg, T_low[P], T[P], mu, cm.actlow)
        for P, (m, n) in enumerate(P4):
            for rho in range(4):
                e = levi_civita((lam, m, n, rho))
                if e and cm.q:
                    R2[lam] -= 2.0 * e * contract(cm.actlow, F[P], cfg.C[rho])
    GB, G3 = curvature_GB(cm, cfg), curvature_G3(cm, cfg)
    GB_low = np.einsum("ab,Tb...->Ta...", cm.Q, GB)
    G3_low = np.einsum("xy,Ty...->Tx...", cm.qf, G3)
    R3 = np.zeros((cm.p,) + lat.shape)
    R4 = np.zeros((cm.q,) + lat.shape)
    for lam in range(4):
        for Ti, tri in enumerate(triples(4)):
            e = levi_civita((lam,) + tri)
            if e:
                R3 += 2.0 * e * _cov_D_lower(cfg, GB_low[Ti], GB[Ti], lam,
                                             cm.flow)
                R4 += 2.0 * e * _cov_D_lower(cfg, G3_low[Ti], G3[Ti], lam,
                                             cm.actlow)
    for Pi, (l, m) in enumerate(P4):
        for Pj, (n, r) in enumerate(P4):
            e = levi_civita((l, m, n, r))
            if e:
                R3 -= 4.0 * e * contract(cm.flow, F[Pi], cfg.B[Pj])
                if cm.q:
                    R4 -= 4.0 * e * contract(cm.actlow, F[Pi], cfg.beta[Pj])
    return {"bianchi_F": R1, "bianchi_T": R2, "bianchi_GB": R3, "bianchi_G": R4}


@pytest.mark.parametrize("n", [5, 6])
@pytest.mark.parametrize("name", ORACLE_MODULES)
def test_bianchi_matches_loop_oracle(name, n):
    """Each residual matches its eps-loop sum, and the 2-form identities are
    the Bianchi 3-forms on the complementary triples:
    R1[l] = eps^{l T} Q.d_A F|_T and R2[l] = eps^{l T} (q.d_A T - W)|_T."""
    cm, cfg = _oracle_config(name, n)
    res = bianchi_residuals(cm, cfg)
    oracle = _bianchi_loop_oracle(cm, cfg)
    for key, arr in oracle.items():
        _assert_close(res[key], float(np.max(np.abs(arr), initial=0.0)))
    lat = cfg.lattice
    whole = Slab(lat, slice(0, lat.n), {
        name: slab_window(X, lat, slice(None))
        for name, X in (("A", cfg.A), ("C", cfg.C), ("F", curvature_F(cm, cfg)),
                        ("T", curvature_T(cm, cfg)))})
    for lam in range(4):
        tri = tuple(ax for ax in range(4) if ax != lam)
        e = levi_civita((lam,) + tri)
        _assert_close(e * curvature._bianchi_g(cm, whole, tri),
                      oracle["bianchi_F"][lam])
        if cm.q:
            _assert_close(e * curvature._bianchi_h(cm, whole, tri),
                          oracle["bianchi_T"][lam])
