"""Thin and fat gauge transformations."""

import math
import weakref

import numpy as np
import pytest

from bfcg import curvature, gauge, lattice
from bfcg.checks import (RunConfig, check_bianchi, check_curvature,
                         check_gauge, order_ok)
from bfcg.crossed_module import builtin_module
from bfcg.curvature import bianchi_residuals, curvature_F, evaluate_action
from bfcg.gauge import (_apply, _generators, _sites_last, expm_batched,
                        fat_gauge_transform, thin_covariance,
                        thin_gauge_transform, transformed_actions)
from bfcg.lattice import (FIELDS, FieldRecipe, Lattice, _random_recipe,
                          discrete_derivative, levi_civita,
                          finest_order, fit_order, make_config_recipe, pairs,
                          slabs, triples)
from support import (curvature_G3, expm_series, fake_curvature,
                     sample_smooth_fields, traced_peak)

ORACLE_MODULES = ["adjoint(su2)", "vector_poincare", "abelian(2,3)",
                  "trivial_bf(3)"]
CATALOG = ["trivial_bf(1)", "trivial_bf(3)", "adjoint(su2)", "vector_poincare",
           "abelian(1,1)", "abelian(2,3)", "abelian(4,2)"]


def _const_field(vec, lat):
    vec = np.asarray(vec, float)
    return np.broadcast_to(vec.reshape(vec.shape + (1,) * lat.D),
                           vec.shape + lat.shape).copy()


def _bits(x):
    """The bytes of x, so that == compares bitwise (signed zeros included)."""
    return np.ascontiguousarray(x).tobytes()


def test_expm_batched_vs_series():
    rng = np.random.default_rng(0)
    M = rng.normal(size=(5, 3, 3))
    assert np.max(np.abs(expm_batched(M) - expm_series(M))) < 1e-12


@pytest.mark.parametrize("size", [1e-6, 1e-3, 0.1, 0.4, 1.0, 3.0, 10.0, 30.0,
                                  100.0, 300.0, 1e3])
def test_expm_batched_su2_closed_form(size):
    """K = -ad_eps on adjoint(su2) is antisymmetric 3 x 3, so
    exp K = I + (sin t / t) K + ((1 - cos t) / t^2) K^2 with t^2 = -tr(K^2)/2.
    The sizes |eps| span the scalings s = 0 ... 12."""
    cm = builtin_module("adjoint(su2)")
    eps = np.random.default_rng(6).normal(size=(64, 3))
    eps *= size / np.linalg.norm(eps, axis=1, keepdims=True)
    K = -np.einsum("abc,sb->sac", cm.f, eps)
    K2 = K @ K
    t = np.sqrt(-np.trace(K2, axis1=1, axis2=2) / 2)[:, None, None]
    # 1 - cos t written as 2 sin^2(t/2), which keeps its digits at small t
    want = np.eye(3) + np.sin(t) / t * K + 2 * np.sin(t / 2) ** 2 / t ** 2 * K2
    err = np.max(np.abs(expm_batched(K) - want), axis=(1, 2))
    assert np.all(err <= 2e-15 * np.maximum(1.0, t[:, 0, 0])), np.max(err)


@pytest.mark.parametrize("s", [0, 1, 2, 3])
def test_expm_batched_dexpinv_matches_series(s):
    """The dexpinv sum that comes with the exponential is its defining
    series sum_{k=0}^{6} M^k / (k+1)!, whatever the stack's scaling s, and
    the exponential is bitwise the one formed without it, so the thin
    transform takes the h-sector rotation from the g-sector call when act
    equals f."""
    rng = np.random.default_rng(5 + s)
    M = rng.normal(size=(50, 4, 4))
    M *= 0.45 * 2.0 ** s / np.max(np.sum(np.abs(M), axis=-1))
    assert _squarings(M) == s
    E, S = expm_batched(M, return_dexpinv=True)
    assert _bits(E) == _bits(expm_batched(M))
    want, power = np.broadcast_to(np.eye(4), M.shape).copy(), M.copy()
    for k in range(1, 7):
        want += power / math.factorial(k + 1)
        power = power @ M
    assert np.max(np.abs(S - want)) <= 1e-14


@pytest.mark.parametrize("scale", [np.inf, np.nan, 1e308])
def test_expm_batched_unscalable_norm_gives_nan(scale):
    """A norm that is non-finite, or so large that no double 2**s scales it
    into the series' range, gives NaN stacks, the exponential and its
    dexpinv sum, instead of raising."""
    M = np.array([[[0.0, scale], [-scale, 0.0]], [[0.0, 0.1], [0.0, 0.0]]])
    for out in (expm_batched(M), *expm_batched(M, return_dexpinv=True)):
        assert out.shape == M.shape and np.all(np.isnan(out))


def test_expm_batched_is_partition_independent():
    """A matrix whose own scaling s equals its stack's gets bitwise the same
    exponential and dexpinv sum in the stack, alone in a 1-stack and as one
    2-D matrix: every operation is per matrix, so the slab partition of the
    lattice cannot move a report's bytes."""
    rng = np.random.default_rng(7)
    M = rng.normal(size=(40, 4, 4))
    M *= (rng.uniform(1.2, 2.0, size=40)
          / np.max(np.sum(np.abs(M), axis=-1), axis=-1))[:, None, None]
    M[30:] *= 0.1
    E, S = expm_batched(M, return_dexpinv=True)
    same = [i for i in range(len(M)) if _squarings(M[i]) == _squarings(M)]
    assert len(same) == 30
    for i in same:
        for part in (M[i:i + 1], M[i]):
            Ei, Si = expm_batched(part, return_dexpinv=True)
            assert np.array_equal(Ei.reshape(E[i].shape), E[i])
            assert np.array_equal(Si.reshape(S[i].shape), S[i])


def _one_block(M, monkeypatch, **kwargs):
    """expm_batched of M evaluated as one block."""
    with monkeypatch.context() as m:
        m.setattr(gauge, "_EXPM_BLOCK", max(1, M[..., 0, 0].size))
        return expm_batched(M, **kwargs)


def _stack(rng, shape, largest=None):
    """A stack of norms 0.1..3 (scalings s = 0..3), and 6 at the index
    `largest` if given, so that that matrix sets the stack's s."""
    M = rng.normal(size=shape)
    M /= np.max(np.sum(np.abs(M), axis=-1), axis=-1)[..., None, None]
    M *= rng.uniform(0.1, 3.0, size=shape[:-2])[..., None, None]
    if largest is not None:
        M[largest] *= 6.0 / np.max(np.sum(np.abs(M[largest]), axis=-1))
    return M


@pytest.mark.parametrize("size", [1, "block - 1", "block", "block + 1",
                                  "3 blocks + 5", "largest in last block"])
def test_blocked_expm_is_the_one_block_expm(size, monkeypatch):
    """Blocks of _EXPM_BLOCK matrices share the stack-wide s and every later
    step is per matrix, so the exponential and the dexpinv sum are bitwise
    those of one block, at any stack length, and when the matrix that sets
    s sits in the last block."""
    block = gauge._EXPM_BLOCK
    length = {1: 1, "block - 1": block - 1, "block": block,
              "block + 1": block + 1}.get(size, 3 * block + 5)
    d = 10 if length > block else 3
    rng = np.random.default_rng(11)
    M = _stack(rng, (length, d, d),
               largest=length - 2 if size == "largest in last block" else None)
    if size == "largest in last block":
        assert _squarings(M) == _squarings(M[-block:]) > _squarings(M[:-block])
    E, S = expm_batched(M, return_dexpinv=True)
    E1, S1 = _one_block(M, monkeypatch, return_dexpinv=True)
    assert _bits(E) == _bits(E1) and _bits(S) == _bits(S1)
    assert _bits(expm_batched(M)) == _bits(E1)


@pytest.mark.parametrize("shape", [(2, 3, 4, 4), (5, 5)])
def test_blocked_expm_keeps_the_leading_shape(shape, monkeypatch):
    """A (2, 3, d, d) stack and a single 2-D matrix are flattened to
    (-1, d, d) for the blocks and come back in their own shape, bitwise the
    one-block values; with blocks of one matrix the (2, 3) stack spans six
    blocks."""
    M = _stack(np.random.default_rng(12), shape)
    want = _one_block(M, monkeypatch, return_dexpinv=True)
    monkeypatch.setattr(gauge, "_EXPM_BLOCK", 1)
    for got, one in zip(expm_batched(M, return_dexpinv=True), want):
        assert got.shape == shape and _bits(got) == _bits(one)


def test_unscalable_norm_gives_nan_in_every_block(monkeypatch):
    """The norm is the whole stack's, so one infinite matrix in the last of
    four blocks leaves every block NaN."""
    monkeypatch.setattr(gauge, "_EXPM_BLOCK", 4)
    M = _stack(np.random.default_rng(13), (16, 3, 3))
    M[-1, 0, 1] = np.inf
    for out in (expm_batched(M), *expm_batched(M, return_dexpinv=True)):
        assert out.shape == M.shape and np.all(np.isnan(out))


@pytest.mark.parametrize("d", [0, 3, 4, 6, 10])
@pytest.mark.parametrize("rows, n", [(6, 6), (12, 12), (4, 20), (8, 16)])
def test_sites_last_apply_is_the_sites_first_einsum(d, rows, n):
    """A slab of rows x n^3 sites (1296, 20736, 32000 and 32768; all but
    the last end in a partial copy block): the sites-last copy holds the
    stack's entries, and applying it to a whole field of 0 to 6 stored
    components, returned, written into out or in place, gives bitwise the
    sites-first einsum of each component."""
    rng = np.random.default_rng(10 * d + n)
    sites = rows * n ** 3
    mat = rng.normal(size=(sites, d, d))
    last = _sites_last(mat)
    assert np.array_equal(last, np.moveaxis(mat, 0, -1))
    for k in range(7):
        field = rng.normal(size=(k, d, rows, n, n, n))
        want = b"".join(_bits(np.einsum("sxy,ys->xs", mat,
                                        comp.reshape(d, sites)))
                        for comp in field)
        got = _apply(last, field)
        assert got.shape == field.shape
        assert _bits(got) == want
        out = np.empty_like(field)
        assert _apply(last, field, out) is out
        assert _bits(out) == want
        assert _bits(_apply(last, field, field)) == want   # in place


@pytest.mark.parametrize("name", CATALOG + ["dense"])
def test_generators_are_the_einsum(name):
    """-G eps for G = f and act, from the nonzeros of G, is bitwise the
    dense einsum, signed zeros of zero parameters included."""
    rng = np.random.default_rng(8)
    if name == "dense":
        tensors = [rng.normal(size=(5, 4, 5)), rng.normal(size=(3, 3, 3))]
    else:
        cm = builtin_module(name)
        tensors = [cm.f, cm.act]
    for G in tensors:
        eps = rng.normal(size=(G.shape[1], 500))
        eps[:, :40] = 0.0
        eps[:, 40:80] = -0.0
        got = _generators(G, eps)
        assert _bits(got) == _bits(-np.einsum("abc,bs->sac", G, eps))


@pytest.mark.parametrize("name, per_slab", [
    ("adjoint(su2)", 1), ("abelian(1,1)", 1),
    ("vector_poincare", 2), ("abelian(2,3)", 2)])
def test_one_exponential_per_distinct_generator_tensor(name, per_slab,
                                                       monkeypatch):
    """At n = 16 (two slabs) the thin transform exponentiates once per slab
    when act equals f and twice when it does not, and the ring transforms
    its lead, the last slab, once more: three slabs in all."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return expm_batched(*args, **kwargs)

    monkeypatch.setattr(gauge, "expm_batched", counted)
    cm = builtin_module(name)
    lat = Lattice(4, 16, 1.0 / 16)
    assert len(slabs(lat)) == 2
    rng = np.random.default_rng(3)
    eps = _random_recipe(rng, 4, (cm.p,), 1, scale=0.3)
    eta = _random_recipe(rng, 4, (4, cm.q), 1, scale=0.3)
    recipe = make_config_recipe(cm, 4, 1, seed=1, scale=0.4)
    transformed_actions(cm, recipe.stream(lat), eps, eta)
    assert len(calls) == 3 * per_slab, calls


def test_covariance_ring_moves_a_alone(monkeypatch):
    """F reads A alone, so the covariance ring rotates A and D eps and
    nothing else.  On vector_poincare, whose act is not f, at n = 16 (two
    slabs and the lead) it exponentiates once for R and once per slab,
    where rotating beta, B and C took an h-sector exponential per slab
    more (7 in all)."""
    cm = builtin_module("vector_poincare")
    lat = Lattice(4, 16, 1.0 / 16)
    assert len(slabs(lat)) == 2
    calls, rotated = [], set()

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return expm_batched(*args, **kwargs)

    def seen(mat, field, *out):
        rotated.add(field.shape[:2])
        return _apply(mat, field, *out)

    monkeypatch.setattr(gauge, "expm_batched", counted)
    monkeypatch.setattr(gauge, "_apply", seen)
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).stream(lat)
    eps = np.random.default_rng(3).normal(size=cm.p) * 0.4
    assert thin_covariance(cm, cfg, eps) < 1e-12
    assert len(calls) == 1 + 3, calls
    assert rotated == {(4, cm.p), (1, cm.p)}, rotated   # A and one D eps


def test_thin_identity_at_zero_parameter():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 4, 0.25)
    cfg = sample_smooth_fields(cm, lat, 1, 2)
    out = thin_gauge_transform(cm, cfg.copy(), np.zeros((cm.p,) + lat.shape))
    for name in ("A", "beta", "B", "C"):
        assert np.array_equal(getattr(out, name), getattr(cfg, name))


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_constant_thin_covariance_exact(name):
    cm = builtin_module(name)
    lat = Lattice(4, 5, 0.2)
    cfg = sample_smooth_fields(cm, lat, 1, 3)
    rng = np.random.default_rng(4)
    eps = _const_field(rng.normal(size=cm.p) * 0.5, lat)
    out = thin_gauge_transform(cm, cfg.copy(), eps)
    ad = np.einsum("abc,b...->...ac", cm.f, eps)
    Rg = expm_series(-ad)
    for F0, F1 in ((curvature_F(cm, cfg), curvature_F(cm, out)),
                   (fake_curvature(cm, cfg), fake_curvature(cm, out))):
        rot = np.stack([np.einsum("...ab,b...->a...", Rg, F0[P])
                        for P in range(F0.shape[0])])
        assert np.max(np.abs(F1 - rot)) < 1e-10
    # G transforms in the exponentiated action representation
    if cm.q:
        Rh = expm_series(-np.einsum("xay,a...->...xy", cm.act, eps))
        G0 = curvature_G3(cm, cfg)
        G1 = curvature_G3(cm, out)
        rot = np.stack([np.einsum("...xy,y...->x...", Rh, G0[T])
                        for T in range(G0.shape[0])])
        assert np.max(np.abs(G1 - rot)) < 1e-10
    assert abs(evaluate_action(cm, out) - evaluate_action(cm, cfg)) < 1e-10


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_transposed_thin_rotation_fails_the_covariance(name, monkeypatch):
    """The covariance row reads the library's thin transform: a transform
    that rotates by the transpose of each per-site matrix leaves F(A') far
    from R F(A) (5.3 and 4.3), and gauge-check FAILs on its covariance
    alone (n = 8).  A covariance that formed A' = R A itself would PASS
    this mutant."""
    monkeypatch.setattr(gauge, "_apply", lambda mat, field, out=None: _apply(
        mat.transpose(1, 0, 2), field, out))
    rec = check_gauge(builtin_module(name), RunConfig(ns=(8,)))
    assert rec.residuals["covariance"][0] > 1.0
    assert not rec.ok


def test_thin_action_invariance_refines_second_order():
    cm = builtin_module("adjoint(su2)")
    recipe = make_config_recipe(cm, 4, 1, seed=3, scale=0.5)
    eps_rec = _random_recipe(np.random.default_rng(5), 4, (cm.p,), 1, scale=0.4)
    deltas, spacings = [], []
    for n in (6, 12, 24):
        lat = Lattice(4, n, 1.0 / n)
        cfg = recipe.realize(lat)
        out = thin_gauge_transform(cm, cfg.copy(), eps_rec.realize(lat))
        deltas.append(abs(evaluate_action(cm, out) - evaluate_action(cm, cfg)))
        spacings.append(lat.a)
    order = finest_order(spacings, deltas)
    fit = fit_order(spacings, deltas)
    assert deltas[0] > 1e-4
    assert order_ok(order), (order, deltas)
    assert 1.7 <= fit <= 2.3, (fit, deltas)


def _thin_oracle(cm, cfg, eps, dexp_order=6):
    """The thin transform on whole (sites..., p, p) stacks of every site."""
    lat = cfg.lattice

    def apply(mat, field):
        return np.einsum("...xy,y...->x...", mat, field)

    ad = np.einsum("abc,b...->...ac", cm.f, eps)
    Rg = expm_series(-ad)
    eye = np.broadcast_to(np.eye(cm.p), ad.shape)
    S, power, fact = eye.copy(), eye.copy(), 1.0
    for k in range(1, dexp_order + 1):
        power = power @ (-ad)
        fact *= k + 1
        S = S + power / fact
    A = np.stack([apply(Rg, cfg.A[mu])
                  + apply(S, discrete_derivative(eps, mu, lat))
                  for mu in range(lat.D)])
    B = np.stack([apply(Rg, X) for X in cfg.B])
    beta, C = cfg.beta, cfg.C
    if cm.q:
        Rh = expm_series(-np.einsum("xay,a...->...xy", cm.act, eps))
        beta = np.stack([apply(Rh, X) for X in cfg.beta])
        C = np.stack([apply(Rh, X) for X in cfg.C])
    return {"A": A, "beta": beta, "B": B, "C": C}


def _action_oracle(cm, cfg):
    """S from the full H and G3 arrays, summed over every eps^{mnrs} term."""
    H, G3 = fake_curvature(cm, cfg), curvature_G3(cm, cfg)
    dens = np.zeros(cfg.lattice.shape)
    for Pi, (m, n) in enumerate(pairs(4)):
        for Pj, (r, s) in enumerate(pairs(4)):
            e = levi_civita((m, n, r, s))
            if e:
                dens += e * np.einsum("a...,ab,b...->...",
                                      cfg.B[Pi], cm.Q, H[Pj])
    for mu in range(4):
        for Ti, tri in enumerate(triples(4)):
            e = levi_civita((mu,) + tri)
            if e and cm.q:
                dens += e * np.einsum("x...,xy,y...->...",
                                      cfg.C[mu], cm.qf, G3[Ti])
    return cfg.lattice.volume_element * float(np.sum(dens))


@pytest.mark.parametrize("name", ORACLE_MODULES)
def test_blockwise_thin_matches_whole_stack_oracle(name):
    """n = 14 is two slabs of unequal size: 11 rows and 3 rows of 2744
    sites each, neither of them 2**15 sites.

    The parameter is large enough that the exponentials square on every
    nonabelian module, so the per-slab scaling is exercised.
    """
    cm = builtin_module(name)
    lat = Lattice(4, 14, 1.0 / 14)
    cfg = make_config_recipe(cm, 4, 2, seed=1, scale=0.4).realize(lat)
    eps = _random_recipe(np.random.default_rng(3), 4, (cm.p,), 2,
                         scale=0.9).realize(lat)
    out = thin_gauge_transform(cm, cfg.copy(), eps)
    ref = _thin_oracle(cm, cfg, eps)
    for field, want in ref.items():
        got = getattr(out, field)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-13, field
    for c in (cfg, out):
        S, S_ref = evaluate_action(cm, c), _action_oracle(cm, c)
        assert abs(S - S_ref) <= 1e-12 * max(1.0, abs(S_ref)), (S, S_ref)


def _transform_peaks(transform, param_shape):
    """Traced peaks of an in-place transform on vector_poincare at n = 16
    and 20, and the bytes of the configuration it overwrote."""
    cm = builtin_module("vector_poincare")
    peak, cfg_bytes = {}, {}
    for n in (16, 20):
        lat = Lattice(4, n, 1.0 / n)
        cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(lat)
        param = _random_recipe(np.random.default_rng(2), 4, param_shape(cm), 1,
                               scale=0.3).realize(lat)
        out, peak[n] = traced_peak(transform, cm, cfg, param)
        assert out is cfg
        cfg_bytes[n] = sum(getattr(cfg, f).nbytes
                           for f in ("A", "beta", "B", "C"))
        del cfg, out
    return peak, cfg_bytes


def test_thin_working_set_does_not_scale_with_lattice():
    """The thin transform overwrites its input, so it holds one slab's
    stacks and D eps at a time, however large the lattice: from n = 16 to
    20 the configuration grows by 75 MB and the peak by at most 8 MB."""
    peak, cfg_bytes = _transform_peaks(thin_gauge_transform,
                                       lambda cm: (cm.p,))
    assert peak[20] - peak[16] <= 8e6, peak
    assert peak[20] < cfg_bytes[20], (peak, cfg_bytes)


def test_fat_working_set_does_not_scale_with_lattice():
    """The fat transform overwrites its input and differences eta one slab
    and stored pair at a time: its peak is a few slab arrays."""
    peak, cfg_bytes = _transform_peaks(fat_gauge_transform,
                                       lambda cm: (4, cm.q))
    assert peak[20] - peak[16] <= 8e6, peak
    assert peak[20] < cfg_bytes[20] / 8, (peak, cfg_bytes)


def test_gauge_check_holds_one_configuration():
    """Each rung streams its configuration, transforms and parameters slab
    by slab, one transform at a time, so at n = 20 (five slabs of 4 rows)
    the check's peak, the source's slabs beside one transform's current
    slab and a few rows, stays below 0.7 of one configuration (0.64
    measured; 0.69 while the covariance's held configuration and curvatures
    at n = 8 stayed alive to the end, 0.84 when the transform passes held
    density site arrays and realized the windows of A and beta), well below
    the two that a transformed copy beside the original would take."""
    cm = builtin_module("adjoint(su2)")
    _, peak = traced_peak(check_gauge, cm, RunConfig(ns=(8, 12, 20)))
    lat = Lattice(4, 20, 1.0 / 20)
    one = (lat.D + len(pairs(lat.D))) * (cm.p + cm.q) * lat.sites * 8
    assert peak < 0.7 * one, peak / one


def test_streamed_checks_hold_no_configuration():
    """bianchi, gauge-check and curvature realize each rung one slab at a
    time.  At n = 24 (12 slabs of 2 rows) Bianchi, whose rings hold a few
    rows beside the current slab, peaks below 0.3 of one configuration
    (0.26 measured); curvature, whose one pass holds the windows of A,
    beta, C and eta and the rows of B for the current and the next slab
    and one slab's density, below 0.31 of one (0.27 measured; 0.29 beside
    a density site array, 0.27 in the three passes of fewer fields it once
    made, 0.38 in one pass that kept its last slab while the source
    realized the next); and gauge-check, which holds the current slab of
    one transform at a time and a few rows beside the source's slabs, below
    0.4 of one (0.33 measured; 0.44 beside density site arrays).  Its
    covariance alone at n = 24, whose ring carries the transformed and the
    untransformed A, stays below 0.4 of one too (0.28 measured; 2.20 when
    it transformed a held configuration and compared two full F).  (At
    n = 20 a slab is a fifth of the lattice, and those slabs make about one
    configuration.)"""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 24, 1.0 / 24)
    one = (lat.D + len(pairs(lat.D))) * (cm.p + cm.q) * lat.sites * 8
    assert len(slabs(lat)) == 12
    for check, ns, bound in ((check_bianchi, (8, 12, 24), 0.3 * one),
                             (check_gauge, (8, 12, 24), 0.4 * one),
                             (check_gauge, (24,), 0.4 * one),
                             (check_curvature, (24,), 0.31 * one)):
        rec, peak = traced_peak(check, cm, RunConfig(ns=ns))
        assert rec.ok, rec.name
        assert peak < bound, (rec.name, peak / one)


def test_curvature_reads_its_configuration_once(monkeypatch):
    """check_curvature makes one pass over its streamed configuration: at
    n = 24 (12 slabs of 2 rows) it realizes each of A, beta, B, C and the
    fat parameter eta once per slab, and the four windowed ones once more
    at each periodic wrap row, n - 1 before slab 0 and 0 after the last
    (68 realizations; the three passes it made before took 134)."""
    lat = Lattice(4, 24, 1.0 / 24)
    assert len(slabs(lat)) == 12
    realize, calls = FieldRecipe.realize, []

    def counted(self, *args, **kwargs):
        calls.append(self)
        return realize(self, *args, **kwargs)

    monkeypatch.setattr(FieldRecipe, "realize", counted)
    assert check_curvature(builtin_module("adjoint(su2)"),
                           RunConfig(ns=(24,))).ok
    assert len(calls) == 5 * 12 + 4 * 2
    assert len(set(map(id, calls))) == 5


@pytest.mark.parametrize("module, run", [
    (curvature, lambda cm, cfg, eps, eta: bianchi_residuals(cm, cfg)),
    (gauge, transformed_actions)], ids=["bianchi", "gauge"])
def test_rings_keep_no_block_past_its_last_row(module, run, monkeypatch):
    """At n = 24 (12 slabs of 2 rows) no kernel block of a slab ring
    outlives the reduce of its own last row: when slab s is computed, the
    block of slab s - 1, whose last row waits for slab s, is the only other
    block alive, and when slab 0 is computed the lead's block is gone.  So
    neither slab 0 nor any other slab is held to the end."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 24, 1.0 / 24)
    assert len(slabs(lat)) == 12
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).stream(lat)
    rng = np.random.default_rng(2)
    eps = _random_recipe(rng, 4, (cm.p,), 1, scale=0.3)
    eta = _random_recipe(rng, 4, (4, cm.q), 1, scale=0.3)
    ring, rings = module._ring, []

    def watched(source, kernel, reduce, edges):
        blocks = []   # weak references to the arrays of each block made

        def alive():
            return [i for i, refs in enumerate(blocks)
                    if any(ref() is not None for ref in refs)]

        def watched_kernel(slab):
            held = [len(blocks) - 1] if len(blocks) > 1 else []
            assert alive() == held, (slab.rows, alive())
            block = kernel(slab)
            blocks.append([weakref.ref(f) for f in block.values()])
            return block

        out = ring(source, watched_kernel, reduce, edges)
        rings.append((len(blocks), alive()))
        return out

    monkeypatch.setattr(module, "_ring", watched)
    run(cm, cfg, eps, eta)
    assert rings and all(r == (13, []) for r in rings), rings


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_transformed_actions_ring_one_transform_at_a_time(name, monkeypatch):
    """transformed_actions makes two ring passes, the thin and then the fat
    one, and each ring carries the slabs of one transform alone.  At n = 16
    (two slabs) a ring holds one slab of its transform and a few rows, and
    the source's two slabs hold about one configuration, so the traced
    peak stays below 1.6 configurations on adjoint(su2) and 2.05 on
    vector_poincare (1.46 and 1.88 measured); rings beside density site
    arrays whose sources realized the windows of A and beta took 1.68 and
    2.09, rings of both transforms at once 2.9 and 3.5, and rings that
    held slab 0 to the end 1.93 and 2.34."""
    cm = builtin_module(name)
    lat = Lattice(4, 16, 1.0 / 16)
    assert len(slabs(lat)) == 2
    one = (lat.D + len(pairs(lat.D))) * (cm.p + cm.q) * lat.sites * 8
    recipe = make_config_recipe(cm, 4, 1, seed=1, scale=0.4)
    rng = np.random.default_rng(2)
    eps = _random_recipe(rng, 4, (cm.p,), 1, scale=0.3)
    eta = _random_recipe(rng, 4, (4, cm.q), 1, scale=0.3)
    _, peak = traced_peak(transformed_actions, cm, recipe.stream(lat), eps,
                          eta)
    assert peak < {"adjoint(su2)": 1.6, "vector_poincare": 2.05}[name] * one, (
        peak / one)
    rings, ring = [], gauge._ring

    def recorded(source, kernel, reduce, edges):
        def counted(slab):
            rings[-1] |= {"eps", "eta"} & set(slab.windows)
            return kernel(slab)
        rings.append(set())
        return ring(source, counted, reduce, edges)

    monkeypatch.setattr(gauge, "_ring", recorded)
    transformed_actions(cm, recipe.stream(lat), eps, eta)
    assert rings == [{"eps"}, {"eta"}], rings


def test_transform_rings_read_the_rows_of_the_fields(monkeypatch):
    """The thin and fat transforms read the rows of A, beta, B and C and
    the window of their parameter alone, and each ring takes the action's
    neighbour rows from the transformed slabs.  So at n = 24 (12 slabs and
    the lead) every slab a ring's source gives carries no row before or
    after of any field, A and beta included, none of which is realized,
    and the parameter's window whole."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 24, 1.0 / 24)
    assert len(slabs(lat)) == 12
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).stream(lat)
    rng = np.random.default_rng(2)
    eps = _random_recipe(rng, 4, (cm.p,), 1, scale=0.3)
    eta = _random_recipe(rng, 4, (4, cm.q), 1, scale=0.3)
    rings, ring = [], gauge._ring

    def recorded(source, kernel, reduce, edges):
        def seen(slab):
            rings[-1].append({name: (before is not None, after is not None)
                              for name, (before, _, after)
                              in slab.windows.items()})
            return kernel(slab)
        rings.append([])
        return ring(source, seen, reduce, edges)

    monkeypatch.setattr(gauge, "_ring", recorded)
    transformed_actions(cm, cfg, eps, eta)
    assert [len(r) for r in rings] == [13, 13]
    for parameter, windows in zip(("eps", "eta"), rings):
        want = {**{name: (False, False) for name in FIELDS},
                parameter: (True, True)}
        assert all(w == want for w in windows), (parameter, windows)


@pytest.mark.parametrize("name, n", [("adjoint(su2)", 20),
                                     ("vector_poincare", 14)])
def test_transformed_actions_are_the_held_actions(name, n):
    """One pass over a held or a streamed configuration gives bitwise the
    actions of the configuration and of its transformed copies; n = 20 is
    five slabs of 4 rows, n = 14 two of 11 and 3."""
    _assert_held_actions(name, n, eps_scale=0.9)


@pytest.mark.parametrize("name, n, rng_seed", [
    ("vector_poincare", 6, 6), ("vector_poincare", 12, 6),
    ("adjoint(su2)", 6, 6), ("adjoint(su2)", 12, 103)])
def test_ring_lead_is_the_whole_last_slab(name, n, rng_seed):
    """At n = 6 and 12 the lattice is one slab.  The thin exponential
    scales each slab's stack by its own 2^s, so the actions stay bitwise
    the held ones only if the ring's lead is the whole last slab: with eps
    of scale 1.5, a lead of the last row alone moves S_thin in the last
    bits on both adjoint(su2) cases."""
    _assert_held_actions(name, n, eps_scale=1.5, rng_seed=rng_seed)


def _assert_held_actions(name, n, eps_scale, rng_seed=6):
    cm = builtin_module(name)
    lat = Lattice(4, n, 1.0 / n)
    recipe = make_config_recipe(cm, 4, 2, seed=1, scale=0.4)
    rng = np.random.default_rng(rng_seed)
    eps = _random_recipe(rng, 4, (cm.p,), 2, scale=eps_scale)
    eta = _random_recipe(rng, 4, (4, cm.q), 2, scale=0.3)
    cfg = recipe.realize(lat)
    want = (evaluate_action(cm, cfg),
            evaluate_action(cm, thin_gauge_transform(cm, cfg.copy(),
                                                     eps.realize(lat))),
            evaluate_action(cm, fat_gauge_transform(cm, cfg.copy(),
                                                    eta.realize(lat))))
    assert transformed_actions(cm, recipe.stream(lat), eps, eta) == want
    assert transformed_actions(cm, cfg, eps.realize(lat),
                               eta.realize(lat)) == want


def test_in_place_transforms_of_recipes_raise():
    """The in-place transforms write into the slab rows they read.  Rows
    realized from a recipe are read-only, so a transform of a streamed
    configuration raises instead of returning it unchanged; a held one
    takes a parameter of either kind, with bitwise the same result."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 6, 1.0 / 6)
    recipe = make_config_recipe(cm, 4, 1, seed=1, scale=0.4)
    rng = np.random.default_rng(3)
    eps = _random_recipe(rng, 4, (cm.p,), 1, scale=0.3)
    eta = _random_recipe(rng, 4, (4, cm.q), 1, scale=0.3)
    for transform, param in ((thin_gauge_transform, eps),
                             (fat_gauge_transform, eta)):
        with pytest.raises(ValueError, match="read-only"):
            transform(cm, recipe.stream(lat), param)
        want = transform(cm, recipe.realize(lat), param.realize(lat))
        got = transform(cm, recipe.realize(lat), param)
        for name in ("A", "beta", "B", "C"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("name, kind, comp", [
    ("eps", "recipe", (3, 3)), ("eps", "array", (2,)),
    ("eta", "recipe", (4, 2)), ("eta", "array", (2,))])
def test_misshaped_parameters_are_refused(name, kind, comp):
    """Every transform checks its parameter's component shape, recipe or
    array, before any kernel reads it (on adjoint(su2), eps has (3,) and
    eta (4, 3))."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 5, 0.2)
    rng = np.random.default_rng(1)
    bad = (_random_recipe(rng, 4, comp, 1, scale=0.3) if kind == "recipe"
           else np.zeros(comp + lat.shape))
    params = {"eps": np.zeros((cm.p,) + lat.shape),
              "eta": np.zeros((4, cm.q) + lat.shape), name: bad}
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(lat)
    transform = {"eps": thin_gauge_transform, "eta": fat_gauge_transform}
    with pytest.raises(ValueError, match=f"field {name} does not fit"):
        transformed_actions(cm, cfg, params["eps"], params["eta"])
    with pytest.raises(ValueError, match=f"field {name} does not fit"):
        transform[name](cm, cfg, bad)


def test_nan_exponential_of_one_slab_reaches_the_action():
    """A NaN thin parameter on one slab of five gives that slab NaN
    exponentials; the ring hands its rows to the action, which is NaN, with
    no exception, while the untransformed and fat actions stay finite."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 20, 1.0 / 20)
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(lat)
    rng = np.random.default_rng(2)
    eps = _random_recipe(rng, 4, (cm.p,), 1, scale=0.3).realize(lat)
    eta = _random_recipe(rng, 4, (4, cm.q), 1, scale=0.3).realize(lat)
    eps[:, slabs(lat)[2]] = np.nan
    S0, S_thin, S_fat = transformed_actions(cm, cfg, eps, eta)
    assert np.isfinite(S0) and np.isfinite(S_fat)
    assert np.isnan(S_thin)


def _squarings(M):
    """How many times expm_batched squares the exponential of the stack M."""
    norm = float(np.max(np.sum(np.abs(M), axis=-1)))
    return max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0


@pytest.mark.parametrize("name, scale", [("adjoint(su2)", 0.12),
                                         ("vector_poincare", 0.08)])
def test_slabs_that_square_differently_match_oracle(name, scale, monkeypatch):
    """One-row slabs at n = 6 with a parameter whose per-row norms straddle
    1/2, so the rows square their exponentials a different number of times.
    The result matches the whole-stack oracle, and the one-slab result to
    rounding: a slab's scaling moves the last bits, so not bitwise."""
    cm = builtin_module(name)
    lat = Lattice(4, 6, 1.0 / 6)
    cfg = make_config_recipe(cm, 4, 2, seed=1, scale=0.4).realize(lat)
    eps = _random_recipe(np.random.default_rng(4), 4, (cm.p,), 2,
                         scale=scale).realize(lat)
    ad = np.einsum("abc,b...->...ac", cm.f, eps)
    assert len({_squarings(ad[r]) for r in range(lat.n)}) >= 2
    assert len(slabs(lat)) == 1
    whole = thin_gauge_transform(cm, cfg.copy(), eps)
    monkeypatch.setattr(lattice, "SLAB_SITES", lat.n ** 3)
    assert len(slabs(lat)) == lat.n
    rows = thin_gauge_transform(cm, cfg.copy(), eps)
    for field, want in _thin_oracle(cm, cfg, eps).items():
        got, one = getattr(rows, field), getattr(whole, field)
        assert np.max(np.abs(got - want), initial=0.0) <= 1e-12, field
        assert (np.max(np.abs(got - one), initial=0.0)
                <= 1e-13 * np.max(np.abs(one), initial=0.0)), field


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_action_working_set_is_a_few_site_arrays(name):
    cm = builtin_module(name)
    lat = Lattice(4, 16, 1.0 / 16)
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(lat)
    _, peak = traced_peak(evaluate_action, cm, cfg)
    site_array = max(cm.p, cm.q) * lat.sites * 8
    assert peak <= 6 * site_array, peak / site_array


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_bianchi_rings_at_two_slabs_stay_within_F_and_T(name):
    """At n = 16 the lattice is two slabs, so a slab ring holds its whole
    field.  The first pass's ring holds F and T; the second pass's holds
    d_A B and d_A beta on one triple, with F formed again on one slab:
    4p + q site components against the 6(p + q) of F and T.  Beside the
    rings Bianchi holds
    one slab's temporaries: the 3-form accumulator, a covariant derivative,
    its contraction and one product, each at most a half site array."""
    cm = builtin_module(name)
    lat = Lattice(4, 16, 1.0 / 16)
    assert len(slabs(lat)) == 2
    cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(lat)
    _, peak = traced_peak(bianchi_residuals, cm, cfg)
    site_array = max(cm.p, cm.q) * lat.sites * 8
    F_and_T = len(pairs(4)) * (cm.p + cm.q) * lat.sites * 8
    extra = peak - F_and_T
    assert extra <= 4 * site_array / 2, extra / site_array


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_bianchi_working_set_does_not_scale_with_lattice(name):
    """From n = 20 (5 slabs of 4 rows) to n = 24 (12 slabs of 2 rows) the
    configuration doubles, but each ring holds three slabs and a few rows,
    so Bianchi's peak grows by at most 8 MB and stays below half the
    configuration."""
    cm = builtin_module(name)
    peak, cfg_bytes = {}, {}
    for n in (20, 24):
        lat = Lattice(4, n, 1.0 / n)
        cfg = make_config_recipe(cm, 4, 1, seed=1, scale=0.4).realize(lat)
        _, peak[n] = traced_peak(bianchi_residuals, cm, cfg)
        cfg_bytes[n] = sum(getattr(cfg, f).nbytes
                           for f in ("A", "beta", "B", "C"))
        del cfg
    assert len(slabs(Lattice(4, 24, 1.0 / 24))) == 12
    assert peak[24] - peak[20] <= 8e6, peak
    assert peak[24] < cfg_bytes[24] / 2, (peak, cfg_bytes)


def test_fat_identity_at_zero_parameter():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 4, 0.25)
    cfg = sample_smooth_fields(cm, lat, 1, 2)
    out = fat_gauge_transform(cm, cfg.copy(), np.zeros((4, cm.q) + lat.shape))
    for name in ("A", "beta", "B", "C"):
        assert np.array_equal(getattr(out, name), getattr(cfg, name))


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_fat_fake_curvature_invariance_exact(name):
    """H is exactly invariant on the lattice under the fat transformation."""
    cm = builtin_module(name)
    lat = Lattice(4, 5, 0.2)
    cfg = sample_smooth_fields(cm, lat, 1, 7)
    eta = _random_recipe(np.random.default_rng(8), 4, (4, cm.q), 1,
                         scale=0.5).realize(lat)
    out = fat_gauge_transform(cm, cfg.copy(), eta)
    assert np.max(np.abs(cfg.beta - out.beta)) > 0  # transformation nontrivial
    dH = fake_curvature(cm, out) - fake_curvature(cm, cfg)
    assert np.max(np.abs(dH)) < 1e-10


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_fat_action_invariance_exact(name):
    """With the B shift 2 [T(C, eta)]_asym the action is exactly invariant."""
    cm = builtin_module(name)
    lat = Lattice(4, 5, 0.2)
    cfg = sample_smooth_fields(cm, lat, 1, 9)
    eta = _random_recipe(np.random.default_rng(10), 4, (4, cm.q), 1,
                         scale=0.5).realize(lat)
    out = fat_gauge_transform(cm, cfg.copy(), eta)
    S0, S1 = evaluate_action(cm, cfg), evaluate_action(cm, out)
    assert abs(S1 - S0) < 1e-10 * max(1.0, abs(S0))


def test_fat_composes_with_C_unchanged():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 4, 0.25)
    cfg = sample_smooth_fields(cm, lat, 1, 11)
    eta = _random_recipe(np.random.default_rng(12), 4, (4, cm.q), 1).realize(lat)
    out = fat_gauge_transform(cm, cfg.copy(), eta)
    assert np.array_equal(out.C, cfg.C)
