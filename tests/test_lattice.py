"""Lattice descriptors, derivatives, smooth recipes, convergence harness."""

import numpy as np
import pytest

from bfcg.checks import order_ok
from bfcg.crossed_module import builtin_module
from bfcg import lattice
from bfcg.lattice import (EPS3_PAIR, FIELDS, FieldConfiguration, FieldRecipe,
                          Lattice, discrete_derivative, finest_order,
                          fit_order, make_config_recipe, pair_index, pairs,
                          slabs, triples)
from bfcg.phase import make_phase_recipe, random_phase_point
from bfcg.relations import offshell_refinement
from support import realize_derivative, sample_smooth_fields


def test_make_lattice_basic():
    lat = Lattice(4, 8, 0.1)
    assert lat.sites == 4096
    assert Lattice(3, 4, 0.25).sites == 64


@pytest.mark.parametrize("bad", [(4, 2, 0.1), (2, 8, 0.1), (4, 8, -1.0)])
def test_make_lattice_rejects(bad):
    with pytest.raises(ValueError):
        Lattice(*bad)


def test_pairs_and_triples():
    assert pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert triples(3) == [(0, 1, 2)]
    idx = pair_index(3)
    assert idx[(0, 1)] == (0, 1.0) and idx[(1, 0)] == (0, -1.0)
    # EPS3_PAIR[i, P] = eps^{ijk} for P = (j, k) in (01, 02, 12)
    assert np.array_equal(EPS3_PAIR, [[0, 0, 1], [0, -1, 0], [1, 0, 0]])


# ---------------------------------------------------------------------------
# central differences
# ---------------------------------------------------------------------------

def test_derivative_of_constant_is_zero():
    lat = Lattice(3, 6, 0.5)
    f = np.full(lat.shape, 3.7)
    assert np.max(np.abs(discrete_derivative(f, 1, lat))) == 0.0


def test_single_mode_closed_form():
    lat = Lattice(3, 16, 0.25)
    k = 2
    x = np.arange(lat.n)
    f = np.sin(2 * np.pi * k * x / lat.n)[:, None, None] * np.ones(lat.shape)
    Df = discrete_derivative(f, 0, lat)
    # (sin(th(x+1)) - sin(th(x-1)))/(2a) = sin(2 pi k/n)/a * cos(th(x))
    expect = (np.sin(2 * np.pi * k / lat.n) / lat.a
              * np.cos(2 * np.pi * k * x / lat.n))[:, None, None] * np.ones(lat.shape)
    assert np.max(np.abs(Df - expect)) < 1e-12


def test_summation_by_parts_exact():
    lat = Lattice(3, 6, 0.3)
    rng = np.random.default_rng(0)
    f = rng.normal(size=lat.shape)
    g = rng.normal(size=lat.shape)
    lhs = np.sum(g * discrete_derivative(f, 2, lat))
    rhs = -np.sum(discrete_derivative(g, 2, lat) * f)
    assert abs(lhs - rhs) < 1e-12


# ---------------------------------------------------------------------------
# smooth recipes
# ---------------------------------------------------------------------------

def test_sampler_deterministic_and_seed_sensitive():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 6, 0.2)
    c1 = sample_smooth_fields(cm, lat, mode_count=1, seed=7)
    c2 = sample_smooth_fields(cm, lat, mode_count=1, seed=7)
    c3 = sample_smooth_fields(cm, lat, mode_count=1, seed=8)
    assert np.array_equal(c1.A, c2.A) and np.array_equal(c1.beta, c2.beta)
    assert not np.array_equal(c1.A, c3.A)


def test_sampler_rejects_zero_modes():
    cm = builtin_module("adjoint(su2)")
    with pytest.raises(ValueError):
        sample_smooth_fields(cm, Lattice(4, 6, 0.2), mode_count=0, seed=1)


@pytest.mark.parametrize("sample", [
    lambda cm: make_config_recipe(cm, 4, 0, seed=1, scale=1.0),
    lambda cm: make_phase_recipe(cm, 0, seed=1),
    lambda cm: random_phase_point(cm, Lattice(3, 6, 0.2), seed=1, mode_count=0),
    lambda cm: offshell_refinement(cm, (8, 12, 16), mode_count=0),
], ids=["make_config_recipe", "make_phase_recipe", "random_phase_point",
        "offshell_refinement"])
def test_every_sampler_rejects_zero_modes(sample):
    """mode_count 0 leaves only the constant mode: every entry point that
    samples smooth fields raises instead of returning constant fields."""
    with pytest.raises(ValueError, match="mode_count"):
        sample(builtin_module("adjoint(su2)"))


def test_recipe_derivative_second_order():
    """Discrete derivative of a sampled field converges to the analytic one."""
    cm = builtin_module("adjoint(su2)")
    recipe = make_config_recipe(cm, D=3, mode_count=1, seed=3, scale=1.0)
    residuals, spacings = [], []
    for n in (8, 16, 32):
        lat = Lattice(D=3, n=n, a=1.0 / n)
        field = recipe.A.realize(lat)
        exact = realize_derivative(recipe.A, lat, axis=1)
        approx = discrete_derivative(field, 1, lat)
        residuals.append(float(np.max(np.abs(approx - exact))))
        spacings.append(lat.a)
    order = fit_order(spacings, residuals)
    assert 1.9 <= order <= 2.1


def test_recipe_resolution_independent():
    """The same recipe realized at n and 2n agrees on the shared sites."""
    cm = builtin_module("adjoint(su2)")
    recipe = make_config_recipe(cm, D=3, mode_count=1, seed=5, scale=1.0)
    lat1 = Lattice(D=3, n=8, a=0.25)
    lat2 = Lattice(D=3, n=16, a=0.125)
    f1 = recipe.C.realize(lat1)
    f2 = recipe.C.realize(lat2)
    assert np.max(np.abs(f1 - f2[..., ::2, ::2, ::2])) < 1e-12


def _row_recipes(cm):
    """Config recipes at 1 and 3 modes per axis, and a recipe whose modes
    vary along several axes at once, axis 0 among them."""
    rng = np.random.default_rng(9)
    recipes = [getattr(make_config_recipe(cm, 4, modes, seed=1, scale=0.4), f)
               for modes in (1, 3) for f in FIELDS]
    recipes.append(FieldRecipe(4, (2,), {
        k: (rng.normal(size=2), rng.normal(size=2))
        for k in ((0, 0, 0, 0), (1, 1, 0, 2), (-2, 0, 3, 1), (0, 1, -1, 0))}))
    return recipes


@pytest.mark.parametrize("n", [6, 16, 20])
def test_row_ranges_are_the_periodic_rows_of_the_full_field(n):
    """Every slab's rows with two halo rows on each side, past row 0 and
    row n - 1 included, realize bitwise the periodic rows of the full
    field."""
    lat = Lattice(4, n, 1.0 / n)
    for recipe in _row_recipes(builtin_module("vector_poincare")):
        full = recipe.realize(lat)
        for rows in slabs(lat):
            lo, hi = rows.start - 2, rows.stop + 2
            want = np.take(full, np.arange(lo, hi) % n, axis=-4)
            assert np.array_equal(recipe.realize(lat, lo, hi), want), (n, lo)


def _realize_into_zeros(recipe, lat, lo, hi):
    """The recipe's rows summed mode group by mode group into zeros, each
    group broadcast over the whole rows."""
    n = lat.n
    axes = [np.arange(lo, hi)] + [np.arange(n)] * 3
    groups = {}
    for k, (ca, sa) in recipe.coeffs.items():
        support = tuple(d for d in range(4) if k[d] % n)
        groups.setdefault(support, []).append((k, ca, sa))
    out = np.zeros(recipe.comp_shape + (hi - lo,) + lat.shape[1:])
    for support, modes in groups.items():
        grids = np.ix_(*[axes[d] for d in support])
        part = 0.0
        for k, ca, sa in modes:
            theta = (2.0 * np.pi / n) * (
                sum((k[d] * g for d, g in zip(support, grids)), 0) % n)
            part = (part + np.multiply.outer(np.asarray(ca), np.cos(theta))
                    + np.multiply.outer(np.asarray(sa), np.sin(theta)))
        out += np.reshape(part, recipe.comp_shape + tuple(
            len(axes[d]) if d in support else 1 for d in range(4)))
    return out


@pytest.mark.parametrize("n", [4, 6, 16])
def test_realize_is_the_sum_into_zeros(n):
    """Adding the mode groups on their broadcast shapes gives, bit for bit
    and zero signs included, the sum of the groups into zeros, as a fresh,
    writable, C-contiguous array (the gauge transforms write into it)."""
    lat = Lattice(4, n, 1.0 / n)
    cm = builtin_module("vector_poincare")
    recipes = _row_recipes(cm) + [
        getattr(make_config_recipe(cm, 4, 2, seed=3, scale=0.4), f)
        for f in FIELDS]
    for recipe in recipes:
        for lo, hi in ((0, n), (-1, 1), (n - 1, n + 2), (2, 3)):
            got = recipe.realize(lat, lo, hi)
            want = _realize_into_zeros(recipe, lat, lo, hi)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert got.flags.c_contiguous and got.flags.writeable
            assert got.flags.owndata


@pytest.mark.parametrize("n", [6, 16, 20])
def test_streamed_slabs_are_the_held_slabs(n, monkeypatch):
    """A streamed configuration's slab windows are bitwise the held
    configuration's, and each windowed row is realized once, but for the
    wrap rows n - 1 and 0 of a lattice of several slabs."""
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, n, 1.0 / n)
    recipe = make_config_recipe(cm, 4, 3, seed=4, scale=0.4)
    eps = _row_recipes(cm)[-1]
    held = recipe.realize(lat).slabs(("A", "beta"), ("B", "C"),
                                     eps=eps.realize(lat))
    realized, realize = [], FieldRecipe.realize

    def counted(self, lattice, lo=0, hi=None):
        out = realize(self, lattice, lo, hi)
        realized.append(out.shape[-4])
        return out

    monkeypatch.setattr(FieldRecipe, "realize", counted)
    streamed = recipe.stream(lat).slabs(("A", "beta"), ("B", "C"), eps=eps)
    for got, want in zip(streamed, held):
        assert got.rows == want.rows
        for name, window in want.windows.items():
            for g, w in zip(got.windows[name], window):
                assert (g is None and w is None) or np.array_equal(g, w)
    # A, beta and eps windowed, B and C by rows
    wrap = 2 if len(slabs(lat)) > 1 else 0
    assert sum(realized) == 3 * (n + wrap) + 2 * n, realized


def test_one_row_fields_are_kept_as_views():
    """Keeping a row copies it only when the field owns other rows."""
    lat = Lattice(4, 4, 0.25)
    field = np.zeros((2,) + lat.shape)
    kept = lattice._kept(field, lat, -1)
    assert not np.may_share_memory(kept, field)
    assert np.array_equal(kept, field[:, 3:])
    one_row = field[:, 1:2].copy()
    assert np.may_share_memory(lattice._kept(one_row, lat, -1), one_row)
    assert np.may_share_memory(lattice._kept(field[:, 1:3], lat, 0), field)


# ---------------------------------------------------------------------------
# configuration container
# ---------------------------------------------------------------------------

def test_field_configuration_shape_checks():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(4, 4, 0.1)
    cfg = sample_smooth_fields(cm, lat, 1, 0)
    with pytest.raises(ValueError):
        FieldConfiguration(lat, cfg.A[:2], cfg.beta, cfg.B, cfg.C)


# ---------------------------------------------------------------------------
# convergence harness
# ---------------------------------------------------------------------------

def test_fit_order_exact_sequence():
    assert fit_order([0.1, 0.05, 0.025], [0.0, 0.0, 0.0]) == "exact"


def test_fit_order_arithmetic():
    order = fit_order([1e-1, 5e-2, 2.5e-2], [1e-2, 2.5e-3, 6.25e-4])
    assert abs(order - 2.0) < 1e-12


def test_fit_order_needs_three():
    with pytest.raises(ValueError):
        fit_order([0.1, 0.05], [1.0, 0.25])


@pytest.mark.parametrize("residuals", [
    [float("nan")] * 3,
    [1e-2, float("nan"), 6.25e-4],
    [1e-2, 2.5e-3, float("inf")],
    [0.0, float("nan"), 0.0],
])
def test_fit_order_non_finite_rung_is_nan(residuals):
    order = fit_order([1e-1, 5e-2, 2.5e-2], residuals)
    assert isinstance(order, float) and np.isnan(order)


@pytest.mark.parametrize("residuals", [[0.0, 0.0, 1e-3], [1e-3, 0.0, 0.0]])
def test_fit_order_single_positive_rung_is_nan(residuals):
    """One rung above the floor and nothing else to fit fails every order gate."""
    order = fit_order([1e-1, 5e-2, 2.5e-2], residuals)
    assert isinstance(order, float) and np.isnan(order)
    assert not order_ok(order)


@pytest.mark.parametrize("spacings, residuals", [
    ([0.1, 0.1, 0.1], [1e-2, 2e-3, 3e-4]),
    ([0.1, 0.1, 0.05], [1e-2, 2e-3, 0.0]),
])
def test_fit_order_on_one_spacing_is_nan(spacings, residuals):
    """Positive rungs at one spacing fit no slope: NaN, with no warning."""
    order = fit_order(spacings, residuals)
    assert isinstance(order, float) and np.isnan(order)
    assert not order_ok(order)


SPACINGS = [1 / 8, 1 / 16, 1 / 32]


def test_finest_order_reads_the_finest_pair():
    """A coarse rung before the asymptotic regime drags the all-rung fit out
    of the window; the finest pair of r = a^2 (1 + 30 a^2) stays in it."""
    residuals = [a ** 2 * (1 + 30 * a ** 2) for a in SPACINGS]
    assert not order_ok(fit_order(SPACINGS, residuals))
    order = finest_order(SPACINGS, residuals)
    assert abs(order - np.log2(4 * (1 + 30 / 256) / (1 + 30 / 1024))) < 1e-12
    assert order_ok(order)
    assert finest_order(SPACINGS[::-1], residuals[::-1]) == order
    assert finest_order(SPACINGS, [0.0, 1e-12, 0.0]) == "exact"


@pytest.mark.parametrize("residuals", [
    [a ** 1.0 for a in SPACINGS],               # first order
    [a ** 2.6 for a in SPACINGS],               # too steep
    [1e-2, 2.5e-3, 4e-3],                       # a rung that grows
    [1e-2, 2.5e-3, 2.5e-3],                     # a rung that does not shrink
    [1e-2, float("nan"), 6.25e-4],              # a NaN rung
    [0.0, 0.0, 1e-3],                           # a single positive rung
    [1e-3, 0.0, 0.0],
])
def test_finest_order_gate_fails_bad_ladders(residuals):
    assert not order_ok(finest_order(SPACINGS, residuals))


def test_finest_order_needs_three():
    with pytest.raises(ValueError):
        finest_order([0.1, 0.05], [1.0, 0.25])
