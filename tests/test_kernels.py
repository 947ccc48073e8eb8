"""The 4D lattice kernels against their dense reference forms.

contract() is checked against np.einsum on every structure tensor of every
builtin module (zero tensors of the abelian modules and empty tensors at
q = 0 included), FieldRecipe.realize against an inverse-FFT synthesis of
the same trigonometric polynomial, discrete_derivative and slab_derivative
bitwise against the np.roll formula, and every slab-streamed kernel bitwise
against itself on a different slab partition, and on held fields and on
recipes; the slab rings of the Bianchi residuals and of the thin
covariance compute each slab once, and the covariance is pinned bitwise
to the held computation it replaced.

The exact-arithmetic kernels are pinned to the loops they stand for:
contract() with one, two and three fields to the sum into zeros with a
product per coefficient (on fields with +-0, inf and NaN entries), and
over the metrics and del to their einsums by value, and
evaluate_density, LocalFunctional.value and .gradient bitwise to a
copy-and-multiply loop over every constraint density.
"""

import numpy as np
import pytest

from bfcg import curvature, gauge, lattice
from bfcg.constraints import FAMILIES, constraint_density
from bfcg.crossed_module import builtin_module, contract, t_map
from bfcg.curvature import (bianchi_residuals, curvature_F,
                            eom_gradient_check, eom_residuals,
                            evaluate_action)
from bfcg.gauge import (_generators, curvature_residuals, expm_batched,
                        fat_gauge_transform, thin_covariance,
                        thin_gauge_transform, transformed_actions)
from bfcg.lattice import (FieldConfiguration, FieldRecipe, Lattice,
                          _random_recipe, discrete_derivative,
                          make_config_recipe, slab_derivative, slab_window,
                          slabs)
from bfcg.localpoly import _FactorCache, evaluate_density, smear
from bfcg.phase import random_phase_point
from bfcg.relations import offshell_relations
from support import realize_derivative

MODULES = ["trivial_bf(1)", "trivial_bf(3)", "adjoint(su2)", "vector_poincare",
           "abelian(1,1)", "abelian(2,3)", "abelian(4,2)"]

TENSORS = {
    "f": lambda cm: cm.f,
    "flow": lambda cm: cm.flow,
    "act": lambda cm: cm.act,
    "actlow": lambda cm: cm.actlow,
    "phi": lambda cm: cm.phi,
    "t_map": t_map,
}


@pytest.mark.parametrize("name", MODULES)
@pytest.mark.parametrize("tensor", sorted(TENSORS))
def test_contract_matches_einsum(name, tensor):
    cm = builtin_module(name)
    T = TENSORS[tensor](cm)
    rng = np.random.default_rng(5)
    sites = (4, 3, 5)
    X = rng.normal(size=(T.shape[1],) + sites)
    Y = rng.normal(size=(T.shape[2],) + sites)
    got = contract(T, X, Y)
    want = np.einsum("ijk,j...,k...->i...", T, X, Y)
    assert got.shape == want.shape
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_contract_transposed_view(name):
    """Other index orders go through a transposed view of the tensor."""
    cm = builtin_module(name)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(cm.p, 4, 4, 4))
    Y = rng.normal(size=(cm.p, 4, 4, 4))
    want = np.einsum("cab,b...,c...->a...", cm.f, X, Y)
    got = contract(cm.f.transpose(1, 2, 0), X, Y)
    assert np.allclose(got, want, rtol=0.0, atol=1e-13)


def test_contract_zero_tensor_gives_zeros():
    cm = builtin_module("abelian(2,3)")
    X = np.ones((2, 4, 4))
    out = contract(cm.f, X, X)
    assert out.shape == (2, 4, 4) and not np.any(out)


def _special_field(rng, shape):
    """Normal entries with exact +0, -0, +-inf and NaN planted (none in an
    empty field, at q = 0)."""
    X = rng.normal(size=shape)
    if not X.size:
        return X
    flat = X.reshape(len(X), -1)
    for col, value in enumerate((0.0, -0.0, np.inf, -np.inf, np.nan)):
        flat[col % len(flat), 3 * col] = value
    flat[:, -1] = -0.0
    return X


def _zero_filled_contract(T, *fields):
    """contract() as the sum into zeros of (X[j] Y[k] ...) T[i, j, k, ...]."""
    out = np.zeros((T.shape[0],) + np.broadcast_shapes(
        *(X.shape[1:] for X in fields)))
    for i, *js in zip(*np.nonzero(T)):
        term = fields[0][js[0]]
        for X, j in zip(fields[1:], js[1:]):
            term = term * X[j]
        out[i] += term * T[(i, *js)]
    return out


def _metrics(cm):
    """The matrices the curvature, gauge and off-shell layers contract
    with: the metrics, the inverse metric of h, and del_ and dlow both ways
    round."""
    return {"Q": cm.Q, "qf": cm.qf, "qfinv": cm.qfinv, "dup.T": cm.dup.T,
            "dlow": cm.dlow, "dlow.T": cm.dlow.T, "del": cm.del_,
            "del.T": cm.del_.T}


def _dense_tensor(cm, kind):
    """A dense tensor with non-unit entries: of f's shape ("random"), with
    its even rows zero ("gapped"), a (p, q + 2) matrix ("random2") or a
    (2, p, 3, q + 1) tensor ("random4")."""
    shape = {"random2": (cm.p, cm.q + 2),
             "random4": (2, cm.p, 3, cm.q + 1)}.get(kind, cm.f.shape)
    T = np.random.default_rng(8).normal(size=shape)
    if kind == "gapped":
        T[::2] = 0.0
    return T


def _tensor(cm, kind):
    if kind in TENSORS:
        return TENSORS[kind](cm)
    if kind == "Q[None]":   # the pairing B Q H of the action density
        return cm.Q[None]
    metrics = _metrics(cm)
    return metrics[kind] if kind in metrics else _dense_tensor(cm, kind)


@pytest.mark.parametrize("name", MODULES)
@pytest.mark.parametrize("tensor", ["f", "act", "actlow", "phi", "t_map",
                                    "random", "gapped", "Q", "qf", "dlow",
                                    "dlow.T", "del", "del.T", "Q[None]",
                                    "random2", "random4"])
def test_contract_matches_the_zero_filled_loop(name, tensor):
    """Bitwise but for the sign of an exact zero, with the same NaNs, on
    fields that hold +-0, +-inf and NaN: one field per axis of the tensor
    after its first, so one field for a matrix, two for the catalog's
    rank-3 tensors and a pairing M[None], three for "random4"."""
    cm = builtin_module(name)
    T = _tensor(cm, tensor)
    rng = np.random.default_rng(9)
    fields = [_special_field(rng, (k, 4, 6)) for k in T.shape[1:]]
    with np.errstate(invalid="ignore"):
        got = contract(T, *fields)
        want = _zero_filled_contract(T, *fields)
    assert got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
    if tensor.startswith("random"):   # every entry of a field reaches out
        assert not np.isfinite(got).all()


@pytest.mark.parametrize("name", MODULES)
def test_contract_over_a_metric_equals_einsum(name):
    """On the catalog's metrics and del, whose entries are 0 and +-1, one
    field and the pairing of two equal their einsums in value on finite
    fields with +-0 entries."""
    cm = builtin_module(name)
    rng = np.random.default_rng(11)
    for key, M in _metrics(cm).items():
        assert set(np.unique(M)) <= {-1.0, 0.0, 1.0}, key
        X = rng.normal(size=(M.shape[0], 4, 6))
        Y = rng.normal(size=(M.shape[1], 4, 6))
        for Z in (X, Y):
            Z[..., 0] = 0.0
            Z[..., 1] = -0.0
            Z[:1, 2] = -0.0
        assert np.array_equal(contract(M, Y),
                              np.einsum("ij,j...->i...", M, Y)), key
        assert np.array_equal(contract(M[None], X, Y)[0],
                              np.einsum("i...,ij,j...->...", X, M, Y)), key


def _bitwise(got, want):
    return (got.shape == want.shape and np.array_equal(got, want)
            and np.array_equal(np.signbit(got), np.signbit(want)))


SPACINGS = {"0.3": 0.3, "1/6": 1 / 6, "1/24": 1 / 24,   # divided by 2a
            "1/8": 1 / 8, "1/32": 1 / 32, "2^-20": 2.0 ** -20}   # reciprocal


def _roll_difference(field, ax, a):
    return (np.roll(field, -1, axis=ax) - np.roll(field, 1, axis=ax)) / (2.0 * a)


@pytest.mark.parametrize("D", [3, 4])
@pytest.mark.parametrize("a", SPACINGS.values(), ids=SPACINGS.keys())
def test_discrete_derivative_bitwise_roll(a, D):
    """Both differences along every axis, at n = 6 and 32, the slab one on
    slabs at either end of axis 0, in its interior and over all of it, are
    bitwise, signs of zeros included, the np.roll formula, which divides by
    2a, from slab_window's views of the field and from copies of them (the
    edge rows of separately computed slabs): by division at a = 0.3, 1/6
    and 1/24, by the exact reciprocal of the power of two 2a at a = 1/8,
    1/32 and 2**-20.  The whole field and the copies are C-contiguous, so
    they are differenced in one flattened pass; the views of a run of rows
    are not."""
    for n in (6, 32):
        lat = Lattice(D=D, n=n, a=a)
        comps = (2, 3) if n == 6 else (2,)
        field = np.random.default_rng(D).normal(size=comps + lat.shape)
        field[0] = 1.5   # a constant component: zero differences
        for axis in range(D):
            ax = field.ndim - D + axis
            want = _roll_difference(field, ax, lat.a)
            assert _bitwise(discrete_derivative(field, axis, lat), want)
            for rows in (slice(0, 1), slice(n - 1, n), slice(0, 2),
                         slice(n - 2, n), slice(1, n - 1), slice(0, n),
                         slice(None)):
                window = slab_window(field, lat, rows)
                for win in (window, tuple(w.copy() for w in window)):
                    got = slab_derivative(win, axis, lat)
                    assert _bitwise(got, want[(Ellipsis, rows)
                                              + (slice(None),) * (D - 1)]), (
                        n, axis, rows)


@pytest.mark.parametrize("a", [1 / 8, 1 / 6], ids=["1/8", "1/6"])
def test_slab_derivative_bitwise_on_non_contiguous_windows(a):
    """A slab that is not C-contiguous is differenced run of rows by run of
    rows, a C-contiguous one in one flattened pass; both are bitwise the
    np.roll formula, on the rows of a ring (a slab between its two
    neighbour rows in one array) and on a transposed field's windows, and
    on C-contiguous copies of the same windows, by the reciprocal at
    a = 1/8 and by division at a = 1/6."""
    lat = Lattice(D=4, n=6, a=a)
    rng = np.random.default_rng(23)
    field = rng.normal(size=(2, 3) + lat.shape)
    field[1, 2] = -0.0
    transposed = rng.normal(size=(2,) + lat.shape).transpose(0, 1, 4, 3, 2)
    rows = slice(2, 5)
    ring = field[:, :, 1:6]   # rows 1..5: the slab 2..4 and its neighbours
    windows = {
        "ring": (ring[:, :, :1], ring[:, :, 1:-1], ring[:, :, -1:]),
        "transposed": slab_window(transposed, lat, rows),
    }
    for name, window in windows.items():
        source = field if name == "ring" else transposed
        assert not window[1].flags.c_contiguous, name
        copies = tuple(np.ascontiguousarray(w) for w in window)
        assert copies[1].flags.c_contiguous, name
        for axis in range(4):
            ax = source.ndim - 4 + axis
            want = _roll_difference(source, ax, lat.a)[..., rows, :, :, :]
            for win in (window, copies):
                assert _bitwise(slab_derivative(win, axis, lat), want), (
                    name, axis)


def _loop_density(density, point, lat):
    """evaluate_density as the sum into zeros of coeff times a product that
    starts from a copy of its first factor."""
    out = np.zeros(density.comp_shape + lat.shape)
    fcache = _FactorCache(point, lat)
    for fc, terms in density.items():
        for coeff, factors in terms:
            prod = None
            for f in factors:
                v = fcache.get(f)
                prod = v.copy() if prod is None else prod * v
            out[fc] += coeff if prod is None else coeff * prod
    return out


def _loop_value(fn, point):
    """LocalFunctional.value as the same product loop, weighted, summed."""
    fcache = _FactorCache(point, fn.lattice)
    total = 0.0
    for coeff, weight, factors in fn.entries:
        prod = None
        for f in factors:
            v = fcache.get(f)
            prod = v.copy() if prod is None else prod * v
        if prod is None:
            total += coeff * (fn.lattice.n ** 3 if weight is None
                              else float(np.sum(weight)))
            continue
        if weight is not None:
            prod = prod * weight
        total += coeff * float(np.sum(prod))
    return fn.lattice.a ** 3 * total


def _loop_gradient(fn, point):
    """LocalFunctional.gradient with coeff a^3 weight formed per factor."""
    a3, lat = fn.lattice.a ** 3, fn.lattice
    fcache = _FactorCache(point, lat)
    grad = {}
    for coeff, weight, factors in fn.entries:
        vals = [fcache.get(f) for f in factors]
        for j, (block, comp, daxis) in enumerate(factors):
            partial = coeff * a3 if weight is None else coeff * a3 * weight
            for k, v in enumerate(vals):
                if k != j:
                    partial = partial * v
            g = grad.setdefault(block, np.zeros_like(point[block]))
            if daxis < 0:
                g[comp] += partial
            else:
                g[comp] -= discrete_derivative(
                    np.broadcast_to(partial, lat.shape), daxis, lat)
    return grad


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_density_kernels_match_the_product_loop(name):
    """Every constraint density, smeared with a test field and unsmeared,
    gives bitwise the loop's values, value and gradient blocks."""
    cm = builtin_module(name)
    lat = Lattice(3, 4, 0.3)
    point = random_phase_point(cm, lat, seed=3).blocks
    rng = np.random.default_rng(12)
    for fam in FAMILIES:
        dens = constraint_density(cm, fam)
        assert (evaluate_density(dens, point, lat).tobytes()
                == _loop_density(dens, point, lat).tobytes()), fam
        test = rng.normal(size=dens.comp_shape + lat.shape)
        for fn in (smear(dens, test, lat), smear(dens, None, lat)):
            assert fn.value(point) == _loop_value(fn, point), fam
            got, want = fn.gradient(point), _loop_gradient(fn, point)
            assert got.keys() == want.keys(), fam
            for block in want:
                assert got[block].tobytes() == want[block].tobytes(), fam


def _ifftn_oracle(recipe, lattice):
    """The recipe's polynomial through a complex spectrum and ifftn."""
    n = lattice.n
    spec = np.zeros(recipe.comp_shape + lattice.shape, dtype=complex)
    for k, (ca, sa) in recipe.coeffs.items():
        amp = 0.5 * (np.asarray(ca) - 1j * np.asarray(sa))
        spec[(Ellipsis,) + tuple(np.mod(k, n))] += amp
        spec[(Ellipsis,) + tuple(np.mod(np.negative(k), n))] += np.conj(amp)
    axes = tuple(range(-recipe.D, 0))
    return (np.fft.ifftn(spec, axes=axes) * n ** recipe.D).real


def _modes(D, n):
    def k(*head):
        return head + (0,) * (D - len(head))
    return [
        k(),                    # constant
        k(1),                   # axis-aligned
        k(0, -2),               # negative
        k(1, 2, -1),            # non-axis-aligned
        k(*(2, -1, 3, 1)[:D]),  # support on every axis
        k(n),                   # k = 0 mod n
        k(n + 1, 0, n),         # aliases onto k(1)
        k(n // 2),              # Nyquist
        k(n // 2, n // 2),      # Nyquist on two axes
    ]


@pytest.mark.parametrize("D,n", [(3, 6), (3, 8), (4, 6), (4, 8)])
def test_realize_matches_ifftn(D, n):
    rng = np.random.default_rng(D * 100 + n)
    comp = (2, 3)
    coeffs = {k: (rng.normal(size=comp), rng.normal(size=comp))
              for k in _modes(D, n)}
    recipe = FieldRecipe(D, comp, coeffs)
    lat = Lattice(D=D, n=n, a=1.0 / n)
    got = recipe.realize(lat)
    assert got.shape == comp + lat.shape and got.dtype == np.float64
    assert np.max(np.abs(got - _ifftn_oracle(recipe, lat))) < 1e-12


def test_realize_derivative_matches_ifftn():
    rng = np.random.default_rng(11)
    D, n = 4, 6
    coeffs = {k: (rng.normal(size=(3,)), rng.normal(size=(3,)))
              for k in _modes(D, n)}
    recipe = FieldRecipe(D, (3,), coeffs)
    lat = Lattice(D=D, n=n, a=0.5)
    for axis in range(D):
        w = {k: 2.0 * np.pi * k[axis] / (lat.n * lat.a) for k in coeffs}
        deriv = FieldRecipe(D, (3,), {k: (w[k] * sa, -w[k] * ca)
                                      for k, (ca, sa) in coeffs.items()})
        got = realize_derivative(recipe, lat, axis)
        assert np.max(np.abs(got - _ifftn_oracle(deriv, lat))) < 1e-12


def test_slabs_partition_axis_0():
    """Slabs are runs of whole rows of at most SLAB_SITES sites, one row at
    least; at n = 16 and 32 they are the 2**15-site blocks of the lattice."""
    for D, n, count in ((4, 8, 1), (4, 14, 2), (4, 16, 2), (4, 32, 32),
                        (4, 40, 40), (3, 32, 1), (3, 64, 8)):
        parts = slabs(Lattice(D, n, 1.0 / n))
        assert len(parts) == count
        assert [s.start for s in parts] == [0] + [s.stop for s in parts[:-1]]
        assert parts[-1].stop == n
        assert all((s.stop - s.start) * n ** (D - 1) <= lattice.SLAB_SITES
                   or s.stop - s.start == 1 for s in parts)


def _slabbed_outputs(cm, cfg, eps, eta, point):
    """Every slab-streamed result on one configuration, by name."""
    out = {"F": curvature_F(cm, cfg), "S": evaluate_action(cm, cfg)}
    out.update(("curvature " + k, v)
               for k, v in curvature_residuals(cm, cfg, eta).items())
    out.update(("eom " + k, v) for k, v in eom_residuals(cm, cfg).items())
    out.update(bianchi_residuals(cm, cfg))
    for kind, new in (("thin", thin_gauge_transform(cm, cfg.copy(), eps)),
                      ("fat", fat_gauge_transform(cm, cfg.copy(), eta))):
        out.update((f"{kind} {f}", getattr(new, f))
                   for f in ("A", "beta", "B", "C"))
    out.update(("offshell " + k, v)
               for k, v in offshell_relations(cm, point).items())
    return out


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare",
                                  "trivial_bf(1)", "abelian(2,3)"])
def test_one_row_slabs_match_one_slab(name, monkeypatch):
    """With one-row slabs every row is a slab edge, rows 0 and n-1 included;
    the results are bitwise those of the whole lattice as one slab.  The
    thin parameter keeps every exponential's norm below 1/2, so no slab
    squares and the partition cannot move the exponentials either."""
    cm = builtin_module(name)
    lat = Lattice(4, 6, 1.0 / 6)
    cfg = make_config_recipe(cm, 4, 1, seed=2, scale=0.4).realize(lat)
    rng = np.random.default_rng(4)
    eps = _random_recipe(rng, 4, (cm.p,), 1, scale=0.05).realize(lat)
    eta = _random_recipe(rng, 4, (4, cm.q), 1, scale=0.3).realize(lat)
    ad = np.einsum("abc,b...->...ac", cm.f, eps)
    act = np.einsum("xay,a...->...xy", cm.act, eps)
    assert all(np.max(np.sum(np.abs(M), axis=-1), initial=0.0) <= 0.5
               for M in (ad, act))
    point = random_phase_point(cm, Lattice(3, 6, 1.0 / 6), seed=3,
                               rule="random")
    assert len(slabs(lat)) == 1
    whole = _slabbed_outputs(cm, cfg, eps, eta, point)
    monkeypatch.setattr(lattice, "SLAB_SITES", 1)
    assert len(slabs(lat)) == lat.n
    rows = _slabbed_outputs(cm, cfg, eps, eta, point)
    assert whole.keys() == rows.keys()
    for key, want in whole.items():
        assert np.array_equal(rows[key], want), key


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare",
                                  "trivial_bf(1)", "abelian(2,3)"])
def test_bianchi_rings_compute_each_slab_once(name, monkeypatch):
    """At n = 6 the Bianchi residuals and the thin covariance are bitwise
    the same with slabs of 1, 2, 3 and 6 rows, of a held and of a streamed
    configuration, and the covariance is bitwise the held computation it
    replaced: curvature_F of the in-place transform of a held copy against
    the einsum rotation of curvature_F.  With 2 slabs a slab's previous
    and next slab are the same slab, and with 1 slab both are the slab
    itself.  On every partition of more than one slab each ring computes
    its lead, the last slab, first and then each slab once, in order; on
    one slab the lead is slab 0, computed once and reduced in one run.
    Each ring reduces each row once."""
    cm = builtin_module(name)
    lat = Lattice(4, 6, 1.0 / 6)
    recipe = make_config_recipe(cm, 4, 1, seed=2, scale=0.4)
    held = recipe.realize(lat)
    eps = np.random.default_rng(3).normal(size=cm.p) * 0.4
    const = FieldRecipe(4, (cm.p,), {(0, 0, 0, 0): (eps, 0.0)})
    R = expm_batched(_generators(cm.f, eps[:, None])[0])
    ring, calls = curvature._ring, []

    def counted_ring(source, kernel, reduce, edges):
        computed, reduced = [], []
        calls.append((computed, reduced))

        def counted_kernel(slab):
            computed.append((slab.rows.start, slab.rows.stop))
            return kernel(slab)

        def counted_reduce(ring):
            reduced.append((ring.rows.start, ring.rows.stop))
            return reduce(ring)

        return ring(source, counted_kernel, counted_reduce, edges)

    monkeypatch.setattr(curvature, "_ring", counted_ring)
    monkeypatch.setattr(gauge, "_ring", counted_ring)
    res = {}
    for rows in (1, 2, 3, 6):
        monkeypatch.setattr(lattice, "SLAB_SITES", rows * lat.n ** 3)
        parts = [(s.start, s.stop) for s in slabs(lat)]
        assert len(parts) == lat.n // rows
        F1 = curvature_F(cm, thin_gauge_transform(cm, held.copy(), const))
        oracle = np.max(np.abs(
            F1 - np.einsum("ab,Pb...->Pa...", R, curvature_F(cm, held))))
        for kind, cfg in (("held", held), ("streamed", recipe.stream(lat))):
            calls.clear()
            res[rows, kind] = {k: float(v).hex()
                               for k, v in bianchi_residuals(cm, cfg).items()}
            cov = thin_covariance(cm, cfg, eps)
            assert cov.hex() == float(oracle).hex(), (rows, kind)
            res[rows, kind]["covariance"] = cov.hex()
            assert len(calls) == 3
            for computed, reduced in calls:
                if len(parts) == 1:
                    assert computed == parts and reduced == parts
                else:
                    assert computed == parts[-1:] + parts
                assert sorted(k for run in reduced
                              for k in range(*run)) == list(range(lat.n))
    assert len(set(map(str, res.values()))) == 1, res


def _readers(cm, cfg, eps, eta) -> dict:
    """Every 4D reader's result on cfg, its arrays as bytes and the eom
    samples by repr, which tells every float bit."""
    eom = eom_residuals(cm, cfg, 3)
    return {"curvature_F": curvature_F(cm, cfg).tobytes(),
            "curvature_residuals": curvature_residuals(cm, cfg, eta),
            "evaluate_action": evaluate_action(cm, cfg),
            "eom_residuals": {k: v.tobytes() if isinstance(v, np.ndarray)
                              else repr(v) for k, v in eom.items()},
            "eom_gradient_check": eom_gradient_check(cm, cfg, eom).hex(),
            "bianchi_residuals": bianchi_residuals(cm, cfg),
            "transformed_actions": transformed_actions(cm, cfg, eps, eta)}


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare",
                                  "trivial_bf(3)"])
def test_held_and_recipe_fields_give_the_same_results(name, monkeypatch):
    """On three slabs of 2 rows, every 4D reader gives bitwise the same
    results on a configuration's realized arrays, on its recipes and on a
    mix of both, with the gauge parameters of either kind."""
    cm = builtin_module(name)
    lat = Lattice(4, 6, 1.0 / 6)
    monkeypatch.setattr(lattice, "SLAB_SITES", 2 * lat.n ** 3)
    recipe = make_config_recipe(cm, 4, 2, seed=5, scale=0.4)
    rng = np.random.default_rng(7)
    eps = _random_recipe(rng, 4, (cm.p,), 2, scale=0.3)
    eta = _random_recipe(rng, 4, (4, cm.q), 2, scale=0.3)
    held = recipe.realize(lat)
    mixed = FieldConfiguration(lat, held.A, recipe.beta, held.B, recipe.C)
    want = _readers(cm, held, eps.realize(lat), eta.realize(lat))
    assert _readers(cm, recipe.stream(lat), eps, eta) == want
    assert _readers(cm, mixed, eps, eta.realize(lat)) == want
