"""Shared test helpers: a smooth-field sampler, the analytic derivative of a
recipe, the full-array curvature oracles, a matrix-exponential oracle and a
tracemalloc peak."""

import tracemalloc
from itertools import permutations

import numpy as np

from bfcg import curvature
from bfcg.lattice import (FieldRecipe, Lattice, Slab, discrete_derivative,
                          levi_civita, make_config_recipe, pair_index, pairs,
                          slab_window, triples)


def sample_smooth_fields(cm, lattice: Lattice, mode_count: int, seed: int):
    """Random trigonometric-polynomial configuration of unit scale,
    deterministic in seed."""
    return make_config_recipe(cm, lattice.D, mode_count, seed,
                              scale=1.0).realize(lattice)


def realize_derivative(recipe: FieldRecipe, lattice: Lattice,
                       axis: int) -> np.ndarray:
    """Exact analytic derivative of a recipe's trig polynomial along one
    axis, in the box of extent L = n * a."""
    L = lattice.n * lattice.a
    deriv = {}
    for k, (ca, sa) in recipe.coeffs.items():
        w = 2.0 * np.pi * k[axis] / L
        # d/dx [ca cos + sa sin] = w (sa cos - ca sin)
        deriv[k] = (w * np.asarray(sa), -w * np.asarray(ca))
    return FieldRecipe(recipe.D, recipe.comp_shape, deriv).realize(lattice)


def _whole(cfg, *names) -> Slab:
    """The whole lattice of a held configuration as one Slab over the named
    fields, each with its window."""
    lat = cfg.lattice
    every = slice(0, lat.n)
    return Slab(lat, every, {f: slab_window(getattr(cfg, f), lat, every)
                             for f in names})


def fake_curvature(cm, cfg) -> np.ndarray:
    """H^a_{mn} = F^a_{mn} - del_al^a beta^al_{mn} on ordered pairs, a full
    array from the library's pair kernel on the whole lattice."""
    slab = _whole(cfg, "A", "beta")
    return np.stack([curvature._fake_curvature_pair(cm, slab, P)
                     for P in range(len(pairs(cfg.lattice.D)))])


def curvature_G3(cm, cfg) -> np.ndarray:
    """G^al_{mnr} on ordered triples (S3 6-term convention), a full array
    from the library's triple kernel on the whole lattice."""
    slab = _whole(cfg, "A", "beta")
    return np.stack([curvature._three_form_triple(slab, "beta", cm.act, tri)
                     for tri in triples(cfg.lattice.D)])


def curvature_T(cm, cfg) -> np.ndarray:
    """T^al_{mn} = nabla^act_m C_n - nabla^act_n C_m on ordered pairs, a
    full array from the library's pair kernel on the whole lattice."""
    slab = _whole(cfg, "A", "C")
    return np.stack([curvature._curvature_T_pair(cm, slab, P)
                     for P in range(len(pairs(cfg.lattice.D)))])


def curvature_GB(cm, cfg) -> np.ndarray:
    """GB^a_{mnr} = S3[ d B + f A B ] on ordered triples: every one of the six
    permutations (d, i, j) of a triple summed with its sign, on whole
    arrays and through a dense einsum."""
    lat = cfg.lattice
    pidx = pair_index(lat.D)
    trs = triples(lat.D)
    out = np.zeros((len(trs), cm.p) + lat.shape)
    for Ti, tri in enumerate(trs):
        for perm in permutations(range(3)):
            d, i, j = (tri[k] for k in perm)
            P, psign = pidx[(i, j)]
            cov = (discrete_derivative(cfg.B[P], d, lat)
                   + np.einsum("abc,b...,c...->a...", cm.f, cfg.A[d], cfg.B[P]))
            out[Ti] += levi_civita(perm) * psign * cov
    return out


def expm_series(M: np.ndarray, terms: int = 30) -> np.ndarray:
    """exp of each matrix of a stack (..., d, d), summed term by term.

    Each matrix is scaled by its own power of two 2**s to a 1-norm of at
    most 1/2, its series summed to `terms` terms and squared s times, so a
    matrix's result does not depend on the rest of the stack.
    """
    M = np.asarray(M, dtype=float)
    norm = np.max(np.sum(np.abs(M), axis=-1), axis=-1)
    s = np.zeros(norm.shape, dtype=int)
    big = norm > 0.5
    s[big] = np.ceil(np.log2(norm[big] / 0.5)).astype(int)
    T = np.ldexp(M, -s[..., None, None])
    E = np.broadcast_to(np.eye(M.shape[-1]), M.shape).copy()
    term = E.copy()
    for k in range(1, terms):
        term = term @ T / k
        E = E + term
    for j in range(int(np.max(s, initial=0))):
        E = np.where((s > j)[..., None, None], E @ E, E)
    return E


def traced_peak(fn, *args):
    """fn(*args) and the peak bytes it allocated, traced by tracemalloc."""
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak
