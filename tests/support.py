"""Shared test helpers: a smooth-field sampler and the GB curvature oracle."""

from itertools import permutations

import numpy as np

from bfcg.lattice import (Lattice, discrete_derivative, levi_civita,
                          make_config_recipe, pair_index, triples)


def sample_smooth_fields(cm, lattice: Lattice, mode_count: int, seed: int):
    """Random trigonometric-polynomial configuration of unit scale,
    deterministic in seed."""
    return make_config_recipe(cm, lattice.D, mode_count, seed,
                              scale=1.0).realize(lattice)


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
