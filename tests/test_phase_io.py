"""Phase recipes and the gauge-fixed substitution machinery."""

import dataclasses

import numpy as np
import pytest

from bfcg import constraints
from bfcg.constraints import (constraint_density, evaluate_constraint,
                              gauge_fixed_density)
from bfcg.crossed_module import builtin_module
from bfcg.lattice import EPS3_PAIR, Lattice, pairs
from bfcg.localpoly import evaluate_density, identity
from bfcg.phase import (make_phase_recipe, onshell_map, onshell_momenta,
                        random_phase_point)

CM = builtin_module("adjoint(su2)")
LAT = Lattice(D=3, n=5, a=0.2)


def test_phase_recipe_resolution_consistent():
    rec = make_phase_recipe(CM, 1, seed=5, rule="random")
    p1 = rec.realize_with(CM, Lattice(D=3, n=6, a=0.2))
    p2 = rec.realize_with(CM, Lattice(D=3, n=12, a=0.1))
    assert np.max(np.abs(p1.blocks["A"] - p2.blocks["A"][..., ::2, ::2, ::2])) < 1e-12
    assert np.max(np.abs(p1.blocks["pbe"] - p2.blocks["pbe"][..., ::2, ::2, ::2])) < 1e-12


def test_onshell_recipe_is_onshell_at_every_resolution():
    rec = make_phase_recipe(CM, 1, seed=6, rule="on_shell")
    for n in (5, 10):
        pt = rec.realize_with(CM, Lattice(D=3, n=n, a=1.0 / n))
        for fam in ("P(A)_i", "P(beta)_jk", "P(B)_jk", "P(C)_k"):
            arr = evaluate_density(constraint_density(CM, fam), pt.blocks,
                                   pt.lattice)
            assert np.max(np.abs(arr)) < 1e-13, fam


@pytest.mark.parametrize("name", ["adjoint(su2)", "vector_poincare"])
def test_gauge_fixed_substitution_matches_manual(name):
    """gf densities equal the originals evaluated at substituted B, C."""
    cm = builtin_module(name)
    pt = random_phase_point(cm, LAT, seed=9, rule="random")
    S3 = EPS3_PAIR
    P3 = pairs(3)
    # rebuild B, C from the momenta the way the gf map defines them
    sub = pt.copy()
    B = np.zeros_like(pt.blocks["B"])
    C = np.zeros_like(pt.blocks["C"])
    pA_up = np.einsum("ab,ib...->ia...", np.linalg.inv(cm.Q), pt.blocks["pA"])
    pbe_up = np.einsum("xy,Py...->Px...", np.linalg.inv(cm.qf), pt.blocks["pbe"])
    for P, (j, k) in enumerate(P3):
        d = 3 - j - k
        B[P] = S3[d, P] * pA_up[d]
    for m in range(3):
        Pm = next(P for P, pr in enumerate(P3) if m not in pr)
        C[m] = -S3[m, Pm] * pbe_up[Pm]
    sub.blocks["B"] = B
    sub.blocks["C"] = C
    for fam in ("S(H)", "S(G)", "S(CB)", "S(BCbeta)"):
        gf = evaluate_density(gauge_fixed_density(cm, fam), pt.blocks, LAT)
        manual = evaluate_density(constraint_density(cm, fam), sub.blocks, LAT)
        assert np.max(np.abs(gf - manual)) < 1e-12, fam


def test_onshell_momenta_invert_the_elimination():
    """on-shell momenta followed by the gf substitution return B and C."""
    pt = random_phase_point(CM, LAT, seed=11, rule="random")
    mom = onshell_momenta(CM, pt.blocks, LAT)
    S3 = EPS3_PAIR
    P3 = pairs(3)
    pA_up = np.einsum("ab,ib...->ia...", np.linalg.inv(CM.Q), mom["pA"])
    for P, (j, k) in enumerate(P3):
        d = 3 - j - k
        assert np.max(np.abs(S3[d, P] * pA_up[d] - pt.blocks["B"][P])) < 1e-12


CATALOG = ["trivial_bf(1)", "trivial_bf(3)", "abelian(1,1)", "abelian(2,3)",
           "abelian(4,2)", "adjoint(su2)", "vector_poincare"]


def _dense_module():
    """abelian(2,3) with dense positive-definite Q and q: every structure
    tensor is zero, so any symmetric metric is invariant."""
    rng = np.random.default_rng(4)
    m, h = rng.normal(size=(2, 2)), rng.normal(size=(3, 3))
    return dataclasses.replace(builtin_module("abelian(2,3)"),
                               Q=m @ m.T + np.eye(2), qf=h @ h.T + np.eye(3),
                               name="dense")


@pytest.mark.parametrize("name", CATALOG + ["dense"])
def test_onshell_map_is_the_one_rule(name):
    """onshell_momenta makes chi(A) and chi(beta) vanish, and the gauge-fixed
    substitution of a field, composed with the on-shell map, is the
    identity on its momentum: exactly on the catalog, whose metrics are
    diagonal with entries +-1, and to roundoff on dense metrics."""
    cm = _dense_module() if name == "dense" else builtin_module(name)
    tol = 1e-13 if name == "dense" else 0.0
    pt = random_phase_point(cm, LAT, seed=3, rule="random", mode_count=2)
    pt.blocks.update(onshell_momenta(cm, pt.blocks, LAT))
    for fam in ("chi(A)", "chi(beta)"):
        chi = evaluate_constraint(cm, fam, pt)
        assert np.max(np.abs(chi), initial=0.0) <= tol, fam
    for mom, (field, M) in onshell_map(cm).items():
        shape = M.shape[2:]
        [(sub, got)] = constraints._gauge_fix(cm, [(identity(shape), field)])
        assert got == mom
        composed = np.tensordot(M, sub, axes=2)
        assert np.max(np.abs(composed - identity(M.shape[:2])),
                      initial=0.0) <= tol, mom
