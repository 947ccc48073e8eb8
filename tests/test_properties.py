"""Property-based checks of the structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bfcg.crossed_module import DifferentialCrossedModule
from bfcg.dof import dof_count
from bfcg.lattice import Lattice, fit_order
from bfcg.localpoly import poisson_bracket, smear, tensor_density

LAT = Lattice(D=3, n=4, a=0.5)
PAIRS = (("q1", "p1"),)


@given(p=st.integers(1, 64), q=st.integers(0, 64))
@settings(max_examples=60, deadline=None)
def test_dof_always_vanishes(p, q):
    t = dof_count(p, q)
    assert t.n == 0
    assert t.N == 10 * (p + q)
    assert t.F == 7 * (p + q)
    assert t.S == 6 * (p + q)


@given(order=st.floats(0.5, 4.0), c=st.floats(1e-6, 1e3), seed=st.integers(0, 100))
@settings(max_examples=40, deadline=None)
def test_fit_order_recovers_power_law(order, c, seed):
    spacings = [0.1, 0.05, 0.025, 0.0125]
    residuals = [c * a ** order for a in spacings]
    fitted = fit_order(spacings, residuals)
    if fitted == "exact":
        assert max(residuals) <= 1e-11
    else:
        assert abs(fitted - order) < 1e-6


def _random_nondegenerate_symmetric(rng, d):
    M = rng.normal(size=(d, d))
    return M + M.T + (2.0 * d) * np.eye(d)


@given(seed=st.integers(0, 1000), p=st.integers(1, 4), q=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_lower_raise_round_trip_random_metrics(seed, p, q):
    """Raising undoes lowering: Q Qinv = 1 on g and qf qfinv = 1 on h."""
    rng = np.random.default_rng(seed)
    cm = DifferentialCrossedModule(
        p=p, q=q, f=np.zeros((p, p, p)), phi=np.zeros((q, q, q)),
        del_=np.zeros((q, p)), act=np.zeros((q, p, q)),
        Q=_random_nondegenerate_symmetric(rng, p),
        qf=_random_nondegenerate_symmetric(rng, q))
    assert np.max(np.abs(cm.Q @ cm.Qinv - np.eye(p))) < 1e-10
    assert np.max(np.abs(cm.qf @ cm.qfinv - np.eye(q))) < 1e-10


@st.composite
def _term_lists(draw):
    """Tensor terms of one monomial each: a coefficient tensor with one
    drawn entry, over drawn factors of the blocks q1, p1 (2 components)."""
    nterms = draw(st.integers(1, 4))
    terms = []
    for _ in range(nterms):
        coeff = draw(st.floats(-2.0, 2.0).filter(lambda x: abs(x) > 1e-3))
        nfac = draw(st.integers(1, 3))
        factors, shape, idx = [], [], []
        for _ in range(nfac):
            block = draw(st.sampled_from(["q1", "p1"]))
            comp = draw(st.integers(0, 1))
            dax = draw(st.sampled_from([-1, 0, 1, 2]))
            factors.append((block, 1, dax >= 0))
            if dax >= 0:
                shape.append(3)
                idx.append(dax)
            shape.append(2)
            idx.append(comp)
        c = np.zeros(shape)
        c[tuple(idx)] = coeff
        terms.append((c, *factors))
    return terms


@given(ta=_term_lists(), tb=_term_lists(), seed=st.integers(0, 50))
@settings(max_examples=40, deadline=None)
def test_bracket_antisymmetry_random_functionals(ta, tb, seed):
    """{F, G} = -{G, F} holds exactly for arbitrary polynomial functionals."""
    da = tensor_density((), *ta)
    db = tensor_density((), *tb)
    rng = np.random.default_rng(seed)
    pt = {"q1": rng.normal(size=(2,) + LAT.shape),
          "p1": rng.normal(size=(2,) + LAT.shape)}
    F = smear(da, None, LAT)
    G = smear(db, None, LAT)
    ab = poisson_bracket(F, G, pt, PAIRS)
    ba = poisson_bracket(G, F, pt, PAIRS)
    assert abs(ab + ba) <= 1e-12 * max(1.0, abs(ab), abs(ba))


@given(seed=st.integers(0, 200))
@settings(max_examples=25, deadline=None)
def test_bracket_bilinearity(seed):
    rng = np.random.default_rng(seed)
    q1, p1, dq1 = ("q1", 1, False), ("p1", 1, False), ("q1", 1, True)
    t1 = (np.outer([1.0, 0.0], [0.0, 1.0]), q1, p1)
    t2 = (np.outer([0.0, 1.0, 0.0], [0.0, 1.0]), dq1)
    d1, d2 = tensor_density((), t1), tensor_density((), t2)
    d3 = tensor_density((), (np.outer([1.0, 0.0], [1.0, 0.0]), p1, q1))
    pt = {"q1": rng.normal(size=(2,) + LAT.shape),
          "p1": rng.normal(size=(2,) + LAT.shape)}
    a, b = rng.normal(), rng.normal()
    F1 = smear(d1, None, LAT)
    F2 = smear(d2, None, LAT)
    G = smear(d3, None, LAT)
    combo = tensor_density((), (a * t1[0], *t1[1:]), (b * t2[0], *t2[1:]))
    lhs = poisson_bracket(smear(combo, None, LAT), G, pt, PAIRS)
    rhs = (a * poisson_bracket(F1, G, pt, PAIRS)
           + b * poisson_bracket(F2, G, pt, PAIRS))
    assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))