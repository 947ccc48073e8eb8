"""Exact-gradient engine for local polynomial functionals."""

import numpy as np
import pytest

from bfcg.lattice import Lattice
from bfcg.localpoly import (LocalFunctional, evaluate_density, pair_gradients,
                            poisson_bracket, smear, tensor_density)

LAT = Lattice(D=3, n=4, a=0.5)

# factors (block, rank, deriv) of the probe blocks: q1, p1 have 2 components,
# q2, p2 one; a "d" prefix is the central difference
Q1, P1, Q2, P2 = (("q1", 1, False), ("p1", 1, False), ("q2", 1, False),
                  ("p2", 1, False))
DQ1, DP1, DQ2, DP2 = ((b, r, True) for b, r, _ in (Q1, P1, Q2, P2))


def _one(shape, idx, value=1.0):
    """Coefficient tensor with one nonzero entry: one monomial."""
    c = np.zeros(shape)
    c[idx] = value
    return c


def _point(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "q1": rng.normal(size=(2,) + LAT.shape),
        "p1": rng.normal(size=(2,) + LAT.shape),
        "q2": rng.normal(size=LAT.shape)[None],
        "p2": rng.normal(size=LAT.shape)[None],
    }


PAIRS = (("q1", "p1"), ("q2", "p2"))


def test_density_evaluation_matches_hand_sum():
    d = tensor_density((2,), (_one((2, 2), (0, 0), 2.0), Q1),
                       (_one((2, 2, 2), (0, 1, 0)), Q1, P1),
                       (_one((2, 3, 1), (1, 1, 0), -1.0), DQ2))
    pt = _point(1)
    arr = evaluate_density(d, pt, LAT)
    expect0 = 2.0 * pt["q1"][0] + pt["q1"][1] * pt["p1"][0]
    roll = (np.roll(pt["q2"][0], -1, axis=1) - np.roll(pt["q2"][0], 1, axis=1)) / (2 * LAT.a)
    assert np.max(np.abs(arr[0] - expect0)) < 1e-14
    assert np.max(np.abs(arr[1] + roll)) < 1e-14


def test_smear_linearity_in_test_field():
    d = tensor_density((2,), (_one((2, 2, 2), (0, 0, 1)), Q1, Q1),
                       (_one((2, 3, 2), (1, 2, 1)), DP1))
    pt = _point(2)
    rng = np.random.default_rng(3)
    t1 = rng.normal(size=(2,) + LAT.shape)
    t2 = rng.normal(size=(2,) + LAT.shape)
    v1 = smear(d, t1, LAT).value(pt)
    v2 = smear(d, t2, LAT).value(pt)
    v12 = smear(d, t1 + t2, LAT).value(pt)
    assert abs(v12 - v1 - v2) < 1e-12
    assert smear(d, np.zeros_like(t1), LAT).value(pt) == 0.0


def test_delta_test_field_picks_one_site():
    d = tensor_density((1,), (np.ones((1, 1)), Q2))
    pt = _point(4)
    t = np.zeros((1,) + LAT.shape)
    t[0, 1, 2, 3] = 1.0
    val = smear(d, t, LAT).value(pt)
    assert abs(val - LAT.a ** 3 * pt["q2"][0][1, 2, 3]) < 1e-14


def test_gradient_matches_finite_differences():
    d = tensor_density((2,), (_one((2, 2, 2), (0, 0, 1), 1.5), Q1, P1),
                       (_one((2, 3, 2, 1), (0, 0, 1, 0), -0.5), DQ1, Q2),
                       (_one((2, 2, 2, 3, 1), (0, 0, 1, 2, 0), 2.0), Q1, Q1, DP2),
                       (_one((2, 3, 2), (1, 1, 0)), DP1))
    rng = np.random.default_rng(5)
    t = rng.normal(size=(2,) + LAT.shape)
    fn = smear(d, t, LAT)
    pt = _point(6)
    grad = fn.gradient(pt)
    h = 1e-6
    for block in pt:
        flat_idx = [(0, 1, 2, 3), (0, 3, 3, 0)] if pt[block].shape[0] > 1 else \
            [(0, 1, 2, 3), (0, 0, 0, 0)]
        for idx in flat_idx:
            pt[block][idx] += h
            up = fn.value(pt)
            pt[block][idx] -= 2 * h
            dn = fn.value(pt)
            pt[block][idx] += h
            fd = (up - dn) / (2 * h)
            assert abs(grad[block][idx] - fd) < 1e-7, (block, idx)


def test_gradient_of_linear_functional_is_exact_weight():
    d = tensor_density((2,), (np.eye(2), P1))
    rng = np.random.default_rng(7)
    t = rng.normal(size=(2,) + LAT.shape)
    fn = smear(d, t, LAT)
    grad = fn.gradient(_point(8))
    assert np.max(np.abs(grad["p1"] - LAT.a ** 3 * t)) < 1e-15
    assert "q1" not in grad


def test_bracket_canonical_pair_and_antisymmetry():
    dq = tensor_density((1,), (np.ones((1, 1)), Q2))
    dp = tensor_density((1,), (np.ones((1, 1)), P2))
    rng = np.random.default_rng(9)
    f = rng.normal(size=(1,) + LAT.shape)
    g = rng.normal(size=(1,) + LAT.shape)
    F = smear(dq, f, LAT)
    G = smear(dp, g, LAT)
    pt = _point(10)
    val = poisson_bracket(F, G, pt, PAIRS)
    expect = LAT.a ** 3 * np.sum(f * g)
    assert abs(val - expect) < 1e-12
    assert abs(poisson_bracket(G, F, pt, PAIRS) + val) < 1e-14


def test_bracket_nonlinear_antisymmetry_exact():
    d1 = tensor_density((), (_one((2, 2, 3, 1), (0, 1, 1, 0)), Q1, P1, DQ2))
    d2 = tensor_density((), (_one((1, 3, 2), (0, 2, 1)), P2, DQ1))
    F = smear(d1, None, LAT)
    G = smear(d2, None, LAT)
    pt = _point(11)
    ab = poisson_bracket(F, G, pt, PAIRS)
    ba = poisson_bracket(G, F, pt, PAIRS)
    assert ab != 0.0
    assert abs(ab + ba) < 1e-14 * max(1.0, abs(ab))


def _nonlinear_pair():
    d1 = tensor_density((2,),
                        (_one((2, 2, 2, 3, 1), (0, 0, 1, 1, 0)), Q1, P1, DQ2),
                        (_one((2, 3, 2), (1, 0, 1), -2.0), DQ1))
    d2 = tensor_density((), (_one((1, 3, 2), (0, 2, 1)), P2, DQ1),
                        (_one((2,), 0, 0.5), P1))
    t = np.random.default_rng(13).normal(size=(2,) + LAT.shape)
    return smear(d1, t, LAT), smear(d2, None, LAT)


def test_gradient_holds_only_the_blocks_read():
    F, G = _nonlinear_pair()
    pt = _point(14)
    assert set(F.gradient(pt)) == {"q1", "p1", "q2"}
    assert set(G.gradient(pt)) == {"p2", "q1", "p1"}


def test_sparse_pairing_equals_dense_pairing_bitwise():
    F, G = _nonlinear_pair()
    pt = _point(15)
    gf, gg = F.gradient(pt), G.gradient(pt)
    dense_f = {b: gf.get(b, np.zeros_like(arr)) for b, arr in pt.items()}
    dense_g = {b: gg.get(b, np.zeros_like(arr)) for b, arr in pt.items()}
    total = 0.0
    for qb, pb in PAIRS:
        total += float(np.sum(dense_f[qb] * dense_g[pb])
                       - np.sum(dense_f[pb] * dense_g[qb]))
    assert pair_gradients(gf, gg, PAIRS, LAT.a) == total / LAT.a ** 3
    assert poisson_bracket(F, G, pt, PAIRS) == pair_gradients(gf, gg, PAIRS, LAT.a)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_read_block_gives_nan_bracket(bad):
    dF = tensor_density((), (_one((2, 2), (0, 0)), Q1, P1))
    dG = tensor_density((), (np.ones(1), Q2))
    F, G = smear(dF, None, LAT), smear(dG, None, LAT)
    pt = _point(16)
    pt["q1"][0, 1, 2, 3] = bad
    assert np.isnan(poisson_bracket(F, G, pt, PAIRS))
    assert np.isnan(poisson_bracket(G, F, pt, PAIRS))


def _cubic(t, q2_factor, lat):
    """a^3 sum t q1_0 q2 p2, q2 differenced along axis 0 when q2_factor is
    DQ2, with the test field t (None, or a constant): its q1 partials are
    a^3 t (D)q2 p2, multiplied left to right, and q1 pairs with p1, which
    nothing else reads."""
    rank = 1 + (q2_factor is DQ2)
    d = tensor_density((), (_one((2,) + (3,) * (rank - 1) + (1, 1),
                                 (0,) * (rank + 2)), Q1, q2_factor, P2))
    return smear(d, None if t is None else np.full(lat.shape, t), lat)


ALTERNATING = np.array([1.0, 1.0, -1.0, -1.0])[:, None, None]  # D: +-2/(2a)

BOUND_CASES = {
    # (test value, q2 factor, q2, p2, spacing): (is q1 formed? is it finite?)
    "moderate": ((None, Q2, 1.0, 1.0, 0.5), (False, True)),
    "finite 1e200 partials": ((None, Q2, 1e100, 1e100, 0.5), (False, True)),
    "overflowing partials": ((None, Q2, 1e200, 1e200, 0.5), (True, False)),
    "finite, bound past the margin": ((None, Q2, 1e152, 1e152, 0.5),
                                      (True, True)),
    "overflow midway": ((1e200, Q2, 1e200, 1e-200, 0.5), (True, False)),
    "NaN entry": ((None, Q2, np.nan, 1.0, 0.5), (True, False)),
    "finite difference": ((1e-40, DQ2, 1e300 * ALTERNATING, 1.0, 1e10),
                          (False, True)),
    "overflowing difference": ((1e-40, DQ2, 1e308 * ALTERNATING, 1.0, 1e10),
                               (True, False)),
}


@pytest.mark.parametrize("case", BOUND_CASES.values(), ids=BOUND_CASES.keys())
def test_unpaired_block_left_out_only_under_its_bound(case):
    """A block outside paired is left out only when its bound proves every
    entry finite: a bound that stays below 1e300, at every product too,
    and counts the subtract of a difference, which overflows at +-1e308
    though the scale 1/(2a) of a = 1e10 and the test field 1e-40 would
    bring it back.  A block formed or kept is bitwise the unrestricted
    gradient's."""
    (t, q2_factor, q2, p2, a), (formed, finite) = case
    lat = Lattice(D=3, n=4, a=a)
    fn = _cubic(t, q2_factor, lat)
    pt = _point(17)
    pt["q2"] = np.broadcast_to(q2, pt["q2"].shape).copy()
    pt["p2"] = np.full_like(pt["p2"], p2)
    with np.errstate(over="ignore", invalid="ignore"):
        full = fn.gradient(pt)
        part = fn.gradient(pt, paired={"q2", "p2"})
    assert set(full) == {"q1", "q2", "p2"}
    assert set(part) == ({"q1", "q2", "p2"} if formed else {"q2", "p2"})
    for block in part:
        assert part[block].tobytes() == full[block].tobytes(), block
    assert np.isfinite(full["q1"]).all() == finite


def test_scalar_functional_constant_weight():
    d = tensor_density((), (np.full(1, 3.0), Q2))
    fn = smear(d, None, LAT)
    pt = _point(12)
    assert abs(fn.value(pt) - 3.0 * LAT.a ** 3 * np.sum(pt["q2"][0])) < 1e-12


def test_smear_shape_mismatch():
    d = tensor_density((2,), (_one((2, 2), (0, 0)), Q1))
    for test in (np.zeros((3,) + LAT.shape), np.zeros(2)):
        with pytest.raises(ValueError):
            smear(d, test, LAT)


def test_bracket_lattice_mismatch():
    d = tensor_density((), (np.ones(1), Q2))
    other = Lattice(D=3, n=5, a=0.5)
    F = smear(d, None, LAT)
    G = LocalFunctional(other, list(smear(d, None, other).entries))
    with pytest.raises(ValueError):
        poisson_bracket(F, G, _point(0), PAIRS)


def test_tensor_density_merges_equal_factor_sets():
    """Monomials with the same factor set merge in either factor order, and
    a merged coefficient that cancels is dropped."""
    c = np.zeros((2, 2))
    c[0, 1] = 1.5
    d = tensor_density((), (c, Q1, P1), (c.T, P1, Q1),
                       (_one((2, 2), (1, 1)), Q1, P1),
                       (_one((2, 2), (1, 1), -1.0), P1, Q1))
    assert d.per_comp[()] == [(3.0, (("q1", (0,), -1), ("p1", (1,), -1)))]


@pytest.mark.parametrize("comp_shape", [(), (2,)])
def test_tensor_density_refuses_a_term_without_factor(comp_shape):
    """A term without a factor is refused, not expanded into a constant:
    evaluation and smearing have no path for one."""
    with pytest.raises(ValueError, match="factor"):
        tensor_density(comp_shape, (np.ones(comp_shape),))
