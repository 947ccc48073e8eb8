"""Degree-of-freedom counting."""

import pytest

from bfcg.dof import dof_count


def test_poincare_counts():
    t = dof_count(6, 4)
    assert (t.N, t.F, t.S, t.n) == (100, 70, 60, 0)


def test_pure_bf_counts():
    t = dof_count(1, 0)
    assert (t.N, t.F, t.S, t.n) == (10, 7, 6, 0)
    assert all(v == 0 for k, v in t.fields.items() if k in ("beta", "C"))


def test_su2_adjoint_counts():
    t = dof_count(3, 3)
    assert t.N == 60 and t.F == 42 and t.S == 36 and t.n == 0


def test_no_local_dof_over_grid():
    for p in range(1, 51):
        for q in range(0, 51):
            assert dof_count(p, q).n == 0


def test_first_class_raw_total():
    for p, q in ((2, 5), (7, 1), (4, 0)):
        t = dof_count(p, q)
        assert sum(t.first_class.values()) == 8 * (p + q)
        assert t.F == 8 * (p + q) - p - q


def test_invalid_dimensions():
    with pytest.raises(ValueError):
        dof_count(0, 3)
    with pytest.raises(ValueError):
        dof_count(2, -1)
