"""Local degree-of-freedom accounting for arbitrary algebra dimensions.

The expected table, not a measurement: field components N from the phase
blocks, first-class F (less the off-shell dependencies) and second-class S
from the classification of bfcg.constraints; n = N - F - S/2 = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constraints import FIRST_CLASS, SECOND_CLASS, family_shape
from .phase import block_shapes, component_shape

__all__ = ["DofTable", "dof_count", "dof_report"]

# report name of each field -> its spatial block; block + "0" is the temporal one
_FIELDS = (("A", "A"), ("beta", "be"), ("C", "C"), ("B", "B"))
# off-shell dependencies among the first-class constraints -> free index code
_DEPENDENCIES = (("g-sector dependencies", "p"), ("h-sector dependencies", "q"))


@dataclass
class DofTable:
    """Component-counting ledger for the canonical analysis."""

    p: int
    q: int
    fields: dict = field(default_factory=dict)
    first_class: dict = field(default_factory=dict)
    second_class: dict = field(default_factory=dict)
    deductions: dict = field(default_factory=dict)
    N: int = 0
    F: int = 0
    S: int = 0
    n: int = 0


def dof_count(p: int, q: int) -> DofTable:
    """Populate the counting table and the local-DOF number n = N - F - S/2."""
    if p < 1 or q < 0:
        raise ValueError(f"invalid dimensions p={p}, q={q}")
    t = DofTable(p=p, q=q)
    shapes = block_shapes(p, q)
    t.fields = {name: math.prod(shapes[block]) + math.prod(shapes[block + "0"])
                for name, block in _FIELDS}
    # family_shape reads only the dimensions p and q of the table
    t.first_class = {name: math.prod(family_shape(t, name))
                     for name in FIRST_CLASS}
    t.second_class = {name: math.prod(family_shape(t, name))
                      for name in SECOND_CLASS}
    t.deductions = {name: math.prod(component_shape(code, p, q))
                    for name, code in _DEPENDENCIES}
    t.N = sum(t.fields.values())
    t.F = sum(t.first_class.values()) - sum(t.deductions.values())
    t.S = sum(t.second_class.values())
    if t.S % 2:
        raise ArithmeticError("odd second-class count")
    t.n = t.N - t.F - t.S // 2
    return t


def dof_report(table: DofTable) -> list:
    """The counting tables as report lines."""
    lines = ["# dof-report v1", f"p {table.p}", f"q {table.q}"]
    for header, rows in (("fields", table.fields),
                         ("first-class", table.first_class),
                         ("deductions", table.deductions),
                         ("second-class", table.second_class)):
        lines += [f"[{header}]"] + [f"{k.replace(' ', '_')} {v}"
                                    for k, v in rows.items()]
    return lines + ["[totals]", f"N = {table.N}", f"F = {table.F}",
                    f"S = {table.S}", f"n = {table.n}"]
