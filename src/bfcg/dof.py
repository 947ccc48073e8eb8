"""Local degree-of-freedom accounting for arbitrary algebra dimensions.

Pure integer combinatorics.  For algebra dimensions (p, q):

  field components      A: 4p, beta: 6q, C: 4q, B: 6p          N = 10(p+q)
  first class           phi(B): 3p, phi(C): q, phi(beta): 3q, phi(A): p,
                        phi(H): 3p, phi(G): q, phi(CB): 3q, phi(BCb): p
                        raw total 8(p+q), minus p + q dependency relations
                                                            F = 7(p+q)
  second class          chi(B): 3p, chi(C): 3q, chi(A): 3p, chi(beta): 3q
                                                            S = 6(p+q)

  local DOF             n = N - F - S/2 = 0   for every p >= 1, q >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DofTable", "dof_count", "dof_report"]

_FIELD_ROWS = (("A", 4, 0), ("beta", 0, 6), ("C", 0, 4), ("B", 6, 0))
_FC_ROWS = (("phi(B)", 3, 0), ("phi(C)", 0, 1), ("phi(beta)", 0, 3),
            ("phi(A)", 1, 0), ("phi(H)", 3, 0), ("phi(G)", 0, 1),
            ("phi(CB)", 0, 3), ("phi(BCbeta)", 1, 0))
_SC_ROWS = (("chi(B)", 3, 0), ("chi(C)", 0, 3), ("chi(A)", 3, 0),
            ("chi(beta)", 0, 3))


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
    t.fields = {name: cp * p + cq * q for name, cp, cq in _FIELD_ROWS}
    t.first_class = {name: cp * p + cq * q for name, cp, cq in _FC_ROWS}
    t.second_class = {name: cp * p + cq * q for name, cp, cq in _SC_ROWS}
    t.deductions = {"g-sector dependencies": p, "h-sector dependencies": q}
    t.N = sum(t.fields.values())
    raw_fc = sum(t.first_class.values())
    t.F = raw_fc - p - q
    t.S = sum(t.second_class.values())
    if t.S % 2:
        raise ArithmeticError("odd second-class count")
    t.n = t.N - t.F - t.S // 2
    return t


def dof_report(table: DofTable) -> str:
    """Render the counting tables as report lines."""
    lines = [
        "# dof-report v1",
        f"p {table.p}",
        f"q {table.q}",
        "[fields]",
    ]
    lines += [f"{k} {v}" for k, v in table.fields.items()]
    lines.append("[first-class]")
    lines += [f"{k} {v}" for k, v in table.first_class.items()]
    lines.append("[deductions]")
    lines += [f"{k.replace(' ', '_')} {v}" for k, v in table.deductions.items()]
    lines.append("[second-class]")
    lines += [f"{k} {v}" for k, v in table.second_class.items()]
    lines.append("[totals]")
    lines.append(f"N = {table.N}")
    lines.append(f"F = {table.F}")
    lines.append(f"S = {table.S}")
    lines.append(f"n = {table.n}")
    return "\n".join(lines) + "\n"


