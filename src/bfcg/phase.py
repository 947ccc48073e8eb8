"""Canonical phase space on a spatial 3-lattice.

A PhasePoint stores every spacetime component of the four fields plus the
conjugate momenta, as a dict of blocks (component axes first, three lattice
axes last):

    coordinates (upper Lie index)        momenta (lower Lie index)
    A0   (p,)      A^a_0                 pA0   (p,)     pi(A)_a^0
    A    (3, p)    A^a_i                 pA    (3, p)   pi(A)_a^i
    B0   (3, p)    B^a_{0i}              pB0   (3, p)   pi(B)_a^{0i}
    B    (3, p)    B^a_{jk}, j<k         pB    (3, p)   pi(B)_a^{jk}
    C0   (q,)      C^al_0                pC0   (q,)     pi(C)_al^0
    C    (3, q)    C^al_i                pC    (3, q)   pi(C)_al^i
    be0  (3, q)    beta^al_{0i}          pbe0  (3, q)   pi(beta)_al^{0i}
    be   (3, q)    beta^al_{jk}, j<k     pbe   (3, q)   pi(beta)_al^{jk}

Antisymmetric components sit on ordered pairs; every stored entry is one
canonical degree of freedom, so {q(x), p(y)} = delta_xy / a^3 reproduces
the continuum fundamental brackets with the unweighted antisymmetrized
delta on pair indices.

The on-shell momentum rule

    pi(A)_a^i = 1/2 eps^{ijk} B_{a jk},   pi(beta)_al^{ij} = -eps^{ijk} C_{al k},
    pi(B) = pi(C) = 0,  pi(A)_a^0 = 0,    pi(beta)_al^{0i} = 0

makes every primary constraint vanish identically.  Its two nonzero lines
are stated once, in onshell_map, which bfcg.constraints reads too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import EPS3_PAIR, Lattice, _random_recipe

__all__ = [
    "PhasePoint",
    "block_shapes",
    "component_shape",
    "CANONICAL_PAIRS",
    "GAUGE_FIXED_PAIRS",
    "PhaseRecipe",
    "make_phase_recipe",
    "random_phase_point",
    "onshell_map",
    "onshell_momenta",
]

# coordinate block -> code of its component shape: "3" is a spatial index or
# stored pair, "p" a g index, "q" an h index
COORD_BLOCKS = {"A0": "p", "A": "3p", "B0": "3p", "B": "3p",
                "C0": "q", "C": "3q", "be0": "3q", "be": "3q"}

CANONICAL_PAIRS = tuple((name, "p" + name) for name in COORD_BLOCKS)

GAUGE_FIXED_PAIRS = (("A", "pA"), ("be", "pbe"))


def component_shape(code: str, p: int, q: int) -> tuple:
    """Shape of a component code (see COORD_BLOCKS) at dimensions p, q."""
    return tuple({"3": 3, "p": p, "q": q}[c] for c in code)


def block_shapes(p: int, q: int) -> dict:
    base = {name: component_shape(code, p, q)
            for name, code in COORD_BLOCKS.items()}
    base.update({mom: base[name] for name, mom in CANONICAL_PAIRS})
    return base


@dataclass
class PhasePoint:
    """All canonical coordinates and momenta on a spatial lattice."""

    lattice: Lattice
    p: int
    q: int
    blocks: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.lattice.D != 3:
            raise ValueError("phase points live on D=3 lattices")
        want = block_shapes(self.p, self.q)
        for name, comp in want.items():
            if name not in self.blocks:
                self.blocks[name] = np.zeros(comp + self.lattice.shape)
            else:
                arr = np.asarray(self.blocks[name], dtype=float)
                if arr.shape != comp + self.lattice.shape:
                    raise ValueError(f"block {name!r} has shape {arr.shape}")
                if not np.all(np.isfinite(arr)):
                    raise ValueError(f"block {name!r} has non-finite entries")
                self.blocks[name] = arr


def onshell_map(cm) -> dict:
    """The on-shell rule as momentum -> (field, M), pi = M . field over the
    field's component axes: M[i, a, P, b] = EPS3_PAIR[i, P] Q[a, b] for
    pi(A) from B, M[P, x, l, y] = -EPS3_PAIR[l, P] q[x, y] for pi(beta)
    from C.  chi(A) and chi(beta) are pi - M . field, and the gauge-fixed
    densities eliminate B and C by the inverse of M."""
    return {"pA": ("B", np.einsum("iP,ab->iaPb", EPS3_PAIR, cm.Q)),
            "pbe": ("C", -np.einsum("lP,xy->Pxly", EPS3_PAIR, cm.qf))}


def onshell_momenta(cm, blocks: dict, lattice: Lattice) -> dict:
    """Momenta that make every primary constraint vanish exactly."""
    shapes = block_shapes(cm.p, cm.q)
    # every momentum outside the gauge-fixed pairs vanishes on shell
    out = {mom: np.zeros(shapes[mom] + lattice.shape)
           for name, mom in CANONICAL_PAIRS
           if (name, mom) not in GAUGE_FIXED_PAIRS}
    out.update((mom, np.einsum("ijkl,kl...->ij...", M, blocks[name]))
               for mom, (name, M) in onshell_map(cm).items())
    return out


@dataclass
class PhaseRecipe:
    """Resolution-independent recipes for every phase-space block.

    With rule "on_shell" the momenta are derived from the realized
    coordinate fields; with rule "random" they have their own recipes.
    """

    rule: str
    coord: dict
    mom: dict

    def realize_with(self, cm, lattice: Lattice) -> PhasePoint:
        blocks = {name: rec.realize(lattice)
                  for name, rec in {**self.coord, **self.mom}.items()}
        if self.rule == "on_shell":
            blocks.update(onshell_momenta(cm, blocks, lattice))
        return PhasePoint(lattice, cm.p, cm.q, blocks)


def make_phase_recipe(cm, mode_count: int, seed: int,
                      rule: str = "random") -> PhaseRecipe:
    if rule not in ("random", "on_shell"):
        raise ValueError(f"unknown momentum rule {rule!r}")
    rng = np.random.default_rng(seed)
    shapes = block_shapes(cm.p, cm.q)
    coord = {name: _random_recipe(rng, 3, shapes[name], mode_count)
             for name in COORD_BLOCKS}
    mom = {}
    if rule == "random":
        mom = {name: _random_recipe(rng, 3, shapes[name], mode_count)
               for _, name in CANONICAL_PAIRS}
    return PhaseRecipe(rule=rule, coord=coord, mom=mom)


def random_phase_point(cm, lattice: Lattice, seed: int, rule: str = "random",
                       mode_count: int = 1) -> PhasePoint:
    """Generic smooth phase point, deterministic in seed."""
    return make_phase_recipe(cm, mode_count, seed, rule).realize_with(cm, lattice)

