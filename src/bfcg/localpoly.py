"""Local polynomial functionals on a spatial lattice with exact gradients.

Constraint densities of the canonical analysis are polynomials of degree
at most three in the phase-space entries and their central differences.
They are stated once, at tensor level (tensor_density), and expanded into
explicit term lists:

    Factor   = (block, comp, daxis)   one field entry, optionally centrally
                                      differenced along lattice axis daxis
                                      (daxis = -1 means no derivative)
    Term     = (coeff, (factor, ...)) a monomial
    Density  = [(free_comp, [terms]), ...]

Because every density is such a shallow polynomial graph, derivatives are
propagated exactly (forward differentiation of each monomial, with the
summation-by-parts adjoint -D for differenced factors); there is no
truncation anywhere, so Poisson-bracket antisymmetry holds to machine
precision.

Gradients are sparse: LocalFunctional.gradient returns a dict holding only
the blocks the functional reads, and an absent block means zero.  Every
pairing of gradients (pair_gradients, paired_sum) skips a product with an
absent side, except that a non-finite entry facing an absent block still
gives NaN, as the dense product NaN * 0 or inf * 0 would.

Phase points are dicts block name -> array with component axes first and
the three lattice axes last.  Each stored component of each block is one
canonical degree of freedom; the lattice bracket normalization is
{q(x), p(y)} = delta_xy / a^3, matching the continuum delta function.
"""

from __future__ import annotations

import numpy as np

from .lattice import Lattice, discrete_derivative

__all__ = [
    "Density",
    "identity",
    "tensor_density",
    "evaluate_density",
    "LocalFunctional",
    "smear",
    "paired_sum",
    "pair_gradients",
    "poisson_bracket",
]

_TINY = 1e-15


class Density:
    """A local density made by tensor_density: comp_shape is the shape of
    its free components, per_comp maps a free-component tuple to its terms."""

    def __init__(self, comp_shape, per_comp):
        self.comp_shape = tuple(comp_shape)
        self.per_comp = per_comp

    def items(self):
        return self.per_comp.items()


def identity(comp_shape) -> np.ndarray:
    """Coefficient tensor delta of a term whose one factor is the free
    component itself: shape comp_shape + comp_shape."""
    comp_shape = tuple(comp_shape)
    return np.eye(int(np.prod(comp_shape))).reshape(comp_shape + comp_shape)


def tensor_density(comp_shape, *terms) -> Density:
    """Expand tensor-level terms into a compressed Density.

    A term is (coeff, factor, ...) with each factor (block, rank, deriv): a
    field block with rank component axes, centrally differenced when deriv
    is true.  The axes of coeff are the free components (comp_shape), then
    for each factor in order its derivative axis (the lattice axis, only
    when deriv) and its rank component axes.  Every entry of coeff at or
    above the drop threshold becomes one monomial; monomials of one free
    component with the same factor set are merged, and a merged coefficient
    below the threshold is dropped.
    """
    comp_shape = tuple(comp_shape)
    nfree = len(comp_shape)
    per_comp = {fc: {} for fc in np.ndindex(*comp_shape)}
    for coeff, *factors in terms:
        coeff = np.asarray(coeff, dtype=float)
        if (coeff.shape[:nfree] != comp_shape or coeff.ndim != nfree + sum(
                rank + bool(deriv) for _, rank, deriv in factors)):
            raise ValueError(f"coefficient shape {coeff.shape} does not fit "
                             f"free components {comp_shape} and {factors}")
        keep = np.abs(coeff) >= _TINY
        for c, idx in zip(coeff[keep].tolist(), np.argwhere(keep).tolist()):
            pos = nfree
            mono = []
            for block, rank, deriv in factors:
                daxis = idx[pos] if deriv else -1
                pos += bool(deriv)
                mono.append((block, tuple(idx[pos:pos + rank]), daxis))
                pos += rank
            acc = per_comp[tuple(idx[:nfree])]
            key = tuple(sorted(mono))
            c0, mono0 = acc.get(key, (0.0, tuple(mono)))
            acc[key] = (c0 + c, mono0)
    return Density(comp_shape, {
        fc: [(c, f) for c, f in acc.values() if abs(c) >= _TINY]
        for fc, acc in per_comp.items()})


class _FactorCache:
    def __init__(self, point, lattice):
        self.point = point
        self.lattice = lattice
        self.cache = {}

    def get(self, factor):
        if factor not in self.cache:
            block, comp, daxis = factor
            arr = self.point[block][comp]
            if daxis >= 0:
                arr = discrete_derivative(arr, daxis, self.lattice)
            self.cache[factor] = arr
        return self.cache[factor]


def _product(fcache, factors):
    """The product of the factors' values, multiplied left to right: the
    cached value itself for one factor (not to be written into), a fresh
    array for more, None for none."""
    prod = None
    for k, f in enumerate(factors):
        v = fcache.get(f)
        if prod is None:
            prod = v
        elif k == 1:
            prod = prod * v
        else:
            prod *= v
    return prod


def evaluate_density(density: Density, point: dict, lattice: Lattice) -> np.ndarray:
    """Pointwise values of the density, shape (comp_shape..., n, n, n).

    Each term's product is added into zeros, a coefficient +-1 by an add or
    a subtract, so every value is bitwise the sum of coeff * product."""
    shape = density.comp_shape + lattice.shape
    out = np.zeros(shape)
    fcache = _FactorCache(point, lattice)
    for fc, terms in density.items():
        acc = out[fc]
        for coeff, factors in terms:
            prod = _product(fcache, factors)
            if prod is None:
                acc += coeff
            elif coeff == 1.0:
                acc += prod
            elif coeff == -1.0:
                acc -= prod
            else:
                acc += coeff * prod
    return out


class LocalFunctional:
    """a^3 * sum_x sum_entries coeff * weight(x) * prod factors(x).

    weight is an (n,n,n) array or None (meaning 1).
    """

    def __init__(self, lattice: Lattice, entries):
        self.lattice = lattice
        self.entries = [e for e in entries if abs(e[0]) >= _TINY]

    def value(self, point: dict) -> float:
        a3 = self.lattice.a ** 3
        fcache = _FactorCache(point, self.lattice)
        total = 0.0
        for coeff, weight, factors in self.entries:
            prod = _product(fcache, factors)
            if prod is None:
                if weight is None:
                    total += coeff * self.lattice.n ** 3
                else:
                    total += coeff * float(np.sum(weight))
                continue
            if weight is not None:
                if len(factors) == 1:
                    prod = prod * weight
                else:
                    prod *= weight
            s = float(np.sum(prod))
            if coeff == 1.0:
                total += s
            elif coeff == -1.0:
                total -= s
            else:
                total += coeff * s
        return a3 * total

    def gradient(self, point: dict) -> dict:
        """Exact partial derivatives w.r.t. every stored entry of the blocks
        the functional reads; a block it does not read is absent (zero)."""
        a3 = self.lattice.a ** 3
        fcache = _FactorCache(point, self.lattice)
        grad = {}
        shape = self.lattice.shape
        for coeff, weight, factors in self.entries:
            vals = [fcache.get(f) for f in factors]
            base = coeff * a3 if weight is None else coeff * a3 * weight
            for j, (block, comp, daxis) in enumerate(factors):
                partial = base
                for k, v in enumerate(vals):
                    if k == j:
                        continue
                    if partial is base:
                        partial = partial * v
                    else:
                        partial *= v
                if block not in grad:
                    grad[block] = np.zeros_like(point[block])
                if daxis < 0:
                    grad[block][comp] += partial
                else:
                    # adjoint of the central difference on a periodic lattice
                    grad[block][comp] -= discrete_derivative(
                        np.broadcast_to(partial, shape), daxis, self.lattice)
        return grad


def smear(density: Density, test, lattice: Lattice) -> LocalFunctional:
    """Pair a density with a test field: value = a^3 sum_x test . density.

    test is an array of shape (comp_shape..., n, n, n), or None for an
    unsmeared scalar density; any other shape raises ValueError.
    """
    if test is None:
        return LocalFunctional(lattice, [(coeff, None, factors) for _, terms
                                         in density.items()
                                         for coeff, factors in terms])
    test = np.asarray(test, dtype=float)
    if test.shape != density.comp_shape + lattice.shape:
        raise ValueError(
            f"test shape {test.shape} does not match free components "
            f"{density.comp_shape} on lattice shape {lattice.shape}")
    return LocalFunctional(lattice, [(coeff, test[fc], factors)
                                     for fc, terms in density.items()
                                     for coeff, factors in terms])


def paired_sum(x, y, fn=None) -> float:
    """np.sum(fn(x * y)) for two gradient blocks, where None is an absent
    (zero) block.  A missing side gives 0.0 without any product, or NaN when
    the present side holds a non-finite entry, as the dense NaN * 0 would."""
    if x is None or y is None:
        z = y if x is None else x
        return 0.0 if z is None or np.isfinite(z).all() else np.nan
    prod = x * y
    return np.sum(prod if fn is None else fn(prod))


def pair_gradients(gf: dict, gg: dict, pairs, a: float) -> float:
    """{F, G} from the sparse gradients of F and G (see poisson_bracket)."""
    total = 0.0
    for qb, pb in pairs:
        total += float(paired_sum(gf.get(qb), gg.get(pb))
                       - paired_sum(gf.get(pb), gg.get(qb)))
    return total / a ** 3


def poisson_bracket(fn_f: LocalFunctional, fn_g: LocalFunctional, point: dict,
                    pairs) -> float:
    """{F, G} with the lattice pairing {q(x), p(y)} = delta_xy / a^3.

    pairs lists the canonical (coordinate block, momentum block) names.
    """
    if fn_f.lattice != fn_g.lattice:
        raise ValueError("functionals live on different lattices")
    return pair_gradients(fn_f.gradient(point), fn_g.gradient(point), pairs,
                          fn_f.lattice.a)
