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

Gradients are sparse: LocalFunctional.gradient returns a Gradient, a dict
holding only the blocks the functional reads, and an absent block means
zero.  Every pairing of gradients (pair_gradients, bracket_size) skips a
product with an absent side, except that a non-finite entry facing an
absent block still gives NaN, as the dense product NaN * 0 or inf * 0
would; each block is scanned for such an entry at most once.  A caller
that names the blocks it pairs gets the others only where a bound cannot
prove every entry finite, which keeps that NaN.

Phase points are dicts block name -> array with component axes first and
the three lattice axes last.  Each stored component of each block is one
canonical degree of freedom; the lattice bracket normalization is
{q(x), p(y)} = delta_xy / a^3, matching the continuum delta function.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .lattice import Lattice, discrete_derivative

__all__ = [
    "Density",
    "identity",
    "tensor_density",
    "evaluate_density",
    "LocalFunctional",
    "smear",
    "pair_gradients",
    "bracket_size",
    "poisson_bracket",
]

_TINY = 1e-15
_FINITE = 1e300   # a left-out block's bound stays below this (DBL_MAX 1.8e308)


class Density:
    """A local density made by tensor_density: comp_shape is the shape of
    its free components, per_comp maps a free-component tuple to its terms."""

    def __init__(self, comp_shape, per_comp):
        self.comp_shape = tuple(comp_shape)
        self.per_comp = per_comp

    def items(self):
        return self.per_comp.items()

    @functools.cached_property
    def blocks(self) -> frozenset:
        """The blocks its terms read, found once per density."""
        return frozenset(block for terms in self.per_comp.values()
                         for _, factors in terms for block, _, _ in factors)


def identity(comp_shape) -> np.ndarray:
    """Coefficient tensor delta of a term whose one factor is the free
    component itself: shape comp_shape + comp_shape."""
    comp_shape = tuple(comp_shape)
    return np.eye(int(np.prod(comp_shape))).reshape(comp_shape + comp_shape)


def tensor_density(comp_shape, *terms) -> Density:
    """Expand tensor-level terms into a compressed Density.

    A term is (coeff, factor, ...) with each factor (block, rank, deriv): a
    field block with rank component axes, centrally differenced when deriv
    is true; a term with no factor raises ValueError.  The axes of coeff are
    the free components (comp_shape), then for each factor in order its
    derivative axis (the lattice axis, only when deriv) and its rank
    component axes.  Every entry of coeff at or above the drop threshold
    becomes one monomial; monomials of one free component with the same
    factor set are merged, and a merged coefficient below the threshold is
    dropped.
    """
    comp_shape = tuple(comp_shape)
    nfree = len(comp_shape)
    per_comp = {fc: {} for fc in np.ndindex(*comp_shape)}
    for coeff, *factors in terms:
        if not factors:
            raise ValueError("a density term needs at least one factor")
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
    array for more."""
    prod = fcache.get(factors[0])
    if len(factors) > 1:
        prod = prod * fcache.get(factors[1])
        for f in factors[2:]:
            prod *= fcache.get(f)
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
            if coeff == 1.0:
                acc += prod
            elif coeff == -1.0:
                acc -= prod
            else:
                acc += coeff * prod
    return out


class Gradient(dict):
    """The blocks of a LocalFunctional.gradient by name; an absent block is
    zero.  finite(block) scans a block for a non-finite entry once, however
    many pairings meet it against an absent block."""

    def __init__(self):
        super().__init__()
        self._finite = {}

    def finite(self, block) -> bool:
        known = self._finite.get(block)
        if known is None:
            known = self._finite[block] = bool(np.isfinite(self[block]).all())
        return known


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

    def gradient(self, point: dict, paired=None) -> Gradient:
        """Exact partial derivatives w.r.t. every stored entry of the blocks
        the functional reads; a block it does not read is absent (zero).

        paired, when given, is the set of blocks the caller pairs with a
        block of another gradient that may be present.  A block outside it
        meets only absent blocks, where it adds 0 if finite and NaN if not
        (see _paired), so it is left out when _unpaired_finite bounds
        every entry finite, and formed otherwise.

        Each partial is coeff a^3 weight times the other factors, multiplied
        left to right; the base coeff a^3 weight is formed once per
        (coefficient, weight) run of entries.
        """
        lat = self.lattice
        a3 = lat.a ** 3
        left_out = () if paired is None else self._unpaired_finite(point,
                                                                    paired)
        fcache = _FactorCache(point, lat)
        grad = Gradient()
        scratch = None
        run_weight, bases = None, {}
        for coeff, weight, factors in self.entries:
            formed = [j for j, (block, _, _) in enumerate(factors)
                      if block not in left_out]
            if not formed:
                continue
            if weight is None:
                base = coeff * a3
            else:
                if weight is not run_weight:
                    run_weight, bases = weight, {}
                base = bases.get(coeff)
                if base is None:
                    base = bases[coeff] = coeff * a3 * weight
            for j in formed:
                block, comp, daxis = factors[j]
                partial = base
                for k, f in enumerate(factors):
                    if k == j:
                        continue
                    if partial is base:
                        partial = partial * fcache.get(f)
                    else:
                        partial *= fcache.get(f)
                g = grad.get(block)
                if g is None:
                    arr = point[block]
                    g = grad[block] = np.zeros(arr.shape, arr.dtype)
                if daxis < 0:
                    g[comp] += partial
                else:
                    # adjoint of the central difference on a periodic lattice
                    if scratch is None:
                        scratch = np.empty(lat.shape)
                    g[comp] -= discrete_derivative(
                        np.broadcast_to(partial, lat.shape), daxis, lat,
                        out=scratch)
        return grad

    def _unpaired_finite(self, point: dict, paired) -> set:
        """The blocks read outside paired whose every partial is finite, by
        a bound from one maximum per point block and per weight.

        A partial's bound is |coeff a^3| max|weight| times max|block| of
        each other factor, in the order gradient multiplies them, and for a
        differenced factor, and for the partial of one, times
        2 max(1, 1/(2a)): the subtract of two neighbours, then the scale.
        Rounding is monotone, so each product of the bound is at least the
        partial's at every site, to within the roundoff of 1/(2a), which
        the margin _FINITE below DBL_MAX covers.  A block is left out when
        the sum of its partials' bounds and every product on the way stay
        below _FINITE; a NaN or inf entry makes its maximum inf, so the
        block is formed.
        """
        step = 2.0 * max(1.0, 1.0 / (2.0 * self.lattice.a))
        a3 = self.lattice.a ** 3
        sizes = {}

        def size(arr):
            key = id(arr)
            if key not in sizes:
                hi, lo = float(arr.max()), float(arr.min())
                sizes[key] = (max(hi, -lo) if math.isfinite(hi)
                              and math.isfinite(lo) else math.inf)
            return sizes[key]

        bounds = {}
        for coeff, weight, factors in self.entries:
            if all(block in paired for block, _, _ in factors):
                continue
            term = abs(coeff) * a3
            if weight is not None:
                term *= size(weight)
            fs = [size(point[block]) * (step if daxis >= 0 else 1.0)
                  for block, _, daxis in factors]
            for j, (block, _, daxis) in enumerate(factors):
                if block in paired:
                    continue
                b = top = term
                for k, fk in enumerate(fs):
                    if k != j:
                        b *= fk
                        top = max(top, b)
                if daxis >= 0:
                    b *= step
                bounds[block] = (bounds.get(block, 0.0)
                                 + (b if top < _FINITE else math.inf))
        return {block for block, b in bounds.items() if b < _FINITE}


def smear(density: Density, test, lattice: Lattice) -> LocalFunctional:
    """Pair a density with a test field: value = a^3 sum_x test . density.

    test is an array of shape (comp_shape..., n, n, n), or None for an
    unsmeared scalar density; any other shape raises ValueError.  The terms
    of one free component share one view of the test field, so a gradient
    forms each coeff a^3 test[fc] once.
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
    return LocalFunctional(lattice, [(coeff, weight, factors)
                                     for fc, terms in density.items()
                                     for weight in (test[fc],)
                                     for coeff, factors in terms])


def _paired(gf: Gradient, gg: Gradient, xb, yb, size: bool) -> tuple:
    """(sum x * y, sum |x * y| when size) for block xb of gf and block yb
    of gg, both from the one product.  A missing side gives 0.0 without any
    product, or NaN when the present side holds a non-finite entry, as the
    dense NaN * 0 would."""
    x, y = gf.get(xb), gg.get(yb)
    if x is None or y is None:
        if x is None and y is None:
            return 0.0, 0.0
        v = 0.0 if (gf.finite(xb) if y is None else gg.finite(yb)) else np.nan
        return v, v
    prod = x * y
    total = np.sum(prod)
    return total, np.sum(np.abs(prod, out=prod)) if size else None


def pair_gradients(gf: Gradient, gg: Gradient, pairs, a: float) -> float:
    """{F, G} from the sparse gradients of F and G (see poisson_bracket)."""
    total = 0.0
    for qb, pb in pairs:
        total += float(_paired(gf, gg, qb, pb, False)[0]
                       - _paired(gf, gg, pb, qb, False)[0])
    return total / a ** 3


def bracket_size(gf: Gradient, gg: Gradient, pairs, a: float) -> tuple:
    """({F, G}, the sum of |terms| of it): pair_gradients, and the sum of
    |x * y| over the same block products, formed once for both."""
    total = size = 0.0
    for qb, pb in pairs:
        (s1, m1), (s2, m2) = (_paired(gf, gg, qb, pb, True),
                              _paired(gf, gg, pb, qb, True))
        total += float(s1 - s2)
        size += float(m1 + m2)
    return total / a ** 3, size / a ** 3


def poisson_bracket(fn_f: LocalFunctional, fn_g: LocalFunctional, point: dict,
                    pairs) -> float:
    """{F, G} with the lattice pairing {q(x), p(y)} = delta_xy / a^3.

    pairs lists the canonical (coordinate block, momentum block) names.
    """
    if fn_f.lattice != fn_g.lattice:
        raise ValueError("functionals live on different lattices")
    return pair_gradients(fn_f.gradient(point), fn_g.gradient(point), pairs,
                          fn_f.lattice.a)
