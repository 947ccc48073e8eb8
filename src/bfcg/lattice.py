"""Periodic hypercubic lattices, discrete derivatives, and smooth test fields.

Fields live on a periodic n^D lattice with spacing a; arrays carry the
component axes first and the D lattice axes last, so field[comp] is an
(n, ..., n) site array.  The only derivative used anywhere is the central
difference

    (D_mu f)(x) = (f(x + e_mu) - f(x - e_mu)) / (2a),

which on a periodic lattice satisfies summation by parts exactly:
sum_x g (D f) = -sum_x (D g) f.

The 4D stencil kernels stream over slabs: runs of consecutive rows of
lattice axis 0 of at most SLAB_SITES sites, the one block size of the
package.  slab_derivative gives one slab's rows of the central difference
from a window: the slab and its two neighbour rows along axis 0.  A kernel
reads a FieldConfiguration, whose fields are full arrays or FieldRecipes,
only through its slab source (FieldConfiguration.slabs), which gives one
Slab at a time: the windows of the fields the kernel differences along
axis 0 and the rows of the others, as views of an array or as rows of a
recipe, each realized once, so a streamed n^4 field never exists.  Fields
a kernel computes per slab get their neighbour rows from a slab ring
(_ring), which computes the last slab first, as the lead whose last row
comes before row 0 (on a one-slab lattice the lead is slab 0, computed
once), and then keeps only the few rows a pending row needs.
A site array a kernel forms run by run is summed as it goes by a streamed
np.sum (_StreamedSum), to the bits of np.sum of the whole array.

Antisymmetric form components are stored on ordered index pairs mu < nu
(and ordered triples for 3-forms); reconstruction uses X_{nu mu} = -X_{mu nu}.

Smooth configurations are real trigonometric polynomials.  A FieldRecipe
stores Fourier coefficients against integer frequencies of the fixed
physical box (extent L = n*a held constant under refinement), so the same
continuum field can be realized on any resolution for Richardson studies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Lattice",
    "discrete_derivative",
    "slabs",
    "slab_window",
    "slab_derivative",
    "Slab",
    "pairs",
    "triples",
    "pair_index",
    "levi_civita",
    "FieldRecipe",
    "make_config_recipe",
    "FieldConfiguration",
    "fit_order",
    "finest_order",
]


@dataclass(frozen=True)
class Lattice:
    """Periodic hypercubic lattice descriptor."""

    D: int
    n: int
    a: float

    def __post_init__(self):
        if self.D not in (3, 4):
            raise ValueError(f"D must be 3 or 4, got {self.D}")
        if self.n < 4:
            raise ValueError(f"n must be >= 4 for second-order stencils, got {self.n}")
        if not (math.isfinite(self.a) and self.a > 0):
            raise ValueError(f"lattice spacing must be finite and positive, "
                             f"got {self.a}")

    @property
    def sites(self) -> int:
        return self.n ** self.D

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.D

    @property
    def volume_element(self) -> float:
        return self.a ** self.D


def _rows(field: np.ndarray, ax: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 along array axis `ax` of field, as a view."""
    return field[(slice(None),) * ax + (slice(lo, hi),)]


def _central(field: np.ndarray, ax: int, a: float, before: np.ndarray,
             after: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """Central difference along array axis `ax` of field, whose first row is
    preceded by the one row `before` and whose last row is followed by the
    one row `after`; written into out when given, else into a new array.

    No shifted or concatenated copy of the field is made.  When field and
    out are C-contiguous, the difference is one subtract over the flattened
    entries, entry x from x + s and x - s with s the axis stride: right for
    every row but the first and the last, which are then written again from
    their true neighbours.  Other fields (ring rows, transposed or
    broadcast views) are differenced one run of rows at a time.  Either way
    each entry is the one subtract of its two neighbours.  When 2a is a
    power of two with a finite reciprocal, x / 2a is x * (1 / 2a) bit for
    bit, so the difference is scaled by the reciprocal, a cheaper pass;
    any other spacing divides.
    """
    m = field.shape[ax]
    if out is None:
        out = np.empty(field.shape, dtype=np.result_type(field, 1.0))
    if m == 1:
        np.subtract(after, before, out=out)
    else:
        if m > 2 and field.flags.c_contiguous and out.flags.c_contiguous:
            s = field.strides[ax] // field.itemsize
            flat = field.reshape(-1)
            np.subtract(flat[2 * s:], flat[:-2 * s], out=out.reshape(-1)[s:-s])
        else:
            np.subtract(_rows(field, ax, 2, m), _rows(field, ax, 0, m - 2),
                        out=_rows(out, ax, 1, m - 1))
        np.subtract(_rows(field, ax, 1, 2), before, out=_rows(out, ax, 0, 1))
        np.subtract(after, _rows(field, ax, m - 2, m - 1),
                    out=_rows(out, ax, m - 1, m))
    h = 2.0 * a
    if math.frexp(h)[0] == 0.5 and math.isfinite(1.0 / h):
        out *= 1.0 / h
    else:
        out /= h
    return out


def _periodic(field: np.ndarray, ax: int, a: float,
              out: np.ndarray = None) -> np.ndarray:
    """The periodic central difference along array axis `ax` of field."""
    m = field.shape[ax]
    return _central(field, ax, a, _rows(field, ax, m - 1, m),
                    _rows(field, ax, 0, 1), out)


def discrete_derivative(field: np.ndarray, axis: int, lattice: Lattice,
                        out: np.ndarray = None) -> np.ndarray:
    """Central difference along lattice axis `axis` (0-based, 0..D-1),
    written into out (a float array of field's shape) when given.

    The lattice axes are the trailing D axes of `field`.  The values are
    bitwise those of (roll(f, -1) - roll(f, 1)) / (2a).
    """
    field = np.asarray(field)
    return _periodic(field, field.ndim - lattice.D + axis, lattice.a, out)


# ---------------------------------------------------------------------------
# slabs: runs of rows of lattice axis 0
# ---------------------------------------------------------------------------

SLAB_SITES = 1 << 15   # sites per slab; one slab's intermediates fit in L2


def slabs(lattice: Lattice) -> list:
    """Row slices of lattice axis 0 that partition the lattice into slabs of
    at most SLAB_SITES sites each (one row when a row alone is larger)."""
    rows = max(1, SLAB_SITES // lattice.n ** (lattice.D - 1))
    return [slice(lo, min(lo + rows, lattice.n))
            for lo in range(0, lattice.n, rows)]


def slab_window(field, lattice: Lattice, rows: slice) -> tuple:
    """(the row before, the rows `rows`, the row after) of lattice axis 0 of
    a full field or a FieldRecipe.  The rows, like the neighbour rows, wrap
    periodically, so they may run past 0 or n - 1 (see _field_rows).  A
    recipe is realized once, on the rows from the row before to the row
    after, and each part is a view of them."""
    lo, hi = rows.start or 0, lattice.n if rows.stop is None else rows.stop
    if isinstance(field, FieldRecipe):
        block = _field_rows(field, lattice, lo - 1, hi + 1)
        m = hi - lo
        return (_axis0(block, lattice, 0, 1), _axis0(block, lattice, 1, m + 1),
                _axis0(block, lattice, m + 1, m + 2))
    return (_field_rows(field, lattice, lo - 1, lo),
            _field_rows(field, lattice, lo, hi),
            _field_rows(field, lattice, hi, hi + 1))


def slab_derivative(window: tuple, axis: int, lattice: Lattice) -> np.ndarray:
    """The central difference along lattice axis `axis` over the slab of
    window = (row before, slab, row after), a run of rows of lattice axis 0
    with its neighbour rows: bitwise the slab's rows of discrete_derivative.

    Along axis 0 the slab's edge rows are differenced against the window's
    neighbour rows, wherever those come from: slab_window's views of a full
    field, or the edge rows of separately computed slabs.  Along the other
    axes the slab is periodic on its own.
    """
    before, slab, after = window
    ax = slab.ndim - lattice.D + axis
    if axis == 0:
        return _central(slab, ax, lattice.a, before, after)
    return _periodic(slab, ax, lattice.a)


@dataclass(frozen=True)
class Slab:
    """One slab of a lattice and the fields over it: each field's window
    (row before, the slab's rows, row after) along lattice axis 0, with
    lattice axes last (see slab_derivative)."""

    lattice: Lattice
    rows: slice
    windows: dict

    def __getitem__(self, name: str) -> np.ndarray:
        """The slab's rows of the field `name`."""
        return self.windows[name][1]

    def window(self, name: str, *index) -> tuple:
        """The window of the field `name`, or of its component `index`."""
        before, rows, after = self.windows[name]
        return (None if before is None else before[index], rows[index],
                None if after is None else after[index])


def _axis0(field: np.ndarray, lattice: Lattice, lo: int,
           hi: int) -> np.ndarray:
    """Rows lo..hi-1 of lattice axis 0 of field, as a view."""
    return _rows(field, field.ndim - lattice.D, lo, hi)


def _wrapped_rows(field: np.ndarray, lattice: Lattice, lo: int,
                  hi: int) -> np.ndarray:
    """Rows lo..hi-1 of lattice axis 0 of field, taken mod n: a view, or a
    copy if they cross from row n - 1 to row 0."""
    n = lattice.n
    start = lo % n
    stop = start + hi - lo
    if stop <= n:
        return _axis0(field, lattice, start, stop)
    return np.take(field, np.arange(start, stop) % n,
                   axis=field.ndim - lattice.D)


def _field_rows(field, lattice: Lattice, lo: int, hi: int) -> np.ndarray:
    """Rows lo..hi-1 of lattice axis 0, taken mod n, of a full field (as
    _wrapped_rows gives them) or of a FieldRecipe, realized read-only: a
    write into them would be lost, so it raises."""
    if isinstance(field, FieldRecipe):
        out = field.realize(lattice, lo, hi)
        out.flags.writeable = False
        return out
    return _wrapped_rows(np.asarray(field), lattice, lo, hi)


def _window(field, lattice: Lattice, rows: slice, windowed: bool) -> tuple:
    """slab_window of field over `rows` if windowed, else (None, the rows
    alone, None), which no difference along axis 0 can read."""
    if windowed:
        return slab_window(field, lattice, rows)
    return None, _field_rows(field, lattice, rows.start, rows.stop), None


def _kept(field: np.ndarray, lattice: Lattice, k: int,
          view: bool = False) -> np.ndarray:
    """Row k of lattice axis 0 of field, to keep once the rest of field may
    go: a copy when field owns other rows, else (or with `view`, when every
    row of field is kept anyway) a view, such as one of a held field."""
    k %= field.shape[field.ndim - lattice.D]
    row = _axis0(field, lattice, k, k + 1)
    if view or field.base is not None or row.shape == field.shape:
        return row
    return row.copy()


def _ring(source, kernel, reduce, edges) -> list:
    """reduce(ring) over every row of the lattice, in runs of rows, with
    kernel(slab) called once per Slab of the source
    (FieldConfiguration._ring_slabs): first its lead, the last slab, then
    slabs 0 to the last in order.  On a one-slab lattice the lead is slab 0,
    and its block is reduced in one run, with its own last and first rows
    as neighbours; the source is read no further.

    kernel gives a dict of fields on the slab's rows (lattice axes last);
    ring is a Slab over a run of rows, whose windows take the neighbour
    rows of the fields named in `edges` from the slabs around (the others'
    are None).  The lead gives row 0 its row before: the ring keeps the
    edge fields of the lead's last row, row n - 1, and drops the rest of
    its block.  The lead is the whole last slab, not its last row, so that
    its row n - 1 is bitwise the last slab's when a kernel forms a row from
    its whole slab (the thin exponential scales each slab's stack by its
    own 2^s).  A slab's rows whose neighbours the ring holds are reduced at
    once; its last row waits for the next slab's first row, and row n - 1
    for the edge fields of row 0, the one thing kept from the start to the
    end.  So beside the current block the ring holds the pending row and
    the one before it, each a copy, or a view of a block of one or two rows
    (which then waits whole), and never a longer slab.  Each row is reduced
    once; on more than one slab the last slab is computed twice, so a
    kernel with a side effect makes it once per slab's rows.
    """
    out = []

    def rows(block, lo, hi):
        return {name: _axis0(f, lattice, lo, hi) for name, f in block.items()}

    def row(block, k, names=None, view=False):
        return {name: _kept(f, lattice, k, view) for name, f in block.items()
                if names is None or name in names}

    def neighbour(row):
        return {name: f for name, f in row.items() if name in edges}

    def ring(lo, hi, before, mid, after):
        return Slab(lattice, slice(lo, hi),
                    {name: (before.get(name), f, after.get(name))
                     for name, f in mid.items()})

    source = iter(source)
    lead = next(source)
    lattice = lead.lattice
    block = kernel(lead)
    if lead.rows.start == 0:   # the one slab: one run, its own rows around
        return [reduce(ring(0, lattice.n, row(block, -1, edges, True), block,
                            row(block, 0, edges, True)))]
    last = row(block, -1, edges)   # row n - 1, before row 0
    del lead, block   # let the lead go before slab 0 is made
    for slab in source:
        lo, hi = slab.rows.start, slab.rows.stop
        m = hi - lo
        block = kernel(slab)
        if lo > 0:   # the last row of the slab before
            out.append(reduce(ring(lo - 1, lo, before, last,
                                   rows(block, 0, 1))))
        if m > 1:
            out.append(reduce(ring(lo, hi - 1, last, rows(block, 0, m - 1),
                                   rows(block, m - 1, m))))
        if lo == 0:
            first = row(block, 0, edges)
        view = m <= 2   # a block of one or two rows waits whole
        before = neighbour(last) if m == 1 else row(block, m - 2, edges, view)
        last = row(block, m - 1, view=view)
        del slab, block   # let the slab go before the next is made
    n = lattice.n
    out.append(reduce(ring(n - 1, n, before, last, first)))
    return out


# numpy's pairwise summation sums a run of at most this many entries in one
# leaf, and splits a longer run at half its length, rounded down to a
# multiple of 8 (its unrolling)
_PAIRWISE_LEAF = 128


def _pairwise_split(size: int) -> int:
    half = size // 2
    return half - half % 8


class _StreamedSum:
    """np.sum of a site array of lattice that is added in runs of rows of
    lattice axis 0, in any order, and never held whole: bitwise the value
    np.sum gives for the whole C-contiguous array, NaN and inf included.

    np.sum of a contiguous float array is 0 plus numpy's pairwise sum of
    its flattened entries.  Each node of that tree which lies inside one
    added run is one np.sum of its slice, the same tree; a leaf node that
    crosses runs is copied together and summed once its pieces have
    arrived, so beside the node sums it holds a few leaves.  sum() combines
    the nodes in tree order.
    """

    def __init__(self, lattice: Lattice):
        self.row = lattice.sites // lattice.n
        self.size = lattice.sites
        self.sums = {}     # (lo, hi) of a node -> its sum
        self.leaves = {}   # (lo, hi) of a crossing leaf -> [entries, count]

    def add(self, rows: slice, values: np.ndarray) -> None:
        """Add the site array's values on `rows`, (rows, n, ...)."""
        values = np.reshape(values, -1)
        lo = rows.start * self.row
        self._add(0, self.size, lo, lo + len(values), values)

    def _add(self, a, b, lo, hi, values) -> None:
        if b <= lo or hi <= a:
            return
        if lo <= a and b <= hi:
            self.sums[a, b] = np.sum(values[a - lo:b - lo])
        elif b - a <= _PAIRWISE_LEAF:
            leaf = self.leaves.setdefault((a, b), [np.empty(b - a), 0])
            start, stop = max(a, lo), min(b, hi)
            leaf[0][start - a:stop - a] = values[start - lo:stop - lo]
            leaf[1] += stop - start
            if leaf[1] == b - a:
                self.sums[a, b] = np.sum(self.leaves.pop((a, b))[0])
        else:
            mid = a + _pairwise_split(b - a)
            self._add(a, mid, lo, hi, values)
            self._add(mid, b, lo, hi, values)

    def sum(self):
        """The sum of every entry, each added once (KeyError if one is
        missing)."""
        def node(a, b):
            if (a, b) in self.sums or b - a <= _PAIRWISE_LEAF:
                return self.sums[a, b]
            mid = a + _pairwise_split(b - a)
            return node(a, mid) + node(mid, b)
        return 0.0 + node(0, self.size)


# ---------------------------------------------------------------------------
# ordered index pairs / triples
# ---------------------------------------------------------------------------

def pairs(D: int) -> list:
    """Ordered index pairs mu < nu for a D-dimensional lattice."""
    return [(m, n) for m in range(D) for n in range(m + 1, D)]


def triples(D: int) -> list:
    return [(l, m, n) for l in range(D) for m in range(l + 1, D) for n in range(m + 1, D)]


def pair_index(D: int):
    """Map (mu, nu) with mu != nu -> (pair position, sign)."""
    table = {}
    for P, (m, n) in enumerate(pairs(D)):
        table[(m, n)] = (P, 1.0)
        table[(n, m)] = (P, -1.0)
    return table


def levi_civita(perm) -> float:
    """Levi-Civita symbol: the sign of perm as a permutation of
    (0, ..., len(perm) - 1); 0 if an entry repeats."""
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))):
        return 0.0
    sign = 1.0
    for i in range(len(perm)):
        while perm[i] != i:
            j = perm[i]
            perm[i], perm[j] = perm[j], perm[i]
            sign = -sign
    return sign


# EPS3[i, j, k] = eps^{ijk}; EPS3_PAIR[i, P] = eps^{ijk} for the stored pair
# P = (j, k), j < k, so only the pair not containing i contributes
EPS3 = np.array([[[levi_civita((i, j, k)) for k in range(3)]
                  for j in range(3)] for i in range(3)])
EPS3_PAIR = np.array([[EPS3[(i,) + P] for P in pairs(3)] for i in range(3)])


def _pair_tensor():
    out = np.zeros((3, 3, 3))
    for (j, k), (P, s) in pair_index(3).items():
        out[P, j, k] = s
    return out


# PAIR[P, j, k] = +1 for the stored pair P = (j, k), -1 for (k, j), else 0, so
# sum_{jk} PAIR[P, j, k] X_{jk} = X_{jk} - X_{kj} on P, and
# eps^{ijk} = sum_P EPS3_PAIR[i, P] PAIR[P, j, k].
PAIR = _pair_tensor()


# ---------------------------------------------------------------------------
# spectral recipes for smooth periodic fields
# ---------------------------------------------------------------------------

class FieldRecipe:
    """Trigonometric-polynomial recipe for one tensor field.

    coeffs maps an integer frequency vector k (tuple of length D) to a pair
    of real coefficient arrays (cos_amp, sin_amp) of the component shape.
    The realized field on an n-lattice is

        f(m) = sum_k cos_amp_k cos(2 pi k.m / n) + sin_amp_k sin(2 pi k.m / n),

    an exact trigonometric polynomial of the fixed physical box.
    """

    def __init__(self, D: int, comp_shape: tuple, coeffs: dict):
        self.D = D
        self.comp_shape = tuple(comp_shape)
        self.coeffs = coeffs

    def realize(self, lattice: Lattice, lo: int = 0,
                hi: int | None = None) -> np.ndarray:
        """Sample the polynomial by direct synthesis on rows lo..hi-1 of
        lattice axis 0, all n rows by default.

        The rows may run past 0 or n - 1: the phase k.m is reduced mod n in
        integers before any float is formed, so row -1 is bitwise row n - 1,
        and any run of rows is bitwise those rows of the full field.  The
        modes are grouped by their support, the axes where k mod n != 0.
        Each group's sum of ca cos + sa sin varies only along its support,
        so it is built on those axes alone, and the groups are added in turn
        on their smallest common broadcast shape; the rows are written once,
        by the last addition or a final broadcast copy.  Each element gets
        the additions of a sum into zeros, in the same order.  No spectrum
        of the full lattice is formed, and the result is a fresh, writable,
        C-contiguous array.
        """
        if lattice.D != self.D:
            raise ValueError("recipe dimension mismatch")
        n = lattice.n
        hi = n if hi is None else hi
        axes = [np.arange(lo, hi)] + [np.arange(n)] * (self.D - 1)
        groups = {}
        for k, (ca, sa) in self.coeffs.items():
            support = tuple(d for d in range(self.D) if k[d] % n)
            groups.setdefault(support, []).append((k, ca, sa))
        shape = self.comp_shape + (hi - lo,) + lattice.shape[1:]
        out = 0.0
        for support, modes in groups.items():
            grids = np.ix_(*[axes[d] for d in support])
            part = 0.0
            for k, ca, sa in modes:
                phase = sum((k[d] * g for d, g in zip(support, grids)), 0) % n
                theta = (2.0 * np.pi / n) * phase
                part = (part + np.multiply.outer(np.asarray(ca), np.cos(theta))
                        + np.multiply.outer(np.asarray(sa), np.sin(theta)))
            placed = tuple(len(axes[d]) if d in support else 1
                           for d in range(self.D))
            out = out + np.reshape(part, self.comp_shape + placed)
        if np.shape(out) != shape:
            out = np.broadcast_to(out, shape).copy()
        return out


def _random_recipe(rng, D: int, comp_shape: tuple, mode_count: int,
                   scale: float = 1.0) -> FieldRecipe:
    """Random recipe over the lowest mode_count Fourier modes per axis.

    The mode set is the constant mode plus the axis-aligned frequencies
    1..mode_count on each axis (one representative of each {k, -k} pair);
    this keeps the spectrum soft enough for clean second-order refinement
    fits while remaining fully generic in the components.  mode_count < 1
    raises ValueError: a field with no mode but the constant one is not a
    smooth sample.
    """
    if mode_count < 1:
        raise ValueError("mode_count must be >= 1")
    ks = [(0,) * D]
    for axis in range(D):
        for k in range(1, mode_count + 1):
            kt = [0] * D
            kt[axis] = k
            ks.append(tuple(kt))
    norm = scale / np.sqrt(len(ks))
    coeffs = {}
    for kt in ks:
        ca = rng.normal(size=comp_shape) * norm
        sa = rng.normal(size=comp_shape) * norm
        if kt == (0,) * D:
            sa = np.zeros(comp_shape)
        coeffs[kt] = (ca, sa)
    return FieldRecipe(D, comp_shape, coeffs)


# ---------------------------------------------------------------------------
# field configurations
# ---------------------------------------------------------------------------

FIELDS = ("A", "beta", "B", "C")


def _fitted(lattice: Lattice, name: str, field, comp: tuple):
    """field, a full array (as floats) or a FieldRecipe, if its component
    shape on lattice fits comp, where None fits any size; else ValueError."""
    if isinstance(field, FieldRecipe):
        got, on_lattice = field.comp_shape, field.D == lattice.D
    else:
        field = np.asarray(field, dtype=float)
        got = field.shape[:field.ndim - lattice.D]
        on_lattice = field.shape[field.ndim - lattice.D:] == lattice.shape
    if not on_lattice or len(got) != len(comp) or any(
            c not in (None, g) for g, c in zip(got, comp)):
        raise ValueError(f"field {name} does not fit components {comp} on "
                         f"the lattice {lattice.shape}")
    return field


@dataclass
class FieldConfiguration:
    """The 2-connection (A, beta) and multipliers (B, C) on a lattice: each
    field a full array of lattice samples (held), or a FieldRecipe realized
    one slab at a time by the slab source, slabs, and never held whole
    (streamed).  A streamed field's slabs are bitwise those of its realized
    array.

    Component shapes (an array's lattice axes trailing):
        A:    (D, p)      1-form
        beta: (npairs, q) 2-form on ordered pairs
        B:    (npairs, p) 2-form on ordered pairs
        C:    (D, q)      1-form
    """

    lattice: Lattice
    A: np.ndarray | FieldRecipe
    beta: np.ndarray | FieldRecipe
    B: np.ndarray | FieldRecipe
    C: np.ndarray | FieldRecipe

    def __post_init__(self):
        D, npairs = self.lattice.D, len(pairs(self.lattice.D))
        for name, lead in zip(FIELDS, (D, npairs, npairs, D)):
            field = _fitted(self.lattice, name, getattr(self, name),
                            (lead, None))
            if isinstance(field, np.ndarray) and not np.all(np.isfinite(field)):
                raise ValueError(f"field {name} has non-finite entries")
            setattr(self, name, field)

    def copy(self) -> "FieldConfiguration":
        """A configuration with copies of the held fields; recipes, which
        nothing writes, are shared."""
        fields = (getattr(self, k) for k in FIELDS)
        return FieldConfiguration(self.lattice, *(
            f if isinstance(f, FieldRecipe) else f.copy() for f in fields))

    def slabs(self, windows=(), rows=(), **extra):
        """The slab source of every 4D kernel: one Slab per slab of
        slabs(lattice), in order, over the fields named in `windows` and in
        `rows` and the extra fields (full arrays or FieldRecipes, such as a
        gauge parameter): the extra fields and those in `windows` with
        their windows, those in `rows` with the slab's rows alone (a window
        (None, rows, None), which no difference along axis 0 can read).

        An array gives views (slab_window).  A windowed recipe is realized
        one slab ahead, so a slab's row after is the next slab's first row
        and its row before is the last row of the slab before, kept: each
        row is realized once, and only the periodic wrap rows n - 1 (before
        slab 0) and 0 (after the last slab) are realized a second time.
        Any other recipe is realized at its slab.  Beside the slab it
        gives, the source holds the next slab of its windowed recipes.
        Rows realized from a recipe are read-only: a write into them would
        be lost, so it raises.
        """
        return self._slabs(windows, rows, extra)

    def _ring_slabs(self, windows=(), rows=(), **extra):
        """The slab source of a slab ring (_ring): the lead, a Slab over
        the last slab of slabs(lattice) with the same windows, then the
        Slabs of slabs() in order.  The lead realizes the last slab and its
        two neighbour rows once more; slab 0's row before is the lead's last
        row, not realized again.  On a one-slab lattice the lead is slab 0,
        and a ring reads no further, so nothing is realized twice."""
        return self._slabs(windows, rows, extra, lead=True)

    def _slabs(self, windows, rows, extra, lead=False):
        lattice, n = self.lattice, self.lattice.n
        fields = {k: getattr(self, k) for k in windows + rows}
        fields.update(extra)
        windowed = {*windows, *extra}
        parts = slabs(lattice)
        ahead = [k for k in windowed if isinstance(fields[k], FieldRecipe)]

        def realized(lo, hi):
            return {k: _field_rows(fields[k], lattice, lo, hi) for k in ahead}

        def row(block, k):
            return {name: _axis0(f, lattice, k, k + 1)
                    for name, f in block.items()}

        def wrapped(cur, k):   # row k of lattice axis 0, taken mod n
            return row(cur, k % n) if len(parts) == 1 else realized(k, k + 1)

        def slab(span, before, cur, after):
            return Slab(lattice, span, {
                k: (before[k], cur[k], after[k]) if k in cur
                else _window(v, lattice, span, k in windowed)
                for k, v in fields.items()})

        if lead:
            span = parts[-1]
            cur = realized(span.start, span.stop)
            yield slab(span, wrapped(cur, span.start - 1), cur,
                       wrapped(cur, n))
            before = {k: _kept(f, lattice, -1) for k, f in cur.items()}
            del cur   # let the lead go before slab 0 is realized
        nxt = realized(parts[0].start, parts[0].stop)
        if not lead:
            before = wrapped(nxt, -1)
        for s, span in enumerate(parts):
            cur = nxt
            if s + 1 < len(parts):
                nxt = realized(parts[s + 1].start, parts[s + 1].stop)
                after = row(nxt, 0)
            else:
                after = wrapped(cur, n)
            yield slab(span, before, cur, after)
            before = {k: _kept(f, lattice, -1) for k, f in cur.items()}


@dataclass
class ConfigRecipe:
    """Resolution-independent recipes for all four fields; p and q are read
    only by perfbench's span tags."""

    p: int
    q: int
    A: FieldRecipe
    beta: FieldRecipe
    B: FieldRecipe
    C: FieldRecipe

    def realize(self, lattice: Lattice) -> FieldConfiguration:
        """The configuration of these recipes on lattice, held."""
        return FieldConfiguration(lattice, *(getattr(self, k).realize(lattice)
                                             for k in FIELDS))

    def stream(self, lattice: Lattice) -> FieldConfiguration:
        """The configuration of these recipes on lattice, streamed."""
        return FieldConfiguration(lattice, self.A, self.beta, self.B, self.C)


def make_config_recipe(cm, D: int, mode_count: int, seed: int,
                       scale: float) -> ConfigRecipe:
    """Deterministic smooth random recipe for a full field configuration."""
    rng = np.random.default_rng(seed)
    npairs = len(pairs(D))
    return ConfigRecipe(
        p=cm.p, q=cm.q,
        A=_random_recipe(rng, D, (D, cm.p), mode_count, scale),
        beta=_random_recipe(rng, D, (npairs, cm.q), mode_count, scale),
        B=_random_recipe(rng, D, (npairs, cm.p), mode_count, scale),
        C=_random_recipe(rng, D, (D, cm.q), mode_count, scale),
    )


# ---------------------------------------------------------------------------
# convergence harness
# ---------------------------------------------------------------------------

EXACT_FLOOR = 1e-11


def _ladder_order(estimate):
    """The opening both order estimators share: at least 3 rungs, NaN for a
    non-finite rung, "exact" when every rung is at most EXACT_FLOOR; any
    other ladder goes to estimate(spacings, residuals) as float arrays."""
    @functools.wraps(estimate)
    def order(spacings, residuals):
        residuals = np.asarray(residuals, dtype=float)
        spacings = np.asarray(spacings, dtype=float)
        if len(residuals) < 3:
            raise ValueError("need at least 3 resolutions to fit an order")
        if not np.all(np.isfinite(residuals)):
            return float("nan")
        if np.all(residuals <= EXACT_FLOOR):
            return "exact"
        return estimate(spacings, residuals)
    return order


@_ladder_order
def fit_order(spacings, residuals):
    """Least-squares slope of log(residual) vs log(a), as a float; NaN,
    which no order gate accepts, when the positive rungs span fewer than two
    distinct spacings, which fit no slope; see _ladder_order for the rest."""
    mask = residuals > 0
    if len(np.unique(spacings[mask])) < 2:
        return float("nan")
    slope = np.polyfit(np.log(spacings[mask]), np.log(residuals[mask]), 1)[0]
    return float(slope)


@_ladder_order
def finest_order(spacings, residuals):
    """Order of a refinement ladder from its finest pair of rungs.

    The coarse rungs of a ladder may lie before the asymptotic regime,
    where a least-squares fit over all rungs is dragged off the true order;
    the finest pair is the nearest to that regime.  NaN, which no order
    gate accepts, when a rung does not shrink under refinement (a zero rung
    below a positive one included); see _ladder_order for the rest.
    """
    coarse_to_fine = np.argsort(-spacings)
    r, a = residuals[coarse_to_fine], spacings[coarse_to_fine]
    if r[-1] <= 0 or np.any(np.diff(r) >= 0):
        return float("nan")
    return float(np.log(r[-2] / r[-1]) / np.log(a[-2] / a[-1]))
