"""Differential crossed modules as explicit structure tensors.

A differential crossed module (g, h, ∂, ▷) is stored componentwise:

    f[a, b, c]   = f^a_{bc}     structure constants of g,   [T_b, T_c] = f^a_{bc} T_a
    phi[g, a, b] = φ^γ_{αβ}     structure constants of h
    del_[al, a]  = ∂_α{}^a      components of the map ∂: h → g
    act[be, a, al] = ▷^β_{aα}   action of g on h,  T_a ▷ τ_α = ▷^β_{aα} τ_β
    Q[a, b]      = Q_{ab}       invariant bilinear form on g
    qf[al, be]   = q_{αβ}       invariant bilinear form on h

Index placement is always the "natural" one above; raising/lowering is done
explicitly with Q, qf and their inverses.  Each derived tensor below is a
cached property, computed on first use and kept in the instance dict (so
dataclasses.replace gives a fresh one); only Qinv, qfinv and the tensors
built from them need a non-degenerate metric:

    Qinv, qfinv                                       (inverse metrics)
    flow[a, b, c]    = Q_{ad} f^d_{bc}                (totally antisymmetric)
    actlow[al, a, be] = q_{αγ} ▷^γ_{aβ}               (antisymmetric in α, β)
    actmix[al, a, de] = ▷_{αa}{}^δ = actlow · qf⁻¹
    actQ[al, e, de]  = ▷_α{}^e{}_δ = Q⁻¹ · actlow     (equals -T^e_{αδ})
    dlow[al, b]      = ∂_{αb} = ∂_α{}^a Q_{ab}
    dup[al, a]       = ∂^α{}_a = q^{αβ} ∂_β{}^b Q_{ba}

Metrics may be indefinite (Minkowski, Killing form of so(3,1)); nothing here
assumes positivity.

Pure BF theory is the member with h = 0: q = 0 is an empty h, so every
h-tensor has a zero-length axis and every h-sector term is an empty array or
an exact zero.  No code branches on it.

The `_cache` field holds the constraint densities expanded for the module
(see bfcg.constraints).
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .lattice import EPS3, pairs

__all__ = [
    "DifferentialCrossedModule",
    "ValidationReport",
    "builtin_module",
    "validate_crossed_module",
    "t_map",
    "contract",
    "load_crossed_module",
    "dump_crossed_module",
]

# relative spectral threshold for "non-degenerate"
NONDEGENERACY_RATIO = 1e-8
DEFAULT_TOL = 1e-10


class CrossedModuleError(ValueError):
    """Malformed crossed-module data (shapes, finiteness, file format)."""


@dataclass(frozen=True)
class DifferentialCrossedModule:
    """Structure tensors of a differential crossed module."""

    p: int
    q: int
    f: np.ndarray
    phi: np.ndarray
    del_: np.ndarray
    act: np.ndarray
    Q: np.ndarray
    qf: np.ndarray
    name: str = "unnamed"
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        p, q = self.p, self.q
        if p < 1 or q < 0:
            raise CrossedModuleError(f"bad dimensions p={p}, q={q}")
        shapes = {
            "f": (p, p, p),
            "phi": (q, q, q),
            "del_": (q, p),
            "act": (q, p, q),
            "Q": (p, p),
            "qf": (q, q),
        }
        for attr, want in shapes.items():
            arr = np.asarray(getattr(self, attr), dtype=float)
            if arr.shape != want:
                raise CrossedModuleError(
                    f"tensor {attr!r} has shape {arr.shape}, expected {want}"
                )
            if not np.all(np.isfinite(arr)):
                raise CrossedModuleError(f"tensor {attr!r} has non-finite entries")
            object.__setattr__(self, attr, arr)

    # -- derived tensors, each computed on first use ---------------------

    @cached_property
    def Qinv(self):
        return np.linalg.inv(self.Q)

    @cached_property
    def qfinv(self):
        return np.linalg.inv(self.qf)

    @cached_property
    def flow(self):
        return np.einsum("ad,dbc->abc", self.Q, self.f)

    @cached_property
    def actlow(self):
        return np.einsum("ag,gbd->abd", self.qf, self.act)

    @cached_property
    def actmix(self):
        return np.einsum("abd,dg->abg", self.actlow, self.qfinv)

    @cached_property
    def actQ(self):
        return np.einsum("eb,abd->aed", self.Qinv, self.actlow)

    @cached_property
    def dlow(self):
        return np.einsum("ab,bc->ac", self.del_, self.Q)

    @cached_property
    def dup(self):
        return np.einsum("ag,gb,bc->ac", self.qfinv, self.del_, self.Q)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """One line per identity: (name, max absolute violation, pass flag)."""

    entries: list

    @property
    def passed(self) -> bool:
        return all(ok for _, _, ok in self.entries)

    def failures(self) -> list:
        return [n for n, _, ok in self.entries if not ok]


def _maxabs(arr) -> float:
    """max |arr|, 0.0 for an empty array (an h-sector term at q = 0); a NaN
    entry gives NaN."""
    arr = np.asarray(arr)
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _nondegeneracy_violation(M: np.ndarray) -> float:
    if M.size == 0:
        return 0.0
    s = np.linalg.svd(M, compute_uv=False)
    smax, smin = float(s[0]), float(s[-1])
    return max(0.0, NONDEGENERACY_RATIO * smax - smin)


def _jacobi(c: np.ndarray) -> np.ndarray:
    """The Jacobi residual of structure constants c, written as
    c^d_{ac} c^c_{be} - c^c_{ab} c^d_{ce} + c^c_{ae} c^d_{cb} = 0."""
    return (np.einsum("dac,cbe->dabe", c, c)
            - np.einsum("cab,dce->dabe", c, c)
            + np.einsum("cae,dcb->dabe", c, c))


def validate_crossed_module(cm: DifferentialCrossedModule,
                            tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check every algebraic identity a crossed module must satisfy.

    A failing module produces a failing report, never an exception.  All
    residuals are max-abs values of the identity written as LHS - RHS = 0.
    """
    f, phi, del_, act = cm.f, cm.phi, cm.del_, cm.act
    Q, qf, actlow = cm.Q, cm.qf, cm.actlow
    checks = []

    checks.append(("f_antisymmetry", _maxabs(f + np.swapaxes(f, 1, 2))))
    checks.append(("phi_antisymmetry", _maxabs(phi + np.swapaxes(phi, 1, 2))))

    checks.append(("jacobi_g", _maxabs(_jacobi(f))))
    checks.append(("jacobi_h", _maxabs(_jacobi(phi))))

    # equivariance: ▷^β_{aα} ∂_β{}^b = ∂_α{}^c f^b_{ac}
    equi = (np.einsum("gad,gb->bad", act, del_)
            - np.einsum("dc,bac->bad", del_, f))
    checks.append(("equivariance", _maxabs(equi)))
    # composition (Peiffer, algebra level): ∂_α{}^a ▷^γ_{aβ} = φ^γ_{αβ}
    comp = np.einsum("da,gab->gdb", del_, act) - phi
    checks.append(("composition_peiffer", _maxabs(comp)))
    # mixed relation: f^a_{bc} ▷_{αaβ} = ▷_{α[b|γ} ▷^γ_{|c]β}
    mixed = (np.einsum("abc,dae->dbce", f, actlow)
             - np.einsum("dbg,gce->dbce", actlow, act)
             + np.einsum("dcg,gbe->dbce", actlow, act))
    checks.append(("mixed_representation", _maxabs(mixed)))
    # invariance of q: ▷_{αaβ} antisymmetric in (α, β)
    checks.append(("act_antisymmetry", _maxabs(actlow + np.swapaxes(actlow, 0, 2))))

    checks.append(("Q_symmetric", _maxabs(Q - Q.T)))
    checks.append(("q_symmetric", _maxabs(qf - qf.T)))
    checks.append(("Q_nondegenerate", _nondegeneracy_violation(Q)))
    checks.append(("q_nondegenerate", _nondegeneracy_violation(qf)))

    # invariance of Q: f^c_{ab} Q_{cd} + f^c_{ad} Q_{cb} = 0
    qinv = np.einsum("cab,cd->abd", f, Q) + np.einsum("cad,cb->abd", f, Q)
    checks.append(("Q_invariance", _maxabs(qinv)))

    entries = [(name, viol, viol <= tol) for name, viol in checks]
    return ValidationReport(entries)


# ---------------------------------------------------------------------------
# T map and structure-tensor contraction
# ---------------------------------------------------------------------------

def t_map(cm: DifferentialCrossedModule) -> np.ndarray:
    """The antisymmetric map T: h × h → g, T[a, al, be] = T^a_{αβ}, solved
    from Q_{ba} T^b_{αβ} = -▷_{αaβ} (Q must be non-degenerate)."""
    if _nondegeneracy_violation(cm.Q) > 0:
        raise np.linalg.LinAlgError("Q is numerically singular")
    # actlow[al, a, be] = ▷_{αaβ};  T^b_{αβ} = -(Q^{-1})^{ba} ▷_{αaβ}
    rhs = -np.einsum("abd->bad", cm.actlow).reshape(cm.p, -1)
    return np.linalg.solve(cm.Q.T, rhs).reshape(cm.p, cm.q, cm.q)


def _product_into(out, X, others) -> np.ndarray:
    """out = X times each array of others in turn (a copy of X if there is
    none)."""
    if not others:
        np.copyto(out, X)
        return out
    np.multiply(X, others[0], out=out)
    for Z in others[1:]:
        out *= Z
    return out


def contract(T: np.ndarray, *fields) -> np.ndarray:
    """out[i] = sum T[i, j, k, ...] X[j] Y[k] ..., summed over the nonzeros
    of T.

    T takes one field per axis after its first.  Each field carries the
    contracted index first and lattice axes after it, broadcast against the
    others, so this is the contraction einsum("ijk...,j...,k...->i...", T,
    X, Y, ...), with the nonzeros of T taken in index order.  Structure
    tensors and metrics are mostly zero: the loop does one product per
    nonzero and site, through a single scratch buffer, where the dense
    contraction does one per entry.  For another index order pass a
    transposed view of T; the pairing X M Y of two fields by a metric M is
    contract(M[None], X, Y)[0].

    Each row starts from its first term, and a coefficient c = +-1 adds or
    subtracts the product X[j] Y[k] ... (a lone field X[j] itself); any
    other c adds (X[j] Y[k] ...) c.  So every value is bitwise that of the
    same terms summed into zeros, but that an exact-zero row may be -0.0
    where zeros give +0.0.  A row with no nonzero of T is zero.
    """
    fields = [np.asarray(X, dtype=float) for X in fields]
    # the fields' lattice axes mostly agree, and np.broadcast_shapes costs
    # microseconds a call
    sites = {X.shape[1:] for X in fields}
    shape = (T.shape[0],) + (sites.pop() if len(sites) == 1
                             else np.broadcast_shapes(*sites))
    nonzero = np.nonzero(T)
    rows = nonzero[0].tolist()
    # a row with no nonzero keeps the zeros it is made with
    out = np.empty(shape) if len(set(rows)) == len(T) else np.zeros(shape)
    buf = np.empty(shape[1:])
    last = -1   # np.nonzero runs over the rows in order
    for i, c, *js in zip(rows, T[nonzero].tolist(),
                         *(k.tolist() for k in nonzero[1:])):
        X, *others = [F[j] for F, j in zip(fields, js)]
        if i != last:
            last, row = i, out[i]
            _product_into(row, X, others)
            if c == -1.0:
                np.negative(row, out=row)
            elif c != 1.0:
                row *= c
            continue
        term = _product_into(buf, X, others) if others or abs(c) != 1.0 else X
        if abs(c) != 1.0:
            term *= c
        if c == -1.0:
            row -= term
        else:
            row += term
    return out


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _su2() -> tuple:
    """su(2) with f^a_{bc} = ε_{abc} and Q = identity (our normalization)."""
    return EPS3.copy(), np.eye(3)


def _so31_vector() -> tuple:
    """so(3,1) structure constants, invariant form, and the vector action.

    Basis: M_{AB} with (A,B) in the lexicographic pair order of
    lattice.pairs(4), (01, 02, 03, 12, 13, 23); η = diag(-1, 1, 1, 1).  The
    invariant form is
    Q(M_{AB}, M_{CD}) = η_{AC} η_{BD} - η_{AD} η_{BC} = -tr(M_{AB} M_{CD})/2.
    """
    eta = np.diag([-1.0, 1.0, 1.0, 1.0])
    gens = []
    for A, B in pairs(4):
        M = np.zeros((4, 4))
        M[A, :] += eta[B, :]
        M[B, :] -= eta[A, :]
        gens.append(M)
    gens = np.array(gens)  # gens[a, C, D] = (M_a)^C{}_D
    # [M_b, M_c] = f^a_bc M_a, and of the basis only M_a = M_AB has an
    # (A, B) entry, eta_BB = +-1: so f^a_bc is the (A, B) entry of
    # [M_b, M_c] times eta_BB, an exact integer (+ 0.0: no -0.0)
    prods = np.einsum("bCE,cED->bcCD", gens, gens)   # M_b M_c
    comm = prods - np.swapaxes(prods, 0, 1)
    A, B = np.array(pairs(4)).T
    f = np.moveaxis(comm[:, :, A, B] * eta[B, B], -1, 0) + 0.0
    Q = -0.5 * np.einsum("aCD,bDC->ab", gens, gens) + 0.0
    act = np.einsum("aCD->CaD", gens)  # ▷^β_{aα} = (M_a)^β{}_α
    return f, Q, act, eta


def builtin_module(name: str) -> DifferentialCrossedModule:
    """Return a catalog crossed module by name.

    Accepted names: "trivial_bf(p)" with p in {1, 3}, "adjoint(su2)",
    "vector_poincare", "abelian(p,q)".
    """
    name = name.strip().replace(" ", "")
    if name == "adjoint(su2)" or name == "adjoint(su(2))":
        f, Q = _su2()
        return DifferentialCrossedModule(
            p=3, q=3, f=f, phi=f.copy(), del_=np.eye(3), act=f.copy(),
            Q=Q, qf=Q.copy(), name="adjoint(su2)")
    if name == "vector_poincare":
        f, Q, act, eta = _so31_vector()
        return DifferentialCrossedModule(
            p=6, q=4, f=f, phi=np.zeros((4, 4, 4)), del_=np.zeros((4, 6)),
            act=act, Q=Q, qf=eta, name="vector_poincare")
    if name.startswith("trivial_bf(") and name.endswith(")"):
        p = int(name[len("trivial_bf("):-1])
        if p == 1:
            f, Q = np.zeros((1, 1, 1)), np.eye(1)
        elif p == 3:
            f, Q = _su2()
        else:
            raise KeyError(f"trivial_bf supports p in {{1, 3}}, got {p}")
        zq = np.zeros
        return DifferentialCrossedModule(
            p=p, q=0, f=f, phi=zq((0, 0, 0)), del_=zq((0, p)), act=zq((0, p, 0)),
            Q=Q, qf=zq((0, 0)), name=f"trivial_bf({p})")
    if name.startswith("abelian(") and name.endswith(")"):
        try:
            p, q = (int(s) for s in name[len("abelian("):-1].split(","))
        except ValueError as exc:
            raise KeyError(f"cannot parse {name!r}") from exc
        return DifferentialCrossedModule(
            p=p, q=q, f=np.zeros((p, p, p)), phi=np.zeros((q, q, q)),
            del_=np.zeros((q, p)), act=np.zeros((q, p, q)),
            Q=np.eye(p), qf=np.eye(q), name=f"abelian({p},{q})")
    raise KeyError(f"unknown builtin crossed module {name!r}")


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------

_HEADER = """\
# crossed-module spec v1
# index conventions (row-major flattening):
#   f[a,b,c]   = f^a_{bc}        phi[g,a,b] = phi^g_{ab}
#   del[al,a]  = del_al^a        act[be,a,al] = act^be_{a al}
#   Q[a,b]     = Q_ab            qf[al,be]  = q_{al be}
"""

_TENSOR_ORDER = ("f", "phi", "del", "act", "Q", "qf")


def dump_crossed_module(cm: DifferentialCrossedModule) -> str:
    """Serialize a crossed module to the self-describing text format."""
    out = io.StringIO()
    out.write(_HEADER)
    out.write(f"name {cm.name}\n")
    out.write(f"p {cm.p}\n")
    out.write(f"q {cm.q}\n")
    tensors = {"f": cm.f, "phi": cm.phi, "del": cm.del_, "act": cm.act,
               "Q": cm.Q, "qf": cm.qf}
    for key in _TENSOR_ORDER:
        arr = tensors[key]
        dims = " ".join(str(d) for d in arr.shape)
        out.write(f"tensor {key} {dims}\n")
        flat = arr.reshape(-1)
        for start in range(0, flat.size, 6):
            out.write(" ".join(repr(float(v)) for v in flat[start:start + 6]) + "\n")
    return out.getvalue()


def load_crossed_module(text: str) -> DifferentialCrossedModule:
    """Parse the text format; shapes and finiteness are checked, identities
    are not (validation is a separate step so broken inputs can be tested).
    An unknown tensor name and a repeated entry are errors."""
    name = None
    p = q = None
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.lstrip().startswith("#")]
    tensors = {}
    seen = set()
    i = 0
    while i < len(lines):
        parts = lines[i].split()
        key = parts[0]
        entry = " ".join(parts[:2]) if key == "tensor" else key
        if entry in seen:
            raise CrossedModuleError(f"repeated entry {entry!r}")
        seen.add(entry)
        if key == "name":
            name = " ".join(parts[1:]) if len(parts) > 1 else "unnamed"
            i += 1
        elif key in ("p", "q"):
            try:
                val = int(parts[1])
            except (IndexError, ValueError) as exc:
                raise CrossedModuleError(f"bad {key} line: {lines[i]!r}") from exc
            if key == "p":
                p = val
            else:
                q = val
            i += 1
        elif key == "tensor":
            if len(parts) < 2:
                raise CrossedModuleError(f"bad tensor line: {lines[i]!r}")
            tname = parts[1]
            if tname not in _TENSOR_ORDER:
                raise CrossedModuleError(f"unknown tensor {tname!r}")
            try:
                shape = tuple(int(s) for s in parts[2:])
            except ValueError as exc:
                raise CrossedModuleError(f"bad tensor shape: {lines[i]!r}") from exc
            need = int(np.prod(shape)) if shape else 1
            vals = []
            i += 1
            while len(vals) < need:
                if i >= len(lines) or lines[i].split()[0] in ("tensor", "name", "p", "q"):
                    raise CrossedModuleError(
                        f"tensor {tname!r}: expected {need} entries, got {len(vals)}")
                for tok in lines[i].split():
                    try:
                        vals.append(float(tok))
                    except ValueError as exc:
                        raise CrossedModuleError(
                            f"tensor {tname!r}: bad numeric entry {tok!r}") from exc
                i += 1
            if len(vals) != need:
                raise CrossedModuleError(
                    f"tensor {tname!r}: expected {need} entries, got {len(vals)}")
            tensors[tname] = np.array(vals).reshape(shape)
        else:
            raise CrossedModuleError(f"unrecognized line: {lines[i]!r}")
    if p is None or q is None:
        raise CrossedModuleError("document must declare p and q")
    missing = [k for k in _TENSOR_ORDER if k not in tensors]
    if missing:
        raise CrossedModuleError(f"missing tensors: {missing}")
    return DifferentialCrossedModule(
        p=p, q=q, f=tensors["f"], phi=tensors["phi"], del_=tensors["del"],
        act=tensors["act"], Q=tensors["Q"], qf=tensors["qf"],
        name=name or "unnamed")
