"""Thin and fat gauge transformations of lattice field configurations.

Group elements enter only through exponentials of algebra-valued fields.
A thin transformation with parameter field eps^a(x) acts by

    A   ->  exp(-ad_eps) A + dexpinv_eps(D eps)
    B   ->  exp(-ad_eps) B
    beta, C -> exp(-act_eps) beta, C

where ad_eps acts on g indices, act_eps = eps^a act_a on h indices, and
dexpinv_eps(v) = sum_{k=0}^{K} (-ad_eps)^k / (k+1)!  v   (K = 6)
realizes phi^{-1} d phi for phi = exp(eps).

A fat transformation with an h-valued 1-form eta acts exactly:

    A    -> A + del(eta)
    beta -> beta + d eta + A wedge^act eta + eta ^ eta    (phi-bracket)
    C    -> C
    B    -> B + 2 [T(C, eta)]_antisym

The eta^eta coefficient and the factor 2 on the B shift are fixed by exact
invariance of the fake curvature and of the action under this package's
normalization (see docs/conventions.md); both are covered by tests.

Working set.  Each transformation has one body per slab of lattice.slabs
(the package's one block size, lattice.SLAB_SITES sites), which reads the
slab's rows of the configuration and the window of its parameter and writes
the transformed rows where it is told.  A parameter, like each field, is a
full array or a FieldRecipe, checked for its shape alone (_parameter).
thin_gauge_transform and fat_gauge_transform write the rows over the held
configuration they are given (a recipe's rows are read-only, so a streamed
field raises) and return it unvalidated, so a non-finite value reaches the
action and FAILs; only the tests, as oracles, and perfbench's spans call
them.  The gauge check's passes (transformed_actions, one per transform,
and thin_covariance) realize the rows of the four fields and the window of
the parameter alone, and write the transformed rows into new slab arrays
that a slab ring (_transform_ring over lattice._ring) hands, with their
neighbour rows, to the action or to the comparison of F(A') with R F(A),
so no n^4 field exists.  A ring transforms the last slab first, as its
lead (on one slab, slab 0, transformed once), and keeps only its last
row's edge fields, so beside the current slab it holds a few rows, and no
slab waits to the end; each run's density is summed row by row
(lattice._RowSums) at once, so no density site array exists either.
The thin body is pointwise once D eps is formed: it builds -f eps (and
-act eps) from the nonzeros of the structure tensor, exponentiates it as
(sites, p, p) stacks, and copies the rotation and the dexpinv sum to
sites-last (p, p, sites) stacks, whose products with the fields run over
contiguous sites.  When act equals f (adjoint modules, abelian(1,1)) the
h-sector stack is the g-sector one, so the g-sector rotation serves both
and each slab forms one exponential; otherwise the g-sector stacks are
dropped before the h-sector exponential is formed.  So one sector's stacks
(tens of MB; expm_batched adds four stacks of _EXPM_BLOCK matrices) and
that slab's D eps are alive at a time, whatever the lattice size.  The fat
body differences only eta, one stored pair at a time; curvature_residuals
compares each slab's fake curvature with that of its fat transform.
"""

from __future__ import annotations

import math

import numpy as np

from .crossed_module import _maxabs, contract, t_map
from .curvature import (_AT4, _PP4, ACTION_FIELDS, _action_density,
                        _add_pairing, _curvature_F_pair, _curvature_T_pair,
                        _require_4d, _three_form_triple, _worst,
                        evaluate_action)
from .lattice import (FIELDS, FieldConfiguration, FieldRecipe, Slab, _fitted,
                      _ring, _RowSums, pairs, slab_derivative)

__all__ = [
    "expm_batched",
    "thin_gauge_transform",
    "fat_gauge_transform",
    "curvature_residuals",
    "transformed_actions",
    "thin_covariance",
]


# the largest norm with s = ceil(log2(norm / 0.5)) <= 1023, so 2**s is a double
_MAX_NORM = 2.0 ** 1022
# 1/k! of the degree-18 Taylor polynomial, summed in blocks of T^0..T^2
_TAYLOR = [1.0 / math.factorial(k) for k in range(19)]


# matrices per block of expm_batched: the block stacks of 10 x 10 matrices
# (vector_poincare) stay within L2, where whole stacks did not
_EXPM_BLOCK = 2048


def expm_batched(M: np.ndarray, return_dexpinv: bool = False):
    """Matrix exponential of a stack of small matrices (..., d, d), and with
    return_dexpinv also sum_{k=0}^{6} M^k / (k+1)! (dexpinv for M = -ad).

    Scaling and squaring of the degree-18 Taylor polynomial of T = M / 2**s
    (norm <= 1/2), evaluated by Paterson-Stockmeyer as a Horner scheme in
    T^3 over blocks in I, T, T^2 (c I added on the diagonal only): 7
    matmuls, then s squarings.  The dexpinv sum is L + H T^3 from the same
    powers (M^k = 2**(s k) T^k), one more matmul.  s is taken from the norm
    of the whole stack; every later step is per matrix, so the stack,
    flattened to (-1, d, d), is evaluated in blocks of _EXPM_BLOCK matrices
    (_expm_block) with bitwise the result of one block.  Beside M and the
    output stacks, the working set is four block stacks.  A non-finite
    norm, or one too large for 2**s to be a double, gives NaN stacks.
    """
    if M.shape[-1] == 0:
        return (M.copy(), M.copy()) if return_dexpinv else M.copy()
    norm = float(np.max(np.sum(np.abs(M), axis=-1))) if M.size else 0.0
    if not norm <= _MAX_NORM:   # NaN included
        nan = np.full(M.shape, np.nan)
        return (nan, nan.copy()) if return_dexpinv else nan
    s = max(0, int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0)
    flat = M.reshape((-1,) + M.shape[-2:])
    outs = [np.empty(flat.shape) for _ in range(1 + return_dexpinv)]
    for lo in range(0, len(flat), _EXPM_BLOCK):
        block = slice(lo, lo + _EXPM_BLOCK)
        _expm_block(flat[block], s, *(out[block] for out in outs))
    outs = [out.reshape(M.shape) for out in outs]
    return tuple(outs) if return_dexpinv else outs[0]


def _expm_block(M, s, out, dexpinv_out=None) -> None:
    """expm_batched of the stack M (k, d, d) with the stack-wide scaling s,
    written into out, and the dexpinv sum into dexpinv_out if given.

    The outputs are work buffers too: the dexpinv sum's first factor is
    formed in out, and the Horner scheme and the squarings swap the
    exponential between out and one spare block 5 + s times, starting in
    the buffer that the last swap leaves it in out."""
    # M / 2**s as the product with the exact 2**-s (a double for s <= 1023)
    T = np.multiply(M, math.ldexp(1.0, -s), out=np.empty(M.shape))
    T2 = np.matmul(T, T)
    T3 = np.matmul(T2, T)
    spare = np.empty(M.shape)
    if dexpinv_out is not None:
        # M^k / (k+1)! = T^k / ((k+1)! 2**(-s k)); L has k <= 3, H T^3 the rest
        div = [math.ldexp(math.factorial(k + 1), -s * k) for k in range(7)]
        H = np.divide(T3, div[6], out=out)
        H += np.divide(T2, div[5], out=spare)
        H += np.divide(T, div[4], out=spare)
        np.matmul(H, T3, out=dexpinv_out)
        for k, Tk in ((3, T3), (2, T2)):
            dexpinv_out += np.divide(Tk, div[k], out=spare)
        # div[1] = 2**(1 - s), whose reciprocal 2**(s - 1) is exact
        dexpinv_out += np.multiply(T, 1.0 / div[1], out=spare)
        for i in range(M.shape[-1]):
            dexpinv_out[..., i, i] += 1.0
    result, tmp = (out, spare) if (5 + s) % 2 == 0 else (spare, out)
    # (..((c18 T^3 + B_15) T^3 + B_12) T^3 ..) T^3 + B_0, B_j of degree 2
    np.multiply(T3, _TAYLOR[18], out=result)
    for j in range(15, -1, -3):
        result += np.multiply(T, _TAYLOR[j + 1], out=tmp)
        result += np.multiply(T2, _TAYLOR[j + 2], out=tmp)
        for i in range(M.shape[-1]):   # c_j I, on the diagonal only
            result[..., i, i] += _TAYLOR[j]
        if j:
            np.matmul(result, T3, out=tmp)
            result, tmp = tmp, result
    del T, T2, T3
    for _ in range(s):
        np.matmul(result, result, out=tmp)
        result, tmp = tmp, result


def _generators(G, eps):
    """-G eps as a (sites, r, c) stack, -sum_b G[r, b, c] eps[b, sites], for
    G = f (-ad_eps) or act (-act_eps) and eps of shape (b, sites).

    Each nonzero of G is added into its slot of a zero stack in the order of
    b, then the stack is negated, so the result is bitwise
    -np.einsum("abc,bs->sac", G, eps) at a fraction of its cost.
    """
    out = np.zeros((eps.shape[1], G.shape[0], G.shape[2]))
    tmp = np.empty(eps.shape[1])
    for r, b, c in zip(*np.nonzero(G)):
        slot = out[:, r, c]
        slot += np.multiply(G[r, b, c], eps[b], out=tmp)
    return np.negative(out, out=out)


# sites per block of the sites-last copy: a block's reads and writes stay in
# cache, where one strided pass over the stack does not
_COPY_BLOCK = 1024


def _sites_last(M):
    """The stack M (sites, d, d) copied to (d, d, sites)."""
    out = np.empty(M.shape[1:] + M.shape[:1])
    for i in range(0, len(M), _COPY_BLOCK):
        out[..., i:i + _COPY_BLOCK] = M[i:i + _COPY_BLOCK].transpose(1, 2, 0)
    return out


def _apply(mat, field):
    """Apply sites-last per-site matrices (d, d, sites) to a slab field
    (d, rows, ...); each output is summed over y in the order of
    np.einsum("sxy,ys->xs") on the sites-first stack, so bitwise equal."""
    flat = field.reshape(len(field), mat.shape[-1])
    return np.einsum("xys,ys->xs", mat, flat).reshape(field.shape)


def _thin_slab(cm, slab, out) -> None:
    """The thin transformation of one slab, from its rows of the fields and
    its window of "eps", written into out[field] (the slab's rows; out may
    be the slab itself).

    The slab gets its own D eps, generator stacks, exponentials and dexpinv
    sum, so its exponentials scale by its own stack-wide 2**s.  The
    rotation and the dexpinv sum are applied as sites-last copies.  If act
    equals f, -act eps is bitwise -f eps, and the exponential does not
    depend on return_dexpinv, so the g-sector rotation is the h-sector one
    too; otherwise the g-sector fields are rotated and the g-sector stacks
    dropped before the h-sector exponential is formed, so at most one
    sector's stacks are alive.
    """
    lat = slab.lattice
    eps = slab["eps"].reshape(cm.p, -1)
    R, S = map(_sites_last, expm_batched(_generators(cm.f, eps),
                                         return_dexpinv=True))
    window = slab.window("eps")
    for mu in range(lat.D):
        d_eps = slab_derivative(window, mu, lat)
        np.add(_apply(R, slab["A"][mu]), _apply(S, d_eps), out=out["A"][mu])
    for P in range(len(slab["B"])):
        out["B"][P] = _apply(R, slab["B"][P])
    del S
    if not np.array_equal(cm.act, cm.f):
        del R
        R = _sites_last(expm_batched(_generators(cm.act, eps)))
    for mu in range(lat.D):
        out["C"][mu] = _apply(R, slab["C"][mu])
    for P in range(len(slab["beta"])):
        out["beta"][P] = _apply(R, slab["beta"][P])


def _fat_beta_shift(cm, slab, P) -> np.ndarray:
    """d eta + A wedge^act eta + eta ^ eta on the stored pair P over the
    slab, from its rows of A and its window of "eta": the fat shift of
    beta."""
    lat = slab.lattice
    A, e = slab["A"], slab["eta"]
    m, n = pairs(lat.D)[P]
    shift = slab_derivative(slab.window("eta", n), m, lat)
    shift -= slab_derivative(slab.window("eta", m), n, lat)
    wedge = contract(cm.act, A[m], e[n])
    wedge -= contract(cm.act, A[n], e[m])
    shift += wedge
    shift += contract(cm.phi, e[m], e[n])
    return shift


def _fat_slab(cm, slab, out, T) -> None:
    """The fat transformation of one slab, from its rows of the fields and
    its window of "eta", written into out["A"], out["beta"] and out["B"]
    (the slab's rows; out may be the slab itself); C does not change.  T is
    t_map(cm).

    Only eta is differenced, so the beta and B shifts, which read the rows
    of A and C, are added before the A shift.
    """
    lat = slab.lattice
    A, C, e = slab["A"], slab["C"], slab["eta"]
    for P, (m, n) in enumerate(pairs(lat.D)):
        np.add(slab["beta"][P], _fat_beta_shift(cm, slab, P),
               out=out["beta"][P])
        shift = contract(T, C[m], e[n])
        shift -= contract(T, C[n], e[m])
        shift *= 2.0
        np.add(slab["B"][P], shift, out=out["B"][P])
    for mu in range(lat.D):
        np.add(A[mu], contract(cm.del_.T, e[mu]), out=out["A"][mu])


def _parameter(cm, lat, name, field):
    """The thin (eps, components (p,)) or fat (eta, (D, q)) parameter, a
    full array or a FieldRecipe, checked for shape only: a non-finite value
    reaches the action and FAILs."""
    return _fitted(lat, name, field,
                   (cm.p,) if name == "eps" else (lat.D, cm.q))


def thin_gauge_transform(cm, cfg: FieldConfiguration,
                         eps_field: np.ndarray) -> FieldConfiguration:
    """Thin transformation with parameter eps^a(x), a full array or a
    FieldRecipe, in place on cfg, which it returns; exact for constant eps.

    Each slab's rows of every field are overwritten with the transformed
    values (_thin_slab).  The result is not re-validated: an unscalable
    exponential leaves NaN in the fields, which reaches the action and
    FAILs.
    """
    _require_4d(cm, cfg, "gauge transformations are")
    eps = _parameter(cm, cfg.lattice, "eps", eps_field)
    for slab in cfg.slabs(rows=FIELDS, eps=eps):
        _thin_slab(cm, slab, slab)
    return cfg


def fat_gauge_transform(cm, cfg: FieldConfiguration,
                        eta_field: np.ndarray) -> FieldConfiguration:
    """Fat transformation with an h-valued 1-form eta^al_mu(x), a full array
    or a FieldRecipe, in place on cfg, which it returns, one slab at a time
    (_fat_slab).  The result is not re-validated: a non-finite shift reaches
    the action and FAILs.
    """
    _require_4d(cm, cfg, "gauge transformations are")
    eta = _parameter(cm, cfg.lattice, "eta", eta_field)
    T = t_map(cm)
    for slab in cfg.slabs(rows=FIELDS, eta=eta):
        _fat_slab(cm, slab, slab, T)
    return cfg


def curvature_residuals(cm, cfg: FieldConfiguration, eta) -> dict:
    """The curvature check's data from one pass over cfg's slabs: the
    max-abs "F", "H", "G" and "T" of F, H = F - del beta, G and T; "H_fat",
    max |H' - H| for H' the H of cfg's fat transform by eta (an array or a
    FieldRecipe), which leaves H invariant; and "S", the action, bitwise
    evaluate_action's.  Each stored pair is reduced as it is formed: F, H
    in place, and H' from the windows of A' = A + del eta and beta' on the
    slab's rows (_fat_beta_shift).  The pairs are visited in _PP4 and the
    triples in _AT4 order, so each H and G adds its term to the slab's
    density as it is formed, in _action_density's order, and the density
    is summed row by row (lattice._RowSums).  A' and the slab go
    before the source realizes the slab after the next.  np.max keeps a
    NaN; at q = 0, H' - H is an exact zero."""
    lat = cfg.lattice
    _require_4d(cm, cfg, "curvatures are")
    eta = _parameter(cm, lat, "eta", eta)
    total, worst = _RowSums(lat), []
    for slab in cfg.slabs(("A", "beta", "C"), ("B",), eta=eta):
        fat = Slab(lat, slab.rows, {"A": tuple(
            np.stack([A[mu] + contract(cm.del_.T, e[mu]) for mu in range(4)])
            for A, e in zip(slab.windows["A"], slab.windows["eta"]))})
        dens = np.zeros(slab["B"].shape[2:])
        pair_worst = []   # (F, H, H' - H) of each stored pair
        for Pi, P, e in _PP4:
            H = _curvature_F_pair(cm, slab, P)   # F, then H in place
            F_worst = _maxabs(H)
            H -= contract(cm.del_.T, slab["beta"][P])
            H1 = _curvature_F_pair(cm, fat, P)
            H1 -= contract(cm.del_.T,
                           slab["beta"][P] + _fat_beta_shift(cm, slab, P))
            H1 -= H
            pair_worst.append((F_worst, _maxabs(H), _maxabs(H1)))
            _add_pairing(dens, e, cm.Q, slab["B"][Pi], H)
        del fat
        G_worst = []
        for mu, tri, e in _AT4:
            G = _three_form_triple(slab, "beta", cm.act, tri)
            G_worst.append(_maxabs(G))
            _add_pairing(dens, e, cm.qf, slab["C"][mu], G)
        worst.append((*np.max(pair_worst, axis=0), np.max(G_worst),
                      _worst(_curvature_T_pair(cm, slab, P)
                             for P in range(len(slab["beta"])))))
        total.add(slab.rows, dens)
        del slab
    norms = map(float, np.max(worst, axis=0))
    return {**dict(zip(("F", "H", "H_fat", "G", "T"), norms)),
            "S": total.integral()}


def transformed_actions(cm, cfg, eps, eta) -> tuple:
    """(S, S_thin, S_fat): the action of cfg and of its thin and fat
    transforms with parameters eps and eta, in three passes over cfg's
    slabs.

    The fields of cfg and the parameters are full arrays or FieldRecipes,
    which the slab sources realize slab by slab; both parameters are
    checked before any pass.  S is evaluate_action's.  Each transform's
    pass reads the rows of the four fields and the window of its parameter
    alone, and its action's density is summed row by row
    (lattice._RowSums) run by run, as its slab ring (_transform_ring)
    reduces it, so neither holds a density site array.  The
    three values are bitwise those of evaluate_action on cfg and on the
    transforms of a copy of it.
    """
    lat = cfg.lattice
    _require_4d(cm, cfg, "the action is")
    eps, eta = _parameter(cm, lat, "eps", eps), _parameter(cm, lat, "eta", eta)
    T = t_map(cm)

    def action(transform, moved, **parameter):
        total = _RowSums(lat)

        def add(ring):
            dens = np.zeros(ring["A"].shape[2:])
            _action_density(cm, ring, dens)
            total.add(ring.rows, dens)

        _transform_ring(cm, cfg, transform, moved, add, ACTION_FIELDS[0],
                        **parameter)
        return total.integral()

    return (evaluate_action(cm, cfg),
            action(_thin_slab, FIELDS, eps=eps),
            action(lambda cm, slab, out: _fat_slab(cm, slab, out, T),
                   ("A", "beta", "B"), eta=eta))


def thin_covariance(cm, cfg, eps) -> float:
    """max |F(A') - R F(A)| over the stored pairs and the sites, for A' the
    thin transform of cfg's A by a constant parameter eps (p,), which F
    follows exactly as R F, R = exp(-ad_eps).  One slab ring
    (_transform_ring) carries A', from _thin_slab, beside the slab's own A
    and compares both F run by run, R F(A) by contract: bitwise the
    max-abs of curvature_F of a held copy's thin transform against
    np.einsum("ab,Pb...->Pa...", R, curvature_F(cm, cfg)).
    """
    lat = cfg.lattice
    _require_4d(cm, cfg, "gauge transformations are")
    eps = np.asarray(eps, dtype=float)
    R = expm_batched(_generators(cm.f, eps[:, None])[0])

    def thin(cm, slab, out):   # A' and the slab's A, all that F reads
        _thin_slab(cm, slab, out)
        del out["beta"], out["B"], out["C"]
        out["A0"] = slab["A"]

    def compare(ring):
        untransformed = Slab(lat, ring.rows, {"A": ring.windows["A0"]})
        return _worst(_curvature_F_pair(cm, ring, P)
                      - contract(R, _curvature_F_pair(cm, untransformed, P))
                      for P in range(len(pairs(lat.D))))

    const = FieldRecipe(lat.D, (cm.p,), {(0,) * lat.D: (eps, 0.0)})
    return float(np.max(_transform_ring(cm, cfg, thin, FIELDS, compare,
                                        ("A", "A0"), eps=const)))


def _transform_ring(cm, cfg, transform, moved, reduce, edges, **parameter):
    """[reduce(ring)] over every run of rows of cfg's transform, in a slab
    ring (lattice._ring) whose block is out after transform(cm, slab, out),
    which writes the fields named in `moved` into new slab arrays (out
    holds the slab's own rows of the others) and may add or drop fields;
    those named in `edges` take their neighbour rows from the slabs around.
    The source gives the rows of the four fields and the window of the
    parameter, which is all a transform reads."""
    def transformed(slab):
        out = {k: np.empty_like(slab[k]) if k in moved else slab[k]
               for k in FIELDS}
        transform(cm, slab, out)
        return out

    return _ring(cfg._ring_slabs((), FIELDS, **parameter), transformed,
                 reduce, edges)
