"""The check registry: every verdict `bfcg` reports, and every gate behind it.

Each check maps a crossed module and a `RunConfig` to a `CheckRecord`: the
verdict, the detail of its verdict line, the report lines it prints and the
plain floats behind them (the residual at each rung, the fitted orders).
The CLI renders records to text.  The acceptance suite asserts on the
records of bianchi (C03), gauge-check (C04), eom (C05), consistency (C08)
and offshell (C09); its other criteria run data no `RunConfig` reproduces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .crossed_module import (DEFAULT_TOL, _nondegeneracy_violation,
                             validate_crossed_module)
from .curvature import bianchi_residuals, eom_gradient_check, eom_residuals
from .dof import dof_count, dof_report
from .gauge import curvature_residuals, thin_covariance, transformed_actions
from .lattice import (Lattice, _random_recipe, finest_order, fit_order,
                      make_config_recipe)
from .phase import random_phase_point
from .relations import (SECONDARY_RELATIONS, FIRSTCLASS_RELATIONS, MIXED_RELATIONS,
                        PRIMARY_RELATIONS, ZERO_RELATIONS,
                        consistency_residuals, fundamental_bracket_residuals,
                        offshell_refinement, offshell_relations,
                        reduction_residual, relation_table)

ORDER_WINDOW = (1.8, 2.2)        # fitted order of a second-order residual
LADDER = (8, 16, 32)             # default lattice sizes
OFFSHELL_LADDER = (16, 24, 32)   # inside the asymptotic regime of the off-shell fit
FUNDAMENTAL_TOL = 1e-12          # fundamental Poisson brackets
EOM_TOL = 1e-6                   # field equations against finite differences
TABLE_RELATIONS = (PRIMARY_RELATIONS + SECONDARY_RELATIONS + FIRSTCLASS_RELATIONS
                   + MIXED_RELATIONS)


def order_ok(order) -> bool:
    """Refinement verdict: lattice-exact, or an order in ORDER_WINDOW.

    Every refinement check passes it the finest_order of its residual
    ladder, which also gives NaN for a ladder with a rung that grows.
    """
    return order == "exact" or ORDER_WINDOW[0] <= order <= ORDER_WINDOW[1]


@dataclass(frozen=True)
class RunConfig:
    """Inputs of a check run: the CLI's --seed, --n, --a, --tol and --modes."""
    seed: int = 1
    ns: tuple = LADDER
    a: float | None = None      # lattice spacing at ns[0]; default 1/ns[0]
    tol: float = DEFAULT_TOL
    modes: int = 1

    def __post_init__(self):
        if not self.ns:
            raise ValueError("the lattice ladder --n is empty")
        if len(set(self.ns)) != len(self.ns):
            raise ValueError(f"the lattice ladder --n repeats a size: "
                             f"{list(self.ns)}")
        if min(self.ns) < 4:
            raise ValueError(f"the lattice ladder --n has a size below 4: "
                             f"{list(self.ns)}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"--tol must be finite and positive, got {self.tol!r}")
        if self.modes < 1:
            raise ValueError(f"--modes must be at least 1, got {self.modes!r}")
        if self.seed < 0:
            raise ValueError(f"--seed must be non-negative, got {self.seed!r}")
        if self.a is None:
            object.__setattr__(self, "a", 1.0 / self.ns[0])
        # each rung's spacing and its fourth power, the 4D volume element,
        # must be finite positive doubles: a spacing that overflows or
        # underflows makes both sides of an identity inf, NaN or 0
        for n in self.ns:
            h = self.spacing(n)
            if not all(math.isfinite(x) and x > 0 for x in (h, h * h * h * h)):
                raise ValueError(f"--a must give every rung a finite positive "
                                 f"spacing with a finite nonzero fourth power;"
                                 f" --a {self.a!r} gives {h!r} at n={n}")

    def spacing(self, n: int) -> float:
        """Spacing at size n over the extent fixed by the first rung."""
        return self.ns[0] * self.a / n


@dataclass(frozen=True)
class CheckRecord:
    """One verdict and the plain floats it rests on; holds no arrays."""
    name: str
    ok: bool
    detail: str = ""
    lines: list = field(default_factory=list)
    residuals: dict = field(default_factory=dict)   # label -> one float per rung
    orders: dict = field(default_factory=dict)      # label -> gated order, "exact"
    fits: dict = field(default_factory=dict)        # label -> all-rung fit


def _fmt(x: float) -> str:
    return f"{x:.6e}"


def _pf(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _order_str(order) -> str:
    return order if order == "exact" else f"{order:.3f}"


def _refinement(spacings, table: dict, label: str):
    """Report lines, gated orders and all-rung fits of residual ladders.

    The verdict rests on the finest pair of rungs (finest_order); the
    least-squares fit over every rung is printed beside it.
    """
    orders = {k: finest_order(spacings, v) for k, v in table.items()}
    fits = {k: fit_order(spacings, v) for k, v in table.items()}
    lines = [f"{label.format(k)} {' '.join(_fmt(x) for x in v)} order "
             f"{_order_str(fits[k])} finest-pair {_order_str(orders[k])}"
             for k, v in table.items()]
    return lines, orders, fits


def _lattice(cfg: RunConfig, D: int, n: int) -> Lattice:
    """Lattice of size n over the extent fixed by the first rung."""
    return Lattice(D=D, n=n, a=cfg.spacing(n))


def _recipe(cm, cfg: RunConfig):
    """The recipe of the run's 4D field configuration."""
    return make_config_recipe(cm, 4, cfg.modes, seed=cfg.seed, scale=0.4)


def _nondegenerate(check):
    """Run `check` only on a module whose metrics Q and q pass validate's
    non-degeneracy rows; any other raises ValueError (a usage error, exit 2)
    instead of reaching a verdict."""
    @functools.wraps(check)
    def guarded(cm, cfg: RunConfig) -> CheckRecord:
        for label, metric in (("Q", cm.Q), ("q", cm.qf)):
            if _nondegeneracy_violation(metric) > 0:
                raise ValueError(f"the metric {label} of {cm.name} is "
                                 f"degenerate (see validate)")
        return check(cm, cfg)
    return guarded


def check_validate(cm, cfg: RunConfig) -> CheckRecord:
    rep = validate_crossed_module(cm, tol=cfg.tol)
    lines = [f"# crossed-module validation: {cm.name}"]
    lines += [f"identity {name} {_fmt(viol)} {_pf(ok)}"
              for name, viol, ok in rep.entries]
    detail = (f"tol={cfg.tol:g}" if rep.passed
              else f"failing: {','.join(rep.failures())}")
    return CheckRecord("validate", rep.passed, detail, lines,
                       {name: (float(viol),) for name, viol, _ in rep.entries})


def _gauge_parameters(cm, cfg: RunConfig):
    """The rng of the gauge checks and the recipes of the thin parameter
    eps and the fat parameter eta, drawn from it in that order."""
    rng = np.random.default_rng(cfg.seed + 100)
    eps = _random_recipe(rng, 4, (cm.p,), cfg.modes, scale=0.3)
    eta = _random_recipe(rng, 4, (4, cm.q), cfg.modes, scale=0.3)
    return rng, eps, eta


@_nondegenerate
def check_curvature(cm, cfg: RunConfig) -> CheckRecord:
    """The curvature norms and the action, which must be finite, and the
    fat invariance of the fake curvature H, gated relative to its size:
    max |H' - H| <= tol max(1, max |H|), with eta as gauge-check draws it,
    all from one pass over the streamed configuration (curvature_residuals).
    H' = H holds exactly by the equivariance of del and the Peiffer
    identity, so a perturbation of f, act, phi or del that breaks them
    FAILs here."""
    n = cfg.ns[0]
    norms = curvature_residuals(cm, _recipe(cm, cfg).stream(
        _lattice(cfg, 4, n)), _gauge_parameters(cm, cfg)[2])
    dH, S = norms.pop("H_fat"), norms.pop("S")
    invariant = dH <= cfg.tol * max(1.0, norms["H"])
    lines = [f"# curvature norms at n={n}"]
    lines += [f"curvature {k} maxabs {_fmt(v)}" for k, v in norms.items()]
    lines.append(f"curvature H fat-invariance {_fmt(dH)} {_pf(invariant)}")
    lines.append(f"action {S!r}")
    # a norm is finite iff every entry is
    finite = all(map(np.isfinite, norms.values()))
    return CheckRecord("curvature", bool(finite and np.isfinite(S)
                                         and invariant), "", lines,
                       {**{k: (v,) for k, v in norms.items()},
                        "H_fat": (dH,)})


@_nondegenerate
def check_bianchi(cm, cfg: RunConfig) -> CheckRecord:
    if len(cfg.ns) < 3:
        raise ValueError("bianchi refinement needs at least 3 resolutions")
    keys = ("bianchi_F", "bianchi_T", "bianchi_GB", "bianchi_G")
    table = {k: [] for k in keys}
    spac = []
    recipe = _recipe(cm, cfg)
    for n in cfg.ns:
        lat = _lattice(cfg, 4, n)
        res = bianchi_residuals(cm, recipe.stream(lat))
        for k in keys:
            table[k].append(float(res[k]))
        spac.append(lat.a)
    lines, orders, fits = _refinement(spac, table, "bianchi {} residuals")
    return CheckRecord("bianchi", all(map(order_ok, orders.values())),
                       f"n={list(cfg.ns)}", lines,
                       {k: tuple(v) for k, v in table.items()}, orders, fits)


@_nondegenerate
def check_gauge(cm, cfg: RunConfig) -> CheckRecord:
    if len(cfg.ns) == 2:
        raise ValueError("gauge-check refinement needs at least 3 resolutions"
                         " (one gives the covariance alone)")
    rng, eps_rec, eta_rec = _gauge_parameters(cm, cfg)
    recipe = _recipe(cm, cfg)

    # exact covariance under a constant thin parameter, streamed
    eps_c = rng.normal(size=cm.p) * 0.4
    cov = thin_covariance(cm, recipe.stream(_lattice(cfg, 4, cfg.ns[0])),
                          eps_c)
    lines = [f"gauge thin-constant F-covariance {_fmt(cov)}"]
    residuals, orders, fits = {"covariance": (cov,)}, {}, {}
    if len(cfg.ns) >= 3:
        dS = {"thin": [], "fat": []}
        spac = []
        for n in cfg.ns:
            lat = _lattice(cfg, 4, n)
            # the three actions, each from its own pass over the slabs
            S0, S_thin, S_fat = transformed_actions(
                cm, recipe.stream(lat), eps_rec, eta_rec)
            dS["thin"].append(abs(S_thin - S0))
            dS["fat"].append(abs(S_fat - S0))
            spac.append(lat.a)
        more, orders, fits = _refinement(spac, dS, "gauge {} dS")
        lines += more
        residuals.update((k, tuple(map(float, v))) for k, v in dS.items())
    return CheckRecord("gauge-check",
                       cov <= cfg.tol and all(map(order_ok, orders.values())),
                       "", lines, residuals, orders, fits)


@_nondegenerate
def check_eom(cm, cfg: RunConfig) -> CheckRecord:
    c = _recipe(cm, cfg).stream(_lattice(cfg, 4, cfg.ns[0]))
    res = eom_residuals(cm, c, cfg.seed)
    worst = eom_gradient_check(cm, c, res)
    lines = [f"eom H-norm {_fmt(res['H_norm'])} G-norm {_fmt(res['G_norm'])}",
             f"eom E_A-norm {_fmt(res['E_A_norm'])} "
             f"E_beta-norm {_fmt(res['E_beta_norm'])}",
             f"eom finite-difference relerr {_fmt(worst)}"]
    return CheckRecord("eom", worst <= EOM_TOL, "", lines,
                       {"relerr": (float(worst),)})


@_nondegenerate
def check_algebra(cm, cfg: RunConfig) -> CheckRecord:
    n = cfg.ns[0]
    lat = _lattice(cfg, 3, n)
    ok = True
    lines = [f"# relation table at n={n}, 3 random points"]
    worst_fund = 0.0
    for ptseed in range(3):
        point = random_phase_point(cm, lat, seed=cfg.seed + 17 * ptseed,
                                   rule="random", mode_count=cfg.modes)
        fb = fundamental_bracket_residuals(cm, point, seed=cfg.seed + ptseed)
        # np.max, not max: a NaN residual must reach the printed row
        worst_fund = float(np.max([worst_fund, fb["conjugate"], fb["cross"]]))
        ok = ok and all(np.isfinite(scale) and r <= FUNDAMENTAL_TOL * scale
                        for r, scale in fb["brackets"])
        for res in relation_table(cm, TABLE_RELATIONS + ZERO_RELATIONS, point,
                                  seed=cfg.seed + 31 * ptseed):
            # an infinite scale would make the gate inf <= inf
            good = bool(np.isfinite(res.scale)
                        and res.residual <= cfg.tol * max(1.0, res.scale))
            ok = ok and good
            if ptseed == 0:
                lines.append(f"relation {res.rid} lhs {_fmt(res.lhs)} rhs {_fmt(res.rhs)}"
                             f" residual {_fmt(res.residual)} exact {_pf(good)}")
    lines.append(f"fundamental-brackets worst {_fmt(worst_fund)}")
    return CheckRecord("algebra", ok, "", lines,
                       {"fundamental": (worst_fund,)})


@_nondegenerate
def check_consistency(cm, cfg: RunConfig) -> CheckRecord:
    n = cfg.ns[0]
    lat = _lattice(cfg, 3, n)
    ok = True
    lines = [f"# consistency at an on-shell point, n={n}"]
    point_on = random_phase_point(cm, lat, seed=cfg.seed + 3,
                                  rule="on_shell", mode_count=cfg.modes)
    for label, r in consistency_residuals(cm, point_on, seed=cfg.seed):
        gated = "weak" not in label
        good = r <= cfg.tol or not gated
        ok = ok and good
        lines.append(f"consistency {label} {_fmt(r)}"
                     + (f" {_pf(good)}" if gated else ""))
    point_rnd = random_phase_point(cm, lat, seed=cfg.seed + 5,
                                   rule="random", mode_count=cfg.modes)
    for label, r in consistency_residuals(cm, point_rnd, seed=cfg.seed,
                                          off_shell=True):
        good = r <= cfg.tol
        ok = ok and good
        lines.append(f"consistency(random) {label} {_fmt(r)} {_pf(good)}")
    red = reduction_residual(cm, point_rnd)
    lines.append(f"consistency gauge-fixed-reduction {_fmt(red)}")
    return CheckRecord("consistency", ok and red <= cfg.tol, "", lines,
                       {"reduction": (float(red),)})


@_nondegenerate
def check_offshell(cm, cfg: RunConfig) -> CheckRecord:
    if not any(np.any(t) for t in (cm.f, cm.act, cm.del_)):
        # abelian: both dependencies hold exactly at any single n
        point = random_phase_point(cm, _lattice(cfg, 3, cfg.ns[0]),
                                   seed=cfg.seed + 7, rule="random",
                                   mode_count=cfg.modes)
        out = offshell_relations(cm, point)
        res = {k: (float(out[f"{k}_residual"]),) for k in ("ra", "rb")}
        lines = [f"offshell {k} residual {_fmt(v[0])} (abelian)"
                 for k, v in res.items()]
        return CheckRecord("offshell", all(v[0] <= cfg.tol for v in res.values()),
                           "", lines, res)
    out = offshell_refinement(cm, list(OFFSHELL_LADDER), seed=cfg.seed,
                              mode_count=cfg.modes)
    res = {k: tuple(map(float, out[f"{k}_residuals"])) for k in ("ra", "rb")}
    more, orders, fits = _refinement(out["spacings"], res,
                                     "offshell {} residuals")
    lines = [f"offshell ladder n={list(OFFSHELL_LADDER)}", *more,
             f"offshell bianchi-content orders "
             f"{_order_str(out['ra_bianchi_order'])} "
             f"{_order_str(out['rb_bianchi_order'])}"]
    return CheckRecord("offshell", all(map(order_ok, orders.values())), "", lines,
                       res, orders, fits)


def check_dof(p: int, q: int) -> CheckRecord:
    t = dof_count(p, q)
    return CheckRecord("dof", t.n == 0, f"N={t.N} F={t.F} S={t.S} n={t.n}",
                       dof_report(t))


# subcommand -> check, in full-report order
CHECKS = {
    "validate": check_validate,
    "curvature": check_curvature,
    "bianchi": check_bianchi,
    "gauge-check": check_gauge,
    "eom": check_eom,
    "algebra": check_algebra,
    "consistency": check_consistency,
    "offshell": check_offshell,
}
