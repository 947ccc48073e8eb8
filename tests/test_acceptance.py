"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest -s tests/test_acceptance.py` to see one pass/fail line per
criterion.  C03 (Bianchi), C04 (gauge invariance), C05 (field equations),
C08 (multiplier consistency) and C09 (off-shell) run CLI configurations, so
they call the check registry `bfcg.checks` and assert on its records.  The
other criteria keep their own data, which no `RunConfig` reproduces: C01
and C02 are sweeps (every single-entry perturbation of a structure tensor;
every (p, q) up to 50); C06 holds the primary relations to the absolute
1e-12 fundamental-bracket bound, which is stricter than the `algebra`
check's scaled gate; C07 holds every table relation to the absolute
DEFAULT_TOL at three points on each rung of the n = 8, 16, 32 ladder, where
`algebra` runs at one n; C10 holds three modules to a bound stricter than
the `consistency` check's.  Every bound is named once: in `bfcg.checks`, or
below.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from bfcg.checks import (DEFAULT_TOL, EOM_TOL, FUNDAMENTAL_TOL, LADDER,
                         TABLE_RELATIONS, RunConfig, check_bianchi,
                         check_consistency, check_eom, check_gauge,
                         check_offshell, order_ok)
from bfcg.crossed_module import builtin_module, validate_crossed_module
from bfcg.dof import dof_count
from bfcg.lattice import Lattice
from bfcg.phase import random_phase_point
from bfcg.relations import (PRIMARY_RELATIONS, check_algebra_relation,
                            fundamental_bracket_residuals, reduction_residual)

# The chi = 0 reduction compares densities site by site, with no bracket
# and no 1/a^3 lattice pairing, so it holds to rounding of order-one
# values; the consistency check gates it at the run's --tol with its
# bracket rows.
REDUCTION_TOL = 1e-12


def _report(tag, ok, detail=""):
    print(f"ACCEPT {tag}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{tag} failed: {detail}"


def test_criterion_01_crossed_module_axiom_suite():
    t0 = time.perf_counter()
    catalog = ["trivial_bf(1)", "trivial_bf(3)", "adjoint(su2)",
               "vector_poincare", "abelian(2,3)"]
    worst = 0.0
    for name in catalog:
        rep = validate_crossed_module(builtin_module(name), tol=DEFAULT_TOL)
        assert rep.passed, (name, rep.failures())
        worst = max(worst, max(v for _, v, _ in rep.entries))
    missed = []
    # every single-entry 0.1 perturbation of a structure tensor is caught;
    # the only mathematically undetectable cell is (abelian, del): a
    # del-perturbed abelian module is itself a valid crossed module
    for name in ("adjoint(su2)", "vector_poincare", "trivial_bf(3)"):
        cm = builtin_module(name)
        for attr in ("f", "phi", "del_", "act"):
            base = getattr(cm, attr)
            for idx in np.ndindex(*base.shape):
                tensor = base.copy()
                tensor[idx] += 0.1
                if validate_crossed_module(replace(cm, **{attr: tensor})).passed:
                    missed.append((name, attr, idx))
    elapsed = time.perf_counter() - t0
    _report("C01 crossed-module axioms", worst <= DEFAULT_TOL and not missed
            and elapsed < 1.0,
            f"worst={worst:.2e} missed={len(missed)} time={elapsed:.2f}s")


def test_criterion_02_dof_reproduction():
    t0 = time.perf_counter()
    t = dof_count(6, 4)
    ok = (t.N, t.F, t.S, t.n) == (100, 70, 60, 0)
    ok = ok and all(dof_count(p, q).n == 0
                    for p in range(1, 51) for q in range(0, 51))
    elapsed = time.perf_counter() - t0
    _report("C02 dof counting", ok and elapsed < 1.0,
            f"(N,F,S,n)=({t.N},{t.F},{t.S},{t.n}) time={elapsed:.2f}s")


def test_criterion_03_bianchi_convergence():
    t0 = time.perf_counter()
    rec = check_bianchi(builtin_module("adjoint(su2)"),
                        RunConfig(seed=1, ns=LADDER, a=1 / 8))
    ok = rec.ok and all(v[0] > 1e-2 for v in rec.residuals.values())
    elapsed = time.perf_counter() - t0
    _report("C03 bianchi identities",
            ok and elapsed < 60.0,
            " ".join(f"{k}={o:.3f}" for k, o in rec.orders.items())
            + f" time={elapsed:.1f}s")


def test_criterion_04_gauge_invariance():
    rec = check_gauge(builtin_module("adjoint(su2)"), RunConfig(seed=1))
    thin, fat = rec.orders["thin"], rec.orders["fat"]
    cov = rec.residuals["covariance"][0]
    ok = rec.ok and thin != "exact" and order_ok(thin) and order_ok(fat)
    _report("C04 gauge invariance", ok and cov <= DEFAULT_TOL,
            f"thin_order={thin:.3f} (all-rung fit {rec.fits['thin']:.3f}) "
            f"fat={fat} const-covariance={cov:.2e}")


def test_criterion_05_eom_cross_check():
    cm = builtin_module("adjoint(su2)")
    recs = [check_eom(cm, RunConfig(seed=seed, ns=(8,))) for seed in (1, 5)]
    worst = max(rec.residuals["relerr"][0] for rec in recs)
    _report("C05 eom finite-difference",
            all(rec.ok for rec in recs) and worst <= EOM_TOL,
            f"relerr={worst:.2e} (seeds 1, 5)")


def test_criterion_06_fundamental_and_primary_brackets():
    cm = builtin_module("adjoint(su2)")
    lat = Lattice(D=3, n=6, a=1.0 / 6)
    worst = 0.0
    for seed in (1, 2):
        pt = random_phase_point(cm, lat, seed=seed, rule="random")
        fb = fundamental_bracket_residuals(cm, pt, seed=seed)
        worst = max(worst, fb["conjugate"], fb["cross"])
        for rid in PRIMARY_RELATIONS:
            res = check_algebra_relation(cm, rid, pt, seed=seed)
            worst = max(worst, res.residual)
    _report("C06 fundamental brackets", worst <= FUNDAMENTAL_TOL,
            f"worst={worst:.2e}")


def test_criterion_07_constraint_algebra_tables():
    t0 = time.perf_counter()
    cm = builtin_module("adjoint(su2)")
    table_path = Path(__file__).resolve().parents[1] / "docs" / "relations.md"
    committed = table_path.read_text(encoding="utf-8")
    assert all(rid in committed for rid in TABLE_RELATIONS), \
        "classification table must list every relation"
    worst_exact = 0.0
    failed = []
    for nn, npoints in ((8, 3), (16, 3), (32, 3)):
        lat = Lattice(D=3, n=nn, a=1.0 / nn)
        for k in range(npoints):
            pt = random_phase_point(cm, lat, seed=1000 * nn + k, rule="random")
            for rid in TABLE_RELATIONS:
                res = check_algebra_relation(cm, rid, pt, seed=k)
                worst_exact = max(worst_exact, res.residual)
                if res.residual > DEFAULT_TOL:
                    failed.append((rid, nn, k, res.residual))
    elapsed = time.perf_counter() - t0
    _report("C07 constraint algebra tables",
            not failed and elapsed < 600.0,
            f"21 relations x 3 points x n={LADDER}, worst={worst_exact:.2e}, "
            f"time={elapsed:.1f}s")


def test_criterion_08_multiplier_consistency():
    cm = builtin_module("adjoint(su2)")
    recs = [check_consistency(cm, RunConfig(seed=seed, ns=(8,)))
            for seed in (0, 1)]
    reduction = max(rec.residuals["reduction"][0] for rec in recs)
    _report("C08 multiplier consistency", all(rec.ok for rec in recs),
            f"seeds 0, 1 at n=8, tol={DEFAULT_TOL:g}, reduction={reduction:.2e}")


def test_criterion_09_offshell_dependencies():
    ab = check_offshell(builtin_module("abelian(2,2)"), RunConfig(seed=2, ns=(8,)))
    su2 = check_offshell(builtin_module("adjoint(su2)"), RunConfig(seed=648))
    ra, rb = su2.orders["ra"], su2.orders["rb"]
    _report("C09 off-shell dependencies",
            ab.ok and su2.ok and su2.residuals["ra"][0] > 1e-3,
            f"abelian=({ab.residuals['ra'][0]:.1e},{ab.residuals['rb'][0]:.1e}) "
            f"su2 orders=({ra:.3f},{rb:.3f})")


def test_criterion_10_gauge_fixed_reduction():
    worst = 0.0
    lat = Lattice(D=3, n=6, a=1.0 / 6)
    for name in ("adjoint(su2)", "vector_poincare", "abelian(2,2)"):
        cm = builtin_module(name)
        for seed in (11, 12):
            pt = random_phase_point(cm, lat, seed=seed, rule="random")
            worst = max(worst, reduction_residual(cm, pt))
    _report("C10 gauge-fixed reduction", worst <= REDUCTION_TOL, f"worst={worst:.2e}")
