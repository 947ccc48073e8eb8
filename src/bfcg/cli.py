"""Command-line front end: flags -> `RunConfig` -> `bfcg.checks` -> report.

Subcommands: validate, curvature, gauge-check, bianchi, eom, algebra,
consistency, offshell, dof, full-report.  Reports are plain structured text
with a stable schema header; identical configurations (including seeds)
produce byte-identical reports.  Exit codes: 0 all selected checks pass,
1 check failure, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import __version__
# every check_* stays importable from here, and is called through CHECKS or
# this module's globals
from .checks import (CHECKS, DEFAULT_TOL, LADDER, RunConfig,  # noqa: F401
                     check_algebra, check_bianchi, check_consistency,
                     check_curvature, check_dof, check_eom, check_gauge,
                     check_offshell, check_validate)
from .crossed_module import builtin_module, load_crossed_module

SCHEMA = "bfcg-report schema 1"


def _load_module(args):
    if args.spec:
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                return load_crossed_module(fh.read())
        except OSError as exc:
            raise SystemExit(f"error: cannot read spec file: {exc}") from exc
    return builtin_module("adjoint(su2)" if args.module is None else args.module)


def _render(rec) -> list:
    """Report lines of one check record, its verdict line last."""
    detail = f"  {rec.detail}" if rec.detail else ""
    return rec.lines + [f"[{'PASS' if rec.ok else 'FAIL'}] {rec.name}{detail}"]


def _text(out) -> str:
    """The report: schema header, then each line and rendered record."""
    lines = [SCHEMA, f"version {__version__}"]
    for item in out:
        lines += [item] if isinstance(item, str) else _render(item)
    return "\n".join(lines) + "\n"


SMOKE_MODULES = ("adjoint(su2)", "vector_poincare")


def _add_common(sp):
    sp.add_argument("--module", default=None,
                    help="builtin crossed-module name (default adjoint(su2); "
                         "full-report defaults to both smoke modules)")
    sp.add_argument("--spec", default=None,
                    help="crossed-module spec file (overrides --module)")
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--tol", type=float, default=DEFAULT_TOL,
                    help="bound on lattice-exact residuals (finite, > 0)")
    sp.add_argument("--modes", type=int, default=1,
                    help="Fourier modes per axis in sampled fields")
    sp.add_argument("--out", default=None, help="write the report to a file")
    sp.add_argument("--n", default=",".join(map(str, LADDER)),
                    help="lattice sizes, comma separated")
    sp.add_argument("--a", type=float, default=None,
                    help="lattice spacing at the first n (default 1/n)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it is."""
    ap = argparse.ArgumentParser(
        prog="bfcg",
        description="BFCG lattice and canonical-analysis checks")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in (*CHECKS, "full-report"):
        _add_common(sub.add_parser(name))
    spd = sub.add_parser("dof")
    spd.add_argument("--p", type=int, required=True)
    spd.add_argument("--q", type=int, required=True)
    spd.add_argument("--out", default=None)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    out = []   # report lines and check records, in report order
    try:
        if args.command == "dof":
            out.append(check_dof(args.p, args.q))
        else:
            ns = tuple(int(s) for s in args.n.split(",") if s)
            cfg = RunConfig(seed=args.seed, ns=ns, a=args.a, tol=args.tol,
                            modes=args.modes)
            full = args.command == "full-report"
            if full and args.spec is None and args.module is None:
                modules = [builtin_module(name) for name in SMOKE_MODULES]
            else:
                modules = [_load_module(args)]
            out.append(f"config n={args.n} a={cfg.a!r} seed={cfg.seed} "
                       f"tol={cfg.tol:g}")
            for cm in modules:
                out.append(f"module {cm.name} p={cm.p} q={cm.q}")
                for name in CHECKS if full else [args.command]:
                    out.append(CHECKS[name](cm, cfg))
                if full:
                    out.append(check_dof(cm.p, cm.q))
    except SystemExit as exc:
        sys.stderr.write(str(exc) + "\n")
        return 2
    except (KeyError, ValueError, OSError) as exc:
        # a full report that a module stops (a degenerate metric) still
        # prints the records it reached, validate's among them
        if args.command == "full-report" and not all(
                isinstance(item, str) for item in out):
            sys.stdout.write(_text(out))
        sys.stderr.write(f"error: {exc}\n")
        return 2
    failed = any(not item.ok for item in out if not isinstance(item, str))
    text = _text(out + [f"overall {'FAIL' if failed else 'PASS'}"])
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            sys.stderr.write(f"error: cannot write report: {exc}\n")
            return 2
    sys.stdout.write(text)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
