"""The benchmark's workloads, run through bfcg's public API and CLI.

Each workload has three parts:

  prepare(seed, workdir) -> inputs   run by the harness; makes the inputs
  setup(inputs) -> state             run in the worker; ends at "ready"
  run(state, inputs) -> Outcome      the measured part; every verdict

A verdict is (label, ok).  It is not ok when the check FAILs, raises or
yields a non-finite residual.  `Outcome.problems` lists output that is
malformed or inconsistent (a wrong verdict count, an exit code that
contradicts the report): those make the run incorrect, while a FAIL verdict
only counts toward the fail ratio.  `Outcome.output` is compared between the
untraced and the traced run, which must agree exactly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
from dataclasses import dataclass, field

# Gates, as the CLI and the acceptance tests apply them.
TOL = 1e-10                 # relation, consistency, regrouping, reduction
FUNDAMENTAL_TOL = 1e-12     # fundamental brackets
MIN_ORDER = 1.8             # off-shell refinement order

SCHEMA = "bfcg-report schema 1"
VERDICT_LINE = re.compile(r"^\[(PASS|FAIL)\] (\S+)", re.MULTILINE)


@dataclass
class Outcome:
    verdicts: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    output: str = ""

    def gate(self, label, value, bound):
        self.verdicts.append((label, bool(math.isfinite(value)
                                          and value <= bound)))

    def attempt(self, label, fn, *args, **kwargs):
        """Call fn; a raise is a failed verdict and a problem."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every raise is a verdict
            self.verdicts.append((label, False))
            self.problems.append(f"{label} raised {type(exc).__name__}: {exc}")
            return None


def _cli(main, argv):
    """Run the CLI in-process; return (exit code, report text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(argv)
    return rc, buf.getvalue()


def _check_report(out: Outcome, label, rc, text, expect_verdicts=None):
    """Report shape and exit code must agree with the verdict lines."""
    found = VERDICT_LINE.findall(text)
    any_fail = any(status == "FAIL" for status, _ in found)
    if not text.startswith(SCHEMA + "\n"):
        out.problems.append(f"{label}: report lacks the schema header")
    overall = "overall FAIL" if any_fail else "overall PASS"
    if not text.endswith(overall + "\n"):
        out.problems.append(f"{label}: last line is not {overall!r}")
    if rc != (1 if any_fail else 0):
        out.problems.append(f"{label}: exit code {rc} contradicts the report")
    if expect_verdicts is not None and len(found) != expect_verdicts:
        out.problems.append(f"{label}: {len(found)} verdict lines, "
                            f"expected {expect_verdicts}")
    return found


# ---------------------------------------------------------------------------
# report-su2: the command users run
# ---------------------------------------------------------------------------

class ReportSu2:
    name = "report-su2"
    VERDICTS = 9    # 8 checks + dof

    def prepare(self, seed, workdir):
        return {"argv": ["full-report", "--module", "adjoint(su2)",
                         "--seed", str(seed)]}

    def setup(self, inputs):
        from bfcg import cli
        return cli

    def run(self, cli, inputs):
        out = Outcome()
        rc, text = _cli(cli.main, inputs["argv"])
        for status, name in _check_report(out, "full-report", rc, text,
                                          self.VERDICTS):
            out.verdicts.append((name, status == "PASS"))
        out.output = text
        return out


# ---------------------------------------------------------------------------
# canonical-n32: the bracket engine on a 3D n=32 lattice
# ---------------------------------------------------------------------------

class CanonicalN32:
    name = "canonical-n32"
    MODULES = ("adjoint(su2)", "vector_poincare")
    # per module: 26 relations, fundamental brackets, 12 on-shell and 4
    # random-point consistency rows, regrouping, reduction, 2 off-shell orders
    VERDICTS = 2 * 47
    N = 32
    OFFSHELL_LADDER = (16, 24, 32)

    def prepare(self, seed, workdir):
        return {"seed": seed}

    def setup(self, inputs):
        from bfcg.constraints import FAMILIES, constraint_density
        from bfcg.crossed_module import builtin_module
        cms = [builtin_module(name) for name in self.MODULES]
        for cm in cms:
            for fam in FAMILIES:
                constraint_density(cm, fam)
        return cms

    def run(self, cms, inputs):
        out = Outcome()
        digest = hashlib.sha256()
        for cm in cms:
            self._module(cm, inputs["seed"], out, digest)
        if len(out.verdicts) != self.VERDICTS:
            out.problems.append(f"{len(out.verdicts)} verdicts, "
                                f"expected {self.VERDICTS}")
        out.output = digest.hexdigest()
        return out

    def _module(self, cm, seed, out, digest):
        import numpy as np
        from bfcg.constraints import regrouping_residual
        from bfcg.lattice import Lattice
        from bfcg.phase import random_phase_point
        from bfcg.relations import (FIRSTCLASS_RELATIONS, MIXED_RELATIONS,
                                    PRIMARY_RELATIONS, SECONDARY_RELATIONS,
                                    ZERO_RELATIONS, check_algebra_relation,
                                    consistency_residuals,
                                    fundamental_bracket_residuals,
                                    offshell_refinement, reduction_residual)

        def record(label, value):
            digest.update(f"{cm.name} {label} {value!r}\n".encode())

        lat = Lattice(D=3, n=self.N, a=1.0 / self.N)
        pt = random_phase_point(cm, lat, seed=seed, rule="random")
        for rid in (PRIMARY_RELATIONS + SECONDARY_RELATIONS
                    + FIRSTCLASS_RELATIONS + MIXED_RELATIONS + ZERO_RELATIONS):
            res = out.attempt(rid, check_algebra_relation, cm, rid, pt,
                              seed=seed)
            if res is not None:
                record(rid, res.residual)
                out.gate(rid, res.residual, TOL * max(1.0, res.scale))

        fb = out.attempt("fundamental", fundamental_bracket_residuals, cm, pt,
                         seed=seed)
        if fb is not None:
            worst = max(fb["conjugate"], fb["cross"])
            record("fundamental", worst)
            out.gate("fundamental", worst, FUNDAMENTAL_TOL)

        on_shell = random_phase_point(cm, lat, seed=seed + 3, rule="on_shell")
        for point, tag, gated in ((on_shell, "on-shell",
                                   lambda label: "weak" not in label),
                                  (pt, "random",
                                   lambda label: "vs phi" in label)):
            rows = out.attempt(f"consistency {tag}", consistency_residuals,
                               cm, point, seed=seed)
            for label, r in rows or ():
                record(f"consistency {tag} {label}", r)
                if gated(label):
                    out.gate(f"consistency {tag} {label}", r, TOL)

        rng = np.random.default_rng(seed)
        lam0 = {"lamA0": rng.normal(size=(cm.p,) + lat.shape),
                "lamB0": rng.normal(size=(3, cm.p) + lat.shape),
                "lamC0": rng.normal(size=(cm.q,) + lat.shape),
                "lambe0": rng.normal(size=(3, cm.q) + lat.shape)}
        for label, fn, args, kwargs in (
                ("regrouping", regrouping_residual, (cm, pt), lam0),
                ("reduction", reduction_residual, (cm, pt), {})):
            r = out.attempt(label, fn, *args, **kwargs)
            if r is not None:
                record(label, r)
                out.gate(label, r, TOL)

        off = out.attempt("offshell", offshell_refinement, cm,
                          self.OFFSHELL_LADDER, seed=seed)
        if off is not None:
            for key in ("ra_order", "rb_order"):
                order = off[key]
                record(key, order)
                ok = order == "exact" or (math.isfinite(order)
                                          and order >= MIN_ORDER)
                out.verdicts.append((f"offshell {key}", bool(ok)))


# ---------------------------------------------------------------------------
# catalog-n6: seven catalog modules through the CLI on tiny lattices
# ---------------------------------------------------------------------------

class CatalogN6:
    name = "catalog-n6"
    MODULES = ("trivial_bf(1)", "trivial_bf(3)", "abelian(1,1)",
               "abelian(2,3)", "abelian(4,2)", "adjoint(su2)",
               "vector_poincare")
    COMMANDS = ("validate", "curvature", "eom", "gauge-check", "algebra",
                "consistency")
    PASSES = 3
    N = "6"

    def prepare(self, seed, workdir):
        from bfcg.crossed_module import builtin_module, dump_crossed_module
        specs = []
        for i, name in enumerate(self.MODULES):
            cm = builtin_module(name)
            path = os.path.join(workdir, f"module{i}.cmspec")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dump_crossed_module(cm))
            specs.append({"name": name, "spec": path, "p": cm.p, "q": cm.q})
        return {"seed": seed, "modules": specs}

    def setup(self, inputs):
        from bfcg import cli
        return cli

    def run(self, cli, inputs):
        out = Outcome()
        digest = hashlib.sha256()
        seed = inputs["seed"]
        for s in range(seed, seed + self.PASSES):
            for mod in inputs["modules"]:
                runs = [(cmd, [cmd, "--spec", mod["spec"], "--n", self.N,
                               "--seed", str(s)]) for cmd in self.COMMANDS]
                runs.append(("dof", ["dof", "--p", str(mod["p"]),
                                     "--q", str(mod["q"])]))
                for cmd, argv in runs:
                    label = f"{cmd} {mod['name']} seed={s}"
                    rc, text = _cli(cli.main, argv)
                    if rc not in (0, 1):
                        out.problems.append(f"{label}: exit code {rc}")
                    else:
                        _check_report(out, label, rc, text, 1)
                    out.verdicts.append((label, rc == 0))
                    digest.update(text.encode())
        out.output = digest.hexdigest()
        return out


WORKLOADS = {w.name: w for w in (ReportSu2(), CanonicalN32(), CatalogN6())}
