"""Regenerate the golden CLI reports that tests/test_golden.py compares.

    python tests/golden/regen.py

The command matrix is `bfcg full-report --module M --n 6,8,10 --seed 1` on
the seven catalog modules below, `bfcg bianchi` and `bfcg gauge-check`
with `--n 12,16,20 --seed 1` on the two smoke modules, `bfcg eom` and
`bfcg curvature` at one finer n on each smoke module, and
`bfcg dof --p P --q Q` on four dimension pairs.  Each file holds a header
of `#` lines, ended by MARK, then the exact stdout of one command run in
process.  The header names the command, its exit code and the numpy
version the bytes were made with.

The bytes are locked, not the verdicts: the 6/8/10 ladder is
pre-asymptotic, so on trivial_bf(3), adjoint(su2) and vector_poincare the
bianchi and gauge-check refinement verdicts FAIL there and the report
exits 1.  Every rung of that ladder is one slab of `lattice.slabs`; the
12/16/20 ladder is 1, 2 and 5 slabs, so its reports lock the bytes across
slab-ring boundaries and the thin transform's slab partition.  The eom
reports at n = 16 (two slabs) and n = 12 (one slab) lock the finite
differences of the action away from the 6/8/10 ladder, and the curvature
reports at n = 20 (five slabs) and n = 16 (two slabs) lock the slab-wise
curvature norms and action across slab boundaries.  A change that
moves a report byte reruns this script; the git diff of the files shows
the moved rows.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MODULES = ("trivial_bf(1)", "trivial_bf(3)", "abelian(1,1)", "abelian(2,3)",
           "abelian(4,2)", "adjoint(su2)", "vector_poincare")
DOF_DIMS = ((1, 0), (3, 3), (6, 4), (2, 5))
SLAB_MODULES = ("adjoint(su2)", "vector_poincare")
SLAB_LADDER = "12,16,20"   # 1, 2 and 5 slabs
EOM_RUNS = (("adjoint(su2)", "16"), ("vector_poincare", "12"))   # 2, 1 slabs
CURVATURE_RUNS = (("adjoint(su2)", "20"), ("vector_poincare", "16"))   # 5, 2
MARK = "# ---\n"
LADDER_NOTE = (
    "# The bytes after the marker line are locked, not the verdicts: the\n"
    "# 6/8/10 ladder is pre-asymptotic, so bianchi and gauge-check FAIL\n"
    "# there on trivial_bf(3), adjoint(su2) and vector_poincare (exit 1).\n")
SLAB_NOTE = (
    "# The bytes after the marker line are locked, not the verdicts: the\n"
    "# 12/16/20 ladder is 1, 2 and 5 slabs of lattice.slabs, so these bytes\n"
    "# cross slab-ring boundaries and the thin transform's slab partition.\n")
EOM_NOTE = (
    "# The bytes after the marker line are locked, not the verdicts: the\n"
    "# finite differences of the action at one n, whose lattice is one or\n"
    "# two slabs of lattice.slabs.\n")
CURVATURE_NOTE = (
    "# The bytes after the marker line are locked, not the verdicts: the\n"
    "# curvature norms and the action at one n, whose lattice is two or five\n"
    "# slabs of lattice.slabs.\n")


def _slug(module: str) -> str:
    return re.sub(r'[^0-9A-Za-z]+', '_', module).strip('_')


def commands() -> list:
    """(file name, argv) of every golden report."""
    out = [(f"full-report_{_slug(m)}.txt",
            ["full-report", "--module", m, "--n", "6,8,10", "--seed", "1"])
           for m in MODULES]
    out += [(f"{cmd}_{_slug(m)}_{_slug(SLAB_LADDER)}.txt",
             [cmd, "--module", m, "--n", SLAB_LADDER, "--seed", "1"])
            for m in SLAB_MODULES for cmd in ("bianchi", "gauge-check")]
    out += [(f"eom_{_slug(m)}_{n}.txt",
             ["eom", "--module", m, "--n", n, "--seed", "1"])
            for m, n in EOM_RUNS]
    out += [(f"curvature_{_slug(m)}_{n}.txt",
             ["curvature", "--module", m, "--n", n, "--seed", "1"])
            for m, n in CURVATURE_RUNS]
    out += [(f"dof_{p}_{q}.txt", ["dof", "--p", str(p), "--q", str(q)])
            for p, q in DOF_DIMS]
    return out


def run(argv) -> tuple:
    """Exit code and stdout of `bfcg argv`, run in this process."""
    from bfcg.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def render(argv, code: int, report: str) -> str:
    return "".join([
        f"# golden report of: bfcg {' '.join(argv)}\n",
        f"# exit {code}\n",
        f"# numpy {np.__version__}\n",
        (SLAB_NOTE if SLAB_LADDER in argv else EOM_NOTE if argv[0] == "eom"
         else CURVATURE_NOTE if argv[0] == "curvature" else LADDER_NOTE),
        "# Regenerate with: python tests/golden/regen.py\n",
        MARK, report])


def read(path: Path) -> tuple:
    """(numpy version, exit code, report) of a golden file."""
    head, report = path.read_text(encoding="utf-8").split(MARK, 1)
    fields = dict(line[2:].split(" ", 1) for line in head.splitlines()
                  if line.startswith(("# exit ", "# numpy ")))
    return fields["numpy"], int(fields["exit"]), report


def main() -> int:
    for name, argv in commands():
        code, report = run(argv)
        (HERE / name).write_text(render(argv, code, report), encoding="utf-8")
        print(f"{name}: exit {code}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main())
