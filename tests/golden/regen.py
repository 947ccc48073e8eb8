"""Regenerate the golden CLI reports that tests/test_golden.py compares.

    python tests/golden/regen.py

The command matrix is `bfcg full-report --module M --n 6,8,10 --seed 1` on
the seven catalog modules below and `bfcg dof --p P --q Q` on four
dimension pairs.  Each file holds a header of `#` lines, ended by MARK,
then the exact stdout of one command run in process.  The header names the
command, its exit code and the numpy version the bytes were made with.

The bytes are locked, not the verdicts: the 6/8/10 ladder is
pre-asymptotic, so on trivial_bf(3), adjoint(su2) and vector_poincare the
bianchi and gauge-check refinement verdicts FAIL there and the report
exits 1.  A change that moves a report byte reruns this script; the git
diff of the files shows the moved rows.
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
MARK = "# ---\n"


def commands() -> list:
    """(file name, argv) of every golden report."""
    out = [(f"full-report_{re.sub(r'[^0-9A-Za-z]+', '_', m).strip('_')}.txt",
            ["full-report", "--module", m, "--n", "6,8,10", "--seed", "1"])
           for m in MODULES]
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
        "# The bytes after the marker line are locked, not the verdicts: the\n",
        "# 6/8/10 ladder is pre-asymptotic, so bianchi and gauge-check FAIL\n",
        "# there on trivial_bf(3), adjoint(su2) and vector_poincare (exit 1).\n",
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
