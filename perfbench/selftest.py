"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py [--seed N] [--workload NAME ...]

Runs every workload traced twice with the same seed (about four minutes on
a 2-core machine) and checks that

  * every spanned function is replaced wherever bfcg's modules look it up,
    and records at least one span on the workload where its layer does most
    of the work (DOMINANT);
  * the exact counts repeat: `calls` of every function, and the realize,
    gradient and density-build counts, are identical in both runs;
  * both runs pass their output checks and agree on their output;
  * BENCHMARK.json declares exactly the metrics the harness reports.

Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402

# layer -> workload where it does most of the work
DOMINANT = {
    "crossed_module": "catalog-n6",
    "lattice": "report-su2",
    "curvature": "report-su2",
    "gauge": "report-su2",
    "localpoly": "canonical-n32",
    "constraints": "catalog-n6",
    "phase": "canonical-n32",
    "relations": "canonical-n32",
    "dof": "catalog-n6",
    "cli": "report-su2",
}
# functions that the dominant workload of their layer never calls
DOMINANT_OVERRIDE = {"constraints.regrouping_residual": "canonical-n32"}

EXACT = ("localpoly.gradient.entries", "lattice.realize.sites",
         "lattice.realize.bytes", "constraints.constraint_density.builds")


def check_declared(failures: list):
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    if declared != tracing.metric_units():
        failures.append("BENCHMARK.json per_layer differs from tracing.py")
    declared = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    if declared != dict(run.END_TO_END):
        failures.append("BENCHMARK.json end_to_end differs from run.py")
    names = {w["name"] for w in bench["workloads"]}
    from workloads import WORKLOADS
    if names != set(WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from workloads.py")


def check_wrapping(failures: list):
    """After install, no bfcg module global or dict entry holds an original."""
    tracing.install(tracing.Tracer())
    mods = [m for name, m in sys.modules.items()
            if name == "bfcg" or name.startswith("bfcg.")]
    originals = {id(v.__wrapped__) for m in mods for v in vars(m).values()
                 if hasattr(v, "__wrapped__")}
    for mod in mods:
        for key, value in vars(mod).items():
            held = value.values() if isinstance(value, dict) else (value,)
            if any(id(v) in originals for v in held):
                failures.append(f"unwrapped reference in {mod.__name__}.{key}")
    for layer, names in tracing.SPANNED.items():
        for qualname in names:
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(sys.modules[f"bfcg.{layer}"], cls_name)
                if not hasattr(getattr(cls, meth), "__wrapped__"):
                    failures.append(f"{qualname} is not wrapped")


def check_workload(name: str, seed: int, failures: list):
    launcher = run._prepare(name, seed)
    runs = [launcher.launch(f"traced{i}", spans=launcher.workdir / f"spans{i}.jsonl")
            for i in range(2)]
    for r in runs:
        failures.extend(f"{name}: {p}" for p in r["problems"])
    if runs[0]["output"] != runs[1]["output"]:
        failures.append(f"{name}: outputs of the two traced runs differ")
    first, second = runs[0]["layers"], runs[1]["layers"]
    exact = [k for k in first if k.endswith(".calls")] + list(EXACT)
    for key in exact:
        if first[key] != second[key]:
            failures.append(f"{name}: {key} {first[key]} != {second[key]}")
    for layer, names in tracing.SPANNED.items():
        for qualname in names:
            fid = tracing.span_id(layer, qualname)
            home = DOMINANT_OVERRIDE.get(fid, DOMINANT[layer])
            if home == name and first[f"{fid}.calls"] < 1:
                failures.append(f"{name}: no span for {fid}")
    print(f"{name}: {len(exact)} exact counts compared, "
          f"{first['trace.spans']} spans per run")


def main(argv=None) -> int:
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.ROOT / "src"))
    failures = []
    check_declared(failures)
    check_wrapping(failures)
    for name in args.workload or sorted(WORKLOADS):
        check_workload(name, args.seed, failures)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAIL" if failures else "PASS"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
