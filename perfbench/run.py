"""Benchmark of bfcg: end-to-end verdict time and memory, and a traced
per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is report-su2, canonical-n32, catalog-n6 or all.  Run from anywhere
inside a checkout that holds `src/bfcg`.

Every repetition of a workload runs in a fresh worker process
(perfbench/worker.py), so set-up time and peak RSS are that process's own.
With --trace 0 the run measures, for at least S seconds, whole repetitions
and reports their medians:

  verdict_s       wall seconds from "ready" to the last verdict
  verdict_cpu_s   CPU seconds (user + system) of the worker, same interval
  setup_s         launching the worker to "ready"; median over the
                  repetitions and SETUP_SAMPLES extra set-up-only launches
  peak_rss_mb     the worker's own high-water RSS

The fail ratio (verdicts that FAIL, raise or are non-finite over verdicts
attempted) is printed and is `failed / attempted` in the result line.

With --trace 1 the run makes one untraced and one traced repetition.  The
traced one spans the public functions of every bfcg layer (see tracing.py)
and reports per-layer calls, self time, RSS rise and exact work counts; the
difference in verdict_s between the two is the tracing overhead.  The
traced report must equal the untraced one exactly.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_SAMPLES = 4
DEADLINE_S = 170.0   # one workload's launches must all end within this

END_TO_END = (("verdict_s", "s"), ("verdict_cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


@dataclass
class Measured:
    workload: str
    metrics: dict
    units: dict
    verdicts: list
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def failed(self):
        return [label for label, ok in self.verdicts if not ok]


class Launcher:
    """Starts workers for one workload and waits for each to end."""

    def __init__(self, workload: str, workdir: Path, inputs_path: Path):
        self.workload = workload
        self.workdir = workdir
        self.inputs_path = inputs_path
        self.deadline = time.monotonic() + DEADLINE_S

    def launch(self, tag: str, setup_only=False, spans=None) -> dict:
        result_path = self.workdir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--inputs", str(self.inputs_path),
               "--result", str(result_path)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"{self.workload}: out of time before {tag}")
        launched = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{self.workload}: {tag} timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"{self.workload}: {tag} exited with "
                             f"{proc.returncode}\n{proc.stderr[-4000:]}")
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - launched
        return result


def _prepare(name: str, seed: int):
    from workloads import WORKLOADS
    workdir = OUT_DIR / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs_path = workdir / "inputs.json"
    with open(inputs_path, "w", encoding="utf-8") as fh:
        json.dump(WORKLOADS[name].prepare(seed, str(workdir)), fh)
    return Launcher(name, workdir, inputs_path)


def measure(name: str, seed: int, seconds: float) -> Measured:
    """Untraced: repetitions for at least `seconds`, reported as medians."""
    launcher = _prepare(name, seed)
    setups = [launcher.launch(f"setup{i}", setup_only=True)["setup_s"]
              for i in range(SETUP_SAMPLES)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(launcher.launch(f"rep{len(reps)}"))
        spent = time.monotonic() - start
        if spent >= seconds or \
                time.monotonic() + 1.5 * spent / len(reps) > launcher.deadline:
            break
    problems = [p for r in reps for p in r["problems"]]
    if len({r["output"] for r in reps}) > 1:
        problems.append("repetitions with the same seed disagree")
    metrics = {
        "verdict_s": median(r["verdict_s"] for r in reps),
        "verdict_cpu_s": median(r["verdict_cpu_s"] for r in reps),
        "setup_s": median(setups + [r["setup_s"] for r in reps]),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
    }
    notes = [f"repetitions={len(reps)} setup samples={len(setups) + len(reps)}"]
    return Measured(name, metrics, dict(END_TO_END),
                    [tuple(v) for r in reps for v in r["verdicts"]],
                    problems, notes)


def measure_traced(name: str, seed: int) -> Measured:
    """One untraced and one traced repetition; per-layer metrics."""
    import baseline
    import tracing
    launcher = _prepare(name, seed)
    ref = launcher.launch("untraced")
    spans_path = launcher.workdir / "spans.jsonl"
    traced = launcher.launch("traced", spans=spans_path)
    problems = ref["problems"] + traced["problems"]
    if ref["output"] != traced["output"]:
        problems.append("traced and untraced outputs differ")
    metrics = dict(traced["layers"])
    overhead = traced["verdict_s"] - ref["verdict_s"]
    metrics["trace.overhead_s"] = overhead
    units = tracing.metric_units()
    notes = [f"tracing overhead: traced verdict_s {traced['verdict_s']:.3f} s"
             f" - untraced {ref['verdict_s']:.3f} s = {overhead:.3f} s"
             f" ({100.0 * overhead / ref['verdict_s']:.1f} %)",
             f"spans written to {spans_path.relative_to(ROOT)}"]
    compared = baseline.compare(traced["per_call"])
    if compared:
        notes.append("per call at n=32 against the ROADMAP baseline:")
        notes.extend(compared)
    return Measured(name, metrics, units,
                    [tuple(v) for r in (ref, traced) for v in r["verdicts"]],
                    problems, notes)


def _print_measured(m: Measured, trace: bool):
    print(f"== {m.workload}")
    for line in m.notes:
        print(line)
    for key, value in m.metrics.items():
        if trace and value == 0:
            continue
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {key:<50} {shown} {m.units[key]}")
    attempted = len(m.verdicts)
    failed = m.failed
    ratio = len(failed) / attempted if attempted else float("nan")
    print(f"  {'fail_ratio':<50} {ratio:>14.6g} ratio "
          f"({len(failed)}/{attempted})"
          + (f"  failed: {', '.join(sorted(set(failed)))}" if failed else ""))
    for problem in m.problems:
        print(f"  INCORRECT: {problem}")


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (ROOT / "src" / "bfcg" / "cli.py").is_file():
        sys.stderr.write(f"error: no bfcg sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import machine
    import bfcg.cli  # noqa: F401 - compile the package before timing

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    print(f"bfcg benchmark seed={args.seed} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in machine.summary().items()))
    results = []
    try:
        for name in names:
            m = (measure_traced(name, args.seed) if args.trace
                 else measure(name, args.seed, args.seconds))
            _print_measured(m, bool(args.trace))
            results.append(m)
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    if len(results) == 1:
        metrics = {k: {"value": v, "unit": results[0].units[k]}
                   for k, v in results[0].metrics.items()}
    else:
        metrics = {f"{m.workload}/{k}": {"value": v, "unit": m.units[k]}
                   for m in results for k, v in m.metrics.items()}
    print(json.dumps({
        "correct": not any(m.problems for m in results),
        "attempted": sum(len(m.verdicts) for m in results),
        "failed": sum(len(m.failed) for m in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
