"""Run one workload in this fresh process and write its result as JSON.

    python3 perfbench/worker.py --workload NAME --inputs FILE --result FILE
                                [--setup-only] [--spans FILE]

The result holds the monotonic clock at "ready" (so the launching process
can take the set-up time), the wall and CPU seconds from "ready" to the
last verdict, this process's own peak RSS, the verdicts and the output
that traced and untraced runs must agree on.  With --spans the bfcg layers
are traced: per-layer metrics go into the result and the spans into FILE.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)

    tracer = None
    if args.spans:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    state = workload.setup(inputs)
    ready = time.monotonic()
    cpu_ready = time.process_time()
    result = {"ready": ready}
    if not args.setup_only:
        outcome = workload.run(state, inputs)
        end = time.monotonic()
        cpu_end = time.process_time()
        import bfcg
        if Path(bfcg.__file__).resolve().parent != SRC / "bfcg":
            outcome.problems.append(f"bfcg imported from {bfcg.__file__}")
        result.update(
            verdict_s=end - ready,
            verdict_cpu_s=cpu_end - cpu_ready,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            verdicts=outcome.verdicts,
            problems=outcome.problems,
            output=outcome.output,
        )
        if tracer is not None:
            tracing.write_spans(tracer, args.spans)
            result["layers"] = tracing.aggregate(tracer)
            result["per_call"] = [list(key) + [calls] for key, calls
                                  in tracing.per_call(tracer).items()]
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
