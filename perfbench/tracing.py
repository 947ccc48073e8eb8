"""Span tracing of bfcg's public functions, installed from outside the package.

`install()` replaces each function in `SPANNED` by a wrapper that records one
span per call: function id, start, end, parent span and the process
high-water RSS before and after.  A function is replaced wherever callers
look it up: in the module globals of every loaded `bfcg` module (modules
that did `from .x import f` hold their own reference) and in dict values of
those globals (such as the CLI's dispatch table).  Methods are replaced on
their class.  Spans stay in memory until `write_spans` is called.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
import weakref
from collections import defaultdict

# layer (bfcg module) -> spanned public functions; "Class.method" for methods
SPANNED = {
    "crossed_module": ("load_crossed_module", "validate_crossed_module"),
    "lattice": ("FieldRecipe.realize", "discrete_derivative", "fit_order"),
    "curvature": ("curvature_F", "evaluate_action", "bianchi_residuals",
                  "eom_residuals", "eom_gradient_check"),
    "gauge": ("thin_gauge_transform", "fat_gauge_transform", "expm_batched"),
    "localpoly": ("LocalFunctional.gradient", "poisson_bracket",
                  "evaluate_density", "smear"),
    "constraints": ("constraint_density", "gauge_fixed_density",
                    "total_hamiltonian_functional", "regrouping_residual"),
    "phase": ("PhaseRecipe.realize_with",),
    "relations": ("check_algebra_relation", "fundamental_bracket_residuals",
                  "consistency_residuals", "offshell_relations",
                  "reduction_residual"),
    "dof": ("dof_count",),
    "cli": ("main", "check_validate", "check_curvature", "check_bianchi",
            "check_gauge", "check_eom", "check_algebra", "check_consistency",
            "check_offshell", "check_dof"),
}

# spanned only for the baseline comparison; no per-layer metric of its own
EXTRA_SPANNED = {"lattice": ("ConfigRecipe.realize",)}

STATS = (("calls", "count"), ("self_s", "s"), ("rss_rise_mb", "MB"))

# exact work counts recorded at the span boundaries
COUNTS = (
    ("lattice.realize.sites", "count"),
    ("lattice.realize.bytes", "B"),
    ("localpoly.gradient.entries", "count"),
    ("constraints.constraint_density.builds", "count"),
)

OVERHEAD = (("trace.overhead_s", "s"), ("trace.spans", "count"))

# spans whose (p, q, D, n) tag feeds the baseline comparison
TAGGED = {
    "lattice.ConfigRecipe.realize", "curvature.curvature_F",
    "curvature.evaluate_action", "curvature.bianchi_residuals",
    "curvature.eom_residuals", "gauge.thin_gauge_transform",
    "gauge.fat_gauge_transform", "relations.check_algebra_relation",
    "localpoly.gradient", "relations.consistency_residuals",
    "relations.offshell_relations",
}


def span_id(layer: str, qualname: str) -> str:
    return f"{layer}.{qualname.rsplit('.', 1)[-1]}"


def _all_spanned():
    """(layer, qualname, span id) of every wrapped function."""
    for layer, names in SPANNED.items():
        for qualname in names:
            yield layer, qualname, span_id(layer, qualname)
    for layer, names in EXTRA_SPANNED.items():
        for qualname in names:
            yield layer, qualname, f"{layer}.{qualname}"


def metric_units() -> dict:
    """Every per-layer metric name -> unit, in a fixed order."""
    out = {}
    for layer, names in SPANNED.items():
        for qualname in names:
            for stat, unit in STATS:
                out[f"{span_id(layer, qualname)}.{stat}"] = unit
    out.update(COUNTS)
    out.update(OVERHEAD)
    return out


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _lattice_of(obj):
    lat = getattr(obj, "lattice", None)
    if lat is not None:
        return lat
    if hasattr(obj, "D") and hasattr(obj, "n") and hasattr(obj, "a"):
        return obj
    return None


class Tracer:
    def __init__(self):
        # span: [fid, start, end, parent, rss_kb_before, rss_kb_after, tag]
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self._families_seen = {}
        self._ht_functionals = weakref.WeakKeyDictionary()

    # -- counters and tags -------------------------------------------------

    def _tag(self, fid, args):
        """(p, q, D, n, extra) of the call, for the baseline comparison."""
        p = q = D = n = None
        extra = None
        for obj in args:
            if fid == "localpoly.gradient" and obj is args[0]:
                pq = self._ht_functionals.get(obj)
                if pq is None:
                    return None
                p, q = pq
                extra = "H_T"
            elif hasattr(obj, "p") and hasattr(obj, "q") and p is None:
                p, q = obj.p, obj.q
            lat = _lattice_of(obj)
            if lat is not None and n is None:
                D, n = lat.D, lat.n
        if fid == "relations.check_algebra_relation" and len(args) > 1:
            extra = args[1]
        return (p, q, D, n, extra)

    def _count(self, fid, args, result):
        if fid == "lattice.realize":
            self.counts["lattice.realize.sites"] += int(args[1].sites)
            self.counts["lattice.realize.bytes"] += int(result.nbytes)
        elif fid == "localpoly.gradient":
            self.counts["localpoly.gradient.entries"] += len(args[0].entries)
        elif fid == "constraints.total_hamiltonian_functional":
            self._ht_functionals[result] = (args[0].p, args[0].q)

    def _count_build(self, cm, name):
        """First constraint_density call per (module object, family)."""
        key = id(cm)
        seen = self._families_seen.get(key)
        if seen is None:
            seen = self._families_seen[key] = set()
            weakref.finalize(cm, self._families_seen.pop, key, None)
        if name not in seen:
            seen.add(name)
            self.counts["constraints.constraint_density.builds"] += 1

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fid, fn):
        spans, stack = self.spans, self._stack
        tagged = fid in TAGGED
        is_density = fid == "constraints.constraint_density"
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_density:
                self._count_build(*args[:2])
            rec = [fid, 0.0, 0.0, stack[-1] if stack else -1, _maxrss_kb(), 0,
                   self._tag(fid, args) if tagged else None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                rec[5] = _maxrss_kb()
                stack.pop()
            self._count(fid, args, result)
            return result

        return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every spanned function wherever bfcg's modules look it up."""
    mods = {name: importlib.import_module(f"bfcg.{name}") for name in SPANNED}
    bfcg_modules = [m for name, m in sys.modules.items()
                    if name == "bfcg" or name.startswith("bfcg.")]
    for layer, qualname, fid in _all_spanned():
        owner = mods[layer]
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, tracer.wrap(fid, getattr(cls, meth)))
            continue
        original = getattr(owner, qualname)
        wrapper = tracer.wrap(fid, original)
        for mod in bfcg_modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            value[k] = wrapper


def _durations(spans) -> list:
    """(self, total) seconds of every span; self excludes child spans."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [(rec[2] - rec[1] - c, rec[2] - rec[1]) for rec, c in zip(spans, child)]


def aggregate(tracer: Tracer) -> dict:
    """Per-layer metrics from the recorded spans, except trace.overhead_s."""
    out = {name: 0.0 if unit in ("s", "MB") else 0
           for name, unit in metric_units().items()
           if name != "trace.overhead_s"}
    for rec, (self_s, _) in zip(tracer.spans, _durations(tracer.spans)):
        fid = rec[0]
        if f"{fid}.calls" not in out:
            continue
        out[f"{fid}.calls"] += 1
        out[f"{fid}.self_s"] += self_s
        out[f"{fid}.rss_rise_mb"] += (rec[5] - rec[4]) / 1024.0
    out.update(tracer.counts)
    out["trace.spans"] = len(tracer.spans)
    return out


def per_call(tracer: Tracer) -> dict:
    """(fid, p, q, D, n, extra) -> [(self_s, total_s), ...] of tagged spans."""
    out = defaultdict(list)
    for rec, times in zip(tracer.spans, _durations(tracer.spans)):
        if rec[6] is not None:
            out[(rec[0],) + tuple(rec[6])].append(times)
    return out


def write_spans(tracer: Tracer, path) -> None:
    """One JSON line per span: id, name, start, end, parent, RSS before/after."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, rec in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": rec[0], "start": rec[1],
                                 "end": rec[2], "parent": rec[3],
                                 "rss_kb": [rec[4], rec[5]]}) + "\n")
