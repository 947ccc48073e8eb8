"""Per-call seconds at n = 32 from the single-run baseline in ROADMAP.md.

Field layers ran on the 4D lattice, canonical layers on the 3D one; each
value is one run of one call in the re-anchor's own process (about +-15 %
noise).  `compare` prints the traced run's per-call times beside them.
"""

from __future__ import annotations

from statistics import median

N = 32
MODULES = {(3, 3): "su2", (6, 4): "poincare"}

# (row label, span id, extra tag, lattice dimension, su2 s, poincare s)
ROWS = (
    ("ConfigRecipe.realize", "lattice.ConfigRecipe.realize", None, 4, "4.6", "6.4"),
    ("curvature_F", "curvature.curvature_F", None, 4, "0.77", "3.5"),
    ("evaluate_action", "curvature.evaluate_action", None, 4, "3.2", "9.6"),
    ("bianchi_residuals", "curvature.bianchi_residuals", None, 4, "10.5", "38-44"),
    ("eom_residuals", "curvature.eom_residuals", None, 4, "5.8", "18.1"),
    ("thin_gauge_transform", "gauge.thin_gauge_transform", None, 4, "7.6", "15.9"),
    ("fat_gauge_transform", "gauge.fat_gauge_transform", None, 4, "1.9", "5.5"),
    ("relation check fc1", "relations.check_algebra_relation", "fc1", 3, "0.14", "0.23"),
    ("H_T gradient", "localpoly.gradient", "H_T", 3, "0.20", "0.44"),
    ("consistency_residuals", "relations.consistency_residuals", None, 3, "2.7", "5.3"),
    ("offshell_relations", "relations.offshell_relations", None, 3, "0.21", "0.75"),
)


def compare(per_call) -> list:
    """Lines for every baseline row this run called at n = 32.

    per_call holds [span id, p, q, D, n, extra, [[self_s, total_s], ...]].
    """
    calls = {tuple(row[:6]): row[6] for row in per_call}
    lines = []
    for label, fid, extra, D, *ref in ROWS:
        for (p, q), module in MODULES.items():
            times = calls.get((fid, p, q, D, N, extra))
            if not times:
                continue
            base = ref[0] if module == "su2" else ref[1]
            lines.append(
                f"  {label:<22} {module:<8} {D}D n={N} calls={len(times):<3} "
                f"self/call={median(t[0] for t in times):.4f} s "
                f"total/call={median(t[1] for t in times):.4f} s "
                f"baseline={base} s")
    return lines
