"""``--compare A.json B.json``: apply BENCHMARK.json's bounds to two runs.

One row per (workload, end-to-end metric), one row group per workload,
every ratio printed with its base.  Verdicts:

* ``better`` / ``worse`` — B moved past the metric's bound in the good /
  bad direction;
* ``within`` — B is inside the bound either way;
* ``unresolved`` — either run flagged the workload ``disturbed`` (too few
  clean waves), or the metric is missing: not the same as unchanged.

Simulated statistics must not move at all: when both documents ran the
same seed, any difference in a simulated metric or in the workload's
simulated-statistics digest is ``worse`` whatever the bound says.
"""

from __future__ import annotations

import json
from typing import Dict, List

from . import ROOT

__all__ = ["compare_documents", "verdict"]

#: End-to-end metrics on the simulated clock (exact under one seed).
SIMULATED = ("sim_rps", "sim_p95_turnaround_us")
#: End-to-end metrics on the wall clock (what a disturbed run blurs).
WALL = ("wall_rps", "wave_ms_p50", "wave_ms_p75", "sim_khz", "setup_s")


def verdict(base: float, new: float, better: str, bound: float) -> str:
    """Where ``new`` stands against ``base`` for one bounded metric."""
    if base == 0:
        return "unresolved"
    change = (new - base) / base
    if better == "lower":
        change = -change  # positive change now always means improvement
    if change < -bound:
        return "worse"
    if change > bound:
        return "better"
    return "within"


def _load(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def compare_documents(path_a: str, path_b: str) -> int:
    """Print the comparison; returns 1 when any row is ``worse``."""
    declared = _load(ROOT / "BENCHMARK.json")
    a, b = _load(path_a), _load(path_b)
    same_seed = a.get("seed") == b.get("seed")
    counts = {"better": 0, "within": 0, "worse": 0, "unresolved": 0}
    lines: List[str] = [
        f"base A: {path_a} (seed {a.get('seed')})   "
        f"new B: {path_b} (seed {b.get('seed')})"
    ]
    for document, path in ((a, path_a), (b, path_b)):
        if document.get("quick") or document.get("traced"):
            lines.append(
                f"note: {path} is a quick or traced run; its wall numbers "
                f"are not comparable"
            )
    for workload in (w["name"] for w in declared["workloads"]):
        rec_a = a["workloads"].get(workload)
        rec_b = b["workloads"].get(workload)
        lines.append(f"{workload}:")
        if rec_a is None or rec_b is None:
            lines.append("  unresolved  (workload missing from one document)")
            counts["unresolved"] += len(declared["end_to_end"])
            continue
        disturbed = rec_a.get("disturbed") or rec_b.get("disturbed")
        digest_moved = same_seed and rec_a.get("sim_digest") != rec_b.get("sim_digest")
        if digest_moved:
            lines.append(
                f"  worse       simulated statistics moved under one seed "
                f"({rec_a.get('sim_digest')} -> {rec_b.get('sim_digest')})"
            )
            counts["worse"] += 1
        for metric in declared["end_to_end"]:
            name = metric["name"]
            got_a = rec_a["metrics"].get(name)
            got_b = rec_b["metrics"].get(name)
            if got_a is None or got_b is None:
                row = "unresolved"
                detail = "(metric missing from one document)"
            else:
                base, new = got_a["value"], got_b["value"]
                row = verdict(base, new, metric["better"], metric["bound"])
                if name in SIMULATED and same_seed:
                    row = "within" if new == base else "worse"
                elif disturbed and name in WALL:
                    row = "unresolved"
                detail = (
                    f"{new:.6g} / {base:.6g} = {new / base:.4f}x {got_a['unit']}"
                    if base else f"{new:.6g} / {base:.6g} {got_a['unit']}"
                )
            counts[row] += 1
            lines.append(
                f"  {row:11s} {name:24s} {detail}  "
                f"[{metric['better']} is better, bound {metric['bound']:.0%}]"
            )
    lines.append(
        "summary: " + ", ".join(f"{count} {name}" for name, count in counts.items())
    )
    print("\n".join(lines))
    return 1 if counts["worse"] else 0
