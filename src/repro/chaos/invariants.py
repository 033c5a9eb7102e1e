"""The invariant checker of the chaos harness.

Every check returns a list of human-readable violation strings (empty =
the invariant holds), which the harness aggregates into
:attr:`~repro.chaos.harness.ChaosReport.violations`.  The invariants are
the fabric's contract under fault:

* **conservation** — every submitted request ends in exactly one
  terminal outcome, appearing exactly once in the merged profile:
  nothing lost off a dead shard, nothing double-served by a replay.
* **bit-exactness** — every completed result equals the host golden
  reference (shards replicate the device, so *which* shard served — or
  whether the host finished the job — must not change a single bit).
* **trace validity** — the merged multi-shard trace still passes
  :func:`~repro.obs.export.validate_chrome_trace`, and work that was
  dropped (shed/expired) produced zero device spans.
* **capacity recovery** — after the schedule has played out, every
  shard slot is serving again (respawned workers rejoined the ring).
* **degradation bounds** — post-recovery simulated throughput within
  20% of the fault-free baseline, and chaos p99 turnaround below 2x the
  fault-free p99.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..obs.export import chrome_trace, validate_chrome_trace
from ..stack.arithmetic import golden_reference
from ..stack.profiler import ServingProfile, _percentile

__all__ = [
    "check_bit_exactness",
    "check_capacity",
    "check_conservation",
    "check_degradation",
    "check_dropped_spans",
    "check_trace",
    "golden_reference",
]

#: Outcomes that return a bit-exact result to the caller.
_SERVED = ("completed", "degraded_host")
#: Outcomes for work that never ran on the device.
_DROPPED = ("rejected", "expired")


def check_conservation(handles, profile: ServingProfile) -> List[str]:
    """Exactly one terminal outcome per submitted request.

    Cross-checks the caller-visible handles against the merged profile:
    every handle must be terminal, and its request id must appear in the
    profile's per-request stats exactly once — a dead shard or a
    replay must neither drop a request nor serve it twice.
    """
    violations = []
    for handle in handles:
        if handle.outcome is None:
            violations.append(
                f"request {handle.request_id} has no terminal outcome"
            )
    seen: Dict[int, int] = {}
    for stats in profile.requests:
        seen[stats.request_id] = seen.get(stats.request_id, 0) + 1
    submitted = {handle.request_id for handle in handles}
    for rid, count in sorted(seen.items()):
        if count != 1:
            violations.append(
                f"request {rid} recorded {count} times in the profile"
            )
        if rid not in submitted:
            violations.append(
                f"profile records request {rid} that was never submitted"
            )
    for rid in sorted(submitted - set(seen)):
        violations.append(f"request {rid} missing from the profile")
    return violations


def check_bit_exactness(handles, num_pchs: int) -> List[str]:
    """Every served result equals the host golden reference, bit for bit."""
    violations = []
    for handle in handles:
        if handle.outcome in _DROPPED:
            if handle.result is not None:
                violations.append(
                    f"dropped request {handle.request_id} carries a result"
                )
            continue
        if handle.result is None:
            violations.append(
                f"request {handle.request_id} ({handle.outcome}) has no result"
            )
            continue
        golden = golden_reference(handle.request, num_pchs)
        if not np.array_equal(handle.result, golden):
            violations.append(
                f"request {handle.request_id} result diverges from the host "
                f"golden path (served by shard {handle.shard})"
            )
    return violations


def check_trace(tracer) -> List[str]:
    """The merged multi-shard trace passes the Chrome-trace validator."""
    if tracer is None:
        return []
    return [
        f"merged trace invalid: {problem}"
        for problem in validate_chrome_trace(chrome_trace(tracer))
    ]


def check_dropped_spans(tracer, profile: ServingProfile) -> List[str]:
    """Dropped (shed/expired) work must have produced zero device spans."""
    if tracer is None:
        return []
    dropped = {
        stats.request_id
        for stats in profile.requests
        if stats.outcome in _DROPPED
    }
    if not dropped:
        return []
    violations = []
    for span in tracer.spans:
        rid = span.attrs.get("request_id")
        if rid in dropped and span.category in ("kernel", "device", "channel"):
            violations.append(
                f"dropped request {rid} produced device span {span.name!r}"
            )
    return violations


def check_capacity(alive_shards: List[int], workers: int) -> List[str]:
    """Every shard slot is serving again once the schedule has played out."""
    missing = sorted(set(range(workers)) - set(alive_shards))
    if missing:
        return [
            f"capacity not recovered: shards {missing} never rejoined the "
            f"ring ({len(alive_shards)}/{workers} serving)"
        ]
    return []


def check_degradation(
    profile: ServingProfile,
    baseline: ServingProfile,
    recovery_rps: float,
    baseline_recovery_rps: float,
) -> List[str]:
    """Post-recovery throughput and tail-latency bounds versus fault-free.

    Both sides are *simulated* quantities, so the gates are deterministic:
    recovery-wave throughput must be within 20% of the fault-free run of
    the same wave, and the chaos session's p99 turnaround must stay below
    2x the fault-free p99.
    """
    violations = []
    if baseline_recovery_rps > 0 and recovery_rps < 0.8 * baseline_recovery_rps:
        violations.append(
            f"post-recovery throughput {recovery_rps:,.0f} req/s fell more "
            f"than 20% below the fault-free {baseline_recovery_rps:,.0f} req/s"
        )
    chaos_p99 = _percentile(
        [r.turnaround_ns for r in profile.requests if r.outcome in _SERVED],
        0.99,
    )
    base_p99 = _percentile(
        [r.turnaround_ns for r in baseline.requests if r.outcome in _SERVED],
        0.99,
    )
    if base_p99 > 0 and chaos_p99 > 2.0 * base_p99:
        violations.append(
            f"chaos p99 turnaround {chaos_p99 / 1000:.1f}us exceeds 2x the "
            f"fault-free p99 {base_p99 / 1000:.1f}us"
        )
    return violations
