"""Chaos engineering for the serving fabric: scripted faults, checked invariants.

The package turns the fabric's resilience claims into an executable
contract.  :mod:`repro.chaos.schedule` scripts seeded fault sequences
(worker kill/wedge/slowdown, channel death, bit flips, pipe-payload
corruption) at simulated instants; :mod:`repro.chaos.harness` replays
them against a live :class:`~repro.stack.fabric.PimFabric` alongside a
fault-free baseline; :mod:`repro.chaos.invariants` checks what must
survive: exactly one terminal outcome per request, bit-exactness against
the host golden path, a valid merged trace, ring capacity restored by
respawn, and bounded degradation (post-recovery throughput within 20% of
fault-free, p99 turnaround below 2x fault-free).

``python -m repro chaos --seed 7`` is the CLI front end; it runs the
scenario once and prints its report.  Two runs of one seed report the
same profiles and span trees — the determinism property everything else
in this repository is built on.
"""

from .harness import ChaosReport, run_chaos
from .invariants import (
    check_bit_exactness,
    check_capacity,
    check_conservation,
    check_degradation,
    check_dropped_spans,
    check_trace,
    golden_reference,
)
from .schedule import KINDS, ChaosEvent, ChaosSchedule

__all__ = [
    "ChaosEvent",
    "ChaosReport",
    "ChaosSchedule",
    "KINDS",
    "check_bit_exactness",
    "check_capacity",
    "check_conservation",
    "check_degradation",
    "check_dropped_spans",
    "check_trace",
    "golden_reference",
    "run_chaos",
]
