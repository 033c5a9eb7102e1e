"""Seeded, scripted chaos schedules for the serving fabric.

A :class:`ChaosSchedule` is the deterministic fault script the chaos
harness (:mod:`repro.chaos.harness`) replays against a
:class:`~repro.stack.fabric.PimFabric`: a sequence of
:class:`ChaosEvent` instants on the *simulated* arrival clock, each
naming a fault kind, a target shard, and a parameter.  Two schedules
generated from the same seed are equal, and — because every fault the
events trigger is itself seeded (see :mod:`repro.faults`) — two harness
runs of the same schedule produce identical serving profiles and span
trees, which is what lets the ``python -m repro chaos`` gate assert
byte-identical replay.

The eight fault kinds cover the failure tiers the fabric defends:

========================  =====================================================
kind                      what the harness does at the event's wave
========================  =====================================================
``kill``                  SIGKILL the shard's worker *after* dispatch, its
                          serve stalled so the kill lands before any reply
                          (the most adversarial instant: work in flight)
``kill_router``           kill the *router itself* with the wave accepted but
                          unserved — the journal (:mod:`repro.journal`) is the
                          only survivor, and ``recover()`` must turn it back
                          into one bit-exact terminal outcome per request
``wedge``                 stall the worker far past the heartbeat/watchdog
                          bounds — detected, killed, quarantined, respawned
``slow``                  stall the worker short of the watchdog — the
                          router waits it out
``fail_channel``          hard-fail one pseudo-channel of the shard's device
                          replica (the in-worker server quarantines it)
``bit_flips``             flip N stored data bits on the replica (SEC-DED
                          corrects or the server falls back, still bit-exact)
``corrupt_pipe``          corrupt the worker's next reply payload in transit
                          — the router's CRC32 check catches it and replays
``corrupt_shm``           corrupt a shared-memory result frame *after* the
                          reply was checksummed — only the router's
                          per-descriptor CRC32 can catch it (degrades to
                          ``corrupt_pipe`` behaviour under the pipe transport)
========================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["ChaosEvent", "ChaosSchedule", "KINDS"]

#: Every fault kind a schedule may script, in canonical order.
KINDS: Tuple[str, ...] = (
    "kill",
    "kill_router",
    "wedge",
    "slow",
    "fail_channel",
    "bit_flips",
    "corrupt_pipe",
    "corrupt_shm",
)


@dataclass(frozen=True)
class ChaosEvent:
    """One scripted fault at one simulated instant.

    ``at_ns`` places the event on the workload's arrival clock; the
    harness fires it immediately before serving the request wave whose
    arrival window contains it.  ``param`` is kind-specific: the channel
    index for ``fail_channel``, the flip count for ``bit_flips``, 0
    otherwise.
    """

    at_ns: float
    kind: str
    shard: int
    param: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; expected one of {KINDS}"
            )


@dataclass(frozen=True)
class ChaosSchedule:
    """An immutable, seeded script of chaos events.

    Build one with :meth:`generate` (the seeded path the CLI and tests
    use) or directly from events (hand-scripted scenarios).  Events are
    kept in ``at_ns`` order.
    """

    seed: int
    events: Tuple[ChaosEvent, ...]

    @classmethod
    def generate(
        cls,
        seed: int,
        workers: int,
        kinds: Tuple[str, ...] = KINDS,
        wave_ns: float = 50_000.0,
        num_pchs: int = 2,
    ) -> "ChaosSchedule":
        """A seeded schedule guaranteed to cover every kind in ``kinds``.

        One event per kind, each in its own wave window (so faults do
        not mask one another), kind order and shard targets shuffled by
        the seed; shards are assigned round-robin over a shuffled slot
        list so the latency kinds (kill/wedge/slow) land on distinct
        shards whenever ``workers`` allows.  The first wave window is
        always left fault-free: it warms every shard's replica.
        """
        for kind in kinds:
            if kind not in KINDS:
                raise ValueError(f"unknown chaos kind {kind!r}")
        rng = np.random.default_rng(seed)
        order = list(kinds)
        rng.shuffle(order)
        shards = list(range(int(workers)))
        rng.shuffle(shards)
        events: List[ChaosEvent] = []
        for i, kind in enumerate(order):
            shard = shards[i % len(shards)]
            if kind == "fail_channel":
                param = int(rng.integers(0, num_pchs))
            elif kind == "bit_flips":
                param = int(rng.integers(1, 3))
            else:
                param = 0
            events.append(
                ChaosEvent(
                    at_ns=float((i + 1) * wave_ns),
                    kind=kind,
                    shard=shard,
                    param=param,
                )
            )
        return cls(seed=int(seed), events=tuple(events))

    def by_wave(self, wave_ns: float) -> Dict[int, List[ChaosEvent]]:
        """Events grouped by the arrival-wave window containing them."""
        waves: Dict[int, List[ChaosEvent]] = {}
        for event in self.events:
            waves.setdefault(int(event.at_ns // wave_ns), []).append(event)
        return waves

    def kinds(self) -> Tuple[str, ...]:
        """The distinct fault kinds this schedule scripts, canonical order."""
        present = {event.kind for event in self.events}
        return tuple(kind for kind in KINDS if kind in present)
