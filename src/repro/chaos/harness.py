"""Chaos orchestration: replay a fault script against a live fabric.

:func:`run_chaos` is the engine behind ``python -m repro chaos``.  It
serves one seeded request workload twice — once fault-free (the
baseline) and once with a :class:`~repro.chaos.schedule.ChaosSchedule`
playing out against the fabric — and checks the fabric's contract with
the invariant suite (:mod:`repro.chaos.invariants`): outcome
conservation, bit-exactness against the host golden path, merged-trace
validity, ring-capacity recovery, and the degradation gates
(post-recovery throughput within 20% of fault-free, p99 turnaround
below 2x fault-free).

The workload is served in *waves* — one fabric ``run()`` per arrival
window — because that is where the lifecycle manager does its work:
between waves the router heartbeats, respawns quarantined slots, and
rejoins them to the ring, so a schedule's kill in wave 2 is healed
capacity by wave 3.  The wave after the last scripted event is the
*recovery wave*: it runs on the healed fleet and supplies the
post-recovery throughput the 20% gate compares against the fault-free
baseline.

Everything is seeded and the faults are scripted with wide margins
relative to the harness's wall-clock bounds, so two runs of the same
seed produce identical profiles and span trees — the replay-determinism
property, in one process or in two.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..journal import recover
from ..stack.api import Request, ServerConfig
from ..stack.fabric import PimFabric
from ..stack.profiler import ServingProfile
from ..stack.runtime import SystemConfig
from .invariants import (
    check_bit_exactness,
    check_capacity,
    check_conservation,
    check_degradation,
    check_dropped_spans,
    check_trace,
)
from .schedule import ChaosSchedule, KINDS

__all__ = ["ChaosReport", "arm_kill", "run_chaos"]

#: Arrival width of one request wave on the simulated clock.
WAVE_NS = 50_000.0
#: Scripted straggler stall: a stall short of the watchdog; the router
#: waits it out, and the worker survives with its group.
SLOW_DELAY_S = 1.5
#: Scripted wedge stall: past every liveness bound, so the worker is
#: detected (watchdog or heartbeat), killed, quarantined, and respawned.
WEDGE_DELAY_S = 8.0


def _chaos_server_config(seed: int, transport: str = "pipe") -> ServerConfig:
    """The serving and resilience knobs the harness runs under.

    Wall-clock bounds are compressed from the production defaults so a
    scripted wedge is detected in seconds, with wide margins between the
    tiers: a ``slow`` stall (1.5s) is short of the 3s watchdog, so the
    router waits it out, and a ``wedge`` stall (8s) overruns every
    bound.  The respawn budget is effectively unbounded — the
    harness is testing that healing *works*, not rationing it.

    ``transport`` picks the fabric payload path under test; results,
    profiles, and span trees are bit-exact across transports, so a
    schedule's report under ``"shm"`` must match its ``"pipe"`` twin.
    Under ``"shm"`` the inline threshold is forced to 0 so the harness's
    deliberately tiny tensors still cross as CRC-guarded descriptors —
    otherwise the ``corrupt_shm`` kind would never find a frame to
    strike.
    """
    return ServerConfig(
        seed=seed,
        scrub_interval=4,
        reply_timeout_s=3.0,
        heartbeat_timeout_s=3.0,
        close_timeout_s=5.0,
        join_timeout_s=10.0,
        max_respawns=16,
        transport=transport,
        shm_inline_bytes=0,
    )


@dataclass
class ChaosReport:
    """Everything one chaos scenario produced, gates included.

    ``violations`` is the aggregated invariant-checker output (empty
    means the fabric's contract held); the remaining fields are the
    evidence: merged chaos and baseline profiles, the tracers (for span
    -tree replay comparison), per-kind applied-event log, respawn and
    replay counters, where the requests were served (``placement``: the
    serving shard of each request in submission order, -1 the router's
    host golden path), and the simulated throughput/latency numbers
    behind the degradation gates.
    """

    seed: int
    workers: int
    requests: int
    schedule: ChaosSchedule
    profile: ServingProfile
    baseline_profile: ServingProfile
    tracer: object
    baseline_tracer: object
    applied: List[str] = field(default_factory=list)
    violations: List[str] = field(default_factory=list)
    alive_after: List[int] = field(default_factory=list)
    respawns: Dict[int, int] = field(default_factory=dict)
    placement: List[int] = field(default_factory=list)
    recovery_rps: float = 0.0
    baseline_recovery_rps: float = 0.0

    @property
    def ok(self) -> bool:
        """Whether every invariant and gate held."""
        return not self.violations

    def render(self) -> List[str]:
        """A text summary of the scenario, gates last."""
        profile = self.profile
        lines = [
            f"chaos scenario        : seed={self.seed} workers={self.workers} "
            f"requests={self.requests}",
            f"scripted events       : "
            + (", ".join(self.applied) if self.applied else "none"),
            f"quarantined shards    : "
            + (
                ",".join(str(s) for s in sorted(set(profile.quarantined_shards)))
                or "-"
            ),
            f"respawns (slot x n)   : "
            + (
                ",".join(f"{s}x{n}" for s, n in sorted(self.respawns.items()))
                or "-"
            ),
            f"replays               : {profile.replays}",
            f"recovery throughput   : {self.recovery_rps:,.0f} req/s "
            f"(fault-free {self.baseline_recovery_rps:,.0f})",
            f"alive shards after    : {len(self.alive_after)}/{self.workers}",
            f"served per shard      : "
            + (
                " ".join(
                    f"{s}:{n}" for s, n in sorted(Counter(self.placement).items())
                )
                or "-"
            ),
            f"shard per request     : "
            + (" ".join(str(s) for s in self.placement) or "-"),
            f"shard cost (col cmds) : "
            + (
                " ".join(
                    f"{s}:{c:,d}" for s, c in sorted(profile.shard_cost.items())
                )
                or "-"
            ),
        ]
        if self.violations:
            lines.append("violations:")
            lines.extend(f"  - {violation}" for violation in self.violations)
        else:
            lines.append("violations            : none")
        return lines


def _wave_requests(
    seed: int, wave: int, count: int, distinct: int
) -> List[Request]:
    """One wave's seeded GEMV stream, arrivals inside the wave's window."""
    rng = np.random.default_rng(seed * 7919 + wave)
    weights = [
        (rng.standard_normal((16, 8)) * 0.25).astype(np.float16)
        for _ in range(distinct)
    ]
    offsets = np.sort(rng.uniform(0.0, WAVE_NS * 0.8, size=count))
    return [
        Request(
            "gemv",
            weights=weights[i % distinct],
            a=(rng.standard_normal(8) * 0.25).astype(np.float16),
            arrival_ns=float(wave * WAVE_NS + offsets[i]),
            trace_id=f"chaos-w{wave}-r{i}",
        )
        for i in range(count)
    ]


def arm_kill(fabric: PimFabric, shard: int, seed: int = 0) -> None:
    """SIGKILL ``shard``'s worker right after the next dispatch, with its
    round in flight.

    Its next serve is stalled past the watchdog first: a worker fast
    enough to reply before the post-dispatch hook runs would otherwise be
    served, not replayed, and the run would depend on timing.  The
    SIGKILL cuts the stall short, so it costs no wall time.
    """
    fabric.inject_worker_fault(
        shard, {"seed": seed, "delay_s": WEDGE_DELAY_S, "wedge": True}
    )

    def hook(fab):
        if shard in fab.alive_shards():
            fab.kill_worker(shard)
        fab._post_dispatch_hook = None

    fabric._post_dispatch_hook = hook


def _arm_event(fabric: PimFabric, event, seed: int) -> str:
    """Fire one scripted event against the fabric, pre-wave.

    ``kill`` stalls the victim's next serve and arms a post-dispatch
    hook (the worker dies with the wave genuinely in flight, every run);
    the rest arm in-worker faults through the ``("chaos", spec)``
    control message.  A target that is dead and out
    of respawn budget is retargeted to the lowest alive shard so the
    schedule never fizzles.  Returns a log line for the report.
    """
    shard = event.shard
    if shard not in fabric.alive_shards():
        fabric._heal()
        if shard not in fabric.alive_shards():
            alive = fabric.alive_shards()
            if not alive:
                return f"{event.kind}@skipped (no alive shard)"
            shard = alive[0]
    if event.kind == "kill":
        arm_kill(fabric, shard, seed)
        return f"kill@shard{shard}"
    spec: Dict[str, object] = {"seed": seed}
    if event.kind == "wedge":
        spec.update(delay_s=WEDGE_DELAY_S, wedge=True)
    elif event.kind == "slow":
        spec.update(delay_s=SLOW_DELAY_S)
    elif event.kind == "fail_channel":
        spec.update(fail_channel=int(event.param))
    elif event.kind == "bit_flips":
        spec.update(bit_flips=max(1, int(event.param)))
    elif event.kind == "corrupt_shm":
        # Strikes a shared-memory result frame post-checksum under
        # transport="shm"; the worker degrades it to reply-blob
        # corruption under "pipe", so schedules stay transport-portable.
        spec.update(corrupt_shm=True)
    else:  # corrupt_pipe: schedule validated the kind set already
        spec.update(corrupt_reply=True)
    fabric.inject_worker_fault(shard, spec)
    return f"{event.kind}@shard{shard}"


def _crash_and_recover(
    fabric: PimFabric,
    config: SystemConfig,
    server_config: ServerConfig,
    workers: int,
    wave_handles: List,
) -> Tuple[PimFabric, ServingProfile, List]:
    """Kill the router with ``wave_handles`` accepted but unserved.

    Emulates a router SIGKILL at the most adversarial instant the
    journal defends: the wave is admitted (accepted records on disk) but
    ``run()`` never happened, so no outcome records exist.  Every worker
    is killed, the fabric is abandoned, and
    :func:`repro.journal.recover` replays the journal through a fresh
    fabric that shares the dead router's tracer.  Returns the
    replacement fabric (rid counter continued past the journaled rids so
    later waves never collide), the replay-session profile, and the
    recovered handles that stand in for ``wave_handles``.
    """
    tracer = fabric.tracer
    journal_dir = fabric.server_config.journal_dir
    for shard in fabric.alive_shards():
        fabric.kill_worker(shard)
    fabric.close()
    report = recover(
        journal_dir,
        config=config,
        server_config=server_config,
        workers=workers,
        tracer=tracer,
    )
    wanted = {h.request.trace_id for h in wave_handles}
    recovered = [h for h in report.handles if h.request.trace_id in wanted]
    successor = PimFabric(
        config, workers=workers, server_config=server_config, tracer=tracer
    )
    successor._next_rid = (
        max((h.request_id for h in report.handles), default=-1) + 1
    )
    return successor, report.replay_profile, recovered


def _execute(
    seed: int,
    workers: int,
    num_waves: int,
    per_wave: int,
    by_wave: Dict[int, List],
    config: SystemConfig,
    server_config: ServerConfig,
    journal_dir: Optional[str] = None,
) -> Tuple:
    """Serve every wave on one fabric; returns the session's evidence.

    ``by_wave`` empty runs the fault-free baseline; otherwise each
    wave's scripted events are armed immediately before its requests are
    submitted and served.  When ``journal_dir`` is set the fabric
    journals, and a ``kill_router`` event crashes the router itself at
    its wave — the wave's outcomes then come from journal recovery and
    later waves run on a successor fabric.
    """
    if journal_dir is not None:
        server_config = server_config.replace(journal_dir=journal_dir)
    fabric = PimFabric(config, workers=workers, server_config=server_config)
    total = ServingProfile()
    handles = []
    wave_profiles = []
    applied: List[str] = []
    try:
        for wave in range(num_waves):
            events = by_wave.get(wave, ())
            router_kill = any(e.kind == "kill_router" for e in events)
            for event in events:
                if event.kind == "kill_router":
                    continue
                applied.append(_arm_event(fabric, event, seed))
            wave_handles = [
                fabric.submit(request)
                for request in _wave_requests(seed, wave, per_wave, workers)
            ]
            if router_kill:
                applied.append("kill_router@router")
                fabric, profile, wave_handles = _crash_and_recover(
                    fabric, config, server_config, workers, wave_handles
                )
            else:
                profile = fabric.run()
            handles.extend(wave_handles)
            wave_profiles.append(profile)
            total.merge(profile)
        fabric._heal()  # final rejoin pass so capacity reflects healing
        alive_after = fabric.alive_shards()
        respawns = fabric.respawns
        tracer = fabric.tracer
    finally:
        fabric.close()
    return handles, total, wave_profiles, applied, alive_after, respawns, tracer


def run_chaos(
    seed: int = 7,
    workers: int = 4,
    requests: int = 48,
    kinds: Tuple[str, ...] = KINDS,
    schedule: Optional[ChaosSchedule] = None,
    gates: bool = True,
    journal_dir: Optional[str] = None,
    transport: str = "pipe",
) -> ChaosReport:
    """Run one chaos scenario end to end; returns its :class:`ChaosReport`.

    Generates (or takes) a schedule, serves the seeded workload fault-free
    for the baseline, replays it under the schedule, and aggregates every
    invariant violation into ``report.violations`` (empty = the fabric's
    contract held).  ``gates=False`` skips the baseline comparison gates
    (and their extra fault-free session) — the fast mode the property
    tests use, where only conservation/bit-exactness/trace/capacity
    matter.

    A schedule containing ``kill_router`` needs a journal to recover
    from; ``journal_dir`` supplies one (kept for inspection), else a
    temporary directory is used and removed afterwards.

    ``transport`` selects the fabric payload path (``"pipe"`` or
    ``"shm"``); the report's profiles, results, and span trees are
    bit-exact across transports.
    """
    if schedule is None:
        schedule = ChaosSchedule.generate(
            seed, workers, kinds=kinds, wave_ns=WAVE_NS
        )
    by_wave = schedule.by_wave(WAVE_NS)
    num_waves = (max(by_wave) + 1 if by_wave else 1) + 1  # +1 recovery wave
    per_wave = max(workers, requests // num_waves)
    config = SystemConfig(
        num_pchs=2,
        num_rows=256,
        simulate_pchs=1,
        ecc=True,
        trace=True,
    )
    server_config = _chaos_server_config(seed, transport)
    if gates:
        (_, base_total, base_waves, _, _, _, base_tracer) = _execute(
            seed, workers, num_waves, per_wave, {}, config, server_config
        )
    else:
        base_total, base_waves, base_tracer = ServingProfile(), [], None
    needs_journal = any(
        event.kind == "kill_router" for event in schedule.events
    )
    scratch_journal = None
    if needs_journal and journal_dir is None:
        scratch_journal = tempfile.mkdtemp(prefix="repro-chaos-journal-")
        journal_dir = scratch_journal
    try:
        (handles, total, wave_profiles, applied, alive_after, respawns,
         tracer) = _execute(
            seed, workers, num_waves, per_wave, by_wave, config,
            server_config, journal_dir=journal_dir if needs_journal else None,
        )
    finally:
        if scratch_journal is not None:
            shutil.rmtree(scratch_journal, ignore_errors=True)
    report = ChaosReport(
        seed=seed,
        workers=workers,
        requests=len(handles),
        schedule=schedule,
        profile=total,
        baseline_profile=base_total,
        tracer=tracer,
        baseline_tracer=base_tracer,
        applied=applied,
        alive_after=alive_after,
        respawns=respawns,
        placement=[handle.shard for handle in handles],
        recovery_rps=wave_profiles[-1].throughput_rps(),
        baseline_recovery_rps=(
            base_waves[-1].throughput_rps() if base_waves else 0.0
        ),
    )
    report.violations.extend(check_conservation(handles, total))
    report.violations.extend(check_bit_exactness(handles, config.num_pchs))
    report.violations.extend(check_trace(tracer))
    report.violations.extend(check_dropped_spans(tracer, total))
    report.violations.extend(check_capacity(alive_after, workers))
    if gates:
        report.violations.extend(
            check_degradation(
                total,
                base_total,
                report.recovery_rps,
                report.baseline_recovery_rps,
            )
        )
    return report
