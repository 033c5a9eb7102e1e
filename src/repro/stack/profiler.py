"""Session-level profiling of PIM execution reports.

Collects the :class:`~repro.stack.kernels.ExecutionReport` objects a
workload produces and aggregates them into the quantities an operator of
the real system would watch: device-time share per kernel, command-stream
utilisation against the tCCD_L floor, fence share, and achieved on-chip
compute bandwidth versus the Table V peak.

The serving layer (:mod:`repro.stack.server`) additionally feeds
per-request queueing statistics into a :class:`ServingProfile`:
wait/service/turnaround per request, aggregate throughput, and per-channel
occupancy over the session makespan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from .kernels import ExecutionReport

__all__ = [
    "BreakerTransition",
    "KernelProfile",
    "SessionProfile",
    "Profiler",
    "RequestStats",
    "ServingProfile",
]


@dataclass
class KernelProfile:
    """Aggregated statistics for one kernel name."""

    kernel: str
    invocations: int = 0
    cycles: int = 0
    ns: float = 0.0
    column_commands: int = 0
    fences: int = 0
    pim_flops: int = 0

    def merge(self, report: ExecutionReport) -> None:
        """Fold one execution report into this profile."""
        self.invocations += 1
        self.cycles += report.cycles
        self.ns += report.ns
        self.column_commands += report.column_commands
        self.fences += report.fences
        self.pim_flops += report.pim_flops

    def command_utilisation(self, tccd_l: int = 4) -> float:
        """Fraction of cycles spent at the column-command floor.

        1.0 means the stream ran back-to-back at tCCD_L; the shortfall is
        fences, row switches, turnarounds and mode transitions.
        """
        if self.cycles == 0:
            return 0.0
        return min(1.0, self.column_commands * tccd_l / self.cycles)

    def gflops(self) -> float:
        """Achieved PIM compute throughput over the kernel's wall time."""
        if self.ns == 0:
            return 0.0
        return self.pim_flops / self.ns


@dataclass
class SessionProfile:
    """All kernels of one profiled session."""

    kernels: Dict[str, KernelProfile] = field(default_factory=dict)

    @property
    def total_ns(self) -> float:
        return sum(k.ns for k in self.kernels.values())

    def time_share(self) -> Dict[str, float]:
        """Per-kernel fraction of total device time."""
        total = self.total_ns
        if total == 0:
            return {}
        return {name: k.ns / total for name, k in self.kernels.items()}

    def render(self, tccd_l: int = 4) -> List[str]:
        """A text table, widest consumers first."""
        shares = self.time_share()
        lines = [
            f"  {'kernel':24s} {'calls':>5s} {'time':>8s} {'share':>6s} "
            f"{'util':>5s} {'GFLOP/s':>8s}"
        ]
        for name, k in sorted(
            self.kernels.items(), key=lambda kv: -kv[1].ns
        ):
            lines.append(
                f"  {name:24s} {k.invocations:5d} {k.ns / 1000:7.1f}u "
                f"{shares.get(name, 0):6.1%} "
                f"{k.command_utilisation(tccd_l):5.0%} {k.gflops():8.2f}"
            )
        return lines


@dataclass(frozen=True)
class RequestStats:
    """Queueing statistics of one served request.

    Requests that never left the queue (shed at admission, or expired
    before dispatch) carry ``start_ns == finish_ns``: their ``wait_ns`` is
    the time they sat queued before being dropped and their ``service_ns``
    is exactly 0 — dropped work must cost zero device time.

    Frozen: profiles share entries, so a rewrite is a copy
    (:meth:`ServingProfile.relabel`) that no other holder sees.
    """

    request_id: int
    op: str
    arrival_ns: float
    start_ns: float
    finish_ns: float
    batch_size: int = 1
    lane: int = 0
    # Which fabric shard served the request (0 outside a fabric).
    shard: int = 0
    # How many times this request's batch was retried after a fault, and
    # whether it ultimately completed on the host golden path.
    retries: int = 0
    fallback: bool = False
    # Scheduling class and terminal disposition (see RequestOutcome in
    # repro.stack.server): "completed", "rejected", "expired",
    # "degraded_host", or "failed".
    priority: int = 0
    outcome: str = "completed"
    # Caller-supplied correlation id (None when the caller set none).
    trace_id: Optional[str] = None
    # True when this entry came out of a crash-recovery session
    # (repro.journal): either restored from a journaled outcome
    # (batch_size == 0, no re-execution) or replayed through the
    # recovery fabric.  Recovered entries never count toward goodput —
    # the work was already acknowledged to the original caller.
    recovered: bool = False

    @property
    def wait_ns(self) -> float:
        return self.start_ns - self.arrival_ns

    @property
    def service_ns(self) -> float:
        return self.finish_ns - self.start_ns

    @property
    def turnaround_ns(self) -> float:
        return self.finish_ns - self.arrival_ns


# The canonical order of a profile's requests (see ServingProfile.merge).
_request_key = attrgetter("arrival_ns", "finish_ns", "shard", "request_id")


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` at quantile ``q`` in [0, 1].

    Returns 0.0 for an empty list; ``q`` is clamped into [0, 1] so callers
    passing 0/100-style percentages out of range degrade to the extremes
    instead of indexing out of bounds.  No numpy dependency: this sits on
    the serving hot path.
    """
    if not values:
        return 0.0
    q = max(0.0, min(1.0, q))
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


@dataclass(frozen=True)
class BreakerTransition:
    """One circuit-breaker state change of one serving lane.

    ``shard`` names the fabric worker whose lane transitioned (0 outside
    a fabric), so merged multi-shard logs stay attributable.
    """

    lane: int
    previous: str
    state: str
    at_ns: float
    shard: int = 0


@dataclass
class ServingProfile:
    """Aggregate statistics of one serving session.

    Each request is one frozen :class:`RequestStats` in ``requests``, and
    every per-request count is read from that list.  A profile keeps every
    request it recorded or merged, so a long-lived one (a context's
    :class:`Profiler`) grows by one entry per request served.
    """

    requests: List[RequestStats] = field(default_factory=list)
    makespan_ns: float = 0.0
    makespan_cycles: int = 0
    # channel index -> cycles its controller spent working its queue.
    channel_busy_cycles: Dict[int, int] = field(default_factory=dict)
    batches: int = 0
    launches: int = 0
    # -- fault tolerance (see docs/ARCHITECTURE.md, "Fault tolerance") --
    # Batch re-executions after a recoverable fault.
    retries: int = 0
    # Channels the server retired through driver.quarantine_channels().
    quarantined_channels: List[int] = field(default_factory=list)
    # Fabric shards quarantined after their worker process died (see
    # repro.stack.fabric) and requests replayed off dead shards onto
    # survivors or the host golden path.
    quarantined_shards: List[int] = field(default_factory=list)
    replays: int = 0
    # shard slot -> column commands the router's placement gave it (see
    # repro.stack.fabric.request_cost), summed over rounds; a replayed
    # round counts again on the shards that re-serve it.
    shard_cost: Dict[int, int] = field(default_factory=dict)
    # -- fabric self-healing (see docs/ARCHITECTURE.md, "Fabric
    #    resilience & chaos") --
    # shard slot -> times its worker was respawned after dying/wedging.
    respawns: Dict[int, int] = field(default_factory=dict)
    # Background-scrub activity between batches.
    scrubs: int = 0
    scrub_corrected: int = 0
    scrub_uncorrectable: int = 0
    # Single-bit errors corrected inline by the banks' SEC-DED engines
    # during this session (delta of the device-wide counter).
    ecc_corrected: int = 0
    # Faults the session's injector introduced while serving.
    faults_injected: int = 0
    # -- overload protection (see docs/ARCHITECTURE.md, "Overload
    #    protection") --
    # Device retries refused because the server-wide token bucket was dry.
    retry_budget_exhausted: int = 0
    # Circuit-breaker activity: one entry per state change.
    breaker_transitions: List[BreakerTransition] = field(default_factory=list)
    # Batches served by host because their lane's breaker was open.
    breaker_short_circuits: int = 0
    # How many leading ``requests`` are in canonical order (see merge).
    _ordered: int = field(default=0, init=False, repr=False, compare=False)

    # Read-only counts of ``requests``: shed at admission (a bounded lane
    # queue was full), dropped at dispatch (deadline passed), completed on
    # the bit-exact host path for *any* reason, of those the fault-driven
    # ones (device retries exhausted, the lane or every shard dead), and
    # restored or replayed by repro.journal.recover() (never goodput;
    # "Durability & replay").
    rejected = property(lambda self: self.outcomes().get("rejected", 0))
    expired = property(lambda self: self.outcomes().get("expired", 0))
    degraded = property(lambda self: self.outcomes().get("degraded_host", 0))
    fallbacks = property(lambda self: sum(r.fallback for r in self.requests))
    recovered = property(lambda self: sum(r.recovered for r in self.requests))
    # Read-only count of ``breaker_transitions`` into the open state.
    breaker_opens = property(
        lambda self: sum(t.state == "open" for t in self.breaker_transitions)
    )

    def record(self, stats: RequestStats) -> None:
        """Append one terminal request and extend the makespan."""
        self.requests.append(stats)
        self.makespan_ns = max(self.makespan_ns, stats.finish_ns)

    def relabel(self, rid_of: Dict[int, int], **changes) -> None:
        """Replace each entry by a copy with its ``request_id`` mapped
        through ``rid_of`` (an id it lacks stays) and ``changes`` set."""
        get = rid_of.get
        self.requests = [
            replace(r, request_id=get(r.request_id, r.request_id), **changes)
            for r in self.requests
        ]
        self._ordered = 0

    def record_breaker(
        self, lane: int, previous: str, state: str, at_ns: float,
        shard: int = 0,
    ) -> None:
        """Log one circuit-breaker state change of ``lane``."""
        self.breaker_transitions.append(
            BreakerTransition(lane, previous, state, at_ns, shard=shard)
        )

    def merge(self, other: "ServingProfile") -> "ServingProfile":
        """Fold ``other`` into this profile; returns ``self``.

        Carries *everything* a combined session would have recorded —
        including the per-request stats that feed the per-priority
        percentiles and the breaker transition log, which ad-hoc merging
        historically dropped.  Sessions merged into one profile ran
        back-to-back on the same device, so ``makespan_cycles`` and the
        per-channel busy numerators add, while ``makespan_ns`` (the latest
        finish on the serving clock) takes the max.

        Merging is associative and commutative: the scalar folds are
        sums/maxes, and the three event lists (requests, breaker
        transitions, quarantined channels/shards) are kept in a canonical
        total order after every merge, so N shard profiles combined in
        *any* order — pairwise, left fold, right fold — produce identical
        counters, percentiles, and transition logs.  The fabric relies on
        this to merge per-shard profiles as workers finish, in whatever
        order they finish.

        Only ``other``'s requests (and those :meth:`record` appended since
        the last merge) are sorted, then merged with the held ones they
        overlap: none when they start at or after the held tail, as a
        long-lived profile's sessions do.  The fault logs are re-sorted.
        """
        held, ordered = self.requests, self._ordered
        new = held[ordered:] + other.requests
        cut = ordered
        if new:
            first = min(map(_request_key, new))
            while cut and _request_key(held[cut - 1]) > first:
                cut -= 1
        held[cut:] = sorted(held[cut:ordered] + new, key=_request_key)
        self._ordered = len(held)
        self.makespan_ns = max(self.makespan_ns, other.makespan_ns)
        self.makespan_cycles += other.makespan_cycles
        self.batches += other.batches
        self.launches += other.launches
        self.retries += other.retries
        self.quarantined_channels.extend(other.quarantined_channels)
        self.quarantined_shards.extend(other.quarantined_shards)
        self.replays += other.replays
        for shard, cost in other.shard_cost.items():
            self.shard_cost[shard] = self.shard_cost.get(shard, 0) + cost
        for shard, count in other.respawns.items():
            self.respawns[shard] = self.respawns.get(shard, 0) + count
        self.scrubs += other.scrubs
        self.scrub_corrected += other.scrub_corrected
        self.scrub_uncorrectable += other.scrub_uncorrectable
        self.ecc_corrected += other.ecc_corrected
        self.faults_injected += other.faults_injected
        self.retry_budget_exhausted += other.retry_budget_exhausted
        self.breaker_transitions.extend(other.breaker_transitions)
        self.breaker_short_circuits += other.breaker_short_circuits
        for p, busy in other.channel_busy_cycles.items():
            self.channel_busy_cycles[p] = (
                self.channel_busy_cycles.get(p, 0) + busy
            )
        # Canonical total orders make list-carrying merges order-free.
        self.breaker_transitions.sort(
            key=lambda t: (t.at_ns, t.shard, t.lane, t.previous, t.state)
        )
        self.quarantined_channels.sort()
        self.quarantined_shards.sort()
        return self

    def to_metrics(self, registry) -> None:
        """Export this profile into a
        :class:`~repro.obs.MetricsRegistry` (additive: counters
        accumulate across sessions exported into the same registry).
        """
        scalars = {
            "serving.batches": self.batches,
            "serving.launches": self.launches,
            "serving.retries": self.retries,
            "serving.fallbacks": self.fallbacks,
            "serving.scrubs": self.scrubs,
            "serving.scrub.corrected": self.scrub_corrected,
            "serving.scrub.uncorrectable": self.scrub_uncorrectable,
            "serving.ecc.corrected": self.ecc_corrected,
            "serving.faults.injected": self.faults_injected,
            "serving.retry_budget.exhausted": self.retry_budget_exhausted,
            "serving.breaker.opens": self.breaker_opens,
            "serving.breaker.short_circuits": self.breaker_short_circuits,
            "serving.replays": self.replays,
            "serving.quarantined.shards": len(self.quarantined_shards),
            "serving.respawns": sum(self.respawns.values()),
            "serving.recovered": self.recovered,
        }
        for name, value in scalars.items():
            registry.counter(name).inc(value)
        for outcome, count in sorted(self.outcomes().items()):
            registry.counter(f"serving.outcomes.{outcome}").inc(count)
        registry.gauge("serving.makespan_ns").set(self.makespan_ns)
        registry.gauge("serving.makespan_cycles").set(self.makespan_cycles)
        registry.gauge("serving.throughput_rps").set(self.throughput_rps())
        registry.gauge("serving.goodput_rps").set(self.goodput_rps())
        wait = registry.histogram("serving.wait_ns")
        service = registry.histogram("serving.service_ns")
        turnaround = registry.histogram("serving.turnaround_ns")
        for r in self.requests:
            wait.observe(r.wait_ns)
            service.observe(r.service_ns)
            turnaround.observe(r.turnaround_ns)
        for p, occupancy in self.channel_occupancy().items():
            registry.gauge(f"serving.occupancy.pch{p}").set(occupancy)

    @property
    def num_requests(self) -> int:
        return len(self.requests)

    def outcomes(self) -> Dict[str, int]:
        """Terminal-outcome histogram of every recorded request."""
        counts: Dict[str, int] = {}
        for stats in self.requests:
            counts[stats.outcome] = counts.get(stats.outcome, 0) + 1
        return counts

    def throughput_rps(self) -> float:
        """Terminal requests per (simulated) second (0.0 when empty)."""
        if self.makespan_ns <= 0 or not self.requests:
            return 0.0
        return self.num_requests / (self.makespan_ns * 1e-9)

    def goodput_rps(self) -> float:
        """Usefully *completed* requests per (simulated) second.

        Counts ``completed`` and ``degraded_host`` outcomes (both return a
        bit-exact result to the caller); shed, expired, and failed
        requests are offered load that produced no value.  Entries
        tagged ``recovered`` (terminal outcomes a crash-recovery session
        restored or replayed — see :mod:`repro.journal`) are excluded:
        the original session already took credit for that work, so a
        recovery pass must never inflate goodput.  0.0 when the profile
        is empty or the makespan is 0 (e.g. every request shed).
        """
        if self.makespan_ns <= 0 or not self.requests:
            return 0.0
        good = sum(
            r.outcome in ("completed", "degraded_host") and not r.recovered
            for r in self.requests
        )
        return good / (self.makespan_ns * 1e-9)

    def mean_wait_ns(self) -> float:
        """Average time requests spent queued before dispatch."""
        return _mean([r.wait_ns for r in self.requests])

    def mean_service_ns(self) -> float:
        """Average in-service (dispatch to finish) time."""
        return _mean([r.service_ns for r in self.requests])

    def mean_turnaround_ns(self) -> float:
        """Average arrival-to-finish latency."""
        return _mean([r.turnaround_ns for r in self.requests])

    def p95_turnaround_ns(self) -> float:
        """95th-percentile arrival-to-finish latency (nearest rank)."""
        return _percentile([r.turnaround_ns for r in self.requests], 0.95)

    def turnaround_percentiles_by_priority(
        self, qs: Tuple[float, ...] = (0.5, 0.95, 0.99)
    ) -> Dict[int, Dict[float, float]]:
        """Per-priority turnaround percentiles of *served* requests.

        Only requests that actually ran (``completed``/``degraded_host``)
        enter the distribution — a shed request's zero-length turnaround
        would otherwise flatter the latency of the class that shed it.
        Returns ``{priority: {q: ns}}``, empty when nothing was served.
        """
        by_priority: Dict[int, List[float]] = {}
        for r in self.requests:
            if r.outcome not in ("completed", "degraded_host"):
                continue
            by_priority.setdefault(r.priority, []).append(r.turnaround_ns)
        return {
            priority: {q: _percentile(values, q) for q in qs}
            for priority, values in sorted(by_priority.items())
        }

    def mean_batch_size(self) -> float:
        """Average number of requests fused per dispatched batch.

        Shed and expired requests never joined a batch (their
        ``batch_size`` is 0), so they do not inflate the average.
        """
        if self.batches == 0:
            return 0.0
        dispatched = sum(1 for r in self.requests if r.batch_size > 0)
        return dispatched / self.batches

    def channel_occupancy(self) -> Dict[int, float]:
        """Per-channel busy fraction over the session makespan."""
        if self.makespan_cycles <= 0:
            return {p: 0.0 for p in self.channel_busy_cycles}
        return {
            p: min(1.0, busy / self.makespan_cycles)
            for p, busy in sorted(self.channel_busy_cycles.items())
        }

    def shard_cost_imbalance(self) -> float:
        """Max over mean of the per-shard placed cost (1.0 = even, and
        for a session no router placed)."""
        costs = self.shard_cost.values()
        total = sum(costs)
        return max(costs) * len(costs) / total if total else 1.0

    def render(self) -> List[str]:
        """A text table summarising the serving session."""
        lines = [
            f"  requests served        : {self.num_requests}",
            f"  batches (launches)     : {self.batches} ({self.launches})",
            f"  mean batch size        : {self.mean_batch_size():.2f}",
            f"  makespan               : {self.makespan_ns / 1000:.1f} us",
            f"  throughput             : {self.throughput_rps():,.0f} req/s",
            f"  mean wait / service    : {self.mean_wait_ns() / 1000:.1f} / "
            f"{self.mean_service_ns() / 1000:.1f} us",
            f"  mean / p95 turnaround  : {self.mean_turnaround_ns() / 1000:.1f} / "
            f"{self.p95_turnaround_ns() / 1000:.1f} us",
        ]
        occupancy = self.channel_occupancy()
        if occupancy:
            shares = " ".join(f"pch{p}:{o:4.0%}" for p, o in occupancy.items())
            lines.append(f"  channel occupancy      : {shares}")
        if self.rejected or self.expired or self.degraded:
            lines.append(
                f"  goodput                : {self.goodput_rps():,.0f} req/s"
            )
            lines.append(
                f"  rejected/expired/degr. : {self.rejected} / "
                f"{self.expired} / {self.degraded}"
            )
        if self.recovered:
            lines.append(
                f"  recovered (journal)    : {self.recovered} "
                f"(excluded from goodput)"
            )
        if self.breaker_transitions or self.retry_budget_exhausted:
            lines.append(
                f"  breaker opens (shorts) : {self.breaker_opens} "
                f"({self.breaker_short_circuits})"
            )
            lines.append(
                f"  retry budget exhausted : {self.retry_budget_exhausted}"
            )
        by_priority = self.turnaround_percentiles_by_priority((0.5, 0.95))
        if len(by_priority) > 1:
            for priority, pcts in by_priority.items():
                lines.append(
                    f"  prio {priority:>3d} p50/p95      : "
                    f"{pcts[0.5] / 1000:.1f} / {pcts[0.95] / 1000:.1f} us"
                )
        if self.shard_cost:
            costs = self.shard_cost.values()
            lines.append(
                f"  shard cost (col cmds)  : max {max(costs):,d} / "
                f"mean {sum(costs) / len(costs):,.1f}"
            )
        if self.quarantined_shards or self.replays:
            shards = (
                ",".join(str(s) for s in sorted(set(self.quarantined_shards)))
                or "-"
            )
            lines.append(f"  quarantined shards     : {shards}")
            lines.append(f"  requests replayed      : {self.replays}")
        if self.respawns:
            respawned = ",".join(
                f"{s}x{n}" for s, n in sorted(self.respawns.items())
            )
            lines.append(f"  shards respawned       : {respawned}")
        if (
            self.retries
            or self.fallbacks
            or self.quarantined_channels
            or self.scrubs
            or self.ecc_corrected
            or self.faults_injected
        ):
            quarantined = (
                ",".join(str(p) for p in sorted(set(self.quarantined_channels)))
                or "-"
            )
            lines.append(f"  faults injected        : {self.faults_injected}")
            lines.append(
                f"  retries / fallbacks    : {self.retries} / {self.fallbacks}"
            )
            lines.append(f"  quarantined channels   : {quarantined}")
            lines.append(f"  ecc corrected inline   : {self.ecc_corrected}")
            lines.append(
                f"  scrubs (fixed/fatal)   : {self.scrubs} "
                f"({self.scrub_corrected}/{self.scrub_uncorrectable})"
            )
        return lines


class Profiler:
    """The session's report sink: kernel reports and serving sessions.

    :class:`~repro.stack.blas.PimBlas` feeds every call's report through
    :meth:`record`; the serving engine and the fabric feed each
    session's :class:`ServingProfile` through :meth:`record_serving`.
    ``serving`` keeps every request of the profiler's life; folding a
    session costs that session's size, not the history's.
    """

    def __init__(self):
        self.profile = SessionProfile()
        self.serving: Optional[ServingProfile] = None

    def record(self, report: ExecutionReport) -> None:
        """Fold one execution report into the session profile."""
        profile = self.profile.kernels.get(report.kernel)
        if profile is None:
            profile = KernelProfile(report.kernel)
            self.profile.kernels[report.kernel] = profile
        profile.merge(report)

    def record_serving(self, serving: "ServingProfile") -> None:
        """Fold a serving session's statistics into the profiler's own
        profile (the caller's ``serving`` is left as it was)."""
        if self.serving is None:
            self.serving = ServingProfile()
        self.serving.merge(serving)
