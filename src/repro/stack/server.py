"""A pipelined multi-request serving engine over the PIM runtime.

Section V of the paper describes a software stack whose device driver and
runtime let *multiple* user-level workloads share one PIM-HBM device.  This
module models that serving layer:

* **lanes** — the device's pseudo-channels are split into disjoint
  :class:`~repro.stack.driver.ChannelSet` leases ("lanes").  Channels are
  controlled independently (Section VIII), so lanes advance on independent
  clocks: a GEMV batch on lane 0 overlaps — in simulated time — with an
  elementwise batch on lane 1.  Per-channel-set fences
  (:meth:`~repro.host.processor.HostSystem.drain_set`) keep each lane's
  stream ordered without ever stalling another lane.
* **batching** — contiguous same-operator requests queued on a lane are
  fused into one kernel launch: one SB->AB transition, one CRF broadcast,
  and one kernel-launch overhead cover up to ``max_batch`` requests
  (:meth:`GemvKernel.batched <repro.stack.kernels.GemvKernel.batched>`
  and :meth:`ElementwiseKernel.batched
  <repro.stack.kernels.ElementwiseKernel.batched>`).  Results are
  bit-identical to sequential calls; only the setup overheads amortise.
* **accounting** — every request's wait / service / turnaround time and the
  aggregate throughput and per-channel occupancy land in a
  :class:`~repro.stack.profiler.ServingProfile`.

The arrival process is externally supplied (every ``Request`` carries
its ``arrival_ns``), so offered load is entirely under the caller's control —
see ``python -m benchmarks.e2e`` (``wall_rps``).

**Self-healing** — a batch that hits a fault is not lost (see the "Fault
tolerance" section of ``docs/ARCHITECTURE.md``).  Uncorrectable ECC
events (:class:`~repro.errors.PimDataError`) and channel hard failures
(:class:`~repro.errors.PimChannelError`) are caught per batch; the lane
is healed (kernels rebuilt, failed channels quarantined through the
driver, surviving channels reset out of any stranded AB-PIM state) and
the batch retried.  A batch that exhausts its retries — or lands on a
lane with no channels left — completes on the bit-exact host golden path
(:func:`repro.stack.arithmetic.golden_reference`).  Between
batches the server runs one fault-injection epoch (when the system
carries a :class:`~repro.faults.FaultInjector`) and a background ECC
scrub every ``scrub_interval`` batches.

**Overload protection** — PIM is a shared, capacity-limited resource, so
the server never grows backlog silently (see "Overload protection" in
``docs/ARCHITECTURE.md``):

* *bounded lane queues* — ``queue_depth`` caps each lane's queue; the
  ``admission`` policy decides what happens to excess load: ``"block"``
  makes :meth:`submit` raise :class:`~repro.errors.PimOverloadError`
  (backpressure to the producer), ``"shed"`` drops the arrival with a
  terminal ``rejected`` outcome, ``"degrade"`` completes it immediately
  on the bit-exact host path (``degraded_host``).
* *deadlines and priorities* — ``Request(..., deadline_ns=...,
  priority=...)``.  A request whose deadline passes before its batch
  dispatches is dropped *before* it consumes any device cycles
  (``expired``); higher ``priority`` dispatches first, and waiting
  requests gain one effective level per ``aging_ns`` of simulated time so
  low-priority work is never starved.
* *retry budget* — device retries draw from one seeded token bucket per
  server (``retry_budget`` capacity, ``retry_refill`` per successful
  batch) with deterministic exponential backoff plus jitter, so a
  flapping channel cannot amplify offered load into a retry storm.
* *circuit breakers* — per lane: ``closed`` → ``open`` after
  ``breaker_threshold`` consecutive device batch failures (batches route
  straight to the host path while open) → ``half_open`` probe after
  ``breaker_cooldown_ns`` → ``closed`` on a successful probe.

Every submitted request ends in exactly one terminal
:class:`RequestOutcome`; dropped work costs zero device time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from ..errors import (
    PimChannelError,
    PimDataError,
    PimError,
    PimOverloadError,
    PimProgramError,
)
from .api import Request, ServerConfig
from .arithmetic import golden_reference
from .driver import ChannelSet
from .kernels import (
    ELEMENTWISE_OPS,
    ElementwiseKernel,
    ExecutionReport,
    GemvKernel,
)
from .profiler import Profiler, RequestStats, ServingProfile
from .runtime import PimSystem

__all__ = ["PimRequest", "PimServer", "Request", "RequestOutcome", "ServerConfig"]

#: Valid ``admission`` policies for a bounded lane queue.
ADMISSION_POLICIES = ("block", "shed", "degrade")


def _trace_attrs(request: "PimRequest") -> Dict[str, str]:
    """Span attributes carrying the caller's correlation id.

    Empty when the request has no ``trace_id``, so traces from callers
    that never set one stay byte-identical to the pre-fabric exports.
    """
    if request.trace_id is None:
        return {}
    return {"trace_id": request.trace_id}


class RequestOutcome(str, Enum):
    """Terminal disposition of one submitted request.

    Exactly one outcome is assigned to every request a :class:`PimServer`
    accepted (the conservation invariant the overload tests enforce):

    * ``COMPLETED`` — served by the PIM device.
    * ``REJECTED`` — shed at admission because the lane queue was full.
    * ``EXPIRED`` — its deadline passed before dispatch; zero device time.
    * ``DEGRADED_HOST`` — completed bit-exactly on the host golden path
      (admission degrade, open circuit breaker, retry exhaustion, or a
      dead lane).
    * ``FAILED`` — an unexpected error aborted the serving session before
      this request could finish.
    """

    COMPLETED = "completed"
    REJECTED = "rejected"
    EXPIRED = "expired"
    DEGRADED_HOST = "degraded_host"
    FAILED = "failed"


@dataclass
class PimRequest:
    """One operation submitted to the serving engine.

    ``op`` is ``"gemv"`` or one of the elementwise operators
    (``add``/``mul``/``relu``/``bn``).  After :meth:`PimServer.run` the
    request carries its result, execution report, queueing timestamps,
    and a terminal :class:`RequestOutcome`.
    """

    request_id: int
    op: str
    arrival_ns: float = 0.0
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    scalars: Optional[Tuple[float, float]] = None
    # Scheduling class: higher dispatches first (aging prevents
    # starvation), and an absolute simulated-clock dispatch deadline
    # (None = never expires).
    priority: int = 0
    deadline_ns: Optional[float] = None
    # Caller-supplied correlation id, stamped on every span this request
    # produces (the key that reassembles a request across fabric shards).
    trace_id: Optional[str] = None
    # Batching/lane-affinity key: the submitted Request's ``signature``
    # (requests with equal signatures may share one fused launch).
    signature: Tuple = ()
    # Filled in by the server.
    result: Optional[np.ndarray] = None
    report: object = None
    start_ns: float = 0.0
    finish_ns: float = 0.0
    batch_size: int = 1
    lane: int = 0
    # Fabric shard that served this request (0 outside a fabric).
    shard: int = 0
    # Fault-tolerance outcome: device retries consumed, and whether the
    # request completed on the host golden path.
    retries: int = 0
    fallback: bool = False
    # Terminal disposition (None until the server decides), and the
    # overload error attached to a shed request.
    outcome: Optional[RequestOutcome] = None
    error: Optional[Exception] = None

    @property
    def wait_ns(self) -> float:
        return self.start_ns - self.arrival_ns

    @property
    def service_ns(self) -> float:
        return self.finish_ns - self.start_ns

    @property
    def turnaround_ns(self) -> float:
        return self.finish_ns - self.arrival_ns

    def stats(self) -> RequestStats:
        """This request's queueing statistics for the serving profile."""
        return RequestStats(
            request_id=self.request_id,
            op=self.op,
            arrival_ns=self.arrival_ns,
            start_ns=self.start_ns,
            finish_ns=self.finish_ns,
            batch_size=self.batch_size,
            lane=self.lane,
            retries=self.retries,
            fallback=self.fallback,
            priority=self.priority,
            shard=self.shard,
            trace_id=self.trace_id,
            outcome=(
                self.outcome.value
                if self.outcome is not None
                else RequestOutcome.COMPLETED.value
            ),
        )


@dataclass
class _Lane:
    """One leased channel set with its FIFO, clock, and circuit breaker.

    ``channels`` becomes ``None`` when healing quarantined the lane's last
    channel — a *dead* lane, whose batches complete on the host path.
    """

    index: int
    channels: Optional[ChannelSet]
    queue: Deque[PimRequest] = field(default_factory=deque)
    ready_ns: float = 0.0
    # Resident kernels keyed by request signature.
    gemv_kernels: Dict[Tuple, GemvKernel] = field(default_factory=dict)
    elementwise_kernels: Dict[Tuple, ElementwiseKernel] = field(
        default_factory=dict
    )
    # Submissions bound to this lane that run() has not yet consumed
    # (the quantity "block" admission bounds).
    backlog: int = 0
    # Circuit breaker: closed -> open after N consecutive device batch
    # failures -> half_open probe once the cooldown elapses -> closed.
    breaker_state: str = "closed"
    breaker_failures: int = 0
    breaker_open_until_ns: float = 0.0


class PimServer:
    """Serves concurrent PIM requests with batching and lane pipelining.

    ::

        server = PimServer(system, ServerConfig(lanes=2, max_batch=8))
        for i in range(64):
            server.submit(
                Request("gemv", weights=w, a=x[i], arrival_ns=i * 2000.0)
            )
        profile = server.run()
        print("\\n".join(profile.render()))

    Lanes lease disjoint channel sets from the device driver; operator
    signatures are bound to lanes round-robin in first-seen order, so two
    independent operators pipeline across channel sets instead of
    serialising behind a global drain.

    Configuration is one :class:`~repro.stack.api.ServerConfig` (see the
    module docstring and ``docs/API.md`` for the knobs' semantics).
    Per-call channel sampling follows the system's
    ``SystemConfig.simulate_pchs``.
    """

    def __init__(
        self,
        system: PimSystem,
        config: Optional[ServerConfig] = None,
        *,
        profiler: Optional[Profiler] = None,
    ):
        driver = getattr(system, "driver", None)
        if driver is None:
            raise TypeError("PimServer needs a PimSystem with a device driver")
        config = config or ServerConfig()
        if config.lanes < 1:
            raise ValueError("need at least one lane")
        free = len(driver.channels_free)
        per_lane, extra = divmod(free, config.lanes)
        if per_lane < 1:
            raise ValueError(
                f"cannot split {free} free channels into {config.lanes} lanes"
            )
        if config.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if config.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if config.admission not in ADMISSION_POLICIES:
            raise PimProgramError(
                f"admission must be one of {ADMISSION_POLICIES}, "
                f"got {config.admission!r}"
            )
        self.sys = system
        #: The serving configuration of this server.
        self.server_config = config
        lanes = config.lanes
        self.max_batch = config.max_batch
        self.max_retries = config.max_retries
        self.simulate_pchs = system.config.simulate_pchs
        self.scrub_interval = config.scrub_interval
        queue_depth = config.queue_depth
        if queue_depth is not None and queue_depth <= 0:
            queue_depth = None  # 0 means unbounded, like None
        self.queue_depth = queue_depth
        self.admission = config.admission
        self.aging_ns = float(config.aging_ns)
        self.retry_budget = float(config.retry_budget)
        self.retry_refill = float(config.retry_refill)
        self.backoff_base_ns = float(config.backoff_base_ns)
        self.backoff_jitter = float(config.backoff_jitter)
        self.breaker_threshold = int(config.breaker_threshold)
        self.breaker_cooldown_ns = float(config.breaker_cooldown_ns)
        self._rng = np.random.default_rng(config.seed)
        self._retry_tokens = self.retry_budget
        self.injector = getattr(system, "fault_injector", None)
        self.profiler = profiler
        # Observability (repro.obs): both hooks come from the system
        # (SystemConfig.trace builds them) and default to None — every
        # hook site below costs one attribute test when disabled.
        self.tracer = getattr(system, "tracer", None)
        self.metrics = getattr(system, "metrics", None)
        # When lanes does not divide the free channel count, spread the
        # remainder over the first lanes so no channel sits permanently
        # idle (3 lanes on 4 channels -> 2+1+1, not 1+1+1 with one dark).
        self.lanes: List[_Lane] = [
            _Lane(
                index=i,
                channels=driver.alloc_channels(
                    per_lane + (1 if i < extra else 0)
                ),
            )
            for i in range(lanes)
        ]
        self._affinity: Dict[Tuple, int] = {}
        self._next_lane = 0
        self._next_id = 0
        self._pending: List[PimRequest] = []
        self._batches_since_scrub = 0
        self._closed = False
        # Durability (repro.journal): with journal_dir set, every
        # accepted request and every terminal outcome is appended to the
        # write-ahead log so recover(journal_dir) can rebuild the
        # session after a SIGKILL.  Imported lazily — the journal
        # package depends on the stack, not the other way around.
        self._journal = None
        if config.journal_dir:
            from ..journal.wal import JournalWriter

            self._journal = JournalWriter(
                config.journal_dir, sync=config.journal_sync
            )
            self._journal.append_meta(system.config, config)

    # -- lifecycle ----------------------------------------------------------------

    def close(self) -> None:
        """Release kernel rows and return leased channels to the driver.

        Idempotent, and exactly-once even when :meth:`run` raised
        mid-batch: each lane's lease is dropped the moment it is released
        (``lane.channels = None``), and a kernel whose release fails
        cannot strand the remaining lanes' channels — every lease is
        returned before the first error (if any) propagates.
        """
        if self._closed:
            return
        self._closed = True
        if self._journal is not None:
            self._journal.close()
        driver = self.sys.driver
        first_error: Optional[BaseException] = None
        for lane in self.lanes:
            kernels = list(lane.gemv_kernels.values())
            kernels.extend(lane.elementwise_kernels.values())
            lane.gemv_kernels.clear()
            lane.elementwise_kernels.clear()
            for kernel in kernels:
                try:
                    kernel.release()
                except PimError as err:
                    if first_error is None:
                        first_error = err
            if lane.channels is not None:
                try:
                    driver.release_channels(lane.channels)
                except PimError as err:
                    if first_error is None:
                        first_error = err
                lane.channels = None
        if first_error is not None:
            raise first_error

    def __enter__(self) -> "PimServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission ---------------------------------------------------------------

    def submit(self, request: Request) -> PimRequest:
        """Queue one :class:`~repro.stack.api.Request`; returns its handle::

            server.submit(Request("gemv", weights=w, a=x, priority=1))

        ``priority`` dispatches higher classes first (aging prevents
        starvation); ``deadline_ns`` is an absolute simulated-clock bound
        on *dispatch* — a request still queued past it is dropped with
        outcome ``expired`` before consuming any device cycles.

        With a bounded queue (``queue_depth``) in ``"block"`` mode this
        raises :class:`~repro.errors.PimOverloadError` once the target
        lane's backlog is full — synchronous backpressure to the
        producer.  A malformed request raises
        :class:`~repro.errors.PimProgramError` (a
        ``ValueError``/``RuntimeError`` subclass), anything that is not a
        ``Request`` a ``TypeError``.
        """
        if self._closed:
            raise PimProgramError("server is closed")
        if not isinstance(request, Request):
            raise TypeError(
                "PimServer.submit takes a Request, got "
                f"{type(request).__name__}"
            )
        req = request.validate()
        request = PimRequest(
            request_id=self._next_id,
            op=req.op,
            arrival_ns=float(req.arrival_ns),
            a=req.a,
            b=req.b,
            weights=req.weights,
            scalars=req.scalars,
            priority=int(req.priority),
            deadline_ns=(
                None if req.deadline_ns is None else float(req.deadline_ns)
            ),
            trace_id=req.trace_id,
            signature=req.signature,
        )
        lane = self._lane_for(request.signature)
        if (
            self.queue_depth is not None
            and self.admission == "block"
            and lane.backlog >= self.queue_depth
        ):
            raise PimOverloadError(
                f"lane {lane.index} queue full "
                f"({lane.backlog}/{self.queue_depth}); back off and "
                f"resubmit after run()",
                lane=lane.index,
            )
        lane.backlog += 1
        self._next_id += 1
        self._pending.append(request)
        if self._journal is not None:
            # Journal the frozen Request (picklable, content-hashed) at
            # admission — before any placement or device work, so a
            # crash at any later instant still finds it on recovery.
            self._journal.append_accepted(request.request_id, req)
        return request

    def _journal_outcome(self, request: PimRequest) -> None:
        """Append one terminal outcome (result bytes included) to the WAL."""
        if self._journal is not None and request.outcome is not None:
            self._journal.append_outcome(
                request.request_id,
                request.trace_id,
                request.outcome.value,
                request.shard,
                request.result,
            )

    def _lane_for(self, signature: Tuple) -> _Lane:
        lane_index = self._affinity.get(signature)
        if lane_index is None:
            # Round-robin in first-seen order: independent operators land
            # on different lanes and pipeline across channel sets.
            lane_index = self._next_lane % len(self.lanes)
            self._next_lane += 1
            self._affinity[signature] = lane_index
        return self.lanes[lane_index]

    # -- execution ----------------------------------------------------------------

    def run(self) -> ServingProfile:
        """Serve every pending request and return the session's profile.

        Requests drain per lane in arrival order, reordered only by
        priority (with aging).  A dispatch takes the highest-effective-
        priority arrived request plus any queued same-signature requests
        that have arrived by dispatch time, up to ``max_batch``; requests
        of other signatures keep their relative order.  Expired and shed
        requests terminate without touching the device; every submitted
        request ends in exactly one terminal :class:`RequestOutcome`.
        """
        serving = ServingProfile()
        controllers = self.sys.controllers
        busy_before = [mc.busy_cycles for mc in controllers]
        cycle_before = max(mc.current_cycle for mc in controllers)
        ecc_before = self._device_ecc_corrected()
        scrub_corrected_before = serving.scrub_corrected
        touched: set = set()

        session = sorted(
            self._pending, key=lambda r: (r.arrival_ns, r.request_id)
        )
        for request in session:
            self.lanes[self._affinity[request.signature]].queue.append(request)
        self._pending = []

        try:
            for lane in self.lanes:
                self._drain_lane(lane, serving, touched)
        except BaseException:
            # Conservation even through a crash: anything the session did
            # not finish is terminally FAILED before the error surfaces.
            for request in session:
                if request.outcome is None:
                    request.outcome = RequestOutcome.FAILED
                    self._journal_outcome(request)
            raise
        finally:
            for lane in self.lanes:
                lane.queue.clear()
                lane.backlog = 0

        serving.makespan_cycles = (
            max(mc.current_cycle for mc in controllers) - cycle_before
        )
        for pch in sorted(touched):
            serving.channel_busy_cycles[pch] = (
                controllers[pch].busy_cycles - busy_before[pch]
            )
        # Inline corrections are the device-wide delta minus what the
        # background scrub repaired this session.
        scrubbed = serving.scrub_corrected - scrub_corrected_before
        serving.ecc_corrected += max(
            0, self._device_ecc_corrected() - ecc_before - scrubbed
        )
        if self.metrics is not None:
            serving.to_metrics(self.metrics)
        if self.profiler is not None:
            self.profiler.record_serving(serving)
        return serving

    # -- scheduling ---------------------------------------------------------------

    def _drain_lane(
        self, lane: _Lane, serving: ServingProfile, touched: set
    ) -> None:
        """Chronologically admit and dispatch one lane's request stream.

        ``lane.queue`` holds this run's arrivals in ``(arrival, id)``
        order; requests move through admission (where shed/degrade
        policies apply on the simulated clock) into the bounded
        ``admitted`` queue, and leave it in priority-with-aging order as
        batches — or as ``expired`` drops, before any device work.
        """
        inbox = lane.queue
        admitted: List[PimRequest] = []
        while inbox or admitted:
            if admitted:
                next_ns = max(
                    lane.ready_ns, min(r.arrival_ns for r in admitted)
                )
            else:
                next_ns = max(lane.ready_ns, inbox[0].arrival_ns)
            moved = False
            while inbox and inbox[0].arrival_ns <= next_ns:
                self._admit(lane, inbox.popleft(), admitted, serving)
                moved = True
            if moved:
                continue  # admissions may move the dispatch point
            if admitted:
                self._dispatch(lane, admitted, serving, touched)

    def _admit(
        self,
        lane: _Lane,
        request: PimRequest,
        admitted: List[PimRequest],
        serving: ServingProfile,
    ) -> None:
        """Admission control at one request's simulated arrival time."""
        if (
            request.deadline_ns is not None
            and request.arrival_ns > request.deadline_ns
        ):
            self._drop(
                lane, request, RequestOutcome.EXPIRED,
                request.arrival_ns, serving,
            )
            return
        if (
            self.queue_depth is not None
            and len(admitted) >= self.queue_depth
            and self.admission in ("shed", "degrade")
        ):
            if self.admission == "shed":
                request.error = PimOverloadError(
                    f"lane {lane.index} queue full at arrival "
                    f"({self.queue_depth} waiting)",
                    lane=lane.index,
                )
                self._drop(
                    lane, request, RequestOutcome.REJECTED,
                    request.arrival_ns, serving,
                )
            else:
                self._degrade_to_host(lane, request, serving)
            return
        admitted.append(request)

    def _drop(
        self,
        lane: _Lane,
        request: PimRequest,
        outcome: RequestOutcome,
        at_ns: float,
        serving: ServingProfile,
    ) -> None:
        """Terminate ``request`` without device work (shed or expired)."""
        request.start_ns = at_ns
        request.finish_ns = at_ns
        request.batch_size = 0
        request.lane = lane.index
        request.outcome = outcome
        serving.record(request.stats())
        self._journal_outcome(request)
        if self.tracer is not None:
            # A dropped request's span is a leaf: record() opens and
            # closes in one step, so no device span can ever nest in it.
            self.tracer.record(
                f"request:{request.op}",
                request.arrival_ns,
                at_ns,
                category="request",
                lane=lane.index,
                request_id=request.request_id,
                outcome=outcome.value,
                priority=request.priority,
                **_trace_attrs(request),
            )

    def _degrade_to_host(
        self, lane: _Lane, request: PimRequest, serving: ServingProfile
    ) -> None:
        """Serve one over-admission request immediately on the host path.

        The host starts at the request's arrival (no queueing — the point
        of degrading is to bypass the saturated lane) and the lane's
        clock is untouched: degraded work costs zero device time.
        """
        tracer = self.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                f"request:{request.op}",
                category="request",
                lane=lane.index,
                request_id=request.request_id,
                priority=request.priority,
                **_trace_attrs(request),
            )
        report = self._execute_host([request])
        request.report = report
        request.start_ns = request.arrival_ns
        request.finish_ns = request.arrival_ns + report.ns
        request.batch_size = 1
        request.lane = lane.index
        request.outcome = RequestOutcome.DEGRADED_HOST
        serving.record(request.stats())
        self._journal_outcome(request)
        serving.batches += 1
        if tracer is not None:
            tracer.record(
                f"host:{request.op}",
                request.start_ns,
                request.finish_ns,
                category="host",
                lane=lane.index,
                reason="admission_degrade",
            )
            tracer.finish(
                span,
                request.arrival_ns,
                request.finish_ns,
                outcome=RequestOutcome.DEGRADED_HOST.value,
            )

    def _effective_priority(self, request: PimRequest, now_ns: float) -> float:
        """Priority plus aging: one level per ``aging_ns`` of waiting."""
        if self.aging_ns <= 0:
            return float(request.priority)
        return request.priority + (now_ns - request.arrival_ns) / self.aging_ns

    def _dispatch(
        self,
        lane: _Lane,
        admitted: List[PimRequest],
        serving: ServingProfile,
        touched: set,
    ) -> None:
        """Form and execute one batch from the lane's admitted queue.

        Expired requests are purged first (zero device cycles); the head
        is the arrived request with the highest effective priority, and
        same-signature arrived requests join its fused launch up to
        ``max_batch``.
        """
        t0 = max(lane.ready_ns, min(r.arrival_ns for r in admitted))
        # Purge expirations among the arrived set (a deadline can only
        # pass after arrival, so unarrived requests cannot have expired).
        expired = [
            r
            for r in admitted
            if r.arrival_ns <= t0
            and r.deadline_ns is not None
            and t0 > r.deadline_ns
        ]
        for request in expired:
            admitted.remove(request)
            self._drop(
                lane, request, RequestOutcome.EXPIRED,
                max(request.arrival_ns, request.deadline_ns), serving,
            )
        eligible = [r for r in admitted if r.arrival_ns <= t0]
        if not eligible:
            return  # the dispatch point moved; the drain loop recomputes
        head = max(
            eligible,
            key=lambda r: (
                self._effective_priority(r, t0),
                -r.arrival_ns,
                -r.request_id,
            ),
        )
        batch = [head]
        for candidate in eligible:
            if len(batch) >= self.max_batch:
                break
            if candidate is head:
                continue
            if candidate.signature == head.signature:
                batch.append(candidate)
        for member in batch:
            admitted.remove(member)

        tracer = self.tracer
        head_span = dispatch_span = None
        if tracer is not None:
            # The batch span parents under the *head* request's span
            # (head.arrival_ns <= t0 by eligibility, so it nests); the
            # other members get sibling request spans referencing the
            # batch by id once the outcome is known.
            head_span = tracer.begin(
                f"request:{head.op}",
                category="request",
                lane=lane.index,
                request_id=head.request_id,
                priority=head.priority,
                **_trace_attrs(head),
            )
            dispatch_span = tracer.begin(
                "dispatch",
                category="dispatch",
                lane=lane.index,
                op=head.op,
                batch=len(batch),
            )
        before = tuple(lane.channels) if lane.channels is not None else ()
        report, penalty_ns, device_ok = self._execute_protected(
            lane, batch, serving, t0
        )
        after = tuple(lane.channels) if lane.channels is not None else ()
        if before or after:
            touched.update(before)
            touched.update(after)
        finish = t0 + penalty_ns + report.ns
        outcome = (
            RequestOutcome.COMPLETED if device_ok
            else RequestOutcome.DEGRADED_HOST
        )
        for member in batch:
            member.start_ns = t0
            member.finish_ns = finish
            member.report = report
            member.batch_size = len(batch)
            member.lane = lane.index
            member.outcome = outcome
            serving.record(member.stats())
            self._journal_outcome(member)
        if tracer is not None:
            tracer.finish(dispatch_span, t0, finish, device_ok=device_ok)
            tracer.finish(
                head_span, head.arrival_ns, finish, outcome=outcome.value
            )
            for member in batch:
                if member is head:
                    continue
                tracer.record(
                    f"request:{member.op}",
                    member.arrival_ns,
                    finish,
                    category="request",
                    lane=lane.index,
                    request_id=member.request_id,
                    outcome=outcome.value,
                    priority=member.priority,
                    batch_span=dispatch_span.span_id,
                    **_trace_attrs(member),
                )
        lane.ready_ns = finish
        serving.batches += 1
        serving.launches += int(report.notes.get("launches", 1))
        if self.profiler is not None:
            self.profiler.record(report)
        self._breaker_after_batch(lane, device_ok, finish, serving)
        if tracer is not None:
            # Between-batch housekeeping (injection epoch, scrub) lands
            # at the batch's finish on the serving clock.
            tracer.set_clock(finish, self._lane_cycle(lane))
        self._after_batch(serving)

    # -- circuit breaker ----------------------------------------------------------

    def _breaker_transition(
        self, lane: _Lane, state: str, at_ns: float, serving: ServingProfile
    ) -> None:
        """Move ``lane``'s breaker to ``state`` and log the transition."""
        serving.record_breaker(lane.index, lane.breaker_state, state, at_ns)
        if self.tracer is not None:
            self.tracer.event(
                f"breaker:{state}",
                at_ns=at_ns,
                category="breaker",
                lane=lane.index,
                previous=lane.breaker_state,
            )
        lane.breaker_state = state

    def _breaker_after_batch(
        self,
        lane: _Lane,
        device_ok: bool,
        finish_ns: float,
        serving: ServingProfile,
    ) -> None:
        """Update the lane's breaker with one batch's device verdict."""
        if self.breaker_threshold <= 0 or lane.channels is None:
            return
        if device_ok:
            lane.breaker_failures = 0
            if lane.breaker_state == "half_open":
                self._breaker_transition(lane, "closed", finish_ns, serving)
            return
        lane.breaker_failures += 1
        if lane.breaker_state == "half_open":
            # The probe failed: re-open and restart the cooldown.
            self._breaker_transition(lane, "open", finish_ns, serving)
            lane.breaker_open_until_ns = finish_ns + self.breaker_cooldown_ns
        elif (
            lane.breaker_state == "closed"
            and lane.breaker_failures >= self.breaker_threshold
        ):
            self._breaker_transition(lane, "open", finish_ns, serving)
            lane.breaker_open_until_ns = finish_ns + self.breaker_cooldown_ns

    def _execute_protected(
        self,
        lane: _Lane,
        batch: List[PimRequest],
        serving: ServingProfile,
        t0: float,
    ) -> Tuple[ExecutionReport, float, bool]:
        """Route one batch through the lane's circuit breaker.

        An open breaker short-circuits the device entirely (host path,
        zero device cycles) until the cooldown elapses; the first batch
        after it becomes a half-open probe with a single device attempt.
        Returns ``(report, penalty_ns, device_ok)``.
        """
        attempts: Optional[int] = None
        if (
            self.breaker_threshold > 0
            and lane.channels is not None
            and lane.breaker_state == "open"
        ):
            if t0 < lane.breaker_open_until_ns:
                serving.breaker_short_circuits += 1
                report = self._execute_host(batch)
                if self.tracer is not None:
                    self.tracer.event(
                        "breaker:short_circuit",
                        at_ns=t0,
                        category="breaker",
                        lane=lane.index,
                    )
                    self.tracer.record(
                        f"host:{batch[0].op}",
                        t0,
                        t0 + report.ns,
                        category="host",
                        lane=lane.index,
                        reason="breaker_open",
                    )
                return report, 0.0, False
            self._breaker_transition(lane, "half_open", t0, serving)
        if lane.breaker_state == "half_open":
            attempts = 1  # one probe attempt, no retries
        return self._execute_resilient(
            lane, batch, serving, t0, attempts_allowed=attempts
        )

    # -- fault tolerance ----------------------------------------------------------

    def _device_ecc_corrected(self) -> int:
        """Device-wide count of words corrected by the banks' SEC-DED."""
        total = 0
        for pch in range(self.sys.num_pchs):
            for bank in self.sys.device.pch(pch).banks:
                stats = getattr(bank, "ecc_stats", None)
                if stats is not None:
                    total += stats.corrected
        return total

    def _lane_cycle(self, lane: _Lane) -> int:
        if lane.channels is None:
            return 0
        controllers = self.sys.controllers
        return max(controllers[p].current_cycle for p in lane.channels)

    def _after_batch(self, serving: ServingProfile) -> None:
        """Between batches: one injection epoch, plus scrub when due."""
        if self.injector is not None:
            injected = self.injector.tick()
            serving.faults_injected += injected
            if injected and self.tracer is not None:
                self.tracer.event(
                    "faults", category="fault", injected=injected
                )
        if self.scrub_interval <= 0:
            return
        self._batches_since_scrub += 1
        if self._batches_since_scrub < self.scrub_interval:
            return
        self._batches_since_scrub = 0
        result = self.sys.driver.scrub()
        serving.scrubs += 1
        serving.scrub_corrected += result.corrected
        serving.scrub_uncorrectable += result.uncorrectable_words

    def _backoff_ns(self, attempt: int) -> float:
        """Deterministic exponential backoff with seeded jitter.

        ``attempt`` counts from 1; the delay doubles per attempt and is
        jittered by up to ±``backoff_jitter`` of itself, drawn from the
        server's seeded generator so runs replay byte-identically.
        """
        backoff = self.backoff_base_ns * (2.0 ** (attempt - 1))
        if self.backoff_jitter > 0.0:
            backoff *= 1.0 + self.backoff_jitter * (
                2.0 * float(self._rng.random()) - 1.0
            )
        return backoff

    def _execute_resilient(
        self,
        lane: _Lane,
        batch: List[PimRequest],
        serving: ServingProfile,
        t0: float,
        attempts_allowed: Optional[int] = None,
    ) -> Tuple[ExecutionReport, float, bool]:
        """Execute a batch, healing and retrying on recoverable faults.

        Returns ``(report, penalty_ns, device_ok)`` where ``penalty_ns``
        is the simulated time lost to failed attempts and retry backoff
        (the batch's finish time includes it) and ``device_ok`` tells
        whether the device — rather than the host golden path — produced
        the result.  Retries beyond the first attempt spend one token
        each from the server-wide seeded budget and pay exponential
        backoff with jitter; exhaustion of either bound — or a dead lane
        — falls back to the bit-exact host golden path, so the batch
        *always* completes.  ``t0`` is the batch's dispatch time on the
        serving clock, used only to place trace spans.
        """
        if attempts_allowed is None:
            attempts_allowed = self.max_retries + 1
        tracer = self.tracer
        failures = 0
        penalty_ns = 0.0
        while lane.channels is not None:
            cycle_start = self._lane_cycle(lane)
            attempt_ns = t0 + penalty_ns
            kernel_span = mark = None
            if tracer is not None:
                # Re-base the cycle clock so this attempt's controller
                # bursts land inside the kernel span on the request
                # timeline (channels lagging the lane front clamp to the
                # attempt start).
                tracer.set_clock(attempt_ns, cycle_start)
                mark = tracer.mark()
                kernel_span = tracer.begin(
                    f"kernel:{batch[0].op}",
                    category="kernel",
                    lane=lane.index,
                    attempt=failures + 1,
                )
            try:
                report = self._execute(lane, batch)
            except (PimChannelError, PimDataError) as err:
                failures += 1
                wasted = self._lane_cycle(lane) - cycle_start
                wasted_ns = self.sys.cycles_to_ns(max(0, wasted))
                penalty_ns += wasted_ns
                if tracer is not None:
                    end_ns = attempt_ns + wasted_ns
                    tracer.finish(
                        kernel_span,
                        attempt_ns,
                        end_ns,
                        ok=False,
                        error=type(err).__name__,
                    )
                    tracer.clamp_since(mark, attempt_ns, end_ns)
                    tracer.event(
                        "fault",
                        at_ns=end_ns,
                        category="fault",
                        lane=lane.index,
                        error=type(err).__name__,
                        attempt=failures,
                    )
                self._heal_lane(lane, err, serving)
                if failures >= attempts_allowed:
                    break
                if self._retry_tokens < 1.0:
                    serving.retry_budget_exhausted += 1
                    break
                self._retry_tokens -= 1.0
                backoff = self._backoff_ns(failures)
                penalty_ns += backoff
                serving.retries += 1
                for member in batch:
                    member.retries += 1
                if tracer is not None:
                    tracer.event(
                        "retry",
                        at_ns=t0 + penalty_ns,
                        category="retry",
                        lane=lane.index,
                        attempt=failures,
                        backoff_ns=backoff,
                    )
            else:
                # A successful device batch earns back part of a token.
                self._retry_tokens = min(
                    self.retry_budget, self._retry_tokens + self.retry_refill
                )
                if tracer is not None:
                    end_ns = attempt_ns + report.ns
                    tracer.finish(kernel_span, attempt_ns, end_ns, ok=True)
                    tracer.clamp_since(mark, attempt_ns, end_ns)
                return report, penalty_ns, True
        report = self._execute_host(batch)
        serving.fallbacks += len(batch)
        for member in batch:
            member.fallback = True
        if tracer is not None:
            fallback_ns = t0 + penalty_ns
            tracer.event(
                "fallback",
                at_ns=fallback_ns,
                category="fallback",
                lane=lane.index,
                reason="dead_lane" if lane.channels is None else "retries",
            )
            tracer.record(
                f"host:{batch[0].op}",
                fallback_ns,
                fallback_ns + report.ns,
                category="host",
                lane=lane.index,
                reason="fallback",
            )
        return report, penalty_ns, False

    def _heal_lane(
        self, lane: _Lane, error: PimError, serving: ServingProfile
    ) -> None:
        """Recover a lane after a fault unwound through a kernel.

        1. Release every resident kernel (their rows may hold the
           corruption; a retry re-stages from the host copy).
        2. On a channel hard failure, quarantine the named channels
           through the driver (unattributable channel failures retire the
           whole set) and try to backfill the lane from the free pool.
        3. Reset every surviving channel: abandon queued requests and
           force the way out of any stranded AB(-PIM) state.

        A lane whose last channel is quarantined becomes *dead*
        (``channels = None``); its traffic completes on the host path.
        """
        driver = self.sys.driver
        kernels = list(lane.gemv_kernels.values())
        kernels.extend(lane.elementwise_kernels.values())
        lane.gemv_kernels.clear()
        lane.elementwise_kernels.clear()
        for kernel in kernels:
            try:
                kernel.release()
            except PimError:
                pass  # rows already reclaimed; nothing else to free
        channels = tuple(lane.channels) if lane.channels is not None else ()
        bad = tuple(
            p for p in getattr(error, "channels", ()) if p in channels
        )
        if isinstance(error, PimChannelError) and not bad:
            bad = channels
        if bad:
            driver.quarantine_channels(bad)
            serving.quarantined_channels.extend(bad)
        survivors = [p for p in channels if p not in bad]
        deficit = len(channels) - len(survivors)
        if deficit > 0:
            available = len(driver.channels_free)
            if available > 0:
                leased = driver.alloc_channels(min(deficit, available))
                survivors.extend(leased.channels)
        for p in survivors:
            self.sys.controllers[p].reset_channel()
        lane.channels = (
            ChannelSet(tuple(survivors)) if survivors else None
        )

    def _execute_host(self, batch: List[PimRequest]) -> ExecutionReport:
        """Serve a batch on the host golden path (bit-exact fallback).

        :func:`~repro.stack.arithmetic.golden_reference` reproduces the
        device's exact arithmetic, so a request completed here is
        indistinguishable from one served by a healthy device.  Its
        simulated duration: the host re-reads the operands over the
        off-chip interface at the workload's achievable bandwidth
        efficiency (the same model :mod:`repro.host.processor` uses for
        host baselines) plus one kernel-launch overhead for the batch.
        """
        for member in batch:
            member.result = golden_reference(member, self.sys.num_pchs)
        host = self.sys.host
        head = batch[0]
        if head.op == "gemv":
            efficiency = host.gemv_bandwidth_efficiency
            # Weights stream once per batch; per member x in, fp32 y out.
            host_bytes = head.weights.size * 2 + sum(
                np.asarray(m.a).size * 2 + head.weights.shape[0] * 4
                for m in batch
            )
        else:
            efficiency = host.add_bandwidth_efficiency
            operands = 3 if ELEMENTWISE_OPS[head.op].uses_second_operand else 2
            host_bytes = sum(
                np.asarray(m.a).size * 2 * operands for m in batch
            )
        io_bw = self.sys.device.config.io_bandwidth_bytes_per_sec
        return ExecutionReport(
            kernel=f"host-fallback:{head.op}",
            ns=host.kernel_launch_ns + host_bytes / (io_bw * efficiency) * 1e9,
            host_bytes=int(host_bytes),
            total_pchs=self.sys.num_pchs,
            notes={"launches": 0, "host_fallback": float(len(batch))},
        )

    def _execute(self, lane: _Lane, batch: List[PimRequest]):
        head = batch[0]
        if head.op == "gemv":
            kernel = lane.gemv_kernels.get(head.signature)
            if kernel is None:
                kernel = GemvKernel(
                    self.sys,
                    head.weights.shape[0],
                    head.weights.shape[1],
                    channels=lane.channels.channels,
                    max_batch=self.max_batch,
                )
                try:
                    kernel.load_weights(head.weights)
                except BaseException:
                    # Staging failed (e.g. a dead channel): free the
                    # kernel's rows before the fault propagates, or every
                    # retry would leak a fresh allocation.
                    kernel.release()
                    raise
                lane.gemv_kernels[head.signature] = kernel
            xs = np.stack([np.asarray(r.a, dtype=np.float16) for r in batch])
            ys, report = kernel.batched(xs, simulate_pchs=self.simulate_pchs)
            for request, y in zip(batch, ys):
                request.result = y
        else:
            kernel = lane.elementwise_kernels.get(head.signature)
            if kernel is None:
                kernel = ElementwiseKernel(
                    self.sys,
                    head.op,
                    int(np.asarray(head.a).size),
                    channels=lane.channels.channels,
                )
                lane.elementwise_kernels[head.signature] = kernel
            items = [(r.a, r.b, r.scalars) for r in batch]
            results, report = kernel.batched(
                items, simulate_pchs=self.simulate_pchs
            )
            for request, result in zip(batch, results):
                request.result = result
        return report
