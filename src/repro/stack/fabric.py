"""A self-healing multi-process serving fabric: one router, N replica shards.

The paper's software stack serves "millions of users" from one runtime;
a single Python process driving every lane serialises on the interpreter
long before the simulated device saturates.  :class:`PimFabric` is the
scale-out tier: it shards serving across worker *processes* (each owning
a full :class:`~repro.stack.context.PimContext` +
:class:`~repro.stack.server.PimServer` over an identically-configured
device replica — see :mod:`repro.stack.worker`) and plays the role the
device driver plays one level down: placement, failure isolation, and
merged accounting.

* **placement** — requests are routed by *signature* on a consistent-hash
  ring (virtual nodes per shard), so same-signature requests land on the
  same shard and reuse its staged weights/kernels, and a quarantined
  shard only re-homes its own arc of the ring.  Load is *cost*, not
  count: the column commands a request will put on the bus
  (:func:`request_cost`, plan arithmetic over its operand shape — a GEMV
  64x96 is 120, an add[1024] 24).  A group that would push its home
  shard past the round's fair share of that cost falls back to the
  least-loaded shard instead.  Each shard's round goes out in
  submission order, so the worker sees the interleaved stream the
  client sent (:func:`place_round`).
* **failure handling** — the quarantine + breaker discipline of the
  channel tier, lifted to shards, plus a *lifecycle manager* that brings
  capacity back.  Each shard slot walks the state machine ``serving →
  suspected → quarantined → respawning → rejoined``, and ends
  ``closed`` after :meth:`close` (see ``docs/ARCHITECTURE.md``, "Fabric
  resilience & chaos"): a worker that
  dies (SIGKILL, crash, broken pipe), misses a between-rounds heartbeat,
  wedges past the configurable ``ServerConfig.reply_timeout_s``
  watchdog, or ships a payload that fails its CRC32 check is
  quarantined and its round replayed on the survivors — then, within
  ``ServerConfig.max_respawns``, a fresh process is respawned into the
  slot, rebuilds the device replica, and *rejoins* the ring, restoring
  capacity.  :meth:`drain` is the graceful variant: in-flight groups
  finish, the process is recycled with a handshake, nothing is
  quarantined or replayed.  A straggler short of the watchdog is waited
  out, never raced: each group runs on exactly one shard, so every run
  replays byte-identically.  Every submitted request still ends in exactly
  one terminal :class:`~repro.stack.server.RequestOutcome` — the host
  golden path remains the completion of last resort when no shard is
  left and the respawn budget is spent.
* **accounting** — per-shard :class:`~repro.stack.profiler.ServingProfile`
  replies merge through ``ServingProfile.merge()`` (associative and
  commutative, so arrival order does not matter) with channels rewritten
  into a global ``shard * num_pchs + local`` space; worker trace spans
  merge into the router's tracer with shard tags, and the Chrome export
  shows one process row per shard (pid = shard, tid = lane).  Respawns
  (shard-tagged) are counted on the profile and emitted as instant
  trace events.
* **scheduling** — every worker process (first spawn, respawn, drain
  recycle: all go through ``PimFabric._spawn``) runs under
  ``os.SCHED_BATCH``, which never preempts on wakeup.  The router puts
  a round on every shard's pipe before any woken worker takes its core,
  so the shards of a round compute at once instead of the first one
  stalling the router's dispatch to the next.  Best-effort: where the
  policy is missing or refused the worker keeps the default; nice
  level, affinity and the router's own policy are left alone
  (``docs/ARCHITECTURE.md``, "Sharded serving").

::

    with PimContext(SystemConfig.fast_functional()) as ctx:
        with ctx.fabric(workers=4) as fabric:
            handles = [fabric.submit(Request("gemv", weights=w, a=x))
                       for x in inputs]
            profile = fabric.run()
        results = [h.result for h in handles]
"""

from __future__ import annotations

import bisect
import hashlib
import math
import multiprocessing
import multiprocessing.connection
import os
import pickle
import secrets
import signal
import time
import zlib
from multiprocessing import shared_memory
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import PimProgramError, PimWorkerError
from .api import Request, ServerConfig
from .arithmetic import golden_reference
from .kernels import column_cost
from .profiler import Profiler, RequestStats, ServingProfile
from .runtime import SystemConfig
from .shm import (
    DEFAULT_SEGMENT_BYTES,
    SHM_PREFIX,
    ArrayRef,
    SegmentCache,
    ShmArena,
    WEIGHT_STORE_MB,
    StagedWeights,
    encode_request,
)
from .worker import run_worker

__all__ = ["FabricHandle", "PimFabric", "place_round", "request_cost"]


class FabricHandle:
    """The caller's handle to one request submitted to a fabric.

    Mirrors the single-process :class:`~repro.stack.server.PimRequest`
    surface the way callers actually use it: ``result`` (the computed
    array, bit-exact with the host reference), ``outcome`` (the terminal
    :class:`~repro.stack.server.RequestOutcome` value as a string), and
    ``shard`` (which worker served it; -1 means the router's host golden
    path).  All three are ``None`` until :meth:`PimFabric.run` returns.
    """

    def __init__(self, request_id: int, request: Request):
        #: Fabric-wide request id (unique across shards and rounds).
        self.request_id = request_id
        #: The immutable submitted request.
        self.request = request
        #: Computed result (None until run(), or for dropped requests).
        self.result: Optional[np.ndarray] = None
        #: Terminal outcome string (see RequestOutcome), None until run().
        self.outcome: Optional[str] = None
        #: Shard that produced the terminal outcome (-1 = router host path).
        self.shard: Optional[int] = None
        #: How many times the request was replayed off a dead shard.
        self.replays: int = 0


class _HashRing:
    """Consistent-hash ring with virtual nodes over the alive shards."""

    def __init__(self, shards, vnodes: int = 64):
        self._vnodes = int(vnodes)
        self._shards: set = set()
        self._points: List[int] = []
        self._owners: List[int] = []
        for shard in shards:
            self.add(shard)

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(
            hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
        )

    def _rebuild(self) -> None:
        ring = []
        for shard in self._shards:
            for v in range(self._vnodes):
                ring.append((self._hash(f"shard{shard}:vn{v}"), shard))
        ring.sort()
        self._points = [p for p, _ in ring]
        self._owners = [s for _, s in ring]

    def add(self, shard: int) -> None:
        """Add ``shard``'s virtual nodes to the ring (no-op when present).

        A respawned shard re-adds the *same* virtual nodes it owned
        before quarantine, so its arc of signature space comes home.
        """
        self._shards.add(int(shard))
        self._rebuild()

    def remove(self, shard: int) -> None:
        """Drop ``shard`` from the ring (no-op when absent)."""
        self._shards.discard(int(shard))
        self._rebuild()

    def lookup(self, key: Tuple) -> int:
        """The shard owning ``key``'s ring point (clockwise successor)."""
        if not self._points:
            raise PimWorkerError("no alive shards on the ring")
        point = self._hash(repr(key))
        i = bisect.bisect_right(self._points, point) % len(self._points)
        return self._owners[i]


def request_cost(
    request: Request, config: SystemConfig, server_config: ServerConfig
) -> int:
    """The load ``request`` is to a shard: its column commands on one stream.

    :func:`~repro.stack.kernels.column_cost` of the request's operand
    shape under the geometry every worker is built with — GEMV slices
    over the device's ``num_pchs``, elementwise blocks over the channel
    slots of one serving lane.  A pure function of shapes and config:
    known before launch and identical in every replay, which a timer or a
    reply-derived statistic would not be.
    """
    if request.op == "gemv":
        return column_cost("gemv", np.shape(request.weights), config.num_pchs)
    slots = max(1, config.num_pchs // server_config.lanes)
    return column_cost(request.op, (int(np.size(request.a)),), slots)


def place_round(
    handles: List[FabricHandle],
    cost: Callable[[Request], int],
    alive: List[int],
    ring: _HashRing,
) -> Tuple[Dict[int, List[FabricHandle]], Dict[int, int], int]:
    """Place one round on the ``alive`` shards, balancing ``cost``.

    Returns ``(assignment, load, fair)``: each used shard's handles in
    submission (``request_id``) order, every alive shard's placed cost,
    and the fair share ``ceil(total cost / alive)``.

    Same-signature requests stay together (they batch and reuse the
    shard's staged weights); each group's home is its signature's ring
    owner, unless that would push the shard past the fair share — then
    the group falls back to the least-loaded shard.  Groups are placed
    costliest-first so the fallback has room to even out hash skew (round
    makespan is the *max* over shards).  Ties break on ``repr(signature)``
    and ``(load, shard)``, so the result is a pure function of the
    round's requests and the alive set — no dict or arrival order leaks
    into it.

    A shard's list is in submission order, not group order, because the
    worker's server binds signatures to lanes round-robin as it first
    sees them: the interleaved stream the client sent spreads a shard's
    launches over its lanes, a group-sorted one stacks them.
    """
    groups: Dict[Tuple, List[FabricHandle]] = {}
    weight: Dict[Tuple, int] = {}
    for handle in handles:
        signature = handle.request.signature
        groups.setdefault(signature, []).append(handle)
        weight[signature] = weight.get(signature, 0) + cost(handle.request)
    fair = max(1, math.ceil(sum(weight.values()) / len(alive)))
    load = {shard: 0 for shard in alive}
    assignment: Dict[int, List[FabricHandle]] = {s: [] for s in alive}
    for signature in sorted(groups, key=lambda sig: (-weight[sig], repr(sig))):
        shard = ring.lookup(signature)
        if load[shard] + weight[signature] > fair:
            shard = min(alive, key=lambda s: (load[s], s))
        assignment[shard].extend(groups[signature])
        load[shard] += weight[signature]
    for items in assignment.values():
        items.sort(key=lambda handle: handle.request_id)
    return {s: items for s, items in assignment.items() if items}, load, fair


#: Lifecycle states of a slot whose worker takes no work.
_DOWN_STATES = ("quarantined", "respawning", "closed")


@dataclass
class _WorkerLink:
    """The router's bookkeeping for one shard slot's worker process."""

    shard: int
    process: Any
    conn: Any
    #: Requests this shard has terminally served across rounds.
    served: int = 0
    #: Lifecycle state of the slot: serving -> suspected -> quarantined
    #: -> respawning -> rejoined (drain adds a "draining" detour), and
    #: "closed" once close() has reaped the worker.
    state: str = "serving"
    #: Respawns this slot has consumed (bounded by max_respawns; a
    #: graceful drain recycle is free).
    generation: int = 0

    @property
    def alive(self) -> bool:
        """Whether the slot's worker takes work (derived from ``state``)."""
        return self.state not in _DOWN_STATES


class PimFabric:
    """Routes requests across N worker processes, each a device replica.

    Construct directly (``PimFabric(SystemConfig(...), workers=4)``) or —
    the blessed path — via :meth:`repro.stack.context.PimContext.fabric`,
    which wires the context's profiler/tracer/metrics through.
    :meth:`submit` takes a :class:`~repro.stack.api.Request`, like
    :meth:`PimServer.submit <repro.stack.server.PimServer.submit>`.

    Every wall-clock bound of the lifecycle manager (reply watchdog,
    heartbeat, close/join) comes from the
    :class:`~repro.stack.api.ServerConfig` — nothing is hard-coded, so
    tests run the wedge path in milliseconds and operators tune it for
    their deployment.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        workers: int = 2,
        server_config: Optional[ServerConfig] = None,
        *,
        profiler: Optional[Profiler] = None,
        tracer=None,
        metrics=None,
        start_method: Optional[str] = None,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.config = config or SystemConfig()
        self.server_config = server_config or ServerConfig()
        if self.server_config.transport not in ("pipe", "shm"):
            raise ValueError(
                f"unknown transport {self.server_config.transport!r} "
                f"(expected 'pipe' or 'shm')"
            )
        self.num_workers = int(workers)
        self.profiler = profiler
        self.metrics = metrics
        self.tracer = tracer
        if self.tracer is None and self.config.trace:
            from ..obs import Tracer

            self.tracer = Tracer()
        #: PimWorkerError log, one entry per quarantined shard (newest last).
        self.worker_errors: List[PimWorkerError] = []
        #: Graceful drain/hot-restart recycles performed (see drain()).
        self.drains: int = 0
        # Durability (repro.journal): the *router* owns the journal —
        # workers get the knob stripped, or every shard would re-journal
        # its slice under colliding rids.  Imported lazily to keep the
        # journal package depending on the stack, not vice versa.
        self._journal = None
        self._worker_config = self.server_config
        if self.server_config.journal_dir:
            from ..journal.wal import JournalWriter

            self._worker_config = self.server_config.replace(
                journal_dir=None, journal_sync=False
            )
            self._journal = JournalWriter(
                self.server_config.journal_dir,
                sync=self.server_config.journal_sync,
            )
            self._journal.append_meta(self.config, self.server_config)
        # -- transport (docs/ARCHITECTURE.md, "Fabric transport").  The
        #    router is the single owner of every shared-memory segment:
        #    it creates the operand arena and one result segment per
        #    shard slot before any worker exists, and it alone unlinks
        #    them at close().  Workers only attach, so no worker death —
        #    SIGKILL included — can leak a /dev/shm entry. --
        self._arena: Optional[ShmArena] = None
        self._segments: Optional[SegmentCache] = None
        self._result_segments: Dict[int, Any] = {}
        self._transport_specs: Dict[int, Dict[str, Any]] = {}
        #: Per-shard staged-weight digests the router believes resident
        #: (cleared on quarantine/drain/respawn so a fresh worker always
        #: re-stages — never serves stale weights).
        self._resident: Dict[int, set] = {}
        #: Pipe-serialised control bytes sent/received (both transports)
        #: and bulk tensor bytes staged through/read out of shared
        #: memory (shm only).  bytes_tx is the bench's bytes-on-wire.
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.shm_tx = 0
        self.shm_rx = 0
        #: Fabric-wide weight-store totals folded from worker replies.
        self.weight_store_stats: Dict[str, int] = {
            "hits": 0, "misses": 0, "evictions": 0
        }
        if self.server_config.transport == "shm":
            self._arena = ShmArena(tag="tx")
            self._segments = SegmentCache()
            token = secrets.token_hex(4)
            for shard in range(self.num_workers):
                name = (
                    f"{SHM_PREFIX}-res{shard}-{os.getpid()}-{token}"
                )
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=DEFAULT_SEGMENT_BYTES
                )
                self._result_segments[shard] = segment
                self._transport_specs[shard] = {
                    "result_segment": name,
                    "result_bytes": DEFAULT_SEGMENT_BYTES,
                }
        self._mp = multiprocessing.get_context(start_method)
        self._workers: Dict[int, _WorkerLink] = {
            shard: self._spawn(shard) for shard in range(self.num_workers)
        }
        self._ring = _HashRing(range(self.num_workers))
        self._pending: List[FabricHandle] = []
        self._next_rid = 0
        self._quarantined: List[int] = []
        self._respawns: Dict[int, int] = {}
        self._merged_ids = 0
        # Test/failure-injection hook: called once per round, after every
        # dispatch is on the wire and before any reply is collected.  The
        # worker-kill conservation test SIGKILLs a shard here, which is
        # the most adversarial deterministic instant (work genuinely
        # in flight on the doomed worker).
        self._post_dispatch_hook: Optional[Callable[["PimFabric"], None]] = None
        #: The in-flight round's shard -> handles map (for hooks/tests),
        #: and every alive shard's placed cost in column commands — the
        #: one definition of "loaded" the router compares shards by.
        self._round_assignment: Dict[int, List[FabricHandle]] = {}
        self._round_cost: Dict[int, int] = {}
        # Shards dispatched this round, until its replies are collected.
        self._in_flight: set = set()
        # Replies collected early by drain(), keyed by shard.
        self._stashed_replies: Dict[int, Tuple] = {}
        self._closed = False

    # -- lifecycle ----------------------------------------------------------------

    def _spawn(self, shard: int) -> _WorkerLink:
        parent, child = self._mp.Pipe()
        process = self._mp.Process(
            target=run_worker,
            args=(
                child, self.config, self._worker_config, shard,
                self._transport_specs.get(shard),
            ),
            name=f"pim-fabric-shard{shard}",
            daemon=True,
        )
        process.start()
        child.close()
        try:
            os.sched_setscheduler(process.pid, os.SCHED_BATCH, os.sched_param(0))
        except (AttributeError, OSError):
            pass  # the worker keeps the default policy
        # A fresh process has an empty weight store, whatever the router
        # believed about its predecessor in this slot.
        self._resident.pop(shard, None)
        return _WorkerLink(shard=shard, process=process, conn=parent)

    def __enter__(self) -> "PimFabric":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Shut every worker down and reap the processes. Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._journal is not None:
            self._journal.close()
        for link in self._workers.values():
            self._shutdown(link)
            link.state = "closed"
        self._close_shm()

    def _close_shm(self) -> None:
        """Unlink every owned shared-memory segment (single-owner duty).

        Runs after the workers are down (they only held attachments, and
        on Linux an unlink with stragglers attached is safe anyway) —
        leaves ``/dev/shm`` exactly as the fabric found it.
        """
        if self._segments is not None:
            self._segments.close()
            self._segments = None
        if self._arena is not None:
            self._arena.close()
            self._arena = None
        for segment in self._result_segments.values():
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._result_segments.clear()

    def _reap(self, link: _WorkerLink) -> None:
        """Join (or kill-then-join) one worker process, bounded."""
        if link.process is not None:
            if link.process.is_alive():
                link.process.kill()
            link.process.join(timeout=self.server_config.join_timeout_s)

    def _shutdown(self, link: _WorkerLink) -> None:
        """Take one worker down gracefully: close handshake (when it is
        still serving), close the pipe, bounded join, then :meth:`_reap`
        a child that is stuck."""
        cfg = self.server_config
        if link.alive:
            try:
                link.conn.send(("close",))
                if link.conn.poll(cfg.close_timeout_s):
                    link.conn.recv()
            except (OSError, EOFError, BrokenPipeError):
                pass
        try:
            link.conn.close()
        except OSError:
            pass
        if link.process is not None:
            link.process.join(timeout=cfg.join_timeout_s)
            if link.process.is_alive():  # pragma: no cover - stuck child
                self._reap(link)

    def _respawn(self, shard: int, generation: int) -> _WorkerLink:
        """Spawn a fresh worker into ``shard``'s slot; the slot's served
        tally carries over and the new link starts ``rejoined``."""
        fresh = self._spawn(shard)
        fresh.served = self._workers[shard].served
        fresh.generation = generation
        fresh.state = "rejoined"
        self._workers[shard] = fresh
        return fresh

    def drain(self, shard: int) -> None:
        """Gracefully recycle ``shard``'s worker: a zero-loss hot restart.

        If a round is in flight on the shard (drain called from a
        post-dispatch hook), its reply is collected *first* and stashed
        for the round's normal folding — in-flight groups finish,
        nothing is quarantined or replayed.  A reply that cannot be
        collected (the worker already died, or stays silent past
        ``reply_timeout_s``) is stashed as an error instead, so the
        round replays the group at once.  The worker is then shut
        down with the close handshake, joined, and a fresh device
        replica is spawned into the slot; the shard never leaves the
        ring, so capacity is uninterrupted.  A drain does not spend
        respawn budget.  Raises :class:`~repro.errors.PimWorkerError`
        for a dead shard (use the quarantine/respawn path instead).
        """
        link = self._workers[shard]
        if self._closed or not link.alive:
            raise PimWorkerError(
                f"cannot drain shard {shard}: worker is not serving",
                shard=shard,
            )
        link.state = "draining"
        if shard in self._in_flight and shard not in self._stashed_replies:
            # Finish the in-flight group before recycling the process.
            # Decode eagerly: under shm the reply's descriptors point
            # into the slot's result segment, which the replacement
            # worker will rewind at its next serve.
            timeout = self.server_config.reply_timeout_s
            try:
                if not link.conn.poll(timeout):
                    raise PimWorkerError(
                        f"no reply within reply_timeout_s={timeout:g}s"
                    )
                stashed = ("ok", self._decode_reply(link.conn.recv(), shard))
            except (EOFError, OSError):
                stashed = ("error", "worker died before its reply arrived")
            except PimWorkerError as err:
                stashed = ("error", str(err))
            self._stashed_replies[shard] = stashed
        self._shutdown(link)
        self._respawn(shard, link.generation)
        self.drains += 1
        self._event("drain:shard", shard=shard)

    def heartbeat(
        self, serving: Optional[ServingProfile] = None
    ) -> List[int]:
        """Ping every alive worker; quarantine the silent.  Returns them.

        The between-rounds liveness probe of the lifecycle manager: every
        alive shard is pinged concurrently and must pong within
        ``ServerConfig.heartbeat_timeout_s``.  A silent worker moves
        ``serving -> suspected``, is killed, and is quarantined (the
        next :meth:`_heal` respawns it within budget).
        """
        cfg = self.server_config
        failed: List[int] = []
        pinged: List[int] = []
        for shard in self.alive_shards():
            link = self._workers[shard]
            try:
                link.conn.send(("ping",))
            except (OSError, BrokenPipeError):
                failed.append(shard)
            else:
                pinged.append(shard)
        for shard in pinged:
            conn = self._workers[shard].conn
            try:
                ok = (
                    conn.poll(cfg.heartbeat_timeout_s)
                    and conn.recv()[0] == "pong"
                )
            except (EOFError, OSError):
                ok = False
            if not ok:
                failed.append(shard)
        for shard in failed:
            link = self._workers[shard]
            link.state = "suspected"
            self._event("heartbeat:miss", shard=shard)
            self.kill_worker(shard)
            self._quarantine(
                shard, serving,
                reason="missed the between-rounds heartbeat",
            )
        return failed

    def _heal(
        self, serving: Optional[ServingProfile] = None
    ) -> List[int]:
        """Respawn quarantined slots within budget; rejoin them to the ring.

        Returns the shards revived.  Each respawn rebuilds a full device
        replica in a fresh process and re-adds the shard's virtual nodes
        to the consistent-hash ring — capacity comes *back*, which is
        what distinguishes this fabric from the quarantine-only tier it
        replaces.  Bounded by ``ServerConfig.max_respawns`` per slot.
        """
        if self._closed:
            return []
        cfg = self.server_config
        revived: List[int] = []
        for shard in sorted(self._workers):
            link = self._workers[shard]
            if link.alive or link.generation >= cfg.max_respawns:
                continue
            link.state = "respawning"
            fresh = self._respawn(shard, link.generation + 1)
            self._ring.add(shard)
            revived.append(shard)
            self._respawns[shard] = self._respawns.get(shard, 0) + 1
            if serving is not None:
                serving.respawns[shard] = serving.respawns.get(shard, 0) + 1
            self._event("respawn:shard", shard=shard, generation=fresh.generation)
        return revived

    # -- introspection ------------------------------------------------------------

    @property
    def quarantined_shards(self) -> Tuple[int, ...]:
        """Shards quarantined so far, in quarantine order.

        A respawned shard stays in this history (it *was* quarantined)
        while serving again — check :meth:`alive_shards` or
        :meth:`shard_states` for current capacity.
        """
        return tuple(self._quarantined)

    @property
    def respawns(self) -> Dict[int, int]:
        """Respawns consumed per shard slot over the fabric's lifetime."""
        return dict(self._respawns)

    def alive_shards(self) -> List[int]:
        """Shards currently accepting work, ascending."""
        return sorted(s for s, l in self._workers.items() if l.alive)

    def shard_states(self) -> Dict[int, str]:
        """Current lifecycle state of every shard slot (see module docs)."""
        return {s: link.state for s, link in sorted(self._workers.items())}

    # -- submission ---------------------------------------------------------------

    def submit(self, request: Request) -> FabricHandle:
        """Queue one :class:`~repro.stack.api.Request`; returns its handle.

        Anything that is not a ``Request`` raises ``TypeError`` up front,
        exactly as :meth:`PimServer.submit
        <repro.stack.server.PimServer.submit>` does.
        """
        if self._closed:
            raise PimProgramError("fabric is closed")
        if not isinstance(request, Request):
            raise TypeError(
                "PimFabric.submit takes a Request, got "
                f"{type(request).__name__}"
            )
        request.validate()
        handle = FabricHandle(self._next_rid, request)
        self._next_rid += 1
        self._pending.append(handle)
        if self._journal is not None:
            self._journal.append_accepted(handle.request_id, request)
        return handle

    def _journal_outcome(self, handle: FabricHandle) -> None:
        """Append one terminal outcome (result bytes included) to the WAL."""
        if self._journal is not None and handle.outcome is not None:
            self._journal.append_outcome(
                handle.request_id,
                handle.request.trace_id,
                handle.outcome,
                -1 if handle.shard is None else handle.shard,
                handle.result,
            )

    # -- placement ----------------------------------------------------------------

    def _place(
        self, handles: List[FabricHandle], serving: ServingProfile
    ) -> Dict[int, List[FabricHandle]]:
        """Assign each handle to an alive shard for this round.

        :func:`place_round` under :func:`request_cost`: groups stay
        whole on their ring owner unless that overfills the fair share,
        costliest first, all in column commands; each shard's list is in
        submission order.  The per-shard cost is kept on the round (the
        failure-injection hooks read it), added to the session profile,
        and emitted as a ``place:round`` instant.
        """
        assignment, load, fair = place_round(
            handles,
            lambda request: request_cost(
                request, self.config, self.server_config
            ),
            self.alive_shards(),
            self._ring,
        )
        self._round_cost = load
        for shard, cost in load.items():
            serving.shard_cost[shard] = serving.shard_cost.get(shard, 0) + cost
        self._event(
            "place:round", fair=fair,
            cost=",".join(f"{s}:{c}" for s, c in sorted(load.items())),
        )
        return assignment

    # -- wire protocol ------------------------------------------------------------

    def _event(self, name: str, category: str = "fabric", **attrs) -> None:
        """Emit one router lifecycle instant (no-op when not tracing)."""
        if self.tracer is not None:
            self.tracer.event(name, at_ns=0.0, category=category, **attrs)

    def _count(self, name: str, amount: int) -> None:
        """Bump one wire-accounting metric (no-op without a registry)."""
        if amount and self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _encode_wire(self, shard: int, items: List[FabricHandle]) -> List[Tuple]:
        """The ``(rid, payload)`` wire items of one dispatch, per target.

        Under the pipe transport the payload is the ``Request`` itself.
        Under shm, each request is encoded against the *target* shard's
        residency set — which is why a replay encodes per target rather
        than reusing a wire built for another shard: a by-digest weight
        reference is only valid on the shard that staged it.  Staged
        cacheable weights are optimistically marked resident here; every
        path that loses the worker (quarantine, drain, respawn) clears
        the mark again.
        """
        if self._arena is None:
            return [(h.request_id, h.request) for h in items]
        resident = self._resident.setdefault(shard, set())
        wire = []
        for handle in items:
            encoded = encode_request(
                handle.request,
                self._arena,
                resident,
                int(WEIGHT_STORE_MB * (1 << 20)),
                inline_bytes=self.server_config.shm_inline_bytes,
            )
            wire.append((handle.request_id, encoded))
            weights = encoded.weights
            if isinstance(weights, StagedWeights) and weights.cache:
                resident.add(weights.digest)
        return wire

    def _dispatch(self, link: _WorkerLink, items: List[FabricHandle]) -> bool:
        """Put one serve round on a shard's pipe; False when the send fails.

        The items are pickled once here and framed with a CRC32 of the
        bytes, so the worker detects a dispatch corrupted in transit
        instead of serving garbage.  The framed
        control bytes count under ``bytes_tx`` (the bench's
        bytes-on-wire); tensor bytes staged through the arena count
        separately under ``shm_tx``.
        """
        staged = 0 if self._arena is None else self._arena.bytes_written
        try:
            wire = self._encode_wire(link.shard, items)
            if self._arena is not None:
                delta = self._arena.bytes_written - staged
                self.shm_tx += delta
                self._count("fabric.shm_tx", delta)
            blob = pickle.dumps(wire, protocol=pickle.HIGHEST_PROTOCOL)
            self.bytes_tx += len(blob)
            self._count("fabric.bytes_tx", len(blob))
            link.conn.send(("serve", zlib.crc32(blob), blob))
            return True
        except (OSError, BrokenPipeError, ValueError):
            return False

    def _decode_reply(
        self, message: Tuple, shard: Optional[int] = None
    ) -> Dict[str, Any]:
        """The CRC-verified payload of one result message.

        Raises :class:`~repro.errors.PimWorkerError` on an ``error``
        reply or a checksum mismatch — both route the round through the
        quarantine/replay path, never into silently wrong bytes.

        Under shm the payload's result descriptors are materialised
        *here*, the moment the reply is received — not lazily at fold
        time — so no descriptor outlives its reply: the worker (or a
        drained slot's replacement) rewinds its result segment at its
        next serve round.  Weight-store deltas and evicted digests are
        folded into the router's accounting and residency map on the
        way.
        """
        kind = message[0]
        if kind != "result":
            raise PimWorkerError(
                f"worker replied {kind!r}: {message[1] if len(message) > 1 else ''}"
            )
        _, crc, blob = message
        if zlib.crc32(blob) != crc:
            raise PimWorkerError(
                "result payload failed its CRC32 check (corrupted in "
                "transit); replaying the round"
            )
        self.bytes_rx += len(blob)
        self._count("fabric.bytes_rx", len(blob))
        return self._materialise(pickle.loads(blob), shard)

    def _materialise(
        self, payload: Dict[str, Any], shard: Optional[int]
    ) -> Dict[str, Any]:
        """Resolve a reply's shm descriptors into owned arrays (pipe: no-op).

        A descriptor whose CRC32 check fails raises
        :class:`~repro.errors.PimWorkerError` — in-segment corruption
        takes the same quarantine/replay path a corrupted pipe blob
        does.
        """
        if self._segments is None:
            return payload
        results = payload.get("results")
        if results:
            read = 0
            materialised = {}
            for rid, value in results.items():
                if isinstance(value, ArrayRef):
                    try:
                        materialised[rid] = self._segments.read(value)
                    except ValueError as err:
                        raise PimWorkerError(
                            f"{err}; replaying the round"
                        ) from err
                    read += value.nbytes
                else:
                    materialised[rid] = value
            payload["results"] = materialised
            self.shm_rx += read
            self._count("fabric.shm_rx", read)
        stats = payload.get("weight_store")
        if stats:
            for key in ("hits", "misses", "evictions"):
                self.weight_store_stats[key] += int(stats.get(key, 0))
                self._count(f"weight_store.{key}", int(stats.get(key, 0)))
            resident = self._resident.get(payload.get("shard", shard))
            if resident:
                for digest in stats.get("evicted", ()):
                    resident.discard(digest)
        return payload

    # -- execution ----------------------------------------------------------------

    def run(self) -> ServingProfile:
        """Serve every pending request; returns the merged profile.

        Each iteration heals dead slots (respawn + ring rejoin),
        heartbeats the survivors, places and dispatches the round, then
        collects replies under the watchdog; requests off a dead or
        wedged shard are replayed next iteration on the healed fleet.
        Only when no shard is alive *and* the respawn budget is spent
        does the router complete the remainder on the host golden path.
        The returned profile is the order-free merge of every shard's
        round profile plus the router's own replay / respawn /
        quarantine / host accounting.
        """
        if self._closed:
            raise PimProgramError("fabric is closed")
        serving = ServingProfile()
        todo = self._pending
        self._pending = []
        while todo:
            self._heal(serving)
            if self.heartbeat(serving):
                # Heartbeat quarantined someone: heal before placing.
                self._heal(serving)
            if not self.alive_shards():
                break
            if self._arena is not None:
                # Every descriptor from the previous round is dead —
                # replies are materialised the moment they arrive — so
                # the operand arena reuses the same pages each round.
                self._arena.reset()
            assignment = self._place(todo, serving)
            failed_shards: List[int] = []
            for shard, items in assignment.items():
                if not self._dispatch(self._workers[shard], items):
                    failed_shards.append(shard)
            self._round_assignment = assignment
            self._in_flight = set(assignment) - set(failed_shards)
            if self._post_dispatch_hook is not None:
                self._post_dispatch_hook(self)
            todo = self._collect_round(assignment, failed_shards, serving)
            self._in_flight = set()
        for handle in todo:
            # No shard left to replay on: the router completes the
            # request itself, bit-exactly, on the host golden path.
            self._complete_on_host(handle, serving)
        if self.metrics is not None:
            serving.to_metrics(self.metrics)
        if self.profiler is not None:
            self.profiler.record_serving(serving)
        return serving

    def _collect_round(
        self,
        assignment: Dict[int, List[FabricHandle]],
        failed_shards: List[int],
        serving: ServingProfile,
    ) -> List[FabricHandle]:
        """Collect one round's replies; returns the handles to replay.

        Every dispatched pipe is awaited under one watchdog deadline,
        ``reply_timeout_s`` from now, and replies are accepted in any
        arrival order — but payloads are *folded* in sorted shard order
        afterwards, so the merged profile and trace are identical run to
        run.  A straggler short of the deadline is waited out; a shard
        whose worker died, wedged past it or sent a bad reply is
        quarantined and its group replayed.
        """
        timeout = self.server_config.reply_timeout_s
        deadline = time.monotonic() + timeout
        waiting: set = set()
        payloads: Dict[int, Dict[str, Any]] = {}
        replay: List[FabricHandle] = []

        def add_replay(shard: int) -> None:
            waiting.discard(shard)
            for handle in assignment[shard]:
                handle.replays += 1
            serving.replays += len(assignment[shard])
            replay.extend(assignment[shard])

        def fail(shard: int, reason: str) -> None:
            self._quarantine(shard, serving, reason=reason)
            add_replay(shard)

        for shard in failed_shards:
            fail(shard, "dispatch failed (broken pipe)")
        for shard in assignment:
            if shard in failed_shards:
                continue
            stashed = self._stashed_replies.pop(shard, None)
            if stashed is None:
                waiting.add(shard)
            elif stashed[0] == "ok":
                # drain() finished this group before recycling the slot
                # (the reply was decoded eagerly there — see drain()).
                payloads[shard] = stashed[1]
            else:
                add_replay(shard)

        while waiting:
            conns = {self._workers[shard].conn: shard for shard in waiting}
            ready = multiprocessing.connection.wait(
                list(conns), timeout=max(0.0, deadline - time.monotonic())
            )
            for conn in ready:
                shard = conns[conn]
                try:
                    payloads[shard] = self._decode_reply(conn.recv(), shard)
                except (EOFError, OSError):
                    fail(shard, "worker died mid-round")
                except PimWorkerError as err:
                    self.kill_worker(shard)
                    fail(shard, str(err))
                else:
                    waiting.discard(shard)
            if ready or time.monotonic() < deadline:
                continue
            for shard in sorted(waiting):
                # Wedged worker: treat like a crash (and make it one).
                self._workers[shard].state = "suspected"
                self._event("wedge:shard", shard=shard)
                self.kill_worker(shard)
                fail(
                    shard,
                    f"wedged: no reply within reply_timeout_s={timeout:g}s",
                )
        # Fold in sorted-shard order: merge results must not depend on
        # reply arrival order, or seeded replays would diverge.
        for shard in sorted(payloads):
            self._fold(
                self._workers[shard], assignment[shard], payloads[shard],
                serving,
            )
        return replay

    def _fold(
        self,
        link: _WorkerLink,
        items: List[FabricHandle],
        payload: Dict[str, Any],
        serving: ServingProfile,
    ) -> None:
        """Merge one shard's successful round reply into the session."""
        results = payload["results"]
        outcomes = payload["outcomes"]
        submit_errors = payload["submit_errors"]
        for handle in items:
            rid = handle.request_id
            if rid in submit_errors:
                # The shard refused it at admission; the router still
                # owes the caller a terminal outcome and a result.
                self._complete_on_host(handle, serving)
                continue
            handle.result = results.get(rid)
            handle.outcome = outcomes[rid]
            handle.shard = link.shard
            link.served += 1
            self._journal_outcome(handle)
        serving.merge(payload["profile"])
        self._merge_trace(payload["spans"], payload["events"])

    def _complete_on_host(
        self, handle: FabricHandle, serving: ServingProfile
    ) -> None:
        """Terminally serve one request on the router's golden path.

        The same bit-exact golden path the server's host fallback uses
        (``num_pchs`` of the replica shape fixes the GEMV MAC order).
        Router-side completion costs zero simulated time — it is the
        accounting fallback of last resort, not a modelled host.
        """
        request = handle.request
        handle.result = golden_reference(request, self.config.num_pchs)
        handle.outcome = "degraded_host"
        handle.shard = -1
        serving.record(
            RequestStats(
                request_id=handle.request_id,
                op=request.op,
                arrival_ns=request.arrival_ns,
                start_ns=request.arrival_ns,
                finish_ns=request.arrival_ns,
                batch_size=1,
                lane=-1,
                shard=-1,
                fallback=True,
                priority=request.priority,
                outcome="degraded_host",
                trace_id=request.trace_id,
            )
        )
        self._journal_outcome(handle)

    # -- failure handling ---------------------------------------------------------

    def kill_worker(self, shard: int) -> None:
        """SIGKILL ``shard``'s worker process (failure injection).

        The deterministic way to exercise the quarantine/replay path:
        call from a ``_post_dispatch_hook`` to kill a worker with a
        round genuinely in flight.  No-op for already-dead workers.
        """
        link = self._workers[shard]
        process = link.process
        if process is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
            process.join(timeout=self.server_config.join_timeout_s)

    def inject_worker_fault(self, shard: int, spec: Dict[str, Any]) -> None:
        """Arm one scripted chaos fault on ``shard``'s worker.

        Sends a ``("chaos", spec)`` control message (see
        :func:`repro.stack.worker.apply_chaos` for the spec keys:
        ``delay_s``, ``fail_channel``, ``bit_flips``, ``corrupt_reply``,
        ``seed``) and waits for the acknowledgement, so the fault is
        armed *before* the next round is dispatched.  Raises
        :class:`~repro.errors.PimWorkerError` when the worker is dead or
        refuses the spec.
        """
        link = self._workers[shard]
        if not link.alive:
            raise PimWorkerError(
                f"cannot inject fault into dead shard {shard}", shard=shard
            )
        try:
            link.conn.send(("chaos", dict(spec)))
            if not link.conn.poll(self.server_config.heartbeat_timeout_s):
                raise PimWorkerError(
                    f"shard {shard} did not acknowledge the chaos spec",
                    shard=shard,
                )
            message = link.conn.recv()
        except (OSError, EOFError, BrokenPipeError) as err:
            raise PimWorkerError(
                f"shard {shard} died while arming a chaos fault: {err}",
                shard=shard,
            ) from err
        if message[0] != "chaos-ok":
            raise PimWorkerError(
                f"shard {shard} rejected the chaos spec: {message!r}",
                shard=shard,
            )
        self._event(
            "chaos:armed", category="chaos", shard=shard,
            spec=",".join(sorted(spec)),
        )

    def _quarantine(
        self,
        shard: int,
        serving: Optional[ServingProfile] = None,
        reason: str = "worker died or errored mid-round",
    ) -> None:
        """Retire a dead/errored shard, mirroring channel quarantine."""
        link = self._workers[shard]
        if not link.alive:
            return
        link.state = "quarantined"
        self._ring.remove(shard)
        # The worker (and its weight store) is gone; any digest the
        # router believed resident must be re-staged after respawn.
        self._resident.pop(shard, None)
        self._quarantined.append(shard)
        if serving is not None:
            serving.quarantined_shards.append(shard)
        error = PimWorkerError(
            f"shard {shard} {reason}; quarantined and its requests replayed",
            shard=shard,
        )
        self.worker_errors.append(error)
        try:
            link.conn.close()
        except OSError:
            pass
        self._reap(link)
        self._event("quarantine:shard", shard=shard)

    # -- trace merging ------------------------------------------------------------

    def _merge_trace(self, spans: List, events: List) -> None:
        """Fold one shard round's spans/events into the router's tracer.

        Worker span ids restart at 1 every round; the router shifts each
        batch past every id it has already merged (and past the host
        tracer's own counter), so parent/child links stay intact and ids
        stay unique across shards, rounds, and host-side spans.
        """
        if self.tracer is None or not (spans or events):
            return
        base = max(self._merged_ids, self.tracer._next_id - 1)
        spans = [
            replace(
                span, span_id=span.span_id + base,
                parent_id=None if span.parent_id is None else span.parent_id + base,
            )
            for span in spans
        ]
        events = [
            event if event.parent_id is None
            else replace(event, parent_id=event.parent_id + base)
            for event in events
        ]
        top = max([base] + [span.span_id for span in spans])
        self.tracer.spans.extend(spans)
        self.tracer.events.extend(events)
        self._merged_ids = top
        self.tracer._next_id = max(self.tracer._next_id, top + 1)
