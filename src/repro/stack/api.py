"""The submission and configuration surface of the serving tier.

Two frozen dataclasses are the one way in:

* :class:`Request` — one self-describing, picklable unit of work.  It
  carries the operation, its operands, and its scheduling class
  (priority, deadline, trace id) in one immutable value that can cross a
  process boundary unchanged — the property the sharded fabric
  (:mod:`repro.stack.fabric`) depends on.
* :class:`ServerConfig` — every serving knob (lanes, batching, retry
  budget, breaker, admission policy, ...) in one place, each with its
  concrete default.  Platform knobs (device shape, ECC, exec mode,
  ``simulate_pchs`` sampling) live on
  :class:`~repro.stack.runtime.SystemConfig`; no knob lives on both.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from ..errors import PimProgramError

__all__ = ["Request", "ServerConfig", "request_signature"]


def request_signature(
    op: str,
    a: Optional[np.ndarray] = None,
    weights: Optional[np.ndarray] = None,
    scalars: Optional[Tuple[float, float]] = None,
) -> Tuple:
    """The batching/placement key of one request.

    Requests with equal signatures may share one fused kernel launch (and,
    in the fabric, should land on the same shard so staged weights are
    reused).  GEMV requests key on weight *content* (shape, dtype, and a
    digest of the bytes), never on object identity: a freed array's
    ``id()`` can be reused by a later allocation, and an identity key
    would silently serve stale weights.  Elementwise requests key on
    ``(op, length, scalars)``.
    """
    if op == "gemv":
        w = np.ascontiguousarray(weights)
        digest = hashlib.sha1(w.tobytes()).hexdigest()
        return ("gemv", w.shape, str(w.dtype), digest)
    scalar_key = (
        None if scalars is None else tuple(float(s) for s in scalars)
    )
    return (op, int(np.asarray(a).size), scalar_key)


@dataclass(frozen=True, eq=False)
class Request:
    """One self-describing, picklable operation for the serving tier.

    ``op`` is ``"gemv"`` or one of the elementwise operators
    (``add``/``mul``/``relu``/``bn``).  ``priority`` dispatches higher
    classes first (aging prevents starvation), ``deadline_ns`` is an
    absolute simulated-clock bound on *dispatch*, and ``trace_id`` is an
    opaque caller-supplied correlation id stamped onto every span the
    request produces — the key that reassembles one request's spans
    across fabric shard processes.

    Instances are immutable and contain only picklable values, so a
    ``Request`` crosses the fabric's process boundary byte-identically.
    Results come back on the *handle* returned by ``submit`` (a
    :class:`~repro.stack.server.PimRequest` or
    :class:`~repro.stack.fabric.FabricHandle`), never on the request.
    """

    op: str
    a: Optional[np.ndarray] = None
    b: Optional[np.ndarray] = None
    weights: Optional[np.ndarray] = None
    scalars: Optional[Tuple[float, float]] = None
    arrival_ns: float = 0.0
    priority: int = 0
    deadline_ns: Optional[float] = None
    trace_id: Optional[str] = None

    def validate(self) -> "Request":
        """Check op/operand consistency; returns ``self``.

        Raises :class:`~repro.errors.PimProgramError` (a ``ValueError``
        subclass) on an unknown operator or missing operand.
        """
        from .kernels import ELEMENTWISE_OPS  # local: avoid import cycle

        if self.op == "gemv":
            if self.weights is None or self.a is None:
                raise PimProgramError(
                    "gemv needs weights and an input vector"
                )
        elif self.op in ELEMENTWISE_OPS:
            if self.a is None:
                raise PimProgramError(f"{self.op} needs an input vector")
            if ELEMENTWISE_OPS[self.op].uses_second_operand and self.b is None:
                raise PimProgramError(f"{self.op} needs a second operand")
        else:
            raise PimProgramError(f"unknown op {self.op!r}")
        return self

    @property
    def weight_digest(self) -> Optional[str]:
        """sha1 hex digest of the weight bytes, computed once per instance.

        Hashing is O(weight bytes) and the serving hot path touches the
        signature at submit, placement, *and* batching.  The digest is
        immutable for an immutable request, so it is memoised on first
        access (stashed via ``object.__setattr__`` — the dataclass is
        frozen, its ``__dict__`` is not).  The fabric's shm transport
        also keys shard-resident weight staging on this digest.
        """
        if self.weights is None:
            return None
        cached = self.__dict__.get("_weight_digest")
        if cached is None:
            w = np.ascontiguousarray(self.weights)
            cached = hashlib.sha1(w.tobytes()).hexdigest()
            object.__setattr__(self, "_weight_digest", cached)
        return cached

    @property
    def signature(self) -> Tuple:
        """Batching/placement key (see :func:`request_signature`).

        Same tuple :func:`request_signature` builds, but the GEMV weight
        digest comes from the per-instance :attr:`weight_digest` cache
        instead of being recomputed per access.
        """
        if self.op == "gemv":
            w = np.asarray(self.weights)
            return ("gemv", w.shape, str(w.dtype), self.weight_digest)
        return request_signature(self.op, a=self.a, scalars=self.scalars)

    def replace(self, **overrides) -> "Request":
        """A copy with ``overrides`` applied (dataclasses.replace)."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class ServerConfig:
    """Every serving-engine knob in one immutable, picklable value.

    Being frozen and picklable, one ``ServerConfig`` configures every
    worker of a :class:`~repro.stack.fabric.PimFabric` identically.  The
    fabric-tier resilience knobs (reply/heartbeat/join timeouts, respawn
    budget) live here too: they bound *wall-clock process* behaviour
    rather than simulated device behaviour.
    """

    lanes: int = 2
    max_batch: int = 8
    max_retries: int = 2
    # Background ECC scrub cadence: run driver.scrub() every N batches
    # (0 disables scrubbing).
    scrub_interval: int = 0
    # -- overload protection (docs/ARCHITECTURE.md) ---------------------
    # Bound of each serving lane's queue (None or 0 = unbounded).
    queue_depth: Optional[int] = None
    # What happens to an arrival that finds its lane queue full:
    # "block" — submit() raises PimOverloadError (backpressure to the
    # producer); "shed" — the request is dropped with outcome "rejected";
    # "degrade" — it completes immediately on the bit-exact host path.
    admission: str = "block"
    # Simulated-time quantum after which a waiting request gains one
    # effective priority level (anti-starvation aging; 0 disables).
    aging_ns: float = 50_000.0
    # Server-wide retry token bucket: capacity, and tokens returned per
    # successful device batch.  Each fault retry spends one token; a dry
    # bucket routes the batch straight to the host path so a flapping
    # channel cannot amplify load.
    retry_budget: float = 8.0
    retry_refill: float = 0.5
    # Deterministic exponential backoff before each retry:
    # base * 2^attempt, jittered by up to +/- backoff_jitter (seeded).
    backoff_base_ns: float = 2_000.0
    backoff_jitter: float = 0.5
    # Per-lane circuit breaker: open after N consecutive device batch
    # failures (0 disables), stay open for the cooldown, then half-open
    # probe one batch on the device.
    breaker_threshold: int = 3
    breaker_cooldown_ns: float = 100_000.0
    # Seed of the server's (non-fault) randomness, i.e. retry jitter.
    seed: int = 0
    # -- fabric resilience (PimFabric; docs/ARCHITECTURE.md, "Fabric
    #    resilience & chaos").  All wall-clock bounds are in real seconds
    #    because they guard against wedged *processes*, not simulated
    #    device time. --
    # How long the router waits for one shard's round reply before
    # declaring the worker wedged (SIGKILL + quarantine + replay).
    reply_timeout_s: float = 600.0
    # Reply bound of the between-rounds heartbeat ping.
    heartbeat_timeout_s: float = 30.0
    # Whether the router pings every alive worker between rounds.
    heartbeat: bool = True
    # Close-handshake reply bound and process-join bound used when the
    # fabric shuts a worker down (gracefully or after a kill).
    close_timeout_s: float = 10.0
    join_timeout_s: float = 30.0
    # How many times one shard slot may be respawned after its worker
    # died or wedged (0 disables self-healing respawn entirely).
    max_respawns: int = 1
    # Straggler hedging is removed: a straggler short of reply_timeout_s
    # is waited out, so every fabric run replays byte-identically.  The
    # field stays only for callers that still pass hedge=False.
    hedge: bool = False
    # -- fabric transport (repro.stack.shm; docs/ARCHITECTURE.md,
    #    "Fabric transport").  "pipe" pickles full request payloads
    #    through the worker pipe — simple, and the always-available
    #    differential oracle.  "shm" carries bulk tensors through a
    #    router-owned shared-memory arena as CRC-guarded descriptors and
    #    keeps GEMV weights shard-resident (keyed by content digest), so
    #    a weight matrix crosses the boundary once per (shard,
    #    signature) instead of every round.  Results are bit-exact
    #    either way; pick "shm" for wire bandwidth. --
    transport: str = "pipe"
    # Tensors at or below this many bytes ride the pickled control
    # message inline instead of crossing as a shared-memory descriptor
    # (the descriptor plus its attach/CRC hops costs more than the bytes
    # for small arrays).  0 forces *every* tensor through shared memory
    # — the mode chaos uses so frame corruption always has a frame to
    # strike.  Ignored under transport="pipe".
    shm_inline_bytes: int = 1024
    # -- durability (repro.journal; docs/ARCHITECTURE.md, "Durability &
    #    replay").  When journal_dir is set, the router appends every
    #    accepted Request and every terminal outcome to a CRC32-framed
    #    write-ahead log there, and repro.journal.recover(journal_dir)
    #    turns the directory back into exactly one bit-exact terminal
    #    outcome per request after a crash.  The fabric strips the knob
    #    from worker configs — the router owns durability, shards never
    #    journal.  journal_sync=True fsyncs every append (durable
    #    against machine death, one fsync per record). --
    journal_dir: Optional[str] = None
    journal_sync: bool = False

    def __post_init__(self) -> None:
        if self.hedge:
            raise ValueError(
                "straggler hedging was removed: the fabric waits a "
                "straggler out under reply_timeout_s (pass hedge=False "
                "or omit it)"
            )

    def replace(self, **overrides) -> "ServerConfig":
        """A copy with ``overrides`` applied (dataclasses.replace)."""
        return replace(self, **overrides)
