"""Zero-copy shared-memory transport primitives for the serving fabric.

The paper's PIM value proposition is bandwidth: keep operands next to
compute instead of shipping them over a narrow link.  The fabric's
historical pipe transport violated that principle one layer up — every
round pickled full request payloads (input vectors *and* the GEMV weight
matrix, even though consistent-hash placement guarantees same-signature
requests revisit the same shard) through a ``multiprocessing`` pipe.
This module supplies the shared-memory alternative behind
``ServerConfig(transport="shm")``:

* :class:`ShmArena` — a router-owned bump allocator over
  ``multiprocessing.shared_memory`` segments.  Bulk tensors are written
  once into an arena and cross the process boundary as
  :class:`ArrayRef` descriptors ``(segment, offset, shape, dtype,
  crc32)``; the pipe carries only the tiny control message.  The
  router owns (and unlinks) every segment — workers merely attach — so
  a SIGKILLed worker can never leak a ``/dev/shm`` entry.
* :class:`SegmentCache` — the attach side.  Attachers never unlink:
  ownership (and hence unlink duty) stays with the creating router, and
  workers share the router's resource-tracker process, so even a
  SIGKILLed *router* gets its segments reaped at tracker shutdown (see
  the class docstring for why attach must not touch the tracker).
* :class:`WeightStore` — the shard-resident weight cache.  Workers keep
  staged GEMV weight arrays keyed by the request's sha1 content digest,
  LRU-bounded by :data:`WEIGHT_STORE_MB`, so a weight matrix
  crosses the boundary exactly once per (shard, signature) and
  subsequent rounds ship only the 40-byte digest.
* :class:`WireRequest` + :func:`encode_request`/:func:`decode_request`
  — the descriptor form of a :class:`~repro.stack.api.Request`.

Arrays smaller than :data:`INLINE_BYTES` ride the control message
directly (a 128-byte GEMV result costs more as a descriptor than as
bytes), and zero-length or Fortran-ordered arrays are normalised at one
blessed choke point, :func:`as_wire_array`, instead of being
re-pickled/CRC'd per call site.

Every descriptor carries a CRC32 of its bytes; a reader that finds a
mismatch raises, which the fabric routes through the same
quarantine-and-replay path a corrupted pipe payload takes — shared
memory gets the exact adversarial coverage pipes have (see the
``corrupt_shm`` chaos kind).
"""

from __future__ import annotations

import os
import secrets
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .api import Request

__all__ = [
    "ArrayRef",
    "INLINE_BYTES",
    "SegmentCache",
    "SHM_PREFIX",
    "ShmArena",
    "WEIGHT_STORE_MB",
    "WeightStore",
    "WireRequest",
    "as_wire_array",
    "decode_request",
    "encode_request",
    "live_segments",
]

#: Prefix of every shared-memory segment this package creates; the leak
#: tests (and the CI ``/dev/shm`` check) count entries carrying it.
SHM_PREFIX = "reproshm"

#: Arrays at or below this many bytes ride the pickled control message
#: inline: a descriptor (plus the attach/frombuffer/CRC hops it implies)
#: costs more than the bytes themselves for small payloads, and a
#: zero-length array has nothing for a descriptor to describe.
INLINE_BYTES = 1024

#: Default size of one arena segment; oversize writes get a dedicated
#: segment of exactly their own size instead.
DEFAULT_SEGMENT_BYTES = 4 << 20

#: Per-worker weight-store budget (MiB): staged GEMV weights are
#: LRU-cached up to this much per shard, and the router re-ships any
#: matrix bigger than it every round.
WEIGHT_STORE_MB = 64.0


def as_wire_array(array: np.ndarray) -> np.ndarray:
    """The blessed normalisation choke point for arrays bound for a wire.

    Every transport path (shm descriptor writes, weight digesting,
    inline control-message payloads) funnels through here: the result is
    always C-contiguous (``tobytes``/``frombuffer`` round-trips are
    layout-exact), already-contiguous arrays pass through untouched, and
    Fortran-ordered or sliced views are copied exactly once instead of
    being re-normalised (and re-pickled, re-CRC'd) at each call site.
    """
    array = np.asarray(array)
    if array.size and not array.flags.c_contiguous:
        return np.ascontiguousarray(array)
    return array


def live_segments() -> List[str]:
    """Names of every ``/dev/shm`` segment this package has live.

    The leak-test primitive: a fabric that cleaned up after itself
    leaves this list exactly as it found it.  Falls back to an empty
    list on platforms without a ``/dev/shm`` tmpfs.
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - non-Linux fallback
        return []
    return sorted(name for name in entries if name.startswith(SHM_PREFIX))


@dataclass(frozen=True)
class ArrayRef:
    """One tensor living in a shared-memory segment, CRC-guarded.

    The wire form of a bulk array: 5 scalars cross the pipe instead of
    the bytes.  ``crc32`` is of the raw C-order bytes; readers verify it
    before trusting the payload, so in-segment corruption is *detected*
    (and the round replayed) instead of silently decoding into wrong
    results — the same contract the pipe transport's framed blobs have.
    """

    segment: str
    offset: int
    nbytes: int
    shape: Tuple[int, ...]
    dtype: str
    crc32: int


@dataclass(frozen=True)
class WeightRef:
    """A weights-by-digest reference: the matrix is already shard-resident.

    Ships only when the router's residency map says the target shard
    staged this digest earlier (and has not evicted, respawned, or
    drained since); the worker resolves it from its
    :class:`WeightStore`.  A miss is a protocol error the worker reports
    as a round failure — the router quarantines, clears residency, and
    the replay re-stages, so a stale mapping self-heals instead of
    serving stale weights.
    """

    digest: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class StagedWeights:
    """First crossing of a weight matrix: descriptor plus its digest.

    The worker reads the array out of shared memory, caches it in its
    :class:`WeightStore` under ``digest`` (unless ``cache`` is False —
    the matrix is bigger than the store budget or the store is
    disabled), and the router marks the (shard, digest) pair resident.
    """

    digest: str
    ref: "ArrayRef"
    cache: bool


@dataclass(frozen=True)
class WireRequest:
    """A :class:`~repro.stack.api.Request` with its tensors swapped for
    descriptors (or inline arrays when small); the shm wire form."""

    op: str
    a: object
    b: object
    weights: object
    scalars: Optional[Tuple[float, float]]
    arrival_ns: float
    priority: int
    deadline_ns: Optional[float]
    trace_id: Optional[str]


class ShmArena:
    """A bump allocator over owned shared-memory segments.

    The single-owner discipline is the cleanup story: only the creating
    process (the fabric router) ever calls :meth:`close`, which unlinks
    every segment — attach-side processes use :class:`SegmentCache` and
    never own anything.  Creation registers with the stdlib resource
    tracker, so even a SIGKILLed owner gets its segments reaped at
    tracker shutdown instead of leaking them in ``/dev/shm``.

    :meth:`reset` rewinds the bump pointers without touching the
    mappings, which is how the fabric recycles the operand arena every
    round: descriptors from round N are dead the moment round N's last
    reply is folded, so round N+1 reuses the same pages.
    """

    def __init__(self, tag: str, segment_bytes: int = DEFAULT_SEGMENT_BYTES):
        self._tag = tag
        self._segment_bytes = int(segment_bytes)
        self._segments: "OrderedDict[str, shared_memory.SharedMemory]" = (
            OrderedDict()
        )
        self._fill: Dict[str, int] = {}
        self._seq = 0
        self._closed = False
        #: Total bytes ever written through :meth:`write` (accounting).
        self.bytes_written = 0

    def _new_segment(self, size: int) -> shared_memory.SharedMemory:
        name = (
            f"{SHM_PREFIX}-{self._tag}-{os.getpid()}-"
            f"{secrets.token_hex(4)}-{self._seq}"
        )
        self._seq += 1
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=max(1, size)
        )
        self._segments[segment.name] = segment
        self._fill[segment.name] = 0
        return segment

    def write(self, array: np.ndarray) -> ArrayRef:
        """Copy ``array`` into the arena; returns its descriptor.

        Bump-allocates (8-byte aligned) in the first segment with room,
        growing the arena with a fresh segment when none has — an array
        bigger than one standard segment gets a dedicated segment of
        exactly its own size.
        """
        if self._closed:
            raise ValueError("arena is closed")
        array = as_wire_array(array)
        data = array.tobytes()
        nbytes = len(data)
        target = None
        for name, segment in self._segments.items():
            fill = self._fill[name]
            if fill + nbytes <= segment.size:
                target = segment
                break
        if target is None:
            target = self._new_segment(max(self._segment_bytes, nbytes))
        offset = self._fill[target.name]
        target.buf[offset:offset + nbytes] = data
        self._fill[target.name] = offset + ((nbytes + 7) & ~7)
        self.bytes_written += nbytes
        return ArrayRef(
            segment=target.name,
            offset=offset,
            nbytes=nbytes,
            shape=tuple(array.shape),
            dtype=str(array.dtype),
            crc32=zlib.crc32(data),
        )

    def reset(self) -> None:
        """Rewind every segment's bump pointer (mappings stay)."""
        for name in self._fill:
            self._fill[name] = 0

    def segment_names(self) -> List[str]:
        """Names of every segment the arena owns, creation order."""
        return list(self._segments)

    def close(self) -> None:
        """Close and unlink every owned segment.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for segment in self._segments.values():
            try:
                segment.close()
                segment.unlink()
            except (FileNotFoundError, OSError):  # pragma: no cover
                pass
        self._segments.clear()
        self._fill.clear()


class SegmentCache:
    """Attach-side mapping cache: one live attachment per segment name.

    CPython (until 3.13's ``track=False``) registers attachments with
    the ``multiprocessing`` resource tracker exactly like creations.
    That is harmless here — fabric workers share the *router's* tracker
    process (fork inherits it; spawn passes its fd), whose per-name
    cache is a set, so an attach-side registration is an idempotent
    no-op on the entry the router's creation made.  Crucially the cache
    must NOT unregister on attach either: with one shared tracker that
    would erase the router's registration, producing a tracker error
    when the router later unlinks — and, worse, losing the
    tracker-reaps-it safety net for segments of a SIGKILLed router.
    Ownership discipline is behavioural instead: an attacher never calls
    ``unlink()``, only :meth:`close`.
    """

    def __init__(self):
        self._attached: Dict[str, shared_memory.SharedMemory] = {}

    def attach(self, name: str) -> shared_memory.SharedMemory:
        """The (cached) attachment for segment ``name``."""
        segment = self._attached.get(name)
        if segment is None:
            segment = shared_memory.SharedMemory(name=name)
            self._attached[name] = segment
        return segment

    def read(self, ref: ArrayRef) -> np.ndarray:
        """Materialise one descriptor's array (an owned copy), CRC-checked.

        Raises ``ValueError`` on a checksum mismatch — the caller maps
        that onto the transport's corruption path (worker: an ``error``
        reply; router: :class:`~repro.errors.PimWorkerError`), never
        into silently wrong bytes.
        """
        segment = self.attach(ref.segment)
        data = bytes(segment.buf[ref.offset:ref.offset + ref.nbytes])
        if zlib.crc32(data) != ref.crc32:
            raise ValueError(
                f"shared-memory frame {ref.segment}@{ref.offset} failed its "
                f"CRC32 check (corrupted in the arena)"
            )
        return np.frombuffer(data, dtype=np.dtype(ref.dtype)).reshape(
            ref.shape
        ).copy()

    def close(self) -> None:
        """Drop every attachment (mappings only — nothing is unlinked)."""
        for segment in self._attached.values():
            try:
                segment.close()
            except OSError:  # pragma: no cover
                pass
        self._attached.clear()


class WeightStore:
    """Shard-resident weight cache: digest -> staged array, LRU-bounded.

    ``budget_mb`` bounds the total cached bytes; inserting past the
    budget evicts least-recently-used entries first, and every eviction
    is reported back to the router (via :meth:`drain_evicted`) so its
    residency map never references a matrix the shard no longer holds.
    A matrix bigger than the whole budget is never cached (the router
    applies the same rule, so it re-ships such weights every round), and
    ``budget_mb=0`` disables residency entirely.
    """

    def __init__(self, budget_mb: float):
        self.budget_bytes = int(max(0.0, float(budget_mb)) * (1 << 20))
        self._store: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._bytes = 0
        self._evicted: List[str] = []
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def cacheable(self, nbytes: int) -> bool:
        """Whether an array of ``nbytes`` may be cached at all."""
        return 0 < nbytes <= self.budget_bytes

    def get(self, digest: str) -> Optional[np.ndarray]:
        """The resident array for ``digest`` (freshened), else None."""
        array = self._store.get(digest)
        if array is None:
            self.misses += 1
            return None
        self._store.move_to_end(digest)
        self.hits += 1
        return array

    def put(self, digest: str, array: np.ndarray) -> bool:
        """Cache ``array`` under ``digest``; returns whether it stuck."""
        if not self.cacheable(array.nbytes):
            return False
        if digest in self._store:
            self._store.move_to_end(digest)
            return True
        while self._bytes + array.nbytes > self.budget_bytes and self._store:
            victim, evicted = self._store.popitem(last=False)
            self._bytes -= evicted.nbytes
            self._evicted.append(victim)
            self.evictions += 1
        self._store[digest] = array
        self._bytes += array.nbytes
        return True

    def drain_evicted(self) -> List[str]:
        """Digests evicted since the last drain (cleared on read)."""
        evicted, self._evicted = self._evicted, []
        return evicted

    def resident_bytes(self) -> int:
        """Total bytes currently cached."""
        return self._bytes

    def __contains__(self, digest: str) -> bool:
        return digest in self._store

    def __len__(self) -> int:
        return len(self._store)


def _encode_operand(array, arena: ShmArena, inline_bytes: int):
    """One operand's wire form: inline when small, a descriptor otherwise."""
    if array is None:
        return None
    array = as_wire_array(array)
    if array.nbytes <= inline_bytes:
        return array
    return arena.write(array)


def encode_request(
    request: Request,
    arena: ShmArena,
    resident: set,
    store_budget_bytes: int,
    inline_bytes: int = INLINE_BYTES,
) -> WireRequest:
    """The shm wire form of one request, against one shard's residency.

    ``resident`` is the router's digest set for the *target* shard —
    resident weights ship as a :class:`WeightRef` (40-byte digest), a
    first crossing ships as :class:`StagedWeights` (descriptor + digest,
    with ``cache`` telling the worker whether the matrix fits its
    store), and non-weight operands inline or descriptor per size.
    Cacheable weights are staged even when small enough to inline —
    residency dedup beats inlining the moment a weight repeats.  The
    caller owns updating the residency map — encoding never mutates it,
    because the same request may be re-encoded for a different shard
    (replays) with different residency.
    """
    weights = None
    if request.weights is not None:
        w = as_wire_array(request.weights)
        digest = request.weight_digest
        cacheable = 0 < w.nbytes <= store_budget_bytes
        if cacheable and digest in resident:
            weights = WeightRef(
                digest=digest, shape=tuple(w.shape), dtype=str(w.dtype)
            )
        elif w.nbytes <= inline_bytes and not cacheable:
            weights = w
        else:
            weights = StagedWeights(
                digest=digest, ref=arena.write(w), cache=cacheable
            )
    return WireRequest(
        op=request.op,
        a=_encode_operand(request.a, arena, inline_bytes),
        b=_encode_operand(request.b, arena, inline_bytes),
        weights=weights,
        scalars=request.scalars,
        arrival_ns=request.arrival_ns,
        priority=request.priority,
        deadline_ns=request.deadline_ns,
        trace_id=request.trace_id,
    )


def _decode_operand(wire, cache: SegmentCache):
    """Materialise one operand from its wire form."""
    if wire is None or isinstance(wire, np.ndarray):
        return wire
    return cache.read(wire)


def decode_request(
    wire: WireRequest, cache: SegmentCache, store: WeightStore
) -> Request:
    """Rebuild a full :class:`Request` from its shm wire form.

    Staged weights are read out of shared memory and cached in
    ``store``; by-digest references resolve from the store, and a miss
    raises ``ValueError`` — the worker reports the round as failed, the
    router quarantines the shard and clears its residency, and the
    replay re-stages, so the failure mode is a healed retry rather than
    stale weights.  The rebuilt request carries its digest pre-seeded,
    so the worker-side server never re-hashes the matrix.
    """
    digest = None
    weights = wire.weights
    if isinstance(weights, WeightRef):
        digest = weights.digest
        weights = store.get(digest)
        if weights is None:
            raise ValueError(
                f"weight digest {digest[:12]}... referenced by the router is "
                f"not resident in this shard's weight store"
            )
    elif isinstance(weights, StagedWeights):
        digest = weights.digest
        ref = weights.ref
        array = cache.read(ref)
        if weights.cache:
            store.put(digest, array)
        weights = array
    request = Request(
        op=wire.op,
        a=_decode_operand(wire.a, cache),
        b=_decode_operand(wire.b, cache),
        weights=weights,
        scalars=wire.scalars,
        arrival_ns=wire.arrival_ns,
        priority=wire.priority,
        deadline_ns=wire.deadline_ns,
        trace_id=wire.trace_id,
    )
    if digest is not None:
        # Pre-seed the digest cache: the router already paid the sha1.
        object.__setattr__(request, "_weight_digest", digest)
    return request


class ResultWriter:
    """The worker's bump writer into its router-owned result segment.

    One fixed-size segment per shard slot (created, and eventually
    unlinked, by the router); the worker rewinds it at the start of each
    serve round — safe because the router materialises every descriptor
    the moment a reply arrives, so no descriptor from a previous round
    outlives the round that produced it.  A round whose results overflow
    the segment inlines the remainder in the control message (correct,
    just not zero-copy; counted so the operator can size the segment).
    """

    def __init__(
        self,
        cache: SegmentCache,
        segment: str,
        size: int,
        inline_bytes: int = INLINE_BYTES,
    ):
        self._cache = cache
        self._segment_name = segment
        self._size = int(size)
        self._inline = int(inline_bytes)
        self._fill = 0
        #: Regions written this round, for the chaos corruption hook.
        self.written: List[ArrayRef] = []
        #: Results inlined because the segment was full (cumulative).
        self.inlined = 0

    def reset(self) -> None:
        """Start a fresh round: rewind the bump pointer."""
        self._fill = 0
        self.written = []

    def write(self, array: Optional[np.ndarray]):
        """Wire form of one result: descriptor, or inline when small/full."""
        if array is None:
            return None
        array = as_wire_array(array)
        data = array.tobytes()
        nbytes = len(data)
        if nbytes <= self._inline:
            return array
        if self._fill + nbytes > self._size:
            self.inlined += 1
            return array
        segment = self._cache.attach(self._segment_name)
        offset = self._fill
        segment.buf[offset:offset + nbytes] = data
        self._fill = offset + ((nbytes + 7) & ~7)
        ref = ArrayRef(
            segment=self._segment_name,
            offset=offset,
            nbytes=nbytes,
            shape=tuple(array.shape),
            dtype=str(array.dtype),
            crc32=zlib.crc32(data),
        )
        self.written.append(ref)
        return ref

    def corrupt_last_round(self, injector) -> bool:
        """Flip one seeded bit inside a frame written this round.

        The chaos hook behind the ``corrupt_shm`` fault kind: called
        *after* the reply payload (descriptors included) was built and
        CRC'd, so the router's descriptor verification — not the control
        -blob checksum — must catch it.  Returns False when the round
        wrote nothing through shared memory (nothing to corrupt).
        """
        if not self.written:
            return False
        ref = self.written[0]
        segment = self._cache.attach(self._segment_name)
        view = segment.buf[ref.offset:ref.offset + ref.nbytes]
        injector.corrupt_shm(view)
        return True


WireArray = Union[ArrayRef, np.ndarray, None]
