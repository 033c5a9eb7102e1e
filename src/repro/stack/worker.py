"""The shard-side half of the serving fabric: one process, one device.

:func:`run_worker` is the entry point a :class:`~repro.stack.fabric.PimFabric`
spawns once per shard.  Each worker owns a *complete* platform — a
:class:`~repro.stack.context.PimContext` (hence a full simulated device)
plus a :class:`~repro.stack.server.PimServer` — configured identically to
every other shard.  Identical device shapes matter: the GEMV golden path's
FP16 MAC order depends on the device's channel count, so full-device
replicas keep results bit-exact no matter which shard serves a request
(shards replicate the device, they do not slice it).

The wire protocol is deliberately tiny — picklable tuples over one
``multiprocessing`` pipe, strictly request/reply from the router's side:

* ``("serve", crc32, blob)`` → ``("result", crc32, blob)`` — the blobs
  are pickled payloads guarded by a CRC32 of their bytes, so a payload
  corrupted in transit is *detected* (and replayed) instead of silently
  decoding into wrong results.  The serve blob unpickles to
  ``[(rid, Request), ...]``; the result payload carries per-rid
  results and outcomes, the round's
  :class:`~repro.stack.profiler.ServingProfile` (request ids rewritten to
  fabric rids, channels/transitions rewritten to the shard's global ids),
  and the round's trace spans/events (rids rewritten likewise).  A serve
  round that fails wholesale replies ``("error", message)`` instead.
* ``("ping",)`` → ``("pong", shard)`` — liveness probe (the router's
  between-rounds heartbeat).
* ``("chaos", spec)`` → ``("chaos-ok", shard)`` — arm one scripted fault
  (see :func:`apply_chaos`): a latency fault before the next serve, a
  dead device channel, scripted bit flips, or next-reply corruption.
* ``("close",)`` → ``("closed", shard)``, then the worker releases its
  device and exits.
* ``("kill",)`` → no reply: the worker drops the connection and dies
  abruptly — the in-process test double for SIGKILL.

Because the loop only touches the connection's ``recv``/``send`` API, the
same function can be driven by a thread over a local pipe pair (how the
unit tests exercise it) or by a real child process (how the fabric runs
it).
"""

from __future__ import annotations

import pickle
import time
import zlib
from typing import Any, Dict, List, Optional, Tuple

from ..errors import PimError
from .api import Request, ServerConfig
from .profiler import BreakerTransition, ServingProfile
from .shm import (
    ResultWriter,
    WEIGHT_STORE_MB,
    SegmentCache,
    WeightStore,
    WireRequest,
    as_wire_array,
    decode_request,
)

__all__ = ["apply_chaos", "run_worker", "serve_round"]


def serve_round(ctx, server, shard: int, items: List[Tuple[int, "Request"]]) -> Dict[str, Any]:
    """Serve one batch of ``(rid, Request)`` items; build the reply payload.

    Requests the server refuses at submit time (queue full in ``"block"``
    mode, malformed request) are reported per-rid in ``submit_errors`` —
    the router completes those on the host golden path so the fabric's
    conservation invariant (exactly one terminal outcome per request)
    never depends on a worker's admission policy.
    """
    num_pchs = server.sys.num_pchs
    handles = {}
    rid_of: Dict[int, int] = {}
    submit_errors: Dict[int, str] = {}
    for rid, request in items:
        try:
            handle = server.submit(request)
        except PimError as err:
            submit_errors[rid] = str(err)
        else:
            handles[rid] = handle
            rid_of[handle.request_id] = rid
    profile = server.run()
    _globalise_profile(profile, shard, num_pchs, rid_of)
    payload: Dict[str, Any] = {
        "shard": shard,
        # as_wire_array is the blessed layout choke point: results leave
        # the worker C-contiguous exactly once, here, instead of being
        # re-normalised (or re-copied by pickle) per transport path —
        # zero-length and Fortran-ordered results included.
        "results": {
            rid: None if h.result is None else as_wire_array(h.result)
            for rid, h in handles.items()
        },
        "outcomes": {rid: h.outcome.value for rid, h in handles.items()},
        "submit_errors": submit_errors,
        "profile": profile,
        "spans": [],
        "events": [],
    }
    tracer = getattr(ctx, "tracer", None)
    if tracer is not None:
        for span in tracer.spans:
            span.shard = shard
            internal = span.attrs.get("request_id")
            if internal in rid_of:
                span.attrs["request_id"] = rid_of[internal]
        events = []
        for event in tracer.events:
            attrs = dict(event.attrs)
            internal = attrs.get("request_id")
            if internal in rid_of:
                attrs["request_id"] = rid_of[internal]
            events.append(
                type(event)(
                    name=event.name,
                    at_ns=event.at_ns,
                    category=event.category,
                    parent_id=event.parent_id,
                    lane=event.lane,
                    channel=event.channel,
                    shard=shard,
                    attrs=attrs,
                )
            )
        payload["spans"] = list(tracer.spans)
        payload["events"] = events
        # Each round ships and forgets its trace, so span ids restart at
        # 1 per round; the router offsets them into one global id space.
        tracer.reset()
    return payload


def _globalise_profile(
    profile: ServingProfile,
    shard: int,
    num_pchs: int,
    rid_of: Dict[int, int],
) -> None:
    """Rewrite a shard-local profile into the fabric's global id spaces.

    Request ids become fabric rids, channel indices become
    ``shard * num_pchs + local`` (each shard replicates the device, so
    local channel 0 of shard 2 is a different physical resource than
    local channel 0 of shard 0), and breaker transitions are stamped with
    the shard.
    """
    for stats in profile.requests:
        stats.request_id = rid_of.get(stats.request_id, stats.request_id)
        stats.shard = shard
    base = shard * num_pchs
    profile.channel_busy_cycles = {
        base + p: busy for p, busy in profile.channel_busy_cycles.items()
    }
    profile.quarantined_channels = [
        base + p for p in profile.quarantined_channels
    ]
    profile.breaker_transitions = [
        BreakerTransition(
            lane=t.lane,
            previous=t.previous,
            state=t.state,
            at_ns=t.at_ns,
            shard=shard,
        )
        for t in profile.breaker_transitions
    ]


class _ChaosState:
    """Scripted faults armed on this worker, applied at the next serve."""

    def __init__(self):
        #: Wall-clock stall (seconds) applied before the next serve round
        #: — values short of the router's reply timeout model stragglers
        #: it waits out, values past it model a wedged process.
        self.delay_s: float = 0.0
        #: Corrupt the next result blob *after* its CRC32 was computed,
        #: modelling in-transit pipe corruption the checksum must catch.
        self.corrupt_next_reply: bool = False
        #: Corrupt a shared-memory result frame of the next serve round
        #: *after* the control payload (descriptors included) was built
        #: and CRC'd, so the router's per-descriptor CRC32 — not the
        #: control-blob checksum — must catch it.  Under the pipe
        #: transport (no shm frames exist) this degrades to
        #: ``corrupt_next_reply`` behaviour, keeping chaos schedules
        #: transport-portable.
        self.corrupt_next_shm: bool = False
        #: Lazily-built seeded injector for device-tier scripted faults.
        self.injector = None


def apply_chaos(ctx, state: _ChaosState, spec: Dict[str, Any]) -> None:
    """Arm one scripted chaos fault on this worker (see ``("chaos", spec)``).

    ``spec`` keys (any subset):

    * ``delay_s`` — stall this many wall-clock seconds before serving the
      next round (straggler when small, wedge when past the router's
      ``reply_timeout_s``); pass ``wedge: True`` alongside to count the
      stall under ``FaultStats.wedges`` instead of ``slowdowns``.
    * ``fail_channel`` — hard-fail one pseudo-channel of this worker's
      device replica (the in-worker ``PimServer`` quarantines and heals).
    * ``bit_flips`` — flip exactly N stored data bits across the
      allocated rows (with ECC armed these are corrected/scrubbed).
    * ``corrupt_reply`` — corrupt the next result payload after
      checksumming, so the router's CRC32 verification must catch it.
    * ``corrupt_shm`` — corrupt a shared-memory result frame of the next
      serve round after the reply was checksummed, so the router's
      per-descriptor CRC32 must catch it (falls back to
      ``corrupt_reply`` behaviour under the pipe transport, or when the
      round shipped nothing through shared memory).
    * ``seed`` — seed of the worker's scripted-fault injector (defaults
      to 0; only the first ``chaos`` message builds the injector).
    """
    from ..faults import FaultConfig, FaultInjector

    if state.injector is None:
        system = ctx.system
        state.injector = system.fault_injector or FaultInjector(
            system, FaultConfig(seed=int(spec.get("seed", 0)))
        )
    if "delay_s" in spec:
        state.delay_s = max(0.0, float(spec["delay_s"]))
        if spec.get("wedge"):
            state.injector.stats.wedges += 1
        else:
            state.injector.stats.slowdowns += 1
    if spec.get("corrupt_reply"):
        state.corrupt_next_reply = True
    if spec.get("corrupt_shm"):
        state.corrupt_next_shm = True
    if "fail_channel" in spec:
        state.injector.fail_channel(int(spec["fail_channel"]))
    if "bit_flips" in spec:
        state.injector.flip_random_bits(int(spec["bit_flips"]))


def _decode_serve(message: Tuple) -> List[Tuple[int, "Request"]]:
    """The CRC-verified (rid, Request) items of one dispatch.

    Raises ``ValueError`` on a checksum mismatch — the caller reports it
    as an ``("error", ...)`` reply and the router replays the round.
    """
    _, crc, blob = message
    if zlib.crc32(blob) != crc:
        raise ValueError(
            "serve dispatch failed its CRC32 check (payload corrupted "
            "in transit)"
        )
    return pickle.loads(blob)


def run_worker(
    conn,
    system_config,
    server_config: ServerConfig,
    shard: int,
    transport_spec: Optional[Dict[str, Any]] = None,
) -> None:
    """Serve fabric messages over ``conn`` until closed, killed, or EOF.

    Builds the shard's platform (one ``PimContext`` over
    ``system_config``, one ``PimServer`` over ``server_config``), then
    loops on the protocol described in the module docstring.  Any
    exception a serve round raises is reported as an ``("error", ...)``
    reply — the router reacts by quarantining the shard — rather than
    crashing silently.

    Under ``server_config.transport == "shm"`` the router passes a
    ``transport_spec`` (``{"result_segment": name, "result_bytes": n}``)
    naming the router-owned segment this worker writes results into;
    dispatched items arrive as :class:`~repro.stack.shm.WireRequest`
    descriptors, staged weights are cached in a per-worker
    :class:`~repro.stack.shm.WeightStore`, and the reply reports the
    store's hit/miss/eviction deltas (plus evicted digests) so the
    router's residency map tracks reality.  The worker only *attaches*
    to segments — it owns and unlinks nothing, so even a SIGKILLed
    worker cannot leak a ``/dev/shm`` entry.
    """
    from .context import PimContext  # local: fabric->worker->context cycle

    ctx = PimContext(system_config)
    server = ctx.server(server_config)
    chaos = _ChaosState()
    segments = writer = store = None
    if server_config.transport == "shm" and transport_spec is not None:
        segments = SegmentCache()
        store = WeightStore(WEIGHT_STORE_MB)
        writer = ResultWriter(
            segments,
            transport_spec["result_segment"],
            transport_spec["result_bytes"],
            inline_bytes=server_config.shm_inline_bytes,
        )
    # Last-reported cumulative (hits, misses, evictions): replies carry
    # deltas, so the router can sum across rounds and respawns without
    # double counting.
    reported = [0, 0, 0]

    def decode_items(items):
        return [
            (rid, decode_request(w, segments, store))
            if isinstance(w, WireRequest) else (rid, w)
            for rid, w in items
        ]

    def encode_payload(payload):
        writer.reset()
        payload["results"] = {
            rid: writer.write(array)
            for rid, array in payload["results"].items()
        }
        counts = (store.hits, store.misses, store.evictions)
        payload["weight_store"] = {
            "hits": counts[0] - reported[0],
            "misses": counts[1] - reported[1],
            "evictions": counts[2] - reported[2],
            "resident_bytes": store.resident_bytes(),
            "evicted": store.drain_evicted(),
        }
        reported[:] = counts
        return payload

    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break
            kind = message[0]
            if kind == "serve":
                if chaos.delay_s > 0.0:
                    # Scripted straggler/wedge: stall with the round
                    # already on the wire (the adversarial instant).
                    time.sleep(chaos.delay_s)
                    chaos.delay_s = 0.0
                try:
                    items = _decode_serve(message)
                    if writer is not None:
                        items = decode_items(items)
                    payload = serve_round(ctx, server, shard, items)
                    if writer is not None:
                        payload = encode_payload(payload)
                except Exception as err:  # noqa: BLE001 - shipped to router
                    conn.send(("error", f"{type(err).__name__}: {err}"))
                else:
                    blob = pickle.dumps(
                        payload, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    crc = zlib.crc32(blob)
                    if chaos.corrupt_next_reply or chaos.corrupt_next_shm:
                        from ..faults import FaultConfig, FaultInjector

                        if chaos.injector is None:
                            chaos.injector = FaultInjector(
                                ctx.system, FaultConfig(seed=shard)
                            )
                    if chaos.corrupt_next_shm:
                        # Strike the shared-memory frames, not the
                        # control blob: its CRC stays valid, so only
                        # the router's per-descriptor check can
                        # catch this.  Degrades to blob corruption
                        # when no frame was written (pipe transport,
                        # or an all-inline round).
                        chaos.corrupt_next_shm = False
                        if writer is None or not writer.corrupt_last_round(
                            chaos.injector
                        ):
                            blob = chaos.injector.corrupt_blob(blob)
                    if chaos.corrupt_next_reply:
                        chaos.corrupt_next_reply = False
                        # CRC was computed on the good bytes; the blob
                        # is corrupted after, modelling the transit
                        # fault the router's check must catch.
                        blob = chaos.injector.corrupt_blob(blob)
                    conn.send(("result", crc, blob))
            elif kind == "ping":
                conn.send(("pong", shard))
            elif kind == "chaos":
                try:
                    apply_chaos(ctx, chaos, message[1])
                except Exception as err:  # noqa: BLE001 - shipped to router
                    conn.send(("error", f"{type(err).__name__}: {err}"))
                else:
                    conn.send(("chaos-ok", shard))
            elif kind == "kill":
                # Abrupt death on request: no reply, no cleanup handshake.
                break
            elif kind == "close":
                conn.send(("closed", shard))
                break
            else:
                conn.send(("error", f"unknown message {message[0]!r}"))
    finally:
        if segments is not None:
            # Drop attachments only — the router owns every segment and
            # keeps sole unlink duty (the cleanup invariant).
            segments.close()
        try:
            ctx.close()
        except PimError:
            pass
        try:
            conn.close()
        except OSError:
            pass
