"""The traced run: per-layer self times, counts, and differential probes.

Spans are recorded from *this* file: timing wrappers are installed around
each layer's public methods for the duration of a traced wave and removed
again, so the program carries no instrumentation of its own.  A layer's
self time is its spans' duration minus the part their child spans cover;
a layer's *share* is that self time over the traced wave wall.

The traced run drives several systems through the same seeded waves,
round-robin, one wave each per round:

* ``base`` — the workload untraced (the fabric workload's in-process
  twin: the same waves through ``PimServer`` under the same config);
* ``traced`` — the same under the wrappers; must reproduce ``base``'s
  simulated statistics exactly;
* one system per differential probe, each with one non-default knob
  (``exec_mode="fused"``, ``ecc`` flipped, ``trace=True``);
* for the fabric workload, the fabric itself (router-side wrappers), a
  1-worker fabric and a shared-memory-transport fabric.

Running them interleaved puts both sides of every ratio in the same
noise episode.
"""

from __future__ import annotations

import functools
import importlib
import resource
import statistics
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from repro.stack import shm

from .measure import (
    HostProbe,
    Sizes,
    clean_units,
    percentile,
    sim_digest,
    speed_scale,
)
from .workloads import (
    Spec,
    Wave,
    WaveResult,
    hygiene_failures,
    make_wave,
    open_session,
)

__all__ = ["LAYERS", "Ledger", "PER_LAYER", "Wrappers", "trace"]

#: Layer -> (module, class, methods) whose spans belong to it.  Layers
#: are module names of the program; ``blocked`` is the router waiting on
#: worker replies, which is nobody's self time.
LAYERS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "stack.fabric": (
        ("repro.stack.fabric", "PimFabric", ("submit", "run", "heartbeat")),
    ),
    "journal.wal": (
        ("repro.journal.wal", "JournalWriter",
         ("append", "append_meta", "append_accepted", "append_outcome")),
    ),
    "stack.server": (("repro.stack.server", "PimServer", ("submit", "run")),),
    "stack.runtime": (
        ("repro.stack.runtime", "PimExecutor",
         ("gemv", "elementwise", "gemv_operator", "elementwise_operator")),
    ),
    "stack.kernels": (
        ("repro.stack.kernels", "GemvKernel",
         ("__init__", "__call__", "batched", "load_weights")),
        ("repro.stack.kernels", "ElementwiseKernel",
         ("__init__", "__call__", "batched")),
    ),
    "dram.controller": (
        ("repro.dram.controller", "MemoryController",
         ("drain", "closed_page_access", "precharge_all")),
    ),
    "pim.device": (("repro.pim.device", "PimPseudoChannel", ("issue",)),),
    "pim.exec": (
        ("repro.pim.lockstep", "LockstepGroup",
         ("trigger_all", "flush_pending", "start_all", "stop_all")),
        ("repro.pim.fused", "FusedLockstepGroup",
         ("trigger_all", "flush_pending", "start_all", "stop_all")),
    ),
    "blocked": (
        ("multiprocessing.connection", "", ("wait",)),
        ("multiprocessing.connection", "Connection", ("poll",)),
    ),
}

#: Layers whose shares must add up to the traced wave (with the
#: benchmark's own glue as ``host.unattributed_share``).
SHARE_LAYERS = (
    "stack.server", "stack.runtime", "stack.kernels",
    "dram.controller", "pim.device", "pim.exec",
)

#: name -> unit of every per-layer metric, in report order.
PER_LAYER: Dict[str, str] = {
    "stack.fabric.router_ms_per_req": "ms/req",
    "stack.fabric.overhead_ratio": "ratio",
    "stack.fabric.scaling_2w": "ratio",
    "stack.fabric.bytes_tx_per_req": "B/req",
    "stack.fabric.bytes_rx_per_req": "B/req",
    "stack.fabric.shard_imbalance": "ratio",
    "stack.fabric.replays": "count",
    "stack.fabric.respawns": "count",
    "stack.shm.encode_us_per_req": "us/req",
    "stack.shm.decode_us_per_req": "us/req",
    "stack.shm.vs_pipe_wall_ratio": "ratio",
    "stack.shm.vs_pipe_wire_ratio": "ratio",
    "journal.wal.append_us_per_req": "us/req",
    "journal.wal.bytes_per_req": "B/req",
    "stack.server.self_share": "ratio",
    "stack.server.submit_us_per_req": "us/req",
    "stack.server.mean_batch": "req/batch",
    "stack.server.sim_wait_us_mean": "us",
    "stack.server.retries": "count",
    "stack.server.fallbacks": "count",
    "stack.runtime.self_share": "ratio",
    "stack.runtime.operator_builds_per_req": "1/req",
    "stack.kernels.self_share": "ratio",
    "stack.kernels.launches_per_req": "1/req",
    "stack.kernels.col_cmds_per_req": "1/req",
    "dram.controller.self_share": "ratio",
    "dram.controller.us_per_cmd": "us/cmd",
    "dram.controller.cmds_per_req": "1/req",
    "dram.controller.drains_per_req": "1/req",
    "dram.controller.row_hit_ratio": "ratio",
    "dram.controller.busy_cycles_per_req": "cycles/req",
    "pim.device.self_share": "ratio",
    "pim.device.issues_per_req": "1/req",
    "pim.exec.self_share": "ratio",
    "pim.exec.us_per_trigger": "us/trigger",
    "pim.exec.triggers_per_req": "1/req",
    "pim.exec.fused_speedup": "ratio",
    "pim.exec.trace_cache_hit_ratio": "ratio",
    "dram.ecc.on_slowdown": "ratio",
    "dram.ecc.corrected": "count",
    "obs.trace_on_slowdown": "ratio",
    "host.tracing_overhead": "ratio",
    "host.unattributed_share": "ratio",
    "host.disturbed_share": "ratio",
    "host.clean_waves": "count",
    "host.probe_ms_min": "ms",
    "host.wave_ms_p90_all": "ms",
    "host.cpu_per_wall": "ratio",
    "host.wrappers_missing": "count",
}


#: Per-layer metrics that are absolute host times.
_HOST_TIMES = (
    "stack.fabric.router_ms_per_req",
    "stack.shm.encode_us_per_req",
    "stack.shm.decode_us_per_req",
    "journal.wal.append_us_per_req",
    "stack.server.submit_us_per_req",
    "dram.controller.us_per_cmd",
    "pim.exec.us_per_trigger",
)


class Ledger:
    """Online span accounting.

    ``wrap(name, fn)`` returns ``fn`` timed as a span called ``name``.
    When a span ends, its duration is charged to its parent as child
    time, and ``duration - child time`` is added to ``self_s[name]`` —
    the self-time rule, applied as the spans close so a wave of 10^5
    spans costs two dictionaries, not 10^5 records.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        clock, stack = self.clock, self._stack
        self_s, calls = self.self_s, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        return span

    def snapshot(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        return dict(self.self_s), dict(self.calls)


def _delta(after: Dict, before: Dict) -> Dict:
    return {k: v - before.get(k, 0) for k, v in after.items()}


class Wrappers:
    """Installs and removes the ledger's wrappers on the layer methods."""

    def __init__(self, ledger: Ledger):
        self.ledger = ledger
        #: (owner, attribute, the owner's own raw attribute or None)
        self._saved: List[Tuple[object, str, object]] = []
        #: Span name -> layer, for every wrapper that could be placed.
        self.layer_of: Dict[str, str] = {}
        #: Methods named in LAYERS that the program no longer has.
        self.missing: List[str] = []
        self._plan: List[Tuple[object, str, str]] = []
        for layer, targets in LAYERS.items():
            for module_name, class_name, methods in targets:
                owner = importlib.import_module(module_name)
                if class_name:
                    owner = getattr(owner, class_name, None)
                for method in methods:
                    span = f"{class_name or module_name}.{method}"
                    if owner is None or not callable(getattr(owner, method, None)):
                        self.missing.append(span)
                        continue
                    self.layer_of[span] = layer
                    self._plan.append((owner, method, span))

    @property
    def installed(self) -> bool:
        return bool(self._saved)

    def install(self) -> None:
        if self._saved:
            return
        for owner, method, span in self._plan:
            own = vars(owner).get(method)
            self._saved.append((owner, method, own))
            setattr(owner, method, self.ledger.wrap(span, getattr(owner, method)))

    def uninstall(self) -> None:
        for owner, method, own in reversed(self._saved):
            if own is None:
                delattr(owner, method)  # it was inherited: uncover it
            else:
                setattr(owner, method, own)
        self._saved = []

    def __enter__(self) -> "Wrappers":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ---------------------------------------------------------------------------
# The round-robin over variant systems
# ---------------------------------------------------------------------------


class _Variant:
    """One system driven through the shared wave stream."""

    def __init__(self, name: str, traced: bool, opener: Callable[[], object]):
        self.name = name
        self.traced = traced
        self.session = None
        self.unavailable: Optional[str] = None
        self.waves: List[WaveResult] = []
        #: Per wave: the ledger's self seconds and calls spent in it, and
        #: the session's cumulative counters after it.
        self.self_s: List[Dict[str, float]] = []
        self.calls: List[Dict[str, int]] = []
        self.counters: List[Dict[str, int]] = []
        #: Class name of the exec-unit group the system built.
        self.exec_group = ""
        self._opener = opener

    def open(self) -> None:
        # A probe passes one non-default knob; a later change may remove
        # that knob (TypeError / ValueError), or the box may refuse the
        # shm transport its /dev/shm (OSError): the probe's loss, not the
        # run's.
        try:
            self.session = self._opener()
        except (TypeError, ValueError, OSError) as err:
            self.unavailable = f"{type(err).__name__}: {err}"
            return
        ctx = getattr(self.session, "ctx", None)
        if ctx is not None:
            self.exec_group = type(ctx.system.device.pchs[0].lockstep).__name__

    def run(self, wave: Wave, wrappers: Wrappers) -> Optional[WaveResult]:
        if self.session is None:
            return None
        if self.traced:
            before = wrappers.ledger.snapshot()
            with wrappers:
                result = self.session.run_wave(wave)
            after = wrappers.ledger.snapshot()
            self.self_s.append(_delta(after[0], before[0]))
            self.calls.append(_delta(after[1], before[1]))
        else:
            result = self.session.run_wave(wave)
        self.waves.append(result)
        self.counters.append(self.session.counters())
        return result

    def counted(self, key: str, lo: int, hi: int) -> int:
        """Growth of counter ``key`` over waves ``lo..hi-1``."""
        if not self.counters:
            return 0
        return self.counters[hi - 1][key] - self.counters[lo - 1][key]

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None


def _variants(spec: Spec, quick: bool) -> Dict[str, _Variant]:
    ecc_default = bool(dict(spec.system).get("ecc", False))

    def opener(**knobs):
        return lambda: open_session(spec, quick, **knobs)

    variants = []
    if spec.kind == "fabric":
        variants += [
            _Variant("fabric2", True, opener()),
            _Variant("fabric1", False, opener(workers=1)),
            _Variant("fabric2_shm", False, opener(transport="shm")),
        ]
    twin = {"in_process": True}
    variants += [
        _Variant("base", False, opener(**twin)),
        _Variant("traced", True, opener(**twin)),
        _Variant("fused", False, opener(exec_mode="fused", **twin)),
        _Variant("ecc_flip", False, opener(ecc=not ecc_default, **twin)),
        _Variant("obs", False, opener(trace=True, **twin)),
    ]
    return {v.name: v for v in variants}


#: Variants the run cannot do without (the rest are differential probes).
_REQUIRED = ("base", "traced", "fabric2")

#: Variants that must reproduce their reference's simulated statistics.
_SIM_EQUAL = (
    ("traced", "base"), ("fused", "base"), ("obs", "base"),
    ("fabric2_shm", "fabric2"),
)


def _sim_divergence(spec: Spec, variants: Dict[str, _Variant]) -> List[str]:
    failures = []
    for name, reference in _SIM_EQUAL:
        if name not in variants or variants[name].session is None:
            continue
        for got, want in zip(variants[name].waves, variants[reference].waves):
            if got.sim_signature() != want.sim_signature():
                failures.append(
                    f"{spec.name} wave {got.index}: simulated statistics "
                    f"under {name!r} differ from {reference!r}"
                )
                break
    return failures


def _wire_probe(requests) -> Tuple[float, float]:
    """Microseconds per request to encode / decode ``requests`` for the
    shared-memory wire, weights already resident (the steady state)."""
    if not requests:
        return 0.0, 0.0
    arena = shm.ShmArena(tag="e2e")
    cache = shm.SegmentCache()
    try:
        store = shm.WeightStore(64.0)
        resident: set = set()
        budget = store.budget_bytes
        for request in requests:  # cold pass: stage the weights once
            wire = shm.encode_request(request, arena, resident, budget)
            shm.decode_request(wire, cache, store)
            if request.weights is not None:
                resident.add(request.weight_digest)
        encode_s = decode_s = 0.0
        repeats = 5
        for _ in range(repeats):
            arena.reset()
            start = time.perf_counter()
            wires = [
                shm.encode_request(r, arena, resident, budget) for r in requests
            ]
            middle = time.perf_counter()
            for wire in wires:
                shm.decode_request(wire, cache, store)
            decode_s += time.perf_counter() - middle
            encode_s += middle - start
    finally:
        cache.close()
        arena.close()
    scale = 1e6 / (repeats * len(requests))
    return encode_s * scale, decode_s * scale


def _wall_ratio(top: Optional[_Variant], bottom: Optional[_Variant], skip: int) -> float:
    """Median over timed rounds of ``top``'s wave wall over ``bottom``'s
    (0.0 when either system could not be built)."""
    if top is None or bottom is None:
        return 0.0
    ratios = [
        a.wall_s / b.wall_s
        for a, b in zip(top.waves[skip:], bottom.waves[skip:])
    ]
    return statistics.median(ratios) if ratios else 0.0


def _ratio(top: float, bottom: float) -> float:
    return top / bottom if bottom else 0.0


def trace(spec: Spec, seed: int, seconds: float, sizes: Sizes) -> Dict:
    """The traced run of ``spec``: every per-layer metric, by name."""
    started = time.perf_counter()
    wrappers = Wrappers(Ledger())
    variants = _variants(spec, sizes.quick)
    host_probe = HostProbe()
    probes: List[float] = []
    failures: List[str] = []
    attempted = 0
    warmup = 2  # cold wave 0 and warm-up wave 1, as in the untraced run
    needed = warmup + sizes.replay_waves
    try:
        for variant in variants.values():
            variant.open()
            if variant.unavailable and variant.name in _REQUIRED:
                raise RuntimeError(
                    f"{spec.name}: cannot build {variant.name!r}: "
                    f"{variant.unavailable}"
                )
        index = 0
        while index < needed or time.perf_counter() - started < seconds:
            wave = make_wave(spec, seed, index, sizes.quick)
            if index >= warmup:
                probes.append(host_probe())
            for variant in variants.values():
                result = variant.run(wave, wrappers)
                if result is not None:
                    attempted += result.requests
                    failures.extend(result.failures)
            index += 1
        probes.append(host_probe())
        try:
            encode_us, decode_us = _wire_probe(wave.requests)
        except OSError:  # no /dev/shm here: the codec probe reads 0
            encode_us = decode_us = 0.0
    finally:
        wrappers.uninstall()
        for variant in variants.values():
            variant.close()
    failures.extend(hygiene_failures())
    failures.extend(_sim_divergence(spec, variants))

    rounds = index - warmup
    clean = clean_units(probes, [(k, k + 1) for k in range(rounds)])
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = time.process_time() + usage.ru_utime + usage.ru_stime
    values = _layer_values(spec, variants, wrappers, warmup, needed)
    values["stack.shm.encode_us_per_req"] = encode_us
    values["stack.shm.decode_us_per_req"] = decode_us
    # Absolute host times are reported at the reference host speed, like
    # the end-to-end wall metrics (shares and ratios need no scaling).
    scale = speed_scale(*probes)
    for name in _HOST_TIMES:
        values[name] *= scale
    values.update({
        "host.disturbed_share": 1.0 - sum(clean) / rounds,
        "host.clean_waves": sum(clean),
        "host.probe_ms_min": min(probes) * 1e3,
        "host.wave_ms_p90_all": percentile(
            [w.wall_s * 1e3 for w in variants["base"].waves[warmup:]], 90
        ),
        "host.cpu_per_wall": cpu / (time.perf_counter() - started),
        "host.wrappers_missing": len(wrappers.missing),
    })
    reference = variants.get("fabric2", variants["base"])
    return {
        "workload": spec.name,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "disturbed": False,
        "samples": {"rounds": rounds, "clean_rounds": sum(clean)},
        "unavailable": {
            v.name: v.unavailable for v in variants.values() if v.unavailable
        },
        "missing_wrappers": wrappers.missing,
        "sim_digest": sim_digest(reference.waves[warmup:needed]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in PER_LAYER.items()
        },
    }


def _layer_values(
    spec: Spec,
    variants: Dict[str, _Variant],
    wrappers: Wrappers,
    warmup: int,
    needed: int,
) -> Dict[str, float]:
    """Per-layer metrics from the recorded waves.

    Times (shares, ``*_us_per_*``, wall ratios) use every timed round;
    counts use the fixed window of waves ``warmup..needed-1`` so they
    repeat exactly however long the run lasted.
    """
    values: Dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    base, traced = variants["base"], variants["traced"]
    layer_of = wrappers.layer_of

    def layer_seconds(variant: _Variant) -> Dict[str, float]:
        seconds: Dict[str, float] = defaultdict(float)
        for wave in variant.self_s[warmup:]:
            for span, value in wave.items():
                seconds[layer_of[span]] += value
        return seconds

    def calls(variant: _Variant, span: str, lo: int, hi: Optional[int]) -> int:
        return sum(wave.get(span, 0) for wave in variant.calls[lo:hi])

    def requests(variant: _Variant, lo: int, hi: Optional[int]) -> int:
        return sum(w.requests for w in variant.waves[lo:hi])

    # -- the in-process tiers, from the traced twin ---------------------
    wall = sum(w.wall_s for w in traced.waves[warmup:])
    seconds = layer_seconds(traced)
    for layer in SHARE_LAYERS:
        values[f"{layer}.self_share"] = seconds[layer] / wall
    values["host.unattributed_share"] = 1.0 - sum(seconds.values()) / wall
    values["host.tracing_overhead"] = _wall_ratio(traced, base, warmup)

    timed_requests = requests(traced, warmup, None)
    window_requests = requests(traced, warmup, needed)
    window = traced.waves[warmup:needed]
    group = traced.exec_group
    issues = calls(traced, "PimPseudoChannel.issue", warmup, None)
    triggers = calls(traced, f"{group}.trigger_all", warmup, None)
    values["dram.controller.us_per_cmd"] = _ratio(
        seconds["dram.controller"] * 1e6, issues
    )
    values["pim.exec.us_per_trigger"] = _ratio(seconds["pim.exec"] * 1e6, triggers)
    values["stack.server.submit_us_per_req"] = _ratio(
        sum(w.get("PimServer.submit", 0.0) for w in traced.self_s[warmup:]) * 1e6,
        timed_requests,
    )
    per_request = {
        "dram.controller.cmds_per_req": traced.counted("cmds", warmup, needed),
        "dram.controller.drains_per_req": calls(
            traced, "MemoryController.drain", warmup, needed
        ),
        "dram.controller.busy_cycles_per_req": sum(w.busy_cycles for w in window),
        "pim.device.issues_per_req": calls(
            traced, "PimPseudoChannel.issue", warmup, needed
        ),
        "pim.exec.triggers_per_req": calls(
            traced, f"{group}.trigger_all", warmup, needed
        ),
        "stack.kernels.launches_per_req": sum(w.launches for w in window),
        "stack.kernels.col_cmds_per_req": traced.counted("col_cmds", warmup, needed),
    }
    for name, count in per_request.items():
        values[name] = count / window_requests
    # Kernel builds happen in the cold wave: count them from wave 0.
    values["stack.runtime.operator_builds_per_req"] = (
        calls(traced, "GemvKernel.__init__", 0, needed)
        + calls(traced, "ElementwiseKernel.__init__", 0, needed)
    ) / requests(traced, 0, needed)
    hits = traced.counted("row_hits", warmup, needed)
    values["dram.controller.row_hit_ratio"] = _ratio(
        hits, hits + traced.counted("row_misses", warmup, needed)
    )
    values["stack.server.mean_batch"] = _ratio(
        sum(w.dispatched for w in window), sum(w.batches for w in window)
    )
    values["stack.server.sim_wait_us_mean"] = (
        sum(w.wait_ns for w in window) / window_requests / 1e3
    )
    values["stack.server.retries"] = sum(w.retries for w in window)
    values["stack.server.fallbacks"] = sum(w.fallbacks for w in window)

    # -- differential probes: one non-default knob each -----------------
    def live(name: str) -> Optional[_Variant]:
        variant = variants.get(name)
        return variant if variant is not None and variant.waves else None

    fused, flipped, obs = live("fused"), live("ecc_flip"), live("obs")
    values["pim.exec.fused_speedup"] = _wall_ratio(base, fused, warmup)
    if fused is not None:
        hits = fused.counters[-1]["trace_hits"]
        values["pim.exec.trace_cache_hit_ratio"] = _ratio(
            hits, hits + fused.counters[-1]["trace_misses"]
        )
    ecc_on, ecc_off = (
        (base, flipped) if dict(spec.system).get("ecc") else (flipped, base)
    )
    values["dram.ecc.on_slowdown"] = _wall_ratio(ecc_on, ecc_off, warmup)
    if ecc_on is not None:
        values["dram.ecc.corrected"] = ecc_on.counters[-1]["ecc_corrected"]
    values["obs.trace_on_slowdown"] = _wall_ratio(obs, base, warmup)

    # -- the fabric tiers, from the fabric itself -----------------------
    fabric = live("fabric2")
    if fabric is None:
        return values
    one, over_shm = live("fabric1"), live("fabric2_shm")
    seconds = layer_seconds(fabric)
    timed_requests = requests(fabric, warmup, None)
    window_requests = requests(fabric, warmup, needed)
    window = fabric.waves[warmup:needed]
    values["stack.fabric.router_ms_per_req"] = (
        seconds["stack.fabric"] * 1e3 / timed_requests
    )
    values["journal.wal.append_us_per_req"] = (
        seconds["journal.wal"] * 1e6 / timed_requests
    )
    for name, key in (
        ("stack.fabric.bytes_tx_per_req", "bytes_tx"),
        ("stack.fabric.bytes_rx_per_req", "bytes_rx"),
        ("journal.wal.bytes_per_req", "journal_bytes"),
    ):
        values[name] = fabric.counted(key, warmup, needed) / window_requests
    per_shard: Dict[int, int] = defaultdict(int)
    for wave in window:
        for shard in wave.shards:
            per_shard[shard] += 1
    values["stack.fabric.shard_imbalance"] = max(per_shard.values()) / (
        window_requests / len(per_shard)
    )
    values["stack.fabric.replays"] = sum(w.replays for w in window)
    values["stack.fabric.respawns"] = fabric.counted("respawns", warmup, needed)
    values["stack.fabric.overhead_ratio"] = _wall_ratio(one, base, warmup)
    values["stack.fabric.scaling_2w"] = _wall_ratio(one, fabric, warmup)
    values["stack.shm.vs_pipe_wall_ratio"] = _wall_ratio(over_shm, fabric, warmup)
    if over_shm is not None:
        values["stack.shm.vs_pipe_wire_ratio"] = _ratio(
            over_shm.counted("bytes_tx", warmup, needed),
            fabric.counted("bytes_tx", warmup, needed),
        )
    return values
