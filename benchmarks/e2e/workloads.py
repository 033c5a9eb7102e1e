"""The four workloads: seeded wave generators, sessions, and the correctness gate.

A *wave* is the timed unit: the generator makes it from the seed alone,
the session submits it, calls ``run()`` and only then takes the next one
(closed loop, one client).  Only generated inputs reach the program; the
session compares every result bit-exact with the host references after
the clock has stopped.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.stack import (
    PimContext,
    PimFabric,
    Request,
    ServerConfig,
    SystemConfig,
    add_reference,
    bn_reference,
    gemv_reference,
    mul_reference,
    relu_reference,
)
from repro.stack import shm

from . import ROOT

__all__ = [
    "SPECS",
    "Spec",
    "Wave",
    "WaveResult",
    "hygiene_failures",
    "make_wave",
    "open_session",
    "stop_children",
    "wave_bytes",
]

#: Simulated gap between the starts of consecutive waves.  Far longer
#: than any wave's simulated makespan, so every wave meets an idle device
#: and its simulated statistics do not depend on the waves before it.
WAVE_PERIOD_NS = 1e7

#: Scratch space for journals: inside the checkout, never in /tmp; one
#: subdirectory per process, so a killed run's leftovers are not ours.
TMP_ROOT = ROOT / ".e2e_tmp"


def _run_tmp():
    return TMP_ROOT / f"pid{os.getpid()}"


_ELTWISE_OPS = ("add", "mul", "relu", "bn")
_BN_SCALARS = (1.5, 0.25)


@dataclass(frozen=True)
class Spec:
    """One workload: what runs and how big a wave is.

    Why each one is here is recorded in ``BENCHMARK.json`` and README.md.
    """

    name: str
    kind: str  # "serve" | "blas" | "fabric"
    wave_requests: int
    quick_wave_requests: int
    mean_gap_ns: float
    #: Stream index mixed into the RNG key (stable across renames).
    stream: int
    #: SystemConfig knobs named on top of ``simulate_pchs=1``.
    system: Tuple[Tuple[str, object], ...] = ()


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("gemv_serve", "serve", 8, 4, 500.0, stream=1),
        Spec("eltwise_serve", "serve", 64, 12, 200.0, stream=2),
        Spec("lstm_blas", "blas", 4, 2, 500.0, stream=3),
        Spec(
            "fabric_hardened", "fabric", 16, 8, 500.0, stream=4,
            system=(("ecc", True),),
        ),
    )
}


@dataclass
class Wave:
    """One generated wave: serving requests, or LSTM input vectors."""

    index: int
    requests: List[Request] = field(default_factory=list)
    inputs: List[np.ndarray] = field(default_factory=list)
    #: Simulated arrival of each LSTM input (requests carry their own).
    arrivals: List[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.requests) or len(self.inputs)


@dataclass
class WaveResult:
    """What one wave cost on both clocks, and whether it was right."""

    index: int
    wall_s: float
    requests: int
    failures: List[str]
    #: Simulated statistics (deterministic per seed): makespan (wave start
    #: to last finish), controller busy cycles, and per-request
    #: arrival->finish turnaround.
    sim_makespan_ns: float
    busy_cycles: int
    turnaround_ns: Tuple[float, ...]
    #: Serving-tier tallies of the wave (zero on the BLAS path).
    batches: int = 0
    dispatched: int = 0
    launches: int = 0
    wait_ns: float = 0.0
    retries: int = 0
    fallbacks: int = 0
    replays: int = 0
    shards: Tuple[int, ...] = ()

    def sim_signature(self) -> Tuple:
        """Everything simulated about the wave; equal runs compare equal."""
        return (
            self.index, self.requests, self.sim_makespan_ns,
            self.busy_cycles, self.turnaround_ns, self.batches,
            self.launches,
        )


# ---------------------------------------------------------------------------
# Generation: the seed is the only input
# ---------------------------------------------------------------------------


def _vec(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n).astype(np.float16)


def _grid(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """GEMV operands: multiples of 1/8 in [-2, 2].

    The device rounds every product and partial sum to FP16 in MAC order
    (which the reference reproduces and the gate checks), then the host
    adds the FP16 sub-accumulators in FP32 — and the kernels and
    ``gemv_reference`` do that FP32 addition in different orders.  With
    Gaussian FP16 inputs about 5 results in a million differ in the last
    FP32 bit for that reason alone (seen on seeds 104 and 109 while this
    benchmark was built).  On this grid every sub-accumulator is a
    multiple of 1/64 below 64, so the FP32 sums are exact in any order
    and a mismatch can only mean wrong FP16 arithmetic.
    """
    return (rng.integers(-16, 17, size=shape) / 8.0).astype(np.float16)


@functools.lru_cache(maxsize=4)
def _weights(spec: Spec, quick: bool) -> List[np.ndarray]:
    """The workload's resident matrices: its *model*, the same for every
    seed (cached so every wave shares the arrays, which nothing mutates).

    The seed draws the traffic, not the model.  Fabric placement hashes
    the weight content, so seeded weights reshuffled the shards per seed
    and ``fabric_hardened``'s ``sim_rps`` came out bimodal (4.55e5 or
    4.84e5 req/s by seed, a 6 % spread); with one model it is 1.8 %.
    """
    rng = np.random.default_rng([spec.stream, 0])
    if spec.name == "gemv_serve":
        shape = (32, 64) if quick else (128, 512)
        return [_grid(rng, *shape) for _ in range(4)]
    if spec.name == "fabric_hardened":
        shape = (16, 32) if quick else (64, 96)
        return [_grid(rng, *shape) for _ in range(8)]
    if spec.name == "lstm_blas":
        hidden = 16 if quick else 128
        scale = np.float16(0.125)  # keeps the gates out of saturation
        return [
            _grid(rng, 4 * hidden, hidden) * scale,
            _grid(rng, 4 * hidden, hidden) * scale,
            rng.standard_normal(4 * hidden).astype(np.float32),
        ]
    return []


def make_wave(spec: Spec, seed: int, index: int, quick: bool = False) -> Wave:
    """Wave ``index`` of ``spec`` under ``seed`` — a pure function of both.

    Operator order inside a wave is fixed (round-robin), so the batching
    structure is the same for every seed; the seed draws the data and the
    Poisson arrival times.
    """
    rng = np.random.default_rng([int(seed), spec.stream, index])
    weights = _weights(spec, quick)
    count = spec.quick_wave_requests if quick else spec.wave_requests
    wave = Wave(index)
    arrival = index * WAVE_PERIOD_NS
    shrink = 8 if quick else 1
    for i in range(count):
        arrival += float(rng.exponential(spec.mean_gap_ns))
        if spec.kind == "blas":
            wave.inputs.append(_grid(rng, weights[0].shape[1]))
            wave.arrivals.append(arrival)
            continue
        if spec.name == "gemv_serve":
            w = weights[i % len(weights)]
            request = Request("gemv", weights=w, a=_grid(rng, w.shape[1]))
        elif spec.name == "eltwise_serve":
            op = _ELTWISE_OPS[i % 4]
            request = _eltwise(rng, op, (1024, 2048, 4096)[(i // 4) % 3] // shrink)
        elif i % 4 < 2:  # fabric_hardened: g g a r, every weight once a wave
            w = weights[(i // 4) * 2 + i % 4]
            request = Request("gemv", weights=w, a=_grid(rng, w.shape[1]))
        elif i % 4 == 2:
            request = _eltwise(rng, "add", 1024 // shrink)
        else:
            request = _eltwise(rng, "relu", 2048 // shrink)
        wave.requests.append(request.replace(arrival_ns=arrival))
    return wave


def _eltwise(rng: np.random.Generator, op: str, n: int) -> Request:
    a = _vec(rng, n)
    b = _vec(rng, n) if op in ("add", "mul") else None
    return Request(op, a=a, b=b, scalars=_BN_SCALARS if op == "bn" else None)


def wave_bytes(wave: Wave) -> bytes:
    """A byte serialisation of a wave (the determinism test compares it)."""
    parts: List[bytes] = [str(wave.index).encode()]
    for r in wave.requests:
        parts.append(f"{r.op}|{r.arrival_ns!r}|{r.scalars!r}".encode())
        for array in (r.a, r.b, r.weights):
            if array is not None:
                parts.append(np.ascontiguousarray(array).tobytes())
    parts.extend(x.tobytes() for x in wave.inputs)
    parts.append(repr(wave.arrivals).encode())
    return b"\0".join(parts)


# ---------------------------------------------------------------------------
# The correctness gate
# ---------------------------------------------------------------------------


def _reference(request: Request, num_pchs: int) -> np.ndarray:
    if request.op == "gemv":
        return gemv_reference(request.weights, request.a, num_pchs)
    if request.op == "add":
        return add_reference(request.a, request.b)
    if request.op == "mul":
        return mul_reference(request.a, request.b)
    if request.op == "relu":
        return relu_reference(request.a)
    return bn_reference(request.a, *request.scalars)


def _same_bits(got, want: np.ndarray) -> bool:
    return (
        isinstance(got, np.ndarray)
        and got.shape == want.shape
        and got.dtype == want.dtype
        and got.tobytes() == want.tobytes()
    )


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def lstm_step_reference(w_ih, w_hh, bias, x, h, c, num_pchs: int):
    """One host LSTM step built from ``gemv_reference`` (bit-exact twin of
    ``PimBlas.lstm_cell``: FP16 PIM GEMVs, FP32 gates on the host)."""
    hidden = h.shape[0]
    gates = (
        gemv_reference(w_ih, x, num_pchs)
        + gemv_reference(w_hh, h, num_pchs)
        + np.asarray(bias, dtype=np.float32)
    )
    i = _sigmoid(gates[:hidden])
    f = _sigmoid(gates[hidden : 2 * hidden])
    g = np.tanh(gates[2 * hidden : 3 * hidden])
    o = _sigmoid(gates[3 * hidden :])
    c_next = f * np.asarray(c, dtype=np.float32) + i * g
    h_next = o * np.tanh(c_next)
    return h_next.astype(np.float16), c_next.astype(np.float16)


# ---------------------------------------------------------------------------
# Sessions: one set-up of the system under test
# ---------------------------------------------------------------------------


class _Session:
    """A constructed system plus the per-wave drive loop."""

    spec: Spec
    num_pchs: int

    def run_wave(self, wave: Wave) -> WaveResult:
        raise NotImplementedError

    def counters(self) -> Dict[str, int]:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _settle(self, wave: Wave, handles, profile, wall_s: float) -> WaveResult:
        """Check a served wave and pull its simulated statistics."""
        name = self.spec.name
        failures: List[str] = []
        for i, (request, handle) in enumerate(zip(wave.requests, handles)):
            outcome = getattr(handle.outcome, "value", handle.outcome)
            where = f"{name} wave {wave.index} request {i} ({request.op})"
            if outcome != "completed":
                # Only a device completion counts: a host-degraded,
                # rejected or failed request missed the point of the run.
                failures.append(f"{where}: outcome {outcome!r}")
            elif not _same_bits(handle.result, _reference(request, self.num_pchs)):
                failures.append(f"{where}: result differs from host reference")
        outcomes = profile.outcomes()
        if profile.num_requests != len(wave) or sum(outcomes.values()) != len(wave):
            failures.append(
                f"{name} wave {wave.index}: outcome conservation broken "
                f"({outcomes} for {len(wave)} requests)"
            )
        stats = profile.requests
        return WaveResult(
            index=wave.index,
            wall_s=wall_s,
            requests=len(wave),
            failures=failures,
            sim_makespan_ns=(
                max(r.finish_ns for r in stats) - wave.index * WAVE_PERIOD_NS
                if stats else 0.0
            ),
            busy_cycles=int(sum(profile.channel_busy_cycles.values())),
            turnaround_ns=tuple(
                r.turnaround_ns
                for r in sorted(stats, key=lambda r: (r.arrival_ns, r.request_id))
            ),
            batches=profile.batches,
            dispatched=sum(1 for r in stats if r.batch_size > 0),
            launches=profile.launches,
            wait_ns=sum(r.wait_ns for r in stats),
            retries=profile.retries,
            fallbacks=profile.fallbacks,
            replays=profile.replays,
            shards=tuple(getattr(h, "shard", 0) or 0 for h in handles),
        )


class _ContextSession(_Session):
    """An in-process system: one ``PimContext`` under default knobs."""

    def __init__(self, spec: Spec, system: SystemConfig):
        self.spec = spec
        self.ctx = PimContext(system)
        self.num_pchs = system.num_pchs

    def counters(self) -> Dict[str, int]:
        """Cumulative simulated counters of the system."""
        system = self.ctx.system
        counters = {
            "cmds": 0, "row_hits": 0, "row_misses": 0, "ecc_corrected": 0,
            "col_cmds": sum(
                k.column_commands
                for k in self.ctx.profiler.profile.kernels.values()
            ),
            "trace_hits": 0, "trace_misses": 0,
        }
        for controller in system.controllers:
            counters["cmds"] += sum(controller.channel.cmd_counts.values())
            counters["row_hits"] += controller.row_hits
            counters["row_misses"] += controller.row_misses
            for bank in controller.channel.banks:
                stats = getattr(bank, "ecc_stats", None)
                if stats is not None:
                    counters["ecc_corrected"] += stats.corrected
        cache = system.driver.trace_cache
        if cache is not None:
            counters["trace_hits"] = cache.stats.hits
            counters["trace_misses"] = cache.stats.misses
        return counters

    def close(self) -> None:
        self.ctx.close()


class ServeSession(_ContextSession):
    """In-process ``PimServer`` (``ServerConfig()`` as it comes)."""

    def __init__(self, spec: Spec, system: SystemConfig):
        super().__init__(spec, system)
        self.server = self.ctx.server(ServerConfig())

    def run_wave(self, wave: Wave) -> WaveResult:
        start = time.perf_counter()
        handles = [self.server.submit(r) for r in wave.requests]
        profile = self.server.run()
        wall_s = time.perf_counter() - start
        return self._settle(wave, handles, profile, wall_s)


class BlasSession(_ContextSession):
    """``PimContext.blas.lstm_cell`` with ``h, c`` fed forward."""

    def __init__(self, spec: Spec, system: SystemConfig, weights):
        super().__init__(spec, system)
        self.w_ih, self.w_hh, self.bias = weights
        hidden = self.w_hh.shape[1]
        self.h = np.zeros(hidden, dtype=np.float16)
        self.c = np.zeros(hidden, dtype=np.float16)

    def _busy(self) -> int:
        return sum(mc.busy_cycles for mc in self.ctx.system.controllers)

    def run_wave(self, wave: Wave) -> WaveResult:
        blas = self.ctx.blas
        profile = self.ctx.profiler.profile
        steps = []
        busy = self._busy()
        launches = self.ctx.system.executor.launch_count
        device_ns = [profile.total_ns]
        start = time.perf_counter()
        for x in wave.inputs:
            h, c = blas.lstm_cell(self.w_ih, self.w_hh, self.bias, x, self.h, self.c)
            steps.append((x, self.h, self.c, h, c))
            self.h, self.c = h, c
            device_ns.append(profile.total_ns)
        wall_s = time.perf_counter() - start
        busy = self._busy() - busy
        failures = []
        for i, (x, h_in, c_in, h, c) in enumerate(steps):
            want_h, want_c = lstm_step_reference(
                self.w_ih, self.w_hh, self.bias, x, h_in, c_in, self.num_pchs
            )
            if not (_same_bits(h, want_h) and _same_bits(c, want_c)):
                failures.append(
                    f"{self.spec.name} wave {wave.index} step {i}: h/c "
                    f"differ from the host LSTM reference"
                )
        # The wave's inputs arrive in a Poisson burst and the device takes
        # them in order (h feeds forward): arrival -> finish per step, the
        # same definition the serving workloads get from the server.
        finish = 0.0
        turnaround = []
        for arrival, before, after in zip(wave.arrivals, device_ns, device_ns[1:]):
            finish = max(finish, arrival) + (after - before)
            turnaround.append(finish - arrival)
        return WaveResult(
            index=wave.index,
            wall_s=wall_s,
            requests=len(wave),
            failures=failures,
            sim_makespan_ns=finish - wave.index * WAVE_PERIOD_NS,
            busy_cycles=int(busy),
            turnaround_ns=tuple(turnaround),
            launches=self.ctx.system.executor.launch_count - launches,
        )


class FabricSession(_Session):
    """``PimFabric`` in the deployed fault-tolerant shape (journal armed)."""

    def __init__(
        self, spec: Spec, system: SystemConfig, workers: int = 2,
        transport: Optional[str] = None,
    ):
        self.spec = spec
        self.num_pchs = system.num_pchs
        os.makedirs(_run_tmp(), exist_ok=True)
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=_run_tmp())
        knobs = {"hedge": False, "journal_dir": self.journal_dir}
        if transport is not None:
            knobs["transport"] = transport
        try:
            self.fabric = PimFabric(
                system, workers=workers, server_config=ServerConfig(**knobs)
            )
        except BaseException:
            self._remove_scratch()
            raise
        _pin_workers()

    def _remove_scratch(self) -> None:
        shutil.rmtree(self.journal_dir, ignore_errors=True)
        for folder in (_run_tmp(), TMP_ROOT):
            try:
                folder.rmdir()
            except OSError:  # another session's journal is still there
                break

    def run_wave(self, wave: Wave) -> WaveResult:
        start = time.perf_counter()
        handles = [self.fabric.submit(r) for r in wave.requests]
        profile = self.fabric.run()
        wall_s = time.perf_counter() - start
        return self._settle(wave, handles, profile, wall_s)

    def counters(self) -> Dict[str, int]:
        """Cumulative wire, journal and lifecycle counters of the fabric."""
        return {
            "bytes_tx": self.fabric.bytes_tx,
            "bytes_rx": self.fabric.bytes_rx,
            "journal_bytes": sum(
                os.path.getsize(os.path.join(self.journal_dir, name))
                for name in os.listdir(self.journal_dir)
            ),
            "respawns": sum(self.fabric.respawns.values()),
        }

    def close(self) -> None:
        try:
            self.fabric.close()
        finally:
            self._remove_scratch()


_WORKER_PREFIX = "pim-fabric-shard"


def _pin_workers() -> None:
    """Pin every fabric worker to its own core, round-robin by shard.

    Left to the scheduler, the two workers of a wave usually wake on the
    router's core and share it (wave 380 ms) and sometimes do not
    (300 ms): a per-run coin toss of 25 % that no probe can see.  Pinning
    is the harness's ``taskset``; the router stays unpinned.
    """
    if not hasattr(os, "sched_setaffinity"):
        return
    cores = sorted(os.sched_getaffinity(0))
    for worker in multiprocessing.active_children():
        if worker.name.startswith(_WORKER_PREFIX):
            shard = int(worker.name[len(_WORKER_PREFIX):])
            os.sched_setaffinity(worker.pid, {cores[shard % len(cores)]})


def open_session(
    spec: Spec,
    quick: bool = False,
    *,
    in_process: bool = False,
    workers: int = 2,
    transport: Optional[str] = None,
    **system_knobs,
) -> _Session:
    """Construct one fresh system for ``spec``.

    ``system_knobs`` are the one-knob overrides of the differential
    probes; ``in_process=True`` builds the fabric workload's in-process
    twin (the same waves through ``PimServer`` under the same config).
    """
    knobs = dict(spec.system)
    knobs.update(system_knobs)
    system = SystemConfig(simulate_pchs=1, **knobs)
    if spec.kind == "blas":
        return BlasSession(spec, system, _weights(spec, quick))
    if spec.kind == "fabric" and not in_process:
        return FabricSession(spec, system, workers=workers, transport=transport)
    return ServeSession(spec, system)


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    Besides fabric workers (already gone after a clean ``close()``; killed
    here on an error path) that is ``multiprocessing``'s resource tracker:
    creating one shared-memory segment starts it, and left alone it ends
    only *after* this process has, so whoever looks right after the run
    still finds it.  Closing its pipe and reaping it here makes the run
    leave nothing behind.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # a no-op when the tracker never started


def hygiene_failures() -> List[str]:
    """What a finished run must not leave behind (empty when clean)."""
    failures = []
    segments = shm.live_segments()
    if segments:
        failures.append(f"leaked shared-memory segments: {segments}")
    workers = [
        p.name for p in multiprocessing.active_children()
        if p.name.startswith(_WORKER_PREFIX)
    ]
    if workers:
        failures.append(f"fabric worker processes survived close(): {workers}")
    if _run_tmp().exists():
        failures.append(
            f"journal directories left behind: {sorted(os.listdir(_run_tmp()))}"
        )
    return failures
