"""The PIM runtime (Section V-A): system assembly, executor, kernel cache.

The runtime owns three user-level modules:

* **preprocessor** — finds ops suitable for PIM acceleration and rewrites
  them to PIM custom ops; lives in :mod:`repro.stack.graph` because it
  operates on the graph framework's representation.
* **memory manager** — keeps resident PIM operators (weights stay laid out
  in the PIM region across invocations) and caches generated microkernels.
  Both operator caches are LRU-bounded so long-running serving sessions
  don't grow without limit; evicted kernels return their rows to the
  driver.
* **executor** — configures a PIM kernel and invokes it, accounting the
  per-launch overhead.

:class:`SystemConfig` is the single configuration surface: one dataclass
(with ``fast_functional`` / ``paper_scale`` presets) assembles the whole
evaluation platform — a PIM-HBM device behind per-channel JEDEC
controllers with a host model.  Serving-engine knobs (queues, retries,
breakers, scrub cadence) live on :class:`~repro.stack.api.ServerConfig`.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..dram.bank import BankConfig
from ..dram.controller import SchedulerPolicy
from ..dram.device import DeviceConfig
from ..dram.timing import HBM2_1GHZ, TimingParams
from ..faults import FaultConfig, FaultInjector
from ..host.processor import HostConfig, HostSystem
from ..pim.device import PimHbmDevice
from .driver import PimDeviceDriver
from .kernels import ElementwiseKernel, ExecutionReport, GemvKernel

__all__ = ["SystemConfig", "PimSystem", "PimExecutor"]


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to assemble one PIM evaluation platform.

    Pass it to :class:`PimSystem` (or, preferably, to
    :class:`repro.stack.context.PimContext`).
    """

    num_pchs: int = 4
    num_rows: int = 256
    timing: TimingParams = HBM2_1GHZ
    host: Optional[HostConfig] = None
    policy: SchedulerPolicy = SchedulerPolicy.FRFCFS
    fence_penalty_cycles: Optional[int] = None
    scheduler_seed: Optional[int] = None
    refresh: bool = False
    ecc: bool = False
    # Default per-call sampling: cycle-simulate only the first N channels
    # of a kernel's set (None = all).  Used by PimBlas/PimContext.
    simulate_pchs: Optional[int] = None
    # LRU bounds of the executor's operator caches.
    gemv_cache_size: int = 32
    elementwise_cache_size: int = 64
    # Fault model (see repro.faults): None disables injection entirely.
    faults: Optional[FaultConfig] = None
    # Observability (repro.obs): build a Tracer + MetricsRegistry and
    # thread them through every layer.  Off by default — with trace=False
    # the only cost anywhere is one attribute test per hook site.
    trace: bool = False
    # How column triggers execute:
    #   "fused"  — trace-compile whole AB-PIM trigger windows into
    #              levelled array ops, cached by content signature
    #              (repro.pim.fused); anything irregular runs on the
    #              execution units themselves.
    #   "scalar" — the execution units, trigger by trigger: the
    #              differential oracle.
    # None means "fused": the one production path.
    exec_mode: Optional[str] = None
    # LRU bound of the fused executor's compiled-trace cache.
    trace_cache_size: int = 128

    def __post_init__(self) -> None:
        if self.exec_mode not in (None, "scalar", "fused"):
            raise ValueError(
                f"unknown exec_mode {self.exec_mode!r}: expected "
                '"fused" or "scalar"'
            )
        if self.trace_cache_size < 1:
            raise ValueError(
                f"the trace cache holds at least one trace, not {self.trace_cache_size}"
            )

    @property
    def execution_mode(self) -> str:
        """The resolved execution mode ("fused" when unset)."""
        return self.exec_mode or "fused"

    def replace(self, **overrides) -> "SystemConfig":
        """A copy with ``overrides`` applied (dataclasses.replace)."""
        return replace(self, **overrides)

    @classmethod
    def fast_functional(cls, **overrides) -> "SystemConfig":
        """Small device, single-channel sampling: fast functional runs."""
        base = cls(num_pchs=4, num_rows=256, simulate_pchs=1)
        return base.replace(**overrides) if overrides else base

    @classmethod
    def paper_scale(cls, **overrides) -> "SystemConfig":
        """The Table V device shape: 16 pCHs, 8192 rows per bank.

        Rows are backed sparsely, so construction is cheap; full
        cycle-accurate runs at this scale are slow — combine with
        ``simulate_pchs`` sampling for tractable experiments.
        """
        base = cls(num_pchs=16, num_rows=8192, simulate_pchs=1)
        return base.replace(**overrides) if overrides else base


class PimSystem(HostSystem):
    """A host with PIM-HBM devices, the device driver, and the runtime.

    Configure with one :class:`SystemConfig`::

        system = PimSystem(SystemConfig.fast_functional())
    """

    def __init__(self, config: Optional[SystemConfig] = None):
        config = config or SystemConfig()
        self.config = config
        device_config = DeviceConfig(
            timing=config.timing,
            bank_config=BankConfig(num_rows=config.num_rows),
            num_pchs=config.num_pchs,
            ecc=config.ecc,
        )
        device = PimHbmDevice(device_config)
        self._trace_cache = None
        if config.execution_mode == "fused":
            from ..pim.fused import FusedLockstepGroup, TraceCache

            # One content-keyed cache shared by every channel; the fault
            # injector and driver invalidate per channel on CRF upsets
            # and quarantine.
            self._trace_cache = TraceCache(limit=config.trace_cache_size)
            for i, channel in enumerate(device.pchs):
                channel.lockstep = FusedLockstepGroup(
                    channel.units, cache=self._trace_cache, channel_id=i
                )
        super().__init__(
            device,
            host=config.host,
            policy=config.policy,
            fence_penalty_cycles=config.fence_penalty_cycles,
            scheduler_seed=config.scheduler_seed,
            refresh=config.refresh,
        )
        self.driver = PimDeviceDriver(device)
        self.driver.trace_cache = self._trace_cache
        # An active fault model attaches a seeded injector; channels listed
        # in faults.failed_channels are dead before the first access.
        self.fault_injector: Optional[FaultInjector] = None
        if config.faults is not None and config.faults.active:
            self.fault_injector = FaultInjector(self, config.faults)
        # Observability: with trace=True every layer below gets the same
        # tracer/metrics pair; with trace=False the hooks stay None and
        # each hook site costs one attribute test.
        self.tracer: Optional["Tracer"] = None
        self.metrics: Optional["MetricsRegistry"] = None
        if config.trace:
            from ..obs import MetricsRegistry, Tracer

            self.tracer = Tracer(tck_ns=self.tck_ns)
            self.metrics = MetricsRegistry()
            for pch, controller in enumerate(self.controllers):
                controller.tracer = self.tracer
                controller.channel_id = pch
            for pch, channel in enumerate(device.pchs):
                channel.tracer = self.tracer
                channel.channel_id = pch
            self.driver.tracer = self.tracer
            self.driver.metrics = self.metrics
        self.executor = PimExecutor(
            self,
            gemv_cache_size=config.gemv_cache_size,
            elementwise_cache_size=config.elementwise_cache_size,
        )


class PimExecutor:
    """The runtime executor plus memory-manager operator cache.

    Both caches are LRU-bounded: a long-running serving session touching
    many distinct operators evicts the least recently used kernel and
    returns its rows to the driver instead of growing without limit.
    """

    def __init__(
        self,
        system: PimSystem,
        gemv_cache_size: int = 32,
        elementwise_cache_size: int = 64,
    ):
        # A proxy, handed on to every kernel the executor builds: the
        # system owns its executor, and a strong reference back would keep
        # a dropped system — banks, weights, compiled traces — alive until
        # a full garbage collection instead of freeing it on the spot.
        self.sys = weakref.proxy(system)
        self.gemv_cache_size = gemv_cache_size
        self.elementwise_cache_size = elementwise_cache_size
        self._gemv_cache: "OrderedDict[Tuple, GemvKernel]" = OrderedDict()
        self._elementwise_cache: "OrderedDict[Tuple, ElementwiseKernel]" = OrderedDict()
        self.evictions = 0
        self.launch_count = 0

    # -- resident operators -----------------------------------------------------

    def _cache_get(self, cache: OrderedDict, key, factory, limit: int):
        kernel = cache.get(key)
        if kernel is not None:
            cache.move_to_end(key)
            return kernel
        kernel = factory()
        cache[key] = kernel
        metrics = self.sys.metrics
        if metrics is not None:
            metrics.counter(
                "runtime.cache.builds", "operator kernels built"
            ).inc()
        while len(cache) > limit:
            _, evicted = cache.popitem(last=False)
            evicted.release()  # rows go back to the driver
            self.evictions += 1
            if metrics is not None:
                metrics.counter(
                    "runtime.cache.evictions", "operator kernels evicted"
                ).inc()
        return kernel

    def gemv_operator(
        self,
        w: np.ndarray,
        channels: Optional[Sequence[int]] = None,
        max_batch: int = 1,
    ) -> GemvKernel:
        """A resident GEMV with ``w`` staged; cached by identity and shape.

        The memory manager keeps operand data "in cache area for later use"
        (Section V-A): repeated inference steps reuse the staged weights.
        The cached kernel pins a reference to ``w`` so the ``id()`` in the
        cache key cannot be recycled by a later same-shape allocation while
        the entry is alive (the kernel itself stages only a padded copy).
        """
        channel_key = None if channels is None else tuple(channels)
        key = (id(w), w.shape[0], w.shape[1], channel_key, max_batch)

        def build():
            kernel = GemvKernel(
                self.sys, w.shape[0], w.shape[1],
                channels=channels, max_batch=max_batch,
            )
            kernel.load_weights(w)
            kernel.source_weights = w
            return kernel

        return self._cache_get(self._gemv_cache, key, build, self.gemv_cache_size)

    def elementwise_operator(
        self,
        op: str,
        length: int,
        scalars: Optional[Tuple[float, float]] = None,
        channels: Optional[Sequence[int]] = None,
    ) -> ElementwiseKernel:
        """A resident elementwise operator.

        The cache key includes the scalar-register signature: two BN
        operators with different ``(gamma, beta)`` must not share an entry,
        or a cached kernel could run with a stale SRF on part of the
        device.
        """
        channel_key = None if channels is None else tuple(channels)
        scalar_key = None if scalars is None else tuple(float(s) for s in scalars)
        key = (op, length, scalar_key, channel_key)

        def build():
            return ElementwiseKernel(self.sys, op, length, channels=channels)

        return self._cache_get(
            self._elementwise_cache, key, build, self.elementwise_cache_size
        )

    # -- invocations ---------------------------------------------------------------

    def _launch(self, name: str, invoke):
        """Run one kernel invocation with the launch-count/trace hooks."""
        self.launch_count += 1
        metrics = self.sys.metrics
        if metrics is not None:
            metrics.counter(
                "runtime.kernel.launches", "executor kernel launches"
            ).inc()
        tracer = self.sys.tracer
        if tracer is None:
            return invoke()
        span = tracer.begin(name, category="kernel")
        start_ns = tracer.cycles_ns(self.sys.now_cycles())
        result, report = invoke()
        tracer.finish(span, start_ns, start_ns + report.ns)
        return result, report

    def gemv(
        self, w: np.ndarray, x: np.ndarray, simulate_pchs: Optional[int] = None
    ) -> Tuple[np.ndarray, ExecutionReport]:
        """Invoke a (cached) GEMV operator on ``x``."""
        return self._launch(
            "kernel:gemv",
            lambda: self.gemv_operator(w)(x, simulate_pchs=simulate_pchs),
        )

    def elementwise(
        self,
        op: str,
        a: np.ndarray,
        b: Optional[np.ndarray] = None,
        scalars: Optional[Tuple[float, float]] = None,
        simulate_pchs: Optional[int] = None,
    ) -> Tuple[np.ndarray, ExecutionReport]:
        """Invoke a (cached) elementwise operator."""
        kernel = self.elementwise_operator(
            op, int(np.asarray(a).size), scalars=scalars
        )
        return self._launch(
            f"kernel:{op}",
            lambda: kernel(a, b, scalars=scalars, simulate_pchs=simulate_pchs),
        )
