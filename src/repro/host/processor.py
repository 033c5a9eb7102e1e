"""Host processor model.

The paper integrates PIM-HBM with an *unmodified* commercial processor
(60 compute units at 1.725 GHz, Section VI).  For the system-level model we
need three things from the host:

* the **lock-step thread-group programming model** (Section V-B, Fig. 8):
  one thread group per pseudo-channel, 16 threads per group, barriers that
  order memory requests — modelled as per-channel request streams with
  fences;
* **roofline parameters** (peak FP16 throughput, off-chip bandwidth) for
  the layer-level performance model of the applications; and
* **software-stack overheads**: kernel-launch latency and the efficiency
  with which the host's BLAS actually uses the available bandwidth — the
  paper attributes GEMV's 11.2x largely to the host library's poor
  bandwidth utilisation (Section VII-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..dram.controller import MemoryController, SchedulerPolicy
from ..dram.device import HbmDevice
from ..dram.frames import FrameCache
from .cache import CacheConfig

__all__ = ["HostConfig", "ThreadGroup", "HostSystem"]


@dataclass(frozen=True)
class HostConfig:
    """Host processor and software-stack parameters.

    Defaults model the evaluation system of Section VI with the
    software-stack efficiencies calibrated in ``repro.perf.calibration``.
    """

    compute_units: int = 60
    freq_ghz: float = 1.725
    fp16_flops_per_cu_per_cycle: int = 128
    llc: CacheConfig = field(default_factory=CacheConfig)
    # Latency of dispatching one kernel to the device (dominates GNMT's
    # per-step decoder launches, Section VII-B).
    kernel_launch_ns: float = 6000.0
    # Cost of one thread-group barrier (orders memory requests; PIM needs
    # one per 8 commands because AAM covers an 8-register window).
    fence_sync_ns: float = 45.0
    # Fraction of peak off-chip bandwidth the host BLAS achieves for
    # streaming level-1 kernels (ADD/BN) and level-2 kernels (GEMV).
    add_bandwidth_efficiency: float = 0.65
    gemv_bandwidth_efficiency: float = 0.18

    @property
    def peak_fp16_flops(self) -> float:
        return self.compute_units * self.fp16_flops_per_cu_per_cycle * self.freq_ghz * 1e9


@dataclass
class ThreadGroup:
    """A lock-step group of 16 threads bound to one pseudo-channel.

    Each thread issues one 16-byte access; the group of 16 covers a
    256-byte PIM chunk (8 x 32 B column bursts) per step, and a barrier
    between steps orders the requests (Fig. 8(c)-(d)).
    """

    group_id: int
    pch: int
    threads: int = 16

    @property
    def bytes_per_step(self) -> int:
        return self.threads * 16


class HostSystem:
    """A processor attached to one or more (PIM-)HBM devices.

    Owns one :class:`MemoryController` per pseudo-channel (channels are
    controlled independently — the property that lets PIM sidestep
    interleaving, Section VIII) and the one frame table they share
    (``frames``, a :class:`~repro.dram.frames.FrameCache`), and accounts
    elapsed time as the max over channels plus host-side overheads.
    """

    def __init__(
        self,
        device: HbmDevice,
        host: Optional[HostConfig] = None,
        policy: SchedulerPolicy = SchedulerPolicy.FRFCFS,
        fence_penalty_cycles: Optional[int] = None,
        scheduler_seed: Optional[int] = None,
        refresh: bool = False,
    ):
        self.device = device
        self.host = host or HostConfig()
        if fence_penalty_cycles is None:
            fence_penalty_cycles = round(
                self.host.fence_sync_ns / device.config.timing.tck_ns
            )
        # One frame table for the device's controllers: a frame is keyed by
        # what a drain does, not by its channel or rows (repro.dram.frames).
        self.frames = FrameCache()
        self.controllers: List[MemoryController] = [
            MemoryController(
                device.pch(i),
                policy=policy,
                fence_penalty=fence_penalty_cycles,
                seed=None if scheduler_seed is None else scheduler_seed + i,
                refresh=refresh,
                frames=self.frames,
            )
            for i in range(len(device))
        ]
        self.thread_groups: List[ThreadGroup] = [
            ThreadGroup(group_id=i, pch=i) for i in range(len(device))
        ]

    @property
    def num_pchs(self) -> int:
        return len(self.controllers)

    @property
    def tck_ns(self) -> float:
        return self.device.config.timing.tck_ns

    def controller(self, pch: int) -> MemoryController:
        """The memory controller of one pseudo-channel."""
        return self.controllers[pch]

    def resolve_pchs(self, pchs: Union[None, int, Sequence[int]]) -> List[int]:
        """Normalise a channel selector to a list of channel indices.

        ``None`` means every channel, an ``int`` means the first N (the
        historical ``simulate_pchs`` convention), and a sequence names an
        explicit channel set (a serving lane).
        """
        if pchs is None:
            return list(range(len(self.controllers)))
        if isinstance(pchs, int):
            return list(range(min(pchs, len(self.controllers))))
        return list(pchs)

    def now_cycles(self, pchs: Union[None, int, Sequence[int]] = None) -> int:
        """Current time over a channel set: channels run concurrently, so
        the max front."""
        ids = self.resolve_pchs(pchs)
        return max(self.controllers[i].current_cycle for i in ids)

    def sync_set(self, pchs: Union[None, int, Sequence[int]] = None) -> int:
        """Barrier across one channel set's thread groups only.

        This is the per-channel-set fence the serving engine relies on:
        kernels bound to a lane align their own channels' clocks without
        stalling — or even observing — channels leased to other lanes.
        """
        ids = self.resolve_pchs(pchs)
        now = self.now_cycles(ids)
        for i in ids:
            controller = self.controllers[i]
            controller._next_ca = max(controller._next_ca, now)
            controller._cycle = max(controller._cycle, now)
        return now

    def sync_channels(self) -> int:
        """Barrier across all thread groups: align channel clocks."""
        return self.sync_set(None)

    def drain_set(self, pchs: Union[None, int, Sequence[int]] = None) -> int:
        """Drain one channel set's queues and align only those clocks."""
        ids = self.resolve_pchs(pchs)
        for i in ids:
            self.controllers[i].drain()
        return self.sync_set(ids)

    def fence_set(self, pchs: Union[None, int, Sequence[int]] = None) -> None:
        """Insert a fence on every controller of one channel set."""
        for i in self.resolve_pchs(pchs):
            self.controllers[i].fence()

    def drain_all(self) -> int:
        """Drain every channel's queue and align the clocks."""
        return self.drain_set(None)

    def cycles_to_ns(self, cycles: int) -> float:
        """Convert CA-clock cycles to nanoseconds."""
        return cycles * self.tck_ns
