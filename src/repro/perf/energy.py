"""Power and energy models (Figs. 11, 12 and 13).

**Fig. 11 — device power breakdown.**  The paper measures HBM vs PIM-HBM
power over back-to-back reads at 2.4 Gbps and finds PIM-HBM draws only
+5.4% while moving 4x the data on chip.  We model the device as four
components whose streaming-power fractions are calibrated to that result:

* *cell* and *IOSA/decoders* scale with bank-level activity (x4 in AB-PIM),
* the *internal global I/O bus* power disappears in AB-PIM (data stops at
  the bank I/O boundary),
* the *I/O PHY* keeps a residual ~10% toggle (the buffer die's 1024-bit
  interface the paper notes could be gated for another ~10% saving),
* the *PIM execution units* add their own draw.

**Fig. 12 — system power & energy.**  System power is processor + memory.
The processor burns ``stall_w`` while blocked on memory (all CUs spinning),
scales toward ``peak_w`` with compute utilisation, and drops to
``issue_w`` in PIM phases where a handful of thread groups drive commands
and the remaining CUs are idle-gated.  PROC-HBMx4 is the paper's
hypothetical 4x-bandwidth system: memory power and bandwidth both scale 4x,
so memory-bound efficiency stays roughly flat.

**Fig. 13 — DS2 power over time.**  The layer walk of the latency model
yields a (time, power) trace for each platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..apps.layers import Add, Bn, Conv, Fc, HostWork, Layer, Lstm
from ..apps.models import AppModel
from ..pim import stream
from .latency import PIM_HBM, PROC_HBM, LatencyModel, SystemPerf

__all__ = [
    "DevicePowerModel",
    "SystemPowerParams",
    "EnergyModel",
    "PowerPhase",
]


@dataclass(frozen=True)
class DevicePowerModel:
    """Component power fractions of one (PIM-)HBM device.

    Fractions are of the *HBM streaming* total (back-to-back reads at
    2.4 Gbps, 85C, random FP16 data — the Fig. 11 operating point).
    """

    cell: float = 0.08
    iosa: float = 0.12
    global_bus: float = 0.45
    io_phy: float = 0.35
    # AB-PIM residuals and additions.
    bank_activity_factor: float = 4.0  # 8 banks at half cadence
    bus_residual: float = 0.045  # control/command distribution
    phy_residual: float = 0.10  # buffer-die 1024-bit I/O toggle
    pim_units: float = 0.109

    def hbm_breakdown(self) -> Dict[str, float]:
        """Streaming-read power by component (sums to 1.0)."""
        return {
            "cell": self.cell,
            "iosa_decoders": self.iosa,
            "global_bus": self.global_bus,
            "io_phy": self.io_phy,
            "pim_units": 0.0,
        }

    def pim_breakdown(self) -> Dict[str, float]:
        """AB-PIM power by component, relative to HBM streaming == 1.0."""
        k = self.bank_activity_factor
        return {
            "cell": self.cell * k,
            "iosa_decoders": self.iosa * k,
            "global_bus": self.bus_residual,
            "io_phy": self.phy_residual,
            "pim_units": self.pim_units,
        }

    @property
    def pim_total(self) -> float:
        """Total AB-PIM power relative to HBM streaming (paper: 1.054)."""
        return sum(self.pim_breakdown().values())

    @property
    def energy_per_bit_reduction(self) -> float:
        """PIM moves ``bank_activity_factor`` x the bits at ``pim_total`` x
        the power (paper: 3.5x lower energy per bit)."""
        return self.bank_activity_factor / self.pim_total

    @property
    def gated_buffer_saving(self) -> float:
        """Fraction of HBM power saved by gating the buffer-die I/O
        (the ~10% opportunity the paper notes)."""
        return self.phy_residual


@dataclass(frozen=True)
class SystemPowerParams:
    """System-level power constants (watts)."""

    proc_peak_w: float = 225.0
    proc_stall_w: float = 60.0  # all CUs spinning on memory
    proc_issue_w: float = 55.0  # few thread groups driving PIM commands
    host_cpu_w: float = 100.0  # pre/post-processing on the host CPU
    mem_idle_w: float = 30.0  # 4 devices, refresh + standby
    mem_stream_w: float = 100.0  # 4 devices + SoC PHYs at full stream


@dataclass
class PowerPhase:
    """One contiguous execution phase for the Fig. 13 trace."""

    name: str
    start_ns: float
    duration_ns: float
    power_w: float


class EnergyModel:
    """Couples the latency model with the power models."""

    def __init__(
        self,
        system: SystemPerf,
        device: DevicePowerModel = DevicePowerModel(),
        power: SystemPowerParams = SystemPowerParams(),
        bandwidth_scale: float = 1.0,
    ):
        """``bandwidth_scale`` models PROC-HBMx4 (4.0): memory bandwidth,
        idle and streaming power all scale together."""
        from dataclasses import replace

        if bandwidth_scale != 1.0:
            system = replace(system, num_pchs=int(system.num_pchs * bandwidth_scale))
        self.latency = LatencyModel(system)
        self.sys = system
        self.device = device
        self.power = power
        self.bandwidth_scale = bandwidth_scale

    # -- per-phase power -----------------------------------------------------------

    def _mem_power(self, bw_utilisation: float, pim_active: bool) -> float:
        p = self.power
        scale = self.bandwidth_scale
        idle = p.mem_idle_w * scale
        if pim_active:
            stream = p.mem_stream_w * self.device.pim_total
            return idle + (stream - p.mem_idle_w) * max(0.0, min(1.0, bw_utilisation))
        stream = p.mem_stream_w * scale
        return idle + (stream - idle) * max(0.0, min(1.0, bw_utilisation))

    def _proc_power(self, compute_utilisation: float, phase: str) -> float:
        p = self.power
        if phase == "pim":
            return p.proc_issue_w
        if phase == "hostwork":
            return p.host_cpu_w
        u = max(0.0, min(1.0, compute_utilisation))
        return p.proc_stall_w + (p.proc_peak_w - p.proc_stall_w) * u

    # -- kernel-level (Fig. 12 microbenchmarks) ---------------------------------------

    def gemv_phase(self, m: int, n: int, batch: int = 1) -> PowerPhase:
        """Duration and system power of one GEMV on this platform."""
        lat = self.latency
        if self.sys.kind == "pim":
            t = lat.pim_gemv(m, n, batch)
            # Fraction of cycles the AB-PIM datapath is actively streaming.
            tiles, chunks = stream.gemv_shape(m, n, self.sys.num_pchs)
            busy = tiles * stream.columns(stream.gemv_tile(chunks)) * self.sys.tccd_l
            util = busy * self.sys.tck_ns / max(t.ns, 1.0)
            power = self._proc_power(0.0, "pim") + self._mem_power(util, True)
            return PowerPhase(f"gemv{m}x{n}", 0.0, t.ns, power)
        t = lat.host_gemv(m, n, batch)
        eff = lat.cal.gemv_efficiency(m, batch)
        u_compute = 2 * m * n * batch / (t.ns * 1e-9) / self.sys.peak_flops
        power = self._proc_power(u_compute, "host") + self._mem_power(eff, False)
        return PowerPhase(f"gemv{m}x{n}", 0.0, t.ns, power)

    def add_phase(self, elements: int, batch: int = 1) -> PowerPhase:
        """Duration and system power of one elementwise ADD."""
        lat = self.latency
        if self.sys.kind == "pim":
            t = lat.pim_add(elements, batch)
            # Elementwise kernels keep every bank pair streaming through
            # FILL/op/MOV phases: the device runs at near-peak activity.
            power = self._proc_power(0.0, "pim") + self._mem_power(1.0, True)
            return PowerPhase(f"add{elements}", 0.0, t.ns, power)
        t = lat.host_stream(elements, 3, batch)
        power = self._proc_power(0.02, "host") + self._mem_power(
            lat.cal.host_stream_eff, False
        )
        return PowerPhase(f"add{elements}", 0.0, t.ns, power)

    def kernel_energy_j(self, phase: PowerPhase) -> float:
        """Energy of one phase in joules."""
        return phase.power_w * phase.duration_ns * 1e-9

    # -- application-level (Figs. 12 and 13) -------------------------------------------

    def app_phases(self, app: AppModel, batch: int = 1) -> List[PowerPhase]:
        """Per-layer (duration, power) phases of one application run."""
        lat = self.latency
        phases: List[PowerPhase] = []
        now = 0.0
        for layer in app.layers:
            t = lat.layer_time(layer, batch).ns
            offloaded = self.sys.kind == "pim" and lat.offloads(layer)
            if isinstance(layer, HostWork):
                power = self._proc_power(0.0, "hostwork") + self._mem_power(0.05, False)
            elif offloaded:
                # Offloaded layers interleave AB-PIM bursts with launch and
                # activation gaps: effective device duty is below peak.
                power = self._proc_power(0.0, "pim") + self._mem_power(0.45, True)
            elif isinstance(layer, Conv):
                util = lat.cal.conv_utilisation(batch)
                power = self._proc_power(util, "host") + self._mem_power(0.3, False)
            elif isinstance(layer, (Bn, Add)):
                power = self._proc_power(0.02, "host") + self._mem_power(
                    lat.cal.host_stream_eff, False
                )
            else:  # host-executed GEMV-like layer
                m = layer.gate_m if isinstance(layer, Lstm) else layer.m
                eff = lat.cal.gemv_efficiency(m, batch, lstm=isinstance(layer, Lstm))
                power = self._proc_power(0.05, "host") + self._mem_power(eff, False)
            phases.append(PowerPhase(layer.name, now, t, power))
            now += t
        return phases

    def app_energy_j(self, app: AppModel, batch: int = 1) -> Tuple[float, float]:
        """(energy in joules, total time in ns)."""
        phases = self.app_phases(app, batch)
        energy = sum(p.power_w * p.duration_ns * 1e-9 for p in phases)
        total = sum(p.duration_ns for p in phases)
        return energy, total

    def app_average_power_w(self, app: AppModel, batch: int = 1) -> float:
        """Time-weighted average system power over one inference."""
        energy, total = self.app_energy_j(app, batch)
        return energy / (total * 1e-9)

    def power_trace(
        self, app: AppModel, batch: int = 1, points: int = 64
    ) -> List[Tuple[float, float]]:
        """(time_us, power_w) samples over one inference (Fig. 13)."""
        phases = self.app_phases(app, batch)
        total = sum(p.duration_ns for p in phases)
        samples: List[Tuple[float, float]] = []
        for i in range(points):
            t = total * (i + 0.5) / points
            acc = 0.0
            current = phases[-1].power_w
            for p in phases:
                if acc <= t < acc + p.duration_ns:
                    current = p.power_w
                    break
                acc += p.duration_ns
            samples.append((t / 1000.0, current))
        return samples
