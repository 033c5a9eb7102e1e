"""Kernel- and application-level execution-time model (Fig. 10).

Two sides are modelled:

* **Host (PROC-HBM)** — a roofline with software-stack efficiencies: each
  kernel runs at ``max(compute time, traffic / (BW * efficiency))`` plus a
  kernel-launch overhead.  The efficiencies are the *calibrated
  substitution* for the commercial host's BLAS behaviour (we cannot run the
  vendor library): the paper itself attributes GEMV's 11.2x to the host
  kernel "not optimized to fully utilize the off-chip memory bandwidth".
* **PIM (PIM-HBM)** — an analytic pricing of the command programs the
  functional simulator executes (:mod:`repro.pim.stream`): the counts
  (tiles, chunks, groups, columns and fences per tile or group) are read
  off the programs the kernels enqueue; the costs (tCCD_L cadence, the
  calibrated fence, row switches, mode transitions, readback) are this
  model's own.  Tests check it against the cycle-accurate simulator.

All calibrated constants live in :class:`Calibration` with their paper
anchors; EXPERIMENTS.md records model-vs-paper for every reported number.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from ..apps.layers import Add, Bn, Conv, Embedding, Fc, HostWork, Layer, Lstm
from ..apps.models import AppModel
from ..pim.device import UNITS_PER_PCH
from ..pim.isa import GRF_REGS
from ..pim import stream

__all__ = ["Calibration", "SystemPerf", "LatencyModel", "PROC_HBM", "PIM_HBM"]


@dataclass(frozen=True)
class Calibration:
    """Calibrated software-stack constants (paper anchors in comments)."""

    # Host GEMV bandwidth efficiency at M=1024, batch 1.  Anchor: GEMV1
    # speedup 11.2x (Section VII-B).
    host_gemv_eff_base: float = 0.045
    # Efficiency grows with row count (more parallelism exposed).
    host_gemv_eff_size_exp: float = 0.5
    # Batching turns GEMV into GEMM; library efficiency rises ~B^2 until
    # the GEMM ceiling.  Anchors: B2 ratio 3.2x, B4 crossover (Fig. 10).
    host_gemm_eff_batch_exp: float = 2.0
    host_gemm_eff_max: float = 0.75
    # LSTM layers batch less effectively than raw GEMM library calls.
    # Anchor: DS2 ratio falling 3.5x (B1) -> 1.6x (B2) (Fig. 10).
    host_lstm_eff_batch_exp: float = 0.9
    # Streaming level-1 kernels (ADD/BN/ReLU) on the host.
    host_stream_eff: float = 0.80
    # Convolution compute utilisation at batch 1 (small-batch convolutions
    # leave most of the device idle); batching recovers utilisation.
    host_conv_util: float = 0.04
    host_conv_util_batch_exp: float = 1.0
    host_conv_util_max: float = 0.60
    # LLC batch-reuse efficiency.  Anchor: miss rate ~100% at B1 falling to
    # 70-80% at B4 (Fig. 10): miss = 1 - reuse*(B-1)/B.
    llc_batch_reuse: float = 0.33
    # Thread-group barrier cost in DRAM CA cycles.  Anchor: ADD speedup
    # 1.6x at B1 (Section VII-B).
    fence_cycles: int = 22
    # One kernel dispatch (host -> device).
    kernel_launch_ns: float = 6000.0
    # Reconfiguring the PIM data path for a *different* operator (CRF
    # reprogram, mode transitions, memory-manager lookup, channel barriers).
    # Resident operators invoked back to back (the microbenchmark steady
    # state) do not pay it.  Anchor: GNMT's per-step, per-layer decoder
    # kernel calls limiting its end-to-end gain to 1.5x (Section VII-B).
    pim_operator_switch_ns: float = 110000.0
    # PIM session setup (mode transitions + CRF/SRF programming).
    pim_setup_cycles: int = 150
    # PRE+ACT pair when the lock-step stream switches rows.
    row_switch_cycles: int = 28
    # Bus turnaround padding per elementwise group (RD->WR->RD).
    turnaround_cycles: int = 20

    def llc_miss_rate(self, batch: int) -> float:
        """Modelled LLC miss rate at a batch size (Fig. 10 study)."""
        return 1.0 - self.llc_batch_reuse * (batch - 1) / batch

    def gemv_efficiency(self, m: int, batch: int, lstm: bool = False) -> float:
        """Host library's achieved fraction of peak bandwidth."""
        base = self.host_gemv_eff_base * (m / 1024.0) ** self.host_gemv_eff_size_exp
        exp = self.host_lstm_eff_batch_exp if lstm else self.host_gemm_eff_batch_exp
        return min(self.host_gemm_eff_max, base * batch**exp)

    def conv_utilisation(self, batch: int) -> float:
        """Host convolution compute utilisation at a batch size."""
        return min(
            self.host_conv_util_max,
            self.host_conv_util * batch**self.host_conv_util_batch_exp,
        )


@dataclass(frozen=True)
class SystemPerf:
    """Static parameters of one evaluation platform."""

    name: str
    kind: str  # "hbm" or "pim"
    num_pchs: int = 64  # 4 devices x 16 pCH (Section VI)
    tck_ns: float = 1.0 / 1.2
    tccd_l: int = 4
    tccd_s: int = 2
    col_bytes: int = 32
    cols_per_row: int = 32
    peak_flops: float = 26.5e12  # 60 CUs x 128 FP16 FLOP x 1.725 GHz * 2
    cal: Calibration = field(default_factory=Calibration)

    @property
    def offchip_bw(self) -> float:
        """Peak off-chip bandwidth in bytes/s (1.229 TB/s for 64 pCHs)."""
        return self.num_pchs * self.col_bytes / (self.tccd_s * self.tck_ns * 1e-9)

    @property
    def onchip_bw(self) -> float:
        """PIM compute bandwidth (4x off-chip: 8 banks at tCCD_L)."""
        return self.num_pchs * UNITS_PER_PCH * self.col_bytes / (
            self.tccd_l * self.tck_ns * 1e-9
        )


PROC_HBM = SystemPerf("PROC-HBM", "hbm")
PIM_HBM = SystemPerf("PIM-HBM", "pim")


@dataclass
class KernelTime:
    """One kernel's modelled execution time, with its mechanism split."""

    ns: float
    launch_ns: float = 0.0
    fence_ns: float = 0.0
    mem_ns: float = 0.0
    compute_ns: float = 0.0

    @property
    def total_ns(self) -> float:
        return self.ns


class LatencyModel:
    """Kernel and application times for one platform."""

    def __init__(self, system: SystemPerf, lanes_scale: int = 1, rewrite=tuple):
        self.sys = system
        self.cal = system.cal
        # Fig. 14's variants: execution resources relative to PIM-HBM
        # (``stream.gemv_shape``'s ``scale``), and what the modelled device
        # does to a kernel's command program (``tuple``: nothing).
        self.lanes_scale = lanes_scale
        self._rewrite = rewrite

    # -- host kernels -----------------------------------------------------------

    def host_gemv(self, m: int, n: int, batch: int = 1, lstm: bool = False) -> KernelTime:
        """Host GEMV time: roofline x calibrated library efficiency."""
        cal = self.cal
        traffic = 2 * m * n * batch * cal.llc_miss_rate(batch)
        eff = cal.gemv_efficiency(m, batch, lstm=lstm)
        mem_ns = traffic / (self.sys.offchip_bw * eff) * 1e9
        compute_ns = 2 * m * n * batch / self.sys.peak_flops * 1e9
        ns = max(mem_ns, compute_ns) + cal.kernel_launch_ns
        return KernelTime(ns, cal.kernel_launch_ns, 0.0, mem_ns, compute_ns)

    def host_stream(self, elements: int, accesses: int, batch: int = 1) -> KernelTime:
        """Streaming level-1 kernel: ``accesses`` 2-byte touches/element."""
        traffic = accesses * 2 * elements * batch
        mem_ns = traffic / (self.sys.offchip_bw * self.cal.host_stream_eff) * 1e9
        ns = mem_ns + self.cal.kernel_launch_ns
        return KernelTime(ns, self.cal.kernel_launch_ns, 0.0, mem_ns, 0.0)

    def host_conv(self, flops: float, batch: int = 1) -> KernelTime:
        """Host convolution time (compute-bound)."""
        util = self.cal.conv_utilisation(batch)
        compute_ns = flops * batch / (self.sys.peak_flops * util) * 1e9
        ns = compute_ns + self.cal.kernel_launch_ns
        return KernelTime(ns, self.cal.kernel_launch_ns, 0.0, 0.0, compute_ns)

    # -- PIM kernels -------------------------------------------------------------

    def pim_gemv_cycles(self, m: int, n: int) -> int:
        """Per-pCH cycle count of one PIM GEMV invocation."""
        cal = self.cal
        t = self.sys
        tiles, chunks = stream.gemv_shape(m, n, t.num_pchs, self.lanes_scale)
        chunks_per_row = t.cols_per_row // GRF_REGS
        tile = self._rewrite(stream.gemv_tile(chunks, chunks_per_row))
        fence = cal.fence_cycles
        per_tile = (
            (GRF_REGS * t.tccd_l + fence)  # zero GRF_B
            + (2 * fence + 2 * t.tccd_l)  # PIM_OP_MODE on/off
            # stage + MAC per chunk, partial-sum epilogue
            + stream.columns(tile) * t.tccd_l + stream.fences(tile) * fence
            + -(-chunks // chunks_per_row) * cal.row_switch_cycles
        )
        # The SB-mode readback, at tCCD_S; a variant's rewrite leaves it be.
        readback = stream.columns(stream.gemv_readback(0, 0, self.lanes_scale))
        return tiles * (per_tile + readback * t.tccd_s) + cal.pim_setup_cycles

    def pim_gemv(self, m: int, n: int, batch: int = 1, launches: int = 1) -> KernelTime:
        """PIM GEMV time from the analytic pricing of its program."""
        cycles = self.pim_gemv_cycles(m, n) * batch
        tiles, chunks = stream.gemv_shape(m, n, self.sys.num_pchs)
        # A tile's own fences plus the GRF_B clear's and the mode writes' two.
        fence_ns = (
            tiles * (stream.fences(stream.gemv_tile(chunks)) + 3)
            * self.cal.fence_cycles * batch * self.sys.tck_ns
        )
        launch_ns = launches * self.cal.kernel_launch_ns
        ns = cycles * self.sys.tck_ns + launch_ns
        return KernelTime(ns, launch_ns, fence_ns, cycles * self.sys.tck_ns, 0.0)

    def pim_elementwise_cycles(
        self, elements: int, group_commands: int, group_fences: int
    ) -> int:
        """Per-pCH cycles of one elementwise kernel invocation whose
        8-column group holds that many column commands and fences."""
        cal = self.cal
        t = self.sys
        groups = stream.elementwise_groups(elements, t.num_pchs, self.lanes_scale)
        per_group = (
            group_commands * t.tccd_l
            + group_fences * cal.fence_cycles
            + cal.turnaround_cycles
        )
        groups_per_row = (t.cols_per_row // 2) // GRF_REGS
        switches = (groups // groups_per_row) * cal.row_switch_cycles
        return groups * per_group + switches + cal.pim_setup_cycles

    def _pim_elementwise(self, op: str, elements: int, batch: int) -> KernelTime:
        group = self._rewrite(stream.elementwise_stream(op, 1))
        cycles = batch * self.pim_elementwise_cycles(
            elements, stream.columns(group), stream.fences(group)
        )
        ns = cycles * self.sys.tck_ns + self.cal.kernel_launch_ns
        return KernelTime(ns, self.cal.kernel_launch_ns, 0.0, cycles * self.sys.tck_ns, 0.0)

    def pim_add(self, elements: int, batch: int = 1) -> KernelTime:
        """PIM elementwise ADD time (FILL, ADD and MOV bursts per group)."""
        return self._pim_elementwise("add", elements, batch)

    def pim_bn(self, elements: int, batch: int = 1) -> KernelTime:
        """PIM batch-norm time (MAD and MOV bursts per group)."""
        return self._pim_elementwise("bn", elements, batch)

    # -- layer dispatch -------------------------------------------------------------

    def lstm_time(self, layer: Lstm, batch: int) -> KernelTime:
        """One LSTM layer end to end."""
        cal = self.cal
        steps = layer.steps * layer.directions
        if self.sys.kind == "hbm":
            per_step = self.host_gemv(
                layer.gate_m, layer.input_dim + layer.hidden, batch, lstm=True
            )
            # One launch per layer per direction: the host library fuses the
            # step loop into one kernel.
            ns = steps * (per_step.ns - per_step.launch_ns)
            ns += layer.directions * cal.kernel_launch_ns
            return KernelTime(ns, layer.directions * cal.kernel_launch_ns, 0.0, ns, 0.0)
        gemv_x = self.pim_gemv_cycles(layer.gate_m, layer.input_dim)
        gemv_h = self.pim_gemv_cycles(layer.gate_m, layer.hidden)
        cycles = steps * (gemv_x + gemv_h) * batch
        if layer.fused:
            # Whole layer issued as one PIM kernel: one operator switch.
            launch_ns = layer.directions * (
                cal.kernel_launch_ns + cal.pim_operator_switch_ns
            )
        else:
            # Decoder-style: the PIM kernel is re-invoked (and the datapath
            # reconfigured) every step because the next input depends on
            # this step's output.
            launch_ns = steps * (cal.kernel_launch_ns + cal.pim_operator_switch_ns)
        # Host-side activations overlap with the next step's command
        # generation; their residual cost is folded into the launch constant.
        ns = cycles * self.sys.tck_ns + launch_ns
        return KernelTime(ns, launch_ns, 0.0, cycles * self.sys.tck_ns, 0.0)

    def fc_time(self, layer: Fc, batch: int) -> KernelTime:
        """A fully connected layer: per-call GEMV plus operator switches."""
        if self.sys.kind == "hbm":
            one = self.host_gemv(layer.m, layer.n, batch)
            return KernelTime(one.ns * layer.calls, one.launch_ns * layer.calls)
        one = self.pim_gemv(layer.m, layer.n, batch)
        # Each call in an alternating layer sequence reconfigures the
        # operator (applications interleave FCs with other layers).
        switch_ns = layer.calls * self.cal.pim_operator_switch_ns
        return KernelTime(
            one.ns * layer.calls + switch_ns,
            one.launch_ns * layer.calls + switch_ns,
        )

    def _raw_layer_time(self, layer: Layer, batch: int) -> KernelTime:
        """Layer time on this platform with no offload policy applied."""
        if isinstance(layer, Conv):
            return self.host_conv(layer.flops, batch)
        if isinstance(layer, HostWork):
            return KernelTime(layer.ns * batch)
        if isinstance(layer, Lstm):
            return self.lstm_time(layer, batch)
        if isinstance(layer, Fc):
            return self.fc_time(layer, batch)
        if isinstance(layer, Bn):
            if self.sys.kind == "hbm":
                return self.host_stream(layer.elements, 2, batch)
            return self.pim_bn(layer.elements, batch)
        if isinstance(layer, Add):
            if self.sys.kind == "hbm":
                return self.host_stream(layer.elements, 3, batch)
            return self.pim_add(layer.elements, batch)
        if isinstance(layer, Embedding):
            traffic = layer.lookups * 128  # one embedding row per lookup
            ns = traffic / self.sys.offchip_bw * 1e9 + self.cal.kernel_launch_ns
            return KernelTime(ns)
        raise TypeError(f"unknown layer {layer!r}")

    def _host_view(self) -> "LatencyModel":
        if self.sys.kind == "hbm":
            return self
        view = getattr(self, "_host_view_cache", None)
        if view is None:
            view = LatencyModel(replace(self.sys, kind="hbm"))
            self._host_view_cache = view
        return view

    def offloads(self, layer: Layer) -> bool:
        """The preprocessor's static offload decision (Section V-A).

        Taken once per operator at deployment, for the latency-sensitive
        batch-1 case the system targets: offload only if PIM is faster.
        The decision then applies at every batch size, which is why Fig. 10
        shows PIM-HBM *losing* to HBM at batch 4 instead of matching it.
        """
        if self.sys.kind == "hbm" or not getattr(layer, "pim_eligible", False):
            return False
        pim_b1 = self._raw_layer_time(layer, 1).ns
        host_b1 = self._host_view()._raw_layer_time(layer, 1).ns
        return pim_b1 < host_b1

    def layer_time(self, layer: Layer, batch: int) -> KernelTime:
        """One layer's time under the static offload policy."""
        if self.sys.kind == "pim" and layer.pim_eligible and not self.offloads(layer):
            return self._host_view()._raw_layer_time(layer, batch)
        return self._raw_layer_time(layer, batch)

    # -- applications --------------------------------------------------------------

    def app_time(self, app: AppModel, batch: int = 1) -> Dict[str, float]:
        """Per-layer and total time (ns) for one application."""
        breakdown = {}
        total = 0.0
        for layer in app.layers:
            t = self.layer_time(layer, batch).ns
            breakdown[layer.name] = t
            total += t
        breakdown["total"] = total
        return breakdown

    def without_fences(self) -> "LatencyModel":
        """The Section VII-B study: a controller that preserves command
        order in PIM mode, removing all fence costs."""
        return LatencyModel(
            replace(self.sys, cal=replace(self.cal, fence_cycles=0))
        )
