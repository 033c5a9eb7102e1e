"""PIM microkernels, data layouts, and host command-stream generation.

This module is the "PIM kernel" layer of Fig. 7: given operands laid out in
the PIM region, it programs a microkernel into the CRF and generates the
DRAM request stream (with thread-group fences) whose column commands trigger
the microkernel's instructions.

Layout conventions (chosen to match the architecture's constraints and
documented in DESIGN.md):

* **GEMV** ``y = W @ x`` — outputs are tiled across units and lanes
  (8 units x 16 lanes = 128 outputs per tile per pCH); the input dimension
  is sliced across pseudo-channels and swept in chunks of 8.  Weights live
  in each unit's EVEN bank, one 16-lane output group per 32-byte column;
  partial sums go back to the EVEN bank and are reduced by the host
  (8 sub-accumulators per lane, one slice per pCH).
* **Elementwise** (ADD/MUL/ReLU/BN) — operand A in EVEN banks, operand B at
  the same (row, col) of ODD banks, results at column+16 of EVEN banks, so
  one lock-step address stream feeds both operands and the output.

The command stream over these layouts is plan data: each plan's *program*
(:mod:`repro.pim.stream`), runs of 8 columns of one row in one direction,
each followed by a fence — address-aligned mode can absorb reordering only
within the 8-register GRF window (Section IV-C / VII-B).  A kernel hands
each program to its channel's controller whole (``mc.drain(program,
blocks)``): every run is one *column burst* alone in its fence epoch, so
the controller issues it as one command and the device executes it as a
unit, bit-identically to its 8 commands.  A GEMV's SB-mode readback is a
program too, of unfenced runs the controller reorders across banks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..dram.ecc import peek_block, poke_block
from ..pim import stream
from ..pim.device import UNITS_PER_PCH, PimPseudoChannel
from ..pim.modes import PimMemoryMap
from ..pim.registers import GRF_REG_BYTES, LANES
from ..pim.isa import GRF_REGS
from ..host.processor import HostSystem
from .arithmetic import elementwise_reference, mac_partials, reduce_partials

__all__ = [
    "ExecutionReport",
    "PimSession",
    "GemvKernel",
    "ElementwiseKernel",
    "ELEMENTWISE_OPS",
    "column_commands",
    "column_cost",
]

_COL_GROUP = GRF_REGS  # 8 columns per AAM window / fence interval

# A channel selector: None = all channels, int = the first N (the
# historical ``simulate_pchs`` convention), or an explicit sequence of
# channel indices (a serving lane's channel set).
ChannelSelector = Union[None, int, Sequence[int]]


@dataclass
class ExecutionReport:
    """What one PIM kernel invocation did and how long it took."""

    kernel: str
    cycles: int = 0
    ns: float = 0.0
    column_commands: int = 0
    activates: int = 0
    fences: int = 0
    pim_instructions: int = 0
    pim_flops: int = 0
    host_bytes: int = 0  # bytes that crossed the off-chip interface
    simulated_pchs: int = 0
    total_pchs: int = 0
    notes: Dict[str, float] = field(default_factory=dict)

    def scale_factor(self) -> float:
        """Commands of one simulated pCH represent this many device-wide."""
        if self.simulated_pchs == 0:
            return 1.0
        return self.total_pchs / self.simulated_pchs


def _alloc_rows(system: HostSystem, count: int):
    """Allocate row sets through the system's PIM device driver.

    Kernels never hard-code placements: physically contiguous row sets come
    from the driver (Section V-A), which also keeps the register-mapped
    region off limits.  Systems without a driver (bare test rigs) fall back
    to a per-system bump allocator with the same semantics.
    """
    driver = getattr(system, "driver", None)
    if driver is None:
        from .driver import PimDeviceDriver

        driver = PimDeviceDriver(system.device)
        system.driver = driver  # type: ignore[attr-defined]
    return driver.alloc_rows(count)


def _fill_timing(
    system: HostSystem, report: ExecutionReport, cycles: int, launches: int
) -> None:
    """Simulated duration of an invocation: its cycles plus launch overheads."""
    report.cycles = cycles
    report.ns = system.cycles_to_ns(cycles) + launches * system.host.kernel_launch_ns
    report.notes["launches"] = launches


def _constant(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def _tile_block(values: np.ndarray) -> np.ndarray:
    """``T`` output tiles' ``(n, T x 128 outputs)`` FP16 values as the ``(8
    units, T x n columns, 32 bytes)`` block of the units' banks: unit ``u``
    holds outputs ``16 u .. 16 u + 15`` of each tile, one per lane, value
    ``j`` of tile ``t`` in column ``t n + j``."""
    n = values.shape[0]
    lanes = values.reshape(n, -1, UNITS_PER_PCH, LANES).transpose(2, 1, 0, 3)
    block = np.ascontiguousarray(lanes, dtype=np.float16)
    return block.reshape(UNITS_PER_PCH, -1, LANES).view(np.uint8)


def _tile_values(block: np.ndarray) -> np.ndarray:
    """The inverse of :func:`_tile_block` for ``n`` = 8, a row of partial
    sums: ``(8 units, T x 8 columns, 32 bytes)`` -> ``(8, T x 128
    outputs)`` FP16."""
    lanes = block.view(np.float16).reshape(UNITS_PER_PCH, -1, _COL_GROUP, LANES)
    return lanes.transpose(2, 1, 0, 3).reshape(_COL_GROUP, -1)


# The read-only operand blocks every launch shares, at the end of its block
# list where a program's ``MODE_ON`` / ``MODE_OFF`` / ``ZEROS`` operands
# (-3, -2, -1) index them: the PIM_OP_MODE register values, and one
# 8-column burst of write data nothing reads for its content.
_CONSTANT_BLOCKS = (
    _constant(np.array([1] + [0] * (GRF_REG_BYTES - 1), dtype=np.uint8)),
    _constant(np.zeros(GRF_REG_BYTES, dtype=np.uint8)),
    _constant(np.zeros((_COL_GROUP, GRF_REG_BYTES), dtype=np.uint8)),
)


def _count_program(report: ExecutionReport, program: stream.Program, times: int) -> None:
    """Counters of ``times`` executions of ``program``: the columns (one
    instruction per unit each) its AB-PIM runs trigger, and all its fences."""
    report.column_commands = stream.columns(stream.triggers(program)) * times
    report.fences = stream.fences(program) * times
    report.pim_instructions = report.column_commands * UNITS_PER_PCH


class PimSession:
    """Mode transitions and register programming over standard commands.

    All methods run through the memory controllers, so their cost lands in
    the same cycle accounting as the data phases.
    """

    def __init__(self, system: HostSystem):
        self.sys = system
        channel = system.device.pch(0)
        if not isinstance(channel, PimPseudoChannel):
            raise TypeError("PimSession requires a PIM-HBM device")
        self.map = channel.memory_map

    def _each(self, pchs: ChannelSelector = None):
        return [self.sys.controllers[i] for i in self.sys.resolve_pchs(pchs)]

    # -- mode transitions ------------------------------------------------------

    def enter_ab(self, pchs: ChannelSelector = None) -> None:
        """PREA + (ACT, PRE) to the ABMR row on the selected channels."""
        for mc in self._each(pchs):
            mc.drain()
            mc.precharge_all()
            mc.closed_page_access(0, 0, self.map.abmr_row)

    def exit_to_sb(self, pchs: ChannelSelector = None) -> None:
        """PREA + (ACT, PRE) to the SBMR row: back to standard DRAM."""
        for mc in self._each(pchs):
            mc.drain()
            mc.precharge_all()
            mc.closed_page_access(0, 0, self.map.sbmr_row)

    # -- register programming ----------------------------------------------------

    def program_crf(self, source: str, pchs: ChannelSelector = None) -> None:
        """Assemble and broadcast a microkernel into every unit's CRF.

        The memory manager caches microkernel code (Section V-A): when a
        channel already holds this exact program, the register writes are
        skipped entirely.
        """
        from .memory import MicrokernelCache

        cache = getattr(self.sys, "_microkernel_cache", None)
        if cache is None:
            cache = MicrokernelCache()
            self.sys._microkernel_cache = cache  # type: ignore[attr-defined]
        loaded = getattr(self.sys, "_crf_loaded", None)
        if loaded is None:
            loaded = {}
            self.sys._crf_loaded = loaded  # type: ignore[attr-defined]
        words = cache.get(source)
        image = np.array(words, dtype="<u4").view(np.uint8)
        cols = len(image) // GRF_REG_BYTES
        for index in self.sys.resolve_pchs(pchs):
            mc = self.sys.controllers[index]
            if loaded.get(index) == source:
                continue  # the CRF already holds this microkernel
            for col in range(cols):
                chunk = image[col * GRF_REG_BYTES : (col + 1) * GRF_REG_BYTES]
                mc.write(0, 0, self.map.crf_row, col, chunk)
            mc.fence()
            loaded[index] = source

    def write_srf(
        self,
        mul_scalars: Optional[np.ndarray] = None,
        add_scalars: Optional[np.ndarray] = None,
        pchs: ChannelSelector = None,
    ) -> None:
        """Program SRF_M / SRF_A (each 8 FP16 scalars, zero-padded)."""
        for mc in self._each(pchs):
            for col, values in ((0, mul_scalars), (1, add_scalars)):
                if values is None:
                    continue
                payload = np.zeros(GRF_REG_BYTES, dtype=np.uint8)
                scalars = np.asarray(values, dtype=np.float16)
                payload[: scalars.size * 2] = scalars.view(np.uint8)
                mc.write(0, 0, self.map.srf_row, col, payload)
            mc.fence()


# ---------------------------------------------------------------------------
# Command counts: the program of a shape, reachable without a device
# ---------------------------------------------------------------------------
#
# A *stream* is the command sequence of one share of an operand: one
# input-dimension slice of a GEMV (a channel runs ``passes`` of them back
# to back), one channel slot of an elementwise vector.  ``streams`` below
# is how many the operand is spread over — the layout's slice count for
# GEMV, the executing lane's channel count for elementwise.

def column_commands(op: str, shape: Tuple[int, ...], streams: int) -> int:
    """Column commands one invocation of ``op`` triggers on one stream.

    The count every :class:`ExecutionReport` carries (there scaled by the
    simulated streams and the batch), as a pure function of the operand
    ``shape`` — ``(m, n)`` for ``"gemv"``, ``(length,)`` for an
    elementwise operator — so the fabric router can price a request it
    will never launch: the columns of one tile's (one group's) program,
    times the tiles (groups) of the shape.
    """
    if op == "gemv":
        tiles, chunks = stream.gemv_shape(*shape, streams)
        return tiles * stream.columns(stream.gemv_tile(chunks))
    (length,) = shape
    group = stream.elementwise_stream(op, 1)
    return stream.elementwise_groups(length, streams) * stream.columns(group)


def column_cost(op: str, shape: Tuple[int, ...], streams: int) -> int:
    """:func:`column_commands` plus the columns of a GEMV's readback
    program per tile: everything one invocation puts on a stream's column
    bus, the fabric's unit of load."""
    cost = column_commands(op, shape, streams)
    if op == "gemv":
        tiles = stream.gemv_shape(*shape, streams)[0]
        cost += tiles * stream.columns(stream.gemv_readback(0, 0))
    return cost


# ---------------------------------------------------------------------------
# GEMV
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GemvPlan:
    """Placement plan for one GEMV operand set.

    The *layout* is expressed in **slices** of the input dimension, not in
    physical channels: the FP16 MAC grouping (and therefore the bit-exact
    result) depends only on ``num_slices``.  A kernel bound to a channel
    set smaller than ``num_slices`` runs several slices per channel in
    consecutive *passes*, so a serving lane on 2 of 4 channels still
    produces results bit-identical to a whole-device invocation.
    """

    m: int
    n: int
    num_slices: int  # input-dimension slices (canonical math shape)
    n_slice: int  # padded input dims per slice
    chunks: int  # n_slice // 8
    tiles: int  # output tiles of 128
    chunks_per_row: int
    rows_per_tile: int
    passes: int  # slices executed per channel (ceil(num_slices / channels))
    batch_slots: int  # independent partial-sum areas for fused batching
    weight_base_row: int
    out_base_row: int
    registers: PimMemoryMap

    @property
    def outputs_per_tile(self) -> int:
        return UNITS_PER_PCH * LANES

    @property
    def weight_rows_per_pass(self) -> int:
        return self.tiles * self.rows_per_tile

    @property
    def out_rows_per_pass(self) -> int:
        return -(-self.tiles // self.chunks_per_row)

    def weight_location(self, tile: int, chunk: int, pass_: int = 0) -> Tuple[int, int]:
        """(row, column base) of a weight chunk for one tile."""
        row = (
            self.weight_base_row
            + pass_ * self.weight_rows_per_pass
            + tile * self.rows_per_tile
            + chunk // self.chunks_per_row
        )
        col_base = (chunk % self.chunks_per_row) * _COL_GROUP
        return row, col_base

    def out_location(self, tile: int, pass_: int = 0, slot: int = 0) -> Tuple[int, int]:
        """(row, column base) of a tile's 8 partial-sum columns."""
        tiles_per_row = self.chunks_per_row
        row = (
            self.out_base_row
            + (slot * self.passes + pass_) * self.out_rows_per_pass
            + tile // tiles_per_row
        )
        col_base = (tile % tiles_per_row) * _COL_GROUP
        return row, col_base

    def out_rows(self, pass_: int = 0, slot: int = 0) -> Iterator[Tuple[int, int, slice]]:
        """``(row, columns, outputs)`` of each partial-sum row of one (pass,
        slot): the tiles that share it fill its first ``columns``, 8 each,
        with the partial sums of ``outputs``."""
        opt = self.outputs_per_tile
        for tile in range(0, self.tiles, self.chunks_per_row):
            last = min(tile + self.chunks_per_row, self.tiles)
            yield (
                self.out_location(tile, pass_, slot)[0],
                (last - tile) * _COL_GROUP,
                slice(tile * opt, last * opt),
            )

    def program(self, tile: int, pass_: int = 0, slot: int = 0) -> stream.Program:
        """What one (slice, tile) puts on its channel's bus: the GRF_B
        clear, then the tile's chunk sweep and partial-sum write-out in
        AB-PIM mode.  Every (slice, tile) has this shape; only the rows
        differ."""
        weight_row, _ = self.weight_location(tile, 0, pass_)
        body = stream.gemv_tile(
            self.chunks, self.chunks_per_row, weight_row,
            *self.out_location(tile, pass_, slot),
        )
        return stream.kernel_program(body, self.registers, clear_grf_b=True)


class _ResidentKernel:
    """What the operators share: a channel set to run on, and rows held
    from the driver (``_plan`` sets ``_block``) until :meth:`release`."""

    def __init__(self, system: HostSystem, channels: Optional[Sequence[int]]):
        self.sys = system
        self.session = PimSession(system)
        if channels is None:
            channels = range(system.num_pchs)
        self.channels: Tuple[int, ...] = tuple(channels)
        if not self.channels:
            raise ValueError(f"{type(self).__name__} needs at least one channel")
        for p in self.channels:
            if not 0 <= p < system.num_pchs:
                raise ValueError(f"channel {p} out of range")
        self._block = None  # RowSetRange
        self._released = False

    def release(self) -> None:
        """Return the kernel's rows to the driver (cache eviction)."""
        if self._released:
            return
        self._released = True
        driver = getattr(self.sys, "driver", None)
        if driver is not None and self._block is not None:
            driver.free(self._block)

    def _check_alive(self) -> None:
        if self._released:
            raise RuntimeError("kernel was evicted; its rows were reclaimed")


class GemvKernel(_ResidentKernel):
    """A resident GEMV operator: weights staged once, invoked per input.

    This mirrors the PIM memory manager's behaviour (Section V-A): the
    weight matrix is rearranged into the PIM-friendly layout when the model
    is loaded, and each invocation only streams the input vector and the
    triggering commands.
    """

    MICROKERNEL = """
    MOV  GRF_A[A], HOST            ; stage 8 replicated x values (WR)
    JUMP -1, 7
    MAC  GRF_B[A], EVEN_BANK, GRF_A[A]  ; 8 weight columns (RD)
    JUMP -1, 7
    JUMP -4, {reps}                ; one iteration per input chunk
    MOV  EVEN_BANK[A], GRF_B[A]    ; write 8 partial-sum registers (WR)
    JUMP -1, 7
    EXIT
    """

    def __init__(
        self,
        system: HostSystem,
        m: int,
        n: int,
        channels: Optional[Sequence[int]] = None,
        layout_pchs: Optional[int] = None,
        max_batch: int = 1,
    ):
        super().__init__(system, channels)
        self.m = m
        self.n = n
        # The layout slice count fixes the FP16 accumulation grouping, so
        # results are independent of which (and how many) channels execute
        # the kernel; it defaults to the whole device's channel count.
        self.layout_pchs = system.num_pchs if layout_pchs is None else layout_pchs
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.max_batch = max_batch
        self.plan = self._plan(m, n)
        # The functional shortcut's operand: float32, input-major, slice
        # ``s`` at ``[s // k, s % k]`` for ``k`` channels (zeros past the last).
        self._weights: Optional[np.ndarray] = None

    def _plan(self, m: int, n: int) -> GemvPlan:
        num_slices = self.layout_pchs
        cols_per_row = self.sys.device.config.bank_config.cols_per_row
        chunks_per_row = cols_per_row // _COL_GROUP
        tiles, chunks = stream.gemv_shape(m, n, num_slices)
        n_slice = chunks * _COL_GROUP
        rows_per_tile = -(-chunks // chunks_per_row)
        passes = -(-num_slices // len(self.channels))
        weight_rows = passes * tiles * rows_per_tile
        out_rows_per_pass = -(-tiles // chunks_per_row)
        out_rows = self.max_batch * passes * out_rows_per_pass
        block = _alloc_rows(self.sys, weight_rows + out_rows)
        self._block = block
        return GemvPlan(
            m=m,
            n=n,
            num_slices=num_slices,
            n_slice=n_slice,
            chunks=chunks,
            tiles=tiles,
            chunks_per_row=chunks_per_row,
            rows_per_tile=rows_per_tile,
            passes=passes,
            batch_slots=self.max_batch,
            weight_base_row=block.start,
            out_base_row=block.start + weight_rows,
            registers=self.session.map,
        )

    def _slice_channel(self, s: int) -> Tuple[int, int]:
        """(channel index, pass) executing slice ``s``."""
        k = len(self.channels)
        return self.channels[s % k], s // k

    # -- staging ------------------------------------------------------------------

    def load_weights(self, w: np.ndarray) -> None:
        """Rearrange and stage the weight matrix into the PIM region.

        Performed by the PIM BLAS when weights are first brought to memory
        (Section VIII); not part of per-invocation timing.
        """
        self._check_alive()
        w = np.asarray(w, dtype=np.float16)
        if w.shape != (self.m, self.n):
            raise ValueError(f"expected {(self.m, self.n)} weights, got {w.shape}")
        plan = self.plan
        padded = np.zeros(
            (plan.tiles * plan.outputs_per_tile, plan.num_slices * plan.n_slice),
            dtype=np.float16,
        )
        padded[: self.m, : self.n] = w
        opt = plan.outputs_per_tile
        for s in range(plan.num_slices):
            pch, pass_ = self._slice_channel(s)
            banks = self.sys.device.pch(pch).banks[0::2]  # every unit's EVEN bank
            for tile in range(plan.tiles):
                # One block per weight row: the chunks that share it.
                for chunk in range(0, plan.chunks, plan.chunks_per_row):
                    row, col_base = plan.weight_location(tile, chunk, pass_)
                    dim = s * plan.n_slice + chunk * _COL_GROUP
                    cols = min(plan.chunks_per_row, plan.chunks - chunk) * _COL_GROUP
                    poke_block(
                        banks, row, col_base,
                        _tile_block(padded[tile * opt : (tile + 1) * opt, dim : dim + cols].T),
                    )
        slices = np.zeros(
            (plan.passes * len(self.channels), plan.n_slice, len(padded)), dtype=np.float32
        )
        slices[: plan.num_slices] = padded.T.reshape(plan.num_slices, plan.n_slice, -1)
        self._weights = slices.reshape(plan.passes, len(self.channels), *slices.shape[1:])

    # -- invocation ---------------------------------------------------------------

    def __call__(
        self, x: np.ndarray, simulate_pchs: Optional[int] = None
    ) -> Tuple[np.ndarray, ExecutionReport]:
        """Run ``y = W @ x`` on the PIM device: :meth:`batched` of one input."""
        x = np.asarray(x, dtype=np.float16)
        if x.shape != (self.n,):
            raise ValueError(f"expected input of shape ({self.n},)")
        ys, report = self.batched(x[np.newaxis], simulate_pchs)
        report.kernel = f"gemv[{self.m}x{self.n}]"
        return ys[0], report

    def batched(
        self, xs: np.ndarray, simulate_pchs: Optional[int] = None
    ) -> Tuple[np.ndarray, ExecutionReport]:
        """Run a batch of inputs through the resident operator.

        PIM processes batch elements *sequentially* (the device has no
        batch dimension), which is exactly why Fig. 10 shows the speedup
        shrinking with batch size while the host amortises into GEMM.
        Up to ``max_batch`` inputs share one kernel launch — one SB->AB
        transition and one CRF broadcast — each writing its partial sums
        to its own out-row slot; larger batches run in groups of
        ``max_batch`` (one launch per input at the default of 1).  Only
        the setup overheads amortise: every output is reduced from its
        own partial sums by :func:`~repro.stack.arithmetic.reduce_partials`.

        ``simulate_pchs`` limits cycle-accurate simulation to the first N
        pseudo-channels (all channels execute identical streams, so the
        timing is exact); the remaining slices of every input of a launch
        are computed by one :func:`~repro.stack.arithmetic.mac_partials`
        and their partial sums poked where the epilogue MOV would have
        written them, so the device state matches a full run.
        """
        xs = np.asarray(xs, dtype=np.float16)
        if xs.ndim != 2 or xs.shape[1] != self.n:
            raise ValueError(f"expected batch of shape (B, {self.n})")
        self._check_alive()
        if self._weights is None:
            raise RuntimeError("load_weights() before invoking the kernel")
        plan = self.plan
        k = len(self.channels)
        nsim_ch = k if simulate_pchs is None else min(simulate_pchs, k)
        sim_channels = self.channels[:nsim_ch]
        batch = xs.shape[0]
        report = ExecutionReport(
            kernel=f"gemv[{self.m}x{self.n}]xB{batch}",
            simulated_pchs=sum(s % k < nsim_ch for s in range(plan.num_slices)),
            total_pchs=plan.num_slices,
        )
        padded = np.zeros((batch, plan.passes * k * plan.n_slice), dtype=np.float16)
        padded[:, : self.n] = xs
        outputs: List[np.ndarray] = []
        launches = 0
        start = self.sys.drain_set(self.channels)
        for base in range(0, batch, plan.batch_slots):
            group = padded[base : base + plan.batch_slots]
            launches += 1
            self.session.enter_ab(pchs=sim_channels)
            self.session.program_crf(
                self.MICROKERNEL.format(reps=plan.chunks - 1), pchs=sim_channels
            )
            for slot, xp in enumerate(group):
                for s in range(plan.num_slices):
                    if s % k < nsim_ch:
                        self._stream_slice(s, xp, slot=slot)
            self.session.exit_to_sb(pchs=sim_channels)
            shortcut = None
            if nsim_ch < k:  # the functional model of every unsimulated (input, slice)
                shortcut = mac_partials(
                    self._weights[:, nsim_ch:].swapaxes(-1, -2),
                    group.reshape(len(group), plan.passes, k, -1)[:, :, nsim_ch:],
                )
            for slot in range(len(group)):
                if shortcut is not None:
                    self._poke_partials(shortcut[slot], nsim_ch, slot)
                partials = self._read_partials(nsim_ch, slot=slot)
                outputs.append(reduce_partials(partials)[: self.m])
        end = self.sys.drain_set(self.channels)
        self._account_commands(report, invocations=batch)
        _fill_timing(self.sys, report, end - start, launches)
        return np.stack(outputs), report

    def _stream_slice(self, s: int, x_padded: np.ndarray, slot: int = 0) -> None:
        plan = self.plan
        pch, pass_ = self._slice_channel(s)
        mc = self.sys.controller(pch)
        # Each x value replicated over the 16 lanes, one (8, 32) WR block
        # per chunk: every fence epoch below is one column burst.
        x_slice = x_padded[s * plan.n_slice : (s + 1) * plan.n_slice]
        staged = (
            np.repeat(x_slice, LANES)
            .view(np.uint8)
            .reshape(plan.chunks, _COL_GROUP, GRF_REG_BYTES)
        )
        blocks = (*staged, *_CONSTANT_BLOCKS)
        for tile in range(plan.tiles):
            mc.drain(plan.program(tile, pass_, slot), blocks)

    def _poke_partials(self, acc: np.ndarray, nsim_ch: int, slot: int) -> None:
        """Stage one input's shortcut partial sums — ``acc[pass, pos -
        nsim_ch]`` is slice ``pass * k + pos``'s ``(8, outputs)`` — where
        the epilogue MOV would have written them, one block per (slice,
        output row), slices ascending."""
        plan = self.plan
        k = len(self.channels)
        for s in range(plan.num_slices):
            pch, pass_ = self._slice_channel(s)
            if s % k < nsim_ch:
                continue
            banks = self.sys.device.pch(pch).banks[0::2]
            for row, _, outputs in plan.out_rows(pass_, slot):
                poke_block(banks, row, 0, _tile_block(acc[pass_, s % k - nsim_ch][:, outputs]))

    def _read_partials(self, nsim_ch: int, slot: int = 0) -> np.ndarray:
        """Read partial sums back (timed SB-mode reads on simulated pCHs).

        A simulated channel drains one program: the readback of each of
        its (slice, tile)s in turn, one run per unit — the controller
        reorders the runs' commands across banks and returns each run's
        block.  Elsewhere a (slice, output row) is one untimed block, its
        dirty re-read walked a tile's 8 columns at a time.
        """
        plan = self.plan
        k = len(self.channels)
        partials = np.zeros(
            (plan.num_slices, _COL_GROUP, plan.tiles * plan.outputs_per_tile),
            dtype=np.float16,
        )
        for pos, pch in enumerate(self.channels):
            slices = range(pos, plan.num_slices, k)
            if pos >= nsim_ch:
                banks = self.sys.device.pch(pch).banks[0::2]
                for s in slices:
                    for row, cols, outputs in plan.out_rows(s // k, slot):
                        partials[s, :, outputs] = _tile_values(
                            peek_block(banks, row, 0, cols, group=_COL_GROUP)
                        )
                continue
            if not slices:  # a channel may hold no slice
                continue
            program = sum(
                (
                    stream.gemv_readback(*plan.out_location(tile, s // k, slot))
                    for s in slices
                    for tile in range(plan.tiles)
                ),
                (),
            )
            runs = self.sys.controller(pch).drain(program).read_data
            # Run i is unit i % 8's 8 columns of tile (i // 8) % tiles.
            raws = np.stack([runs[i] for i in range(len(program))]).reshape(
                len(slices), plan.tiles, UNITS_PER_PCH, _COL_GROUP, -1
            )
            for s, raw in zip(slices, raws):
                partials[s] = _tile_values(
                    raw.transpose(1, 0, 2, 3).reshape(UNITS_PER_PCH, -1, GRF_REG_BYTES)
                )
        return partials

    def _account_commands(self, report: ExecutionReport, invocations: int) -> None:
        """Fill the command/FLOP/traffic counters: one tile's program,
        times the tiles of every simulated slice."""
        plan = self.plan
        program = plan.program(0)
        times = plan.tiles * report.simulated_pchs * invocations
        _count_program(report, program, times)
        body = stream.triggers(program)
        macs = stream.columns(run for run in body if not run.write)
        report.pim_flops = macs * UNITS_PER_PCH * LANES * 2 * times
        # Off-chip traffic: the staged x bursts plus partial-sum readback.
        staged = stream.columns(run for run in body if run.operand >= 0)
        readback = stream.columns(stream.gemv_readback(0, 0))
        report.host_bytes = (staged + readback) * GRF_REG_BYTES * times


# ---------------------------------------------------------------------------
# Elementwise kernels (ADD / MUL / ReLU / BN)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElementwiseOp:
    """Shape of one elementwise microkernel."""

    name: str
    microkernel: str
    uses_second_operand: bool
    flops_per_element: int


def _group_microkernel(*group: str) -> str:
    """CRF source of an elementwise operator: each instruction of ``group``
    for the 8 columns of an AAM window, the group once per ``{reps}`` + 1."""
    windows = "".join(f"{instr}\nJUMP -1, 7\n" for instr in group)
    return f"{windows}JUMP -{2 * len(group)}, {{reps}}\nEXIT\n"


_FILL = "FILL GRF_A[A], EVEN_BANK"  # operand A (8 RDs)
_MOV_OUT = "MOV EVEN_BANK[A], GRF_B[A]"  # result (8 WRs)
# Operator -> (its group's instructions, whether one reads operand B — at the
# same address of the ODD bank — and its FLOPs per element).
_GROUPS = {
    "add": ((_FILL, "ADD GRF_B[A], GRF_A[A], ODD_BANK", _MOV_OUT), True, 1),
    "mul": ((_FILL, "MUL GRF_B[A], GRF_A[A], ODD_BANK", _MOV_OUT), True, 1),
    "relu": ((_FILL, "MOV(RELU) EVEN_BANK[A], GRF_A[A]"), False, 0),
    # Inference batch-norm folded to y = gamma' * x + beta'
    # (Section II-A); scalars broadcast from SRF_M / SRF_A.
    "bn": (("MAD GRF_B[A], EVEN_BANK, SRF_M[A], SRF_A[A]", _MOV_OUT), False, 2),
}
ELEMENTWISE_OPS: Dict[str, ElementwiseOp] = {
    name: ElementwiseOp(name, _group_microkernel(*group), second, flops)
    for name, (group, second, flops) in _GROUPS.items()
}


@dataclass(frozen=True)
class ElementwisePlan:
    length: int
    num_pchs: int  # channel *slots* of the executing set, not device channels
    blocks: int  # padded 16-element blocks, total
    seq_per_unit: int  # blocks per unit stream (padded to 8)
    groups: int  # 8-column groups per unit stream
    base_row: int
    in_cols: int  # input columns per row (outputs at +in_cols)
    registers: PimMemoryMap

    def layout(self, padded: np.ndarray) -> np.ndarray:
        """A padded vector's bytes as a ``(seq, unit, slot, 32)`` view.

        The one statement of the operand layout: 16-element blocks
        interleave over channel slots first, then units, then the unit's
        column stream ``seq``, which fills the ``in_cols`` operand columns
        of one row before moving to the next (:meth:`row_runs`).
        """
        return padded.view(np.uint8).reshape(
            self.seq_per_unit, UNITS_PER_PCH, self.num_pchs, GRF_REG_BYTES
        )

    def row_runs(self) -> Iterator[Tuple[int, int, int]]:
        """``(row, first seq, columns)`` of each bank row of a unit's stream;
        ``seq`` sits at column ``seq - first seq`` of its row."""
        for seq in range(0, self.seq_per_unit, self.in_cols):
            yield (
                self.base_row + seq // self.in_cols,
                seq,
                min(self.in_cols, self.seq_per_unit - seq),
            )

    def program(self, op: str) -> stream.Program:
        """What operator ``op`` puts on the bus of each channel slot: its
        bursts over every 8-column group of the unit stream, in AB-PIM
        mode."""
        body = stream.elementwise_stream(op, self.groups, self.in_cols, self.base_row)
        return stream.kernel_program(body, self.registers)


class ElementwiseKernel(_ResidentKernel):
    """Elementwise vector operator over the PIM region.

    ``channels`` binds the operator to a subset of pseudo-channels (a
    serving lane); elementwise math is per-block, so the result is
    bit-identical regardless of the executing channel set.
    """

    def __init__(
        self,
        system: HostSystem,
        op: str,
        length: int,
        channels: Optional[Sequence[int]] = None,
    ):
        if op not in ELEMENTWISE_OPS:
            raise ValueError(f"unknown elementwise op {op!r}")
        super().__init__(system, channels)
        self.op = ELEMENTWISE_OPS[op]
        self.length = length
        self.plan = self._plan(length)

    def _plan(self, length: int) -> ElementwisePlan:
        num_pchs = len(self.channels)
        cols_per_row = self.sys.device.config.bank_config.cols_per_row
        in_cols = cols_per_row // 2  # half the row for inputs, half for results
        stride = num_pchs * UNITS_PER_PCH
        groups = stream.elementwise_groups(length, num_pchs)
        seq = groups * _COL_GROUP
        blocks = seq * stride
        rows = -(-seq // in_cols)
        block = _alloc_rows(self.sys, rows)
        self._block = block
        return ElementwisePlan(
            length=length,
            num_pchs=num_pchs,
            blocks=blocks,
            seq_per_unit=seq,
            groups=groups,
            base_row=block.start,
            in_cols=in_cols,
            registers=self.session.map,
        )

    # -- staging -------------------------------------------------------------------

    def _padded(self, values: np.ndarray) -> np.ndarray:
        padded = np.zeros(self.plan.blocks * LANES, dtype=np.float16)
        padded[: self.length] = values
        return padded

    def _scatter(
        self,
        padded: np.ndarray,
        odd: bool = False,
        col_offset: int = 0,
        first_slot: int = 0,
    ) -> None:
        """Stage a padded vector into the even (or odd) banks, one block per
        (channel slot, row).

        Operands start at column 0 of their rows, results ``in_cols``
        further (``col_offset``); ``first_slot`` restricts the store to the
        later channel slots.
        """
        plan = self.plan
        view = plan.layout(padded)
        for slot in range(first_slot, plan.num_pchs):
            banks = self.sys.device.pch(self.channels[slot]).banks[int(odd) :: 2]
            for row, seq, n in plan.row_runs():
                poke_block(
                    banks, row, col_offset, view[seq : seq + n, :, slot].transpose(1, 0, 2)
                )

    def _gather_result(self) -> np.ndarray:
        plan = self.plan
        out = np.empty(plan.blocks * LANES, dtype=np.float16)  # every block is read
        view = plan.layout(out)
        for slot in range(plan.num_pchs):
            banks = self.sys.device.pch(self.channels[slot]).banks[0::2]
            for row, seq, n in plan.row_runs():
                view[seq : seq + n, :, slot] = peek_block(
                    banks, row, plan.in_cols, n
                ).transpose(1, 0, 2)
        return out[: self.length]

    # -- invocation -----------------------------------------------------------------

    def __call__(
        self,
        a: np.ndarray,
        b: Optional[np.ndarray] = None,
        scalars: Optional[Tuple[float, float]] = None,
        simulate_pchs: Optional[int] = None,
    ) -> Tuple[np.ndarray, ExecutionReport]:
        """Run one operand set: :meth:`batched` of one item."""
        results, report = self.batched([(a, b, scalars)], simulate_pchs)
        report.kernel = f"{self.op.name}[{self.length}]"
        return results[0], report

    def batched(
        self,
        items: Sequence[Tuple],
        simulate_pchs: Optional[int] = None,
    ) -> Tuple[List[np.ndarray], ExecutionReport]:
        """Run a batch of operand sets as one fused kernel launch.

        ``items`` is a sequence of ``(a,)``, ``(a, b)`` or ``(a, b, scalars)``
        tuples.  The batch shares one SB->AB transition and one CRF
        broadcast; each element streams its operands through the resident
        layout in turn, so outputs are bit-identical to sequential calls.
        ``simulate_pchs`` limits cycle-accurate simulation to the first N
        channel slots; the rest get the bit-equivalent functional result.
        """
        self._check_alive()
        plan = self.plan
        nsim = plan.num_pchs if simulate_pchs is None else min(simulate_pchs, plan.num_pchs)
        sim_channels = self.channels[:nsim]
        normalised = []
        for item in items:
            a = item[0]
            b = item[1] if len(item) > 1 else None
            scalars = item[2] if len(item) > 2 else None
            normalised.append((*self._validate(a, b), scalars))

        report = ExecutionReport(
            kernel=f"{self.op.name}[{self.length}]xB{len(normalised)}",
            simulated_pchs=nsim,
            total_pchs=plan.num_pchs,
        )
        results: List[np.ndarray] = []
        program = plan.program(self.op.name)
        start = self.sys.drain_set(self.channels)
        self.session.enter_ab(pchs=sim_channels)
        self.session.program_crf(
            self.op.microkernel.format(reps=plan.groups - 1), pchs=sim_channels
        )
        for a, b, scalars in normalised:
            self._program_srf(scalars, sim_channels)
            a = self._padded(a)
            self._scatter(a)
            if b is not None:
                b = self._padded(b)
                self._scatter(b, odd=True)
            for pch in sim_channels:
                self.sys.controller(pch).drain(program, _CONSTANT_BLOCKS)
            if nsim < plan.num_pchs:
                # Functional model of the non-simulated slots.
                result = elementwise_reference(self.op.name, a, b, scalars)
                self._scatter(result, col_offset=plan.in_cols, first_slot=nsim)
            if nsim:
                self.sys.drain_set(sim_channels)
            results.append(self._gather_result())
        self.session.exit_to_sb(pchs=sim_channels)
        end = self.sys.drain_set(self.channels)
        _fill_timing(self.sys, report, end - start, launches=1)
        times = nsim * len(normalised)
        _count_program(report, program, times)
        written = stream.columns(run for run in stream.triggers(program) if run.write)
        # One element per lane of a result column; host_bytes stays 0.
        report.pim_flops = written * LANES * UNITS_PER_PCH * self.op.flops_per_element * times
        return results, report

    def _validate(
        self, a: np.ndarray, b: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        a = np.asarray(a, dtype=np.float16).reshape(-1)
        if a.size != self.length:
            raise ValueError(f"expected {self.length} elements")
        if not self.op.uses_second_operand:
            return a, None
        if b is None:
            raise ValueError(f"{self.op.name} needs a second operand")
        b = np.asarray(b, dtype=np.float16).reshape(-1)
        if b.size != self.length:
            raise ValueError("operand shapes differ")
        return a, b

    def _program_srf(self, scalars, sim_channels) -> None:
        if self.op.name == "bn" and scalars is not None:
            gamma, beta = scalars
            self.session.write_srf(
                mul_scalars=np.full(_COL_GROUP, gamma, dtype=np.float16),
                add_scalars=np.full(_COL_GROUP, beta, dtype=np.float16),
                pchs=sim_channels,
            )
