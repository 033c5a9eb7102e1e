"""The kernel launch as the host issued it before it was one program.

A launch used to be split: ``PimSession.enter_ab`` issued PREA and the
ACT + PRE to the ABMR row command by command on every simulated channel,
``program_crf`` / ``write_srf`` queued the register loads ahead of the
kernel's drain, and ``exit_to_sb`` issued PREA and the ACT + PRE to the
SBMR row.  That sequence is kept here as the reference the SB-to-SB
program must simulate exactly as: :func:`session_launches` puts it back
into ``GemvKernel.batched`` and ``ElementwiseKernel.batched`` (the
kernel programs themselves, the staging and the readback are the
production ones).  ``stream`` picks how a GEMV launch's kernel programs
reach the controller: joined at seams into one drain per channel, as
production does, or one drain per tile program.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.pim import stream
from repro.pim.registers import GRF_REG_BYTES, LANES
from repro.stack import kernels
from repro.stack.arithmetic import elementwise_reference, mac_partials, reduce_partials
from repro.stack.kernels import ElementwiseKernel, ExecutionReport, GemvKernel
from repro.stack.memory import MicrokernelCache

_COL_GROUP = 8


class Session:
    """Mode transitions and register programming over standard commands,
    each through the channels' memory controllers."""

    def __init__(self, system):
        self.sys = system
        self.map = system.device.memory_map

    def _each(self, pchs):
        return [self.sys.controllers[i] for i in self.sys.resolve_pchs(pchs)]

    def enter_ab(self, pchs=None) -> None:
        """PREA + (ACT, PRE) to the ABMR row on the selected channels."""
        for mc in self._each(pchs):
            mc.drain()
            mc.precharge_all()
            mc.closed_page_access(0, 0, self.map.abmr_row)

    def exit_to_sb(self, pchs=None) -> None:
        """PREA + (ACT, PRE) to the SBMR row: back to standard DRAM."""
        for mc in self._each(pchs):
            mc.drain()
            mc.precharge_all()
            mc.closed_page_access(0, 0, self.map.sbmr_row)

    def program_crf(self, source: str, pchs=None) -> None:
        """Queue the microkernel's CRF writes, a fence after them, on each
        selected channel whose CRF does not hold it, and note it held."""
        cache = getattr(self.sys, "_microkernel_cache", None)
        if cache is None:
            cache = self.sys._microkernel_cache = MicrokernelCache()
        loaded = getattr(self.sys, "_crf_loaded", None)
        if loaded is None:
            loaded = self.sys._crf_loaded = {}
        image = np.array(cache.get(source), dtype="<u4").view(np.uint8)
        for index in self.sys.resolve_pchs(pchs):
            mc = self.sys.controllers[index]
            if loaded.get(index) == source:
                continue
            for col in range(len(image) // GRF_REG_BYTES):
                mc.write(0, 0, self.map.crf_row, col,
                         image[col * GRF_REG_BYTES : (col + 1) * GRF_REG_BYTES])
            mc.fence()
            loaded[index] = source

    def write_srf(self, mul_scalars, add_scalars, pchs=None) -> None:
        """Queue SRF_M and SRF_A (8 FP16 scalars each, zero-padded), then a
        fence."""
        for mc in self._each(pchs):
            for col, values in ((0, mul_scalars), (1, add_scalars)):
                payload = np.zeros(GRF_REG_BYTES, dtype=np.uint8)
                scalars = np.asarray(values, dtype=np.float16)
                payload[: scalars.size * 2] = scalars.view(np.uint8)
                mc.write(0, 0, self.map.srf_row, col, payload)
            mc.fence()


def launch_stream(self, pos: int, group: np.ndarray) -> None:
    """A launch's kernel programs on the channel at ``pos``, joined at
    seams into one drain (nothing on a channel that holds no slice)."""
    plan = self.plan
    k = len(self.channels)
    passes = len(range(pos, plan.num_slices, k))
    if not passes:
        return
    x = group.reshape(len(group), plan.passes, k, plan.n_slice)[:, :passes, pos]
    staged = np.repeat(x, LANES, axis=-1).view(np.uint8).reshape(-1, _COL_GROUP, GRF_REG_BYTES)
    program = stream.launch(
        (plan.program(tile, pass_, slot), (slot * passes + pass_) * plan.chunks)
        for slot in range(len(group))
        for pass_ in range(passes)
        for tile in range(plan.tiles)
    )
    self.sys.controller(self.channels[pos]).drain(program, (*staged, *kernels._CONSTANT_BLOCKS))


def tile_stream(self, pos: int, group: np.ndarray) -> None:
    """The launch as a drain per (slot, slice, tile): run whole at the first
    channel's call, slot by slot, each slot's slices across the simulated
    channels, each slice tile by tile."""
    if pos:
        return
    plan = self.plan
    k = len(self.channels)
    for slot, xp in enumerate(group):
        for s in range(plan.num_slices):
            if s % k >= self._simulated:
                continue
            pch, pass_ = self._slice_channel(s)
            x_slice = xp[s * plan.n_slice : (s + 1) * plan.n_slice]
            staged = (
                np.repeat(x_slice, LANES).view(np.uint8).reshape(plan.chunks, 8, GRF_REG_BYTES)
            )
            blocks = (*staged, *kernels._CONSTANT_BLOCKS)
            for tile in range(plan.tiles):
                self.sys.controller(pch).drain(plan.program(tile, pass_, slot), blocks)


def gemv_batched(self, xs, simulate_pchs=None, stream_launch=launch_stream):
    """``GemvKernel.batched`` over :class:`Session`."""
    xs = np.asarray(xs, dtype=np.float16)
    if xs.ndim != 2 or xs.shape[1] != self.n:
        raise ValueError(f"expected batch of shape (B, {self.n})")
    self._check_alive()
    session = Session(self.sys)
    plan = self.plan
    k = len(self.channels)
    nsim_ch = k if simulate_pchs is None else min(simulate_pchs, k)
    self._simulated = nsim_ch
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
        session.enter_ab(pchs=sim_channels)
        session.program_crf(self.MICROKERNEL.format(reps=plan.chunks - 1), pchs=sim_channels)
        for pos in range(nsim_ch):
            stream_launch(self, pos, group)
        session.exit_to_sb(pchs=sim_channels)
        shortcut = None
        if nsim_ch < k:
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
    kernels._fill_timing(self.sys, report, end - start, launches)
    return np.stack(outputs), report


def elementwise_batched(
    self, items: Sequence[Tuple], simulate_pchs: Optional[int] = None
) -> Tuple[List[np.ndarray], ExecutionReport]:
    """``ElementwiseKernel.batched`` over :class:`Session`."""
    self._check_alive()
    session = Session(self.sys)
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
    _, counts, written = self._program
    program = plan.program(self.op.name)
    start = self.sys.drain_set(self.channels)
    session.enter_ab(pchs=sim_channels)
    session.program_crf(self.op.microkernel.format(reps=plan.groups - 1), pchs=sim_channels)
    for a, b, scalars in normalised:
        if self.op.name == "bn" and scalars is not None:
            gamma, beta = scalars
            session.write_srf(
                np.full(_COL_GROUP, gamma, dtype=np.float16),
                np.full(_COL_GROUP, beta, dtype=np.float16),
                pchs=sim_channels,
            )
        a = self._padded(a)
        self._scatter(a)
        if b is not None:
            b = self._padded(b)
            self._scatter(b, odd=True)
        for pch in sim_channels:
            self.sys.controller(pch).drain(program, kernels._CONSTANT_BLOCKS)
        if nsim < plan.num_pchs:
            result = np.empty_like(a)
            plan.lanes(result)[:, :, nsim:] = elementwise_reference(
                self.op.name,
                plan.lanes(a)[:, :, nsim:],
                None if b is None else plan.lanes(b)[:, :, nsim:],
                scalars,
            )
            self._scatter(result, col_offset=plan.in_cols, first_slot=nsim)
        if nsim:
            self.sys.drain_set(sim_channels)
        results.append(self._gather_result())
    session.exit_to_sb(pchs=sim_channels)
    end = self.sys.drain_set(self.channels)
    kernels._fill_timing(self.sys, report, end - start, launches=1)
    times = nsim * len(normalised)
    kernels._count_program(report, counts, times)
    report.pim_flops = written * LANES * kernels.UNITS_PER_PCH * self.op.flops_per_element * times
    return results, report


def session_launches(monkeypatch, stream_launch=launch_stream) -> None:
    """Make every GEMV and elementwise launch issue its mode transitions
    and register loads through :class:`Session` (the reference), its GEMV
    kernel programs drained as ``stream_launch`` drains them."""
    monkeypatch.setattr(
        GemvKernel, "batched",
        lambda self, xs, simulate_pchs=None: gemv_batched(self, xs, simulate_pchs, stream_launch),
    )
    monkeypatch.setattr(ElementwiseKernel, "batched", elementwise_batched)
