"""The PIM-HBM device: pseudo-channels with PIM execution units.

:class:`PimPseudoChannel` extends the standard :class:`PseudoChannel` with

* the SB / AB / AB-PIM mode FSM driven by standard command sequences,
* all-bank broadcast of ACT/PRE/column commands in AB modes,
* register-mapped access to CRF/GRF/SRF and PIM_OP_MODE, and
* column-command-triggered PIM instruction execution in AB-PIM mode.

Crucially, the *interface* is unchanged — the same :class:`Command` objects
a JEDEC controller emits — which is the paper's drop-in-replacement claim.

A :class:`Command` with ``count > 1`` is a column burst: ``count`` column
commands to consecutive columns of one row, ``tCCD_L`` apart.  In AB-PIM
mode — where execution latency is deterministic and bound to the column
commands — a trigger burst is *one* update of the shared all-bank state
and one entry on the exec group's tape (``_issue_burst``); in every other
situation the channel loops its ordinary single-command ``issue``, so a
burst can never do anything its commands would not.

SB mode is standard DRAM: a RD / WR to a bank row (the GEMV readback)
goes straight to the bank-column frame of every pseudo-channel.

A RD's read-ahead (``Command.ahead``) is a matter between the controller
and one bank's data path: an SB-mode read of a bank row hands it to the
bank, and everything decoded ahead of the banks or broadcast to all of
them — register rows, AB and AB-PIM columns — answers with the one column
(or, in AB-PIM, nothing), as it always has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

import numpy as np

from ..dram.bank import Bank, BankConfig, TimingViolation
from ..dram.commands import Command, CommandType
from ..dram.device import DeviceConfig, HbmDevice
from ..dram.pseudochannel import BANKS_PER_GROUP, BANKS_PER_PCH, PseudoChannel
from ..dram.timing import TimingParams
from .exec_unit import ColumnTrigger, PimExecutionUnit
from .lockstep import LockstepGroup
from .modes import ModeController, PimMemoryMap, PimMode

__all__ = ["PimPseudoChannel", "PimHbmDevice", "UNITS_PER_PCH"]

UNITS_PER_PCH = BANKS_PER_PCH // 2  # one unit per bank pair (Table V: 8)

_RD, _WR, _SB = CommandType.RD, CommandType.WR, PimMode.SB


class PimPseudoChannel(PseudoChannel):
    """A pseudo-channel of the PIM-HBM die."""

    def __init__(
        self,
        timing: TimingParams,
        bank_config: Optional[BankConfig] = None,
        bank_cls=None,
        lane_format=None,
    ):
        from ..common.fp16 import FP16

        super().__init__(timing, bank_config, bank_cls=bank_cls or Bank)
        self.units: List[PimExecutionUnit] = [
            PimExecutionUnit(
                u, self._banks[2 * u], self._banks[2 * u + 1],
                lane_format=lane_format or FP16,
            )
            for u in range(UNITS_PER_PCH)
        ]
        # The eager exec group over all units; ``PimSystem`` swaps in the
        # trace-compiled one (repro.pim.fused) unless exec_mode="scalar".
        self.lockstep = LockstepGroup(self.units)
        self.memory_map = m = PimMemoryMap(self.bank_config.num_rows)
        self._register_rows = frozenset(
            row for row in range(m.first_reserved_row, m.num_rows)
            if m.is_register_row(row)
        )
        self.mode_ctrl = ModeController(self.memory_map)
        # Column-to-precharge distances: tRTP, and write recovery.
        self._rd_to_pre = timing.trtp
        self._wr_to_pre = timing.cwl + timing.burst_cycles + timing.twr
        # The shared all-bank state (see ``_sync_banks``): the row open in
        # every bank, lower bounds on next_act/pre/rd/wr and ACT/RD/WR
        # counts the banks have yet to absorb.
        self._ab_row: Optional[int] = None
        self._ab_act = self._ab_pre = self._ab_rd = self._ab_wr = 0
        self._ab_acts = self._ab_rds = self._ab_wrs = 0
        self._ab_stale = False
        self.pim_op_mode = 0
        # Column commands executed in AB-PIM mode never drive the off-chip
        # I/O PHY; the energy model keys off this counter.
        self.pim_triggered_columns = 0
        self.ab_broadcast_columns = 0
        # Observability hook (repro.obs): a Tracer records mode-FSM
        # transitions as instant events; None costs one attribute test.
        self.tracer = None
        self.channel_id = 0

    @property
    def mode(self) -> PimMode:
        return self.mode_ctrl.mode

    def hard_reset(self, cycle: int) -> None:
        """Channel recovery: close banks, force SB mode, stop the units.

        Register contents (CRF/GRF/SRF) are deliberately preserved — the
        runtime's microkernel cache tracks what is loaded, and a retried
        kernel reprograms whatever it needs before executing.
        """
        self._sync_banks()
        super().hard_reset(cycle)
        self.mode_ctrl.reset()
        self.pim_op_mode = 0
        # Deferred triggers of an interrupted AB-PIM window are post-error
        # garbage: discard them rather than replay into the recovered state.
        self.lockstep.abort_pending()
        self.lockstep.stop_all()

    # -- timing ------------------------------------------------------------------

    # All-bank modes bound over every bank: the channel maxima, in O(1).

    def earliest_act(self, bg: int, ba: int) -> int:
        """Earliest legal ACT cycle; all-bank modes wait for every bank."""
        if self.mode_ctrl.mode is _SB:
            return super().earliest_act(bg, ba)
        return max(self._max_act, self._act_bus_bound(bg))

    def earliest_pre(self, bg: int, ba: int) -> int:
        """Earliest legal PRE cycle; all-bank modes wait for every bank."""
        if self.mode_ctrl.mode is _SB:
            return super().earliest_pre(bg, ba)
        return self._max_pre

    def earliest_col(self, bg: int, ba: int, is_write: bool) -> int:
        """Earliest legal RD/WR cycle; all-bank modes wait for every bank
        and serialise columns at tCCD_L."""
        if self.mode_ctrl.mode is _SB:
            return super().earliest_col(bg, ba, is_write)
        return self._all_bank_col_bound(bg, is_write)

    def first_ready(self, classes: Iterable[int]) -> Tuple[int, int]:
        """First-ready choice; in the all-bank modes every class waits for
        every bank, so only the bus history tells them apart."""
        if self.mode_ctrl.mode is _SB:
            return super().first_ready(classes)
        bounds = {
            cls: self._all_bank_col_bound(cls // (2 * BANKS_PER_GROUP), cls & 1)
            for cls in classes
        }
        best = min(bounds, key=bounds.__getitem__)  # the first of equals: the older
        return best, bounds[best]

    def _all_bank_col_bound(self, bg: int, is_write: bool) -> int:
        bound = max(
            self._max_wr if is_write else self._max_rd,
            self._col_bus_bound(bg, is_write),
        )
        if self._last_col_cycle is not None:
            # Every bank group participates, so the same-group delay governs.
            bound = max(bound, self._last_col_cycle + self.timing.tccd_l)
        return bound

    # -- command execution --------------------------------------------------------

    def issue(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """Dispatch by mode: an SB column to a bank row (which cannot change
        the mode) is a bank's, the rest of SB delegates, AB broadcasts."""
        if cmd.count > 1:
            return self._issue_burst(cmd, cycle)
        if self.mode_ctrl.mode is not _SB:
            serve = self._issue_all_bank
        else:
            kind = cmd.cmd
            if (kind is _RD or kind is _WR) and cmd.row not in self._register_rows:
                return self._bank_column(cmd, cycle)
            serve = self._issue_single_bank
        if self.tracer is None:
            return serve(cmd, cycle)
        before = self.mode_ctrl.mode
        result = serve(cmd, cycle)
        after = self.mode_ctrl.mode
        if after is not before:
            self.tracer.event(
                f"mode:{after.value}",
                at_ns=self.tracer.cycles_ns(cycle),
                category="mode",
                channel=self.channel_id,
                cycle=cycle,
            )
        return result

    def _issue_single_bank(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """SB mode but a bank-row column: ACT / PRE (the mode FSM), registers."""
        kind = cmd.cmd
        if kind is CommandType.ACT:
            self.mode_ctrl.observe_act(cmd.row)
            return super().issue(cmd, cycle)
        if kind is CommandType.PRE or kind is CommandType.PREA:
            result = super().issue(cmd, cycle)
            self.mode_ctrl.observe_pre()
            if self.mode_ctrl.all_bank:
                # The shared all-bank view starts idle.  With rows left
                # open (a driver bug) it no longer describes the banks;
                # their row state is undefined until ``hard_reset``.
                self._ab_row = None
                if not self.all_banks_idle:
                    raise RuntimeError(
                        "entered AB mode with open rows; precharge all banks first"
                    )
            return result
        if kind.is_column:  # to a register row (``issue`` routes the rest)
            # Register access in SB mode targets the unit of the addressed
            # bank pair (used e.g. to read one unit's GRF_B partial sums).
            super().issue(self._timing_shadow(cmd), cycle)
            unit = self.units[cmd.bank_index // 2]
            return self._register_access(cmd, [unit])
        return super().issue(cmd, cycle)

    def _issue_all_bank(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        kind = cmd.cmd
        if kind is CommandType.RD or kind is CommandType.WR:
            return self._all_bank_column(cmd, cycle, kind is CommandType.WR)
        if kind is CommandType.ACT:
            bound = max(self._max_act, self._act_bus_bound(cmd.bg))
        elif kind is CommandType.REF:
            bound = self._max_act
        else:  # PRE and PREA both close every bank
            bound = self._max_pre
        if cycle < bound:
            raise TimingViolation(f"{cmd!r} at {cycle} before bound {bound}")
        self.cmd_counts[kind] += 1
        t = self.timing
        if kind is CommandType.ACT:
            self.mode_ctrl.observe_act(cmd.row)
            if self._ab_row is not None:
                raise TimingViolation("ACT to a bank with an open row")
            self._ab_row = cmd.row
            self._ab_acts += 1
            self._ab_stale = True
            self._raise_col_bounds(cycle + t.trcd)
            self._raise_pre_bound(cycle + t.tras)
            self._raise_act_bound(cycle + t.trc)
            self._record_act(cmd.bg, cycle)
        elif kind is CommandType.REF:
            self._refresh_banks(cycle)
        else:
            if self._ab_row is not None:  # PRE to idle banks is a NOP
                self._ab_row = None
                self._ab_stale = True
                self._raise_act_bound(cycle + t.trp)
            self.mode_ctrl.observe_pre()
            if not self.mode_ctrl.all_bank:
                self._sync_banks()
        return None

    def _all_bank_column(
        self, cmd: Command, cycle: int, is_write: bool
    ) -> Optional[np.ndarray]:
        bound = self._all_bank_col_bound(cmd.bg, is_write)
        if cycle < bound:
            raise TimingViolation(f"{cmd!r} at {cycle} before bound {bound}")
        self.cmd_counts[cmd.cmd] += 1
        row = cmd.row
        if row in self._register_rows:
            # Register rows are decoded ahead of the banks: broadcast writes
            # program every unit identically; reads return the addressed
            # unit's copy.  Bank state is untouched (no row needs to be open
            # in a register row).
            self._record_col(cmd.bg, cycle, is_write)
            return self._register_access(cmd, self.units)
        open_row = self._ab_row
        if open_row is None:
            raise TimingViolation("column command to a bank with no open row")
        if open_row != row:
            raise TimingViolation(
                f"column command to row {row} but row {open_row} is open"
            )
        pre_bound = cycle + (self._wr_to_pre if is_write else self._rd_to_pre)
        if self.mode_ctrl.pim_executing:
            self._ab_stale = True
            self._raise_pre_bound(pre_bound)
            self._record_col(cmd.bg, cycle, is_write)
            self.pim_triggered_columns += 1
            trig = ColumnTrigger(
                is_write=is_write, row=row, col=cmd.col, host_data=cmd.data
            )
            self.lockstep.trigger_all(trig)
            # AB-PIM column commands do not drive data to the external I/O.
            return None
        # AB (non-PIM): the burst moves through every bank's data path, one
        # bank at a time, so SEC-DED checks and failed-channel errors fire
        # per bank.
        col, data = cmd.col, cmd.data
        reached = 0
        try:
            for bank in self._banks:
                reached += 1
                if is_write:
                    bank.poke(row, col, data)
                else:
                    bank.peek(row, col)
        except BaseException:
            # A bank's bounds and counts move before its data path runs:
            # when bank ``reached - 1`` raises, it and the banks before it
            # have taken the command and the banks after it have not.
            counts = (0, 0, 1) if is_write else (0, 1, 0)
            for bank in self._banks[:reached]:
                bank.merge_broadcast(row, (0, pre_bound, 0, 0), counts)
            if pre_bound > self._max_pre:
                self._max_pre = pre_bound
            raise
        self._ab_stale = True
        self._raise_pre_bound(pre_bound)
        if is_write:
            self._ab_wrs += 1
        else:
            self._ab_rds += 1
        self._record_col(cmd.bg, cycle, is_write)
        self.ab_broadcast_columns += 1
        if is_write:
            return None
        # AB (non-PIM) read: the addressed bank's data reaches the I/O.
        return self._banks[cmd.bank_index].peek(row, col)

    def _issue_burst(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """A column burst; an AB-PIM trigger run is *one* state update.

        ``count`` triggers to one open row at ``cycle + i * tCCD_L`` move
        the shared all-bank state exactly as far as the last of them
        would: the bound and the open row are checked once, the counters
        advance by ``count``, the precharge bound and the column history
        come from the last command, and the exec group takes the run as
        one tape entry.  That holds only while nothing can stop the run
        half way, so everything else is served command by command
        (``_issue_each``): SB and AB (non-PIM) bursts and register rows,
        whose data path runs per command; an eager exec group, whose
        triggers execute — and can raise — one at a time; and a run whose
        first command must raise (too early, row not open), which then
        raises exactly where and how the single command does.
        """
        is_write = cmd.cmd is CommandType.WR
        row = cmd.row
        if not (
            self.mode_ctrl.pim_executing
            and self.lockstep.defers
            and row == self._ab_row
            and row not in self._register_rows
            and cycle >= self._all_bank_col_bound(cmd.bg, is_write)
        ):
            return self._issue_each(cmd, cycle)
        count = cmd.count
        last = cycle + (count - 1) * self.timing.tccd_l
        self.cmd_counts[cmd.cmd] += count
        self._ab_stale = True
        self._raise_pre_bound(
            last + (self._wr_to_pre if is_write else self._rd_to_pre)
        )
        self._record_col(cmd.bg, last, is_write)
        self.pim_triggered_columns += count
        self.lockstep.trigger_all(
            ColumnTrigger(
                is_write=is_write, row=row, col=cmd.col, host_data=cmd.data,
                count=count,
            )
        )
        return None

    # -- the shared all-bank state ----------------------------------------------------
    #
    # Every bank of an all-bank mode holds the same (state, open_row) and
    # takes the same ``max(own, cycle + t)`` bound update from each
    # command, so a broadcast checks and advances one shared copy — the
    # open row, the running maximum of each kind of update, the command
    # counts — and the 16 ``Bank`` objects are brought up to date only
    # where per-bank state can be observed: the exit to SB, ``hard_reset``,
    # and any access through ``banks`` / ``bank()`` (tests, the fault
    # injector, ``reset_channel``).  The channel maxima are kept current on
    # every command.  ``tests/pim/reference_device.py`` holds the 16-bank
    # loop this replaced, as the differential oracle.

    @property
    def banks(self) -> List[Bank]:
        if self._ab_stale:
            self._sync_banks()
        return self._banks

    def _sync_banks(self) -> None:
        """Materialise the deferred all-bank update into every bank."""
        if not self._ab_stale:
            return
        self._ab_stale = False
        bounds = (self._ab_act, self._ab_pre, self._ab_rd, self._ab_wr)
        counts = (self._ab_acts, self._ab_rds, self._ab_wrs)
        for bank in self._banks:
            bank.merge_broadcast(self._ab_row, bounds, counts)
        self._ab_act = self._ab_pre = self._ab_rd = self._ab_wr = 0
        self._ab_acts = self._ab_rds = self._ab_wrs = 0

    def _raise_act_bound(self, bound: int) -> None:
        if bound > self._ab_act:
            self._ab_act = bound
        if bound > self._max_act:
            self._max_act = bound

    def _raise_pre_bound(self, bound: int) -> None:
        if bound > self._ab_pre:
            self._ab_pre = bound
        if bound > self._max_pre:
            self._max_pre = bound

    def _raise_col_bounds(self, bound: int) -> None:
        if bound > self._ab_rd:
            self._ab_rd = bound
        if bound > self._ab_wr:
            self._ab_wr = bound
        if bound > self._max_rd:
            self._max_rd = bound
        if bound > self._max_wr:
            self._max_wr = bound

    # -- register-mapped access -----------------------------------------------------

    def _timing_shadow(self, cmd: Command) -> Command:
        """A copy of ``cmd`` with inert data for the bank-timing path."""
        if cmd.cmd is CommandType.WR:
            return Command(
                cmd.cmd, cmd.bg, cmd.ba, cmd.row, cmd.col,
                data=np.zeros(self.bank_config.col_bytes, dtype=np.uint8),
            )
        return cmd

    def _register_access(
        self, cmd: Command, units: List[PimExecutionUnit]
    ) -> Optional[np.ndarray]:
        m = self.memory_map
        is_write = cmd.cmd is CommandType.WR
        # Register-mapped accesses observe (or mutate) unit state, so any
        # trace-deferred triggers must land first (fused executor hook).
        self.lockstep.flush_pending()
        if cmd.row == m.conf_row:
            if cmd.col == m.PIM_OP_MODE_COL:
                if is_write:
                    self._set_pim_op_mode(int(cmd.data[0]) & 1)
                    return None
                out = np.zeros(self.bank_config.col_bytes, dtype=np.uint8)
                out[0] = self.pim_op_mode
                return out
            raise ValueError(f"unknown configuration register column {cmd.col}")
        first = units[0] if units else self.units[cmd.bank_index // 2]
        if cmd.row == m.crf_row:
            if is_write:
                for unit in units:
                    unit.regs.write_crf_column(cmd.col, cmd.data)
                return None
            return first.regs.read_crf_column(cmd.col)
        if cmd.row == m.grf_row:
            if is_write:
                for unit in units:
                    unit.regs.write_grf_column(cmd.col, cmd.data)
                return None
            return first.regs.read_grf_column(cmd.col)
        if cmd.row == m.srf_row:
            if is_write:
                for unit in units:
                    unit.regs.write_srf_column(cmd.col, cmd.data)
                return None
            return first.regs.read_srf_column(cmd.col)
        raise ValueError(f"row {cmd.row} is not a register row")

    def _set_pim_op_mode(self, value: int) -> None:
        self.pim_op_mode = value
        changed = self.mode_ctrl.set_pim_op_mode(bool(value))
        if changed and self.mode_ctrl.pim_executing:
            self.lockstep.start_all()
        elif changed:
            self.lockstep.stop_all()


class PimHbmDevice(HbmDevice):
    """A PIM-HBM stack: standard HBM2 interface, PIM units inside."""

    def __init__(self, config: Optional[DeviceConfig] = None):
        from ..dram.device import _bank_cls

        super().__init__(
            config,
            pch_factory=lambda cfg: PimPseudoChannel(
                cfg.timing, cfg.bank_config, bank_cls=_bank_cls(cfg)
            ),
        )

    def pch(self, index: int) -> PimPseudoChannel:
        """The PIM pseudo-channel at ``index``."""
        channel = self.pchs[index]
        assert isinstance(channel, PimPseudoChannel)
        return channel

    @property
    def memory_map(self) -> PimMemoryMap:
        return self.pch(0).memory_map

    @property
    def compute_bandwidth_bytes_per_sec(self) -> float:
        """Peak on-chip compute bandwidth (Table V): 8 operating banks per
        pCH, one 32 B column each, every tCCD_L."""
        t = self.config.timing
        per_pch = (
            UNITS_PER_PCH
            * self.config.bank_config.col_bytes
            / (t.tccd_l * t.tck_ns * 1e-9)
        )
        return per_pch * self.config.num_pchs
