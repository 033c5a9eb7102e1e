"""The per-bank all-bank broadcast, kept as the differential oracle.

``repro.pim.device.PimPseudoChannel`` checks and advances one shared copy
of the bank state per all-bank command and materialises it into the 16
``Bank`` objects only where per-bank state can be observed.  This is the
path it replaced: every ACT / PRE / column command of an all-bank mode
loops ``activate`` / ``precharge`` / ``touch_column`` / ``read`` /
``write`` over all 16 banks, so each bank checks and moves its own state
on every command.  Nothing here ever defers an update, so the inherited
``banks`` / ``hard_reset`` synchronisation points are no-ops.

``test_all_bank_shared_state.py`` drives both through the same command
streams and requires identical bank state, channel maxima, counters,
return data and exception text.
"""

from typing import Optional

import numpy as np

from repro.dram.bank import TimingViolation
from repro.dram.commands import Command, CommandType
from repro.pim.device import PimPseudoChannel
from repro.pim.exec_unit import ColumnTrigger


class ReferencePimPseudoChannel(PimPseudoChannel):
    """``PimPseudoChannel`` with the 16-bank loop per all-bank command."""

    def _issue_all_bank(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        bound = self.earliest_issue(cmd)
        if cycle < bound:
            raise TimingViolation(f"{cmd!r} at {cycle} before bound {bound}")
        kind = cmd.cmd
        self.cmd_counts[kind] += 1
        if kind is CommandType.REF:
            self._refresh_banks(cycle)
            return None
        if kind.is_column and self.memory_map.is_register_row(cmd.row):
            self._record_col(cmd.bg, cycle, kind is CommandType.WR)
            return self._register_access(cmd, self.units)
        # Every bank receives the same bound update, so absorbing bank 0 —
        # also when a later bank's data path raises mid-loop — keeps the
        # channel maxima exact.
        try:
            if kind is CommandType.ACT:
                self.mode_ctrl.observe_act(cmd.row)
                for bank in self._banks:
                    bank.activate(cmd.row, cycle)
                self._record_act(cmd.bg, cycle)
                return None
            if kind is CommandType.PRE or kind is CommandType.PREA:
                for bank in self._banks:
                    bank.precharge(cycle)
                self.mode_ctrl.observe_pre()
                return None
            return self._all_bank_column(cmd, cycle, kind is CommandType.WR)
        finally:
            self._absorb(self._banks[0])

    def _all_bank_column(
        self, cmd: Command, cycle: int, is_write: bool
    ) -> Optional[np.ndarray]:
        row = cmd.row
        if self.mode_ctrl.pim_executing:
            for bank in self._banks:
                bank.touch_column(row, cycle, is_write)
            self._record_col(cmd.bg, cycle, is_write)
            self.pim_triggered_columns += 1
            trig = ColumnTrigger(
                is_write=is_write, row=row, col=cmd.col, host_data=cmd.data
            )
            self.lockstep.trigger_all(trig)
            return None
        if is_write:
            for bank in self._banks:
                bank.write(row, cmd.col, cmd.data, cycle)
        else:
            for bank in self._banks:
                bank.read(row, cmd.col, cycle)
        self._record_col(cmd.bg, cycle, is_write)
        self.ab_broadcast_columns += 1
        if is_write:
            return None
        return self._banks[cmd.bank_index].peek(row, cmd.col)
