"""PIM operation modes and the PIM_CONF reserved memory map (Section III-B).

The device supports three modes:

* **SB** (single bank) — standard DRAM behaviour; a command targets the one
  bank addressed by BA/BG.
* **AB** (all bank) — BA/BG are ignored; the same row/column of *all* banks
  is accessed lock-step by a single command.
* **AB-PIM** — like AB, but a column command to a non-register address
  triggers execution of the PIM instruction at the PPC.

Mode transitions deliberately avoid MRS commands (privileged) and instead
use standard command sequences to reserved addresses:

* enter AB: ``ACT`` then ``PRE`` to the ABMR row (all banks must be idle
  afterwards, i.e. the host precharges everything first);
* exit AB: ``ACT`` then ``PRE`` to the SBMR row;
* enter/exit AB-PIM: column ``WR`` of 1/0 to the PIM_OP_MODE register in the
  configuration row.

The reserved rows at the top of the address space (the grey region of
Fig. 3) also map the CRF, GRF and SRF register files so the host programs
them with plain WR commands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

__all__ = ["PimMode", "PimMemoryMap", "ModeController"]


class PimMode(enum.Enum):
    """The device's operation mode (Fig. 3)."""
    SB = "single-bank"
    AB = "all-bank"
    AB_PIM = "all-bank-pim"


@dataclass(frozen=True)
class PimMemoryMap:
    """Reserved-row assignments within each bank's row address space.

    The PIM device driver (Section V-A) keeps this region out of the
    allocatable pool.  Offsets are from the top row.
    """

    num_rows: int

    RESERVED_ROWS = 6

    @property
    def abmr_row(self) -> int:
        """ACT+PRE here enters AB mode."""
        return self.num_rows - 1

    @property
    def sbmr_row(self) -> int:
        """ACT+PRE here returns to SB mode."""
        return self.num_rows - 2

    @property
    def conf_row(self) -> int:
        """Configuration registers; col 0 is PIM_OP_MODE."""
        return self.num_rows - 3

    @property
    def crf_row(self) -> int:
        """Instruction buffer; column c programs CRF entries 8c..8c+7."""
        return self.num_rows - 4

    @property
    def grf_row(self) -> int:
        """Vector registers; cols 0-7 -> GRF_A, 8-15 -> GRF_B."""
        return self.num_rows - 5

    @property
    def srf_row(self) -> int:
        """Scalar registers; col 0 -> SRF_M, col 1 -> SRF_A."""
        return self.num_rows - 6

    PIM_OP_MODE_COL = 0

    @property
    def first_reserved_row(self) -> int:
        return self.num_rows - self.RESERVED_ROWS

    def is_reserved(self, row: int) -> bool:
        """Whether ``row`` lies in the reserved PIM_CONF region."""
        return row >= self.first_reserved_row

    def is_register_row(self, row: int) -> bool:
        """Rows whose column accesses are register operations."""
        return row in (self.conf_row, self.crf_row, self.grf_row, self.srf_row)


class ModeController:
    """The per-pseudo-channel mode FSM.

    It observes the standard command stream (it adds *no* new commands or
    pins, the paper's compatibility requirement) and flips modes on the
    ACT/PRE sequences and PIM_OP_MODE writes described above.
    """

    def __init__(self, memory_map: PimMemoryMap):
        self.map = memory_map
        self.mode = PimMode.SB
        # Row opened by the most recent ACT per bank is tracked by the banks
        # themselves; the FSM only needs the pending transition row.
        self._armed_row: int = -1
        self.transition_count = 0

    @property
    def all_bank(self) -> bool:
        return self.mode is not PimMode.SB

    @property
    def pim_executing(self) -> bool:
        return self.mode is PimMode.AB_PIM

    @property
    def state(self) -> Tuple[PimMode, int]:
        """The whole FSM: the mode, and the row of an armed transition
        (-1: none armed)."""
        return self.mode, self._armed_row

    def observe_act(self, row: int) -> None:
        """Track an ACT: arms a transition when it hits ABMR/SBMR."""
        if row in (self.map.abmr_row, self.map.sbmr_row):
            self._armed_row = row
        else:
            self._armed_row = -1

    def observe_pre(self) -> bool:
        """Returns True when the PRE completes a mode transition."""
        if self._armed_row == self.map.abmr_row:
            self._armed_row = -1
            if self.mode is PimMode.SB:
                self.mode = PimMode.AB
                self.transition_count += 1
                return True
            return False
        if self._armed_row == self.map.sbmr_row:
            self._armed_row = -1
            if self.mode is not PimMode.SB:
                self.mode = PimMode.SB
                self.transition_count += 1
                return True
        return False

    def reset(self) -> None:
        """Force the FSM back to SB with no armed transition.

        Part of the channel-recovery sequence after a mid-kernel fault;
        the real driver achieves the same state with SBMR + PIM_OP_MODE=0
        writes, counted as one transition when a mode actually changed.
        """
        if self.mode is not PimMode.SB:
            self.mode = PimMode.SB
            self.transition_count += 1
        self._armed_row = -1

    def set_pim_op_mode(self, enable: bool) -> bool:
        """PIM_OP_MODE register write; returns True on a mode change."""
        if enable and self.mode is PimMode.AB:
            self.mode = PimMode.AB_PIM
            self.transition_count += 1
            return True
        if not enable and self.mode is PimMode.AB_PIM:
            self.mode = PimMode.AB
            self.transition_count += 1
            return True
        return False
