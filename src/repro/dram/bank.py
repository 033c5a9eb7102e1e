"""A DRAM bank: cell array, row buffer, and per-bank timing state.

The bank is the unit the PIM architecture deliberately leaves untouched
(design philosophy (2) in Section III-A): it is a plain state machine with a
sparse backing store.  Timing legality is enforced here for per-bank
constraints (tRCD/tRP/tRAS/tRC/tWR/tRTP); shared-resource constraints
(tCCD/tRRD/tFAW/bus turnaround) live in the pseudo-channel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import PimChannelError
from .timing import TimingParams

__all__ = ["BankState", "BankConfig", "Bank", "TimingViolation"]


class TimingViolation(Exception):
    """A command was issued before the bank/channel allowed it."""


class BankState(enum.Enum):
    """Row-buffer state of one bank."""
    IDLE = "idle"  # no open row
    ACTIVE = "active"  # a row is open in the row buffer


@dataclass(frozen=True)
class BankConfig:
    """Geometry of one bank (per pseudo-channel slice).

    Defaults model a 4 Gb PIM-HBM die slice: 1 KiB row per pCH-bank,
    32-byte columns (one 256-bit access), 8192 rows.
    """

    num_rows: int = 8192
    row_bytes: int = 1024
    col_bytes: int = 32

    @property
    def cols_per_row(self) -> int:
        return self.row_bytes // self.col_bytes


class Bank:
    """One DRAM bank with a sparse row store and timing bookkeeping."""

    def __init__(self, config: BankConfig, timing: TimingParams):
        self.config = config
        self.timing = timing
        self.state = BankState.IDLE
        self.open_row: Optional[int] = None
        # Sparse backing store: rows are materialised on first touch.
        self._rows: Dict[int, np.ndarray] = {}
        # Row buffer is a *view* semantics model: reads/writes while a row is
        # open go straight to the row array (restore-on-write DRAM cells).
        # Earliest cycles at which each command class may issue.
        self.next_act = 0
        self.next_pre = 0
        self.next_rd = 0
        self.next_wr = 0
        # Statistics.
        self.act_count = 0
        self.rd_count = 0
        self.wr_count = 0
        # Hard-failure flag (fault injection): set to the owning channel's
        # index when the whole pseudo-channel is declared dead.
        self._failed_channel: Optional[int] = None

    # -- fault state --------------------------------------------------------

    def fail(self, channel_index: int) -> None:
        """Hard-fail this bank: every subsequent data access raises
        :class:`~repro.errors.PimChannelError` naming ``channel_index``."""
        self._failed_channel = channel_index

    @property
    def is_failed(self) -> bool:
        """Whether this bank belongs to a hard-failed channel."""
        return self._failed_channel is not None

    # -- backing store ------------------------------------------------------

    def _row_array(self, row: int) -> np.ndarray:
        if self._failed_channel is not None:
            raise PimChannelError(
                f"data access to a bank of failed channel {self._failed_channel}",
                channels=(self._failed_channel,),
            )
        if row < 0 or row >= self.config.num_rows:
            raise IndexError(f"row {row} out of range")
        array = self._rows.get(row)
        if array is None:
            array = np.zeros(self.config.row_bytes, dtype=np.uint8)
            self._rows[row] = array
        return array

    def _run(self, row: int, col0: int, n: int) -> np.ndarray:
        """The ``n * col_bytes`` stored bytes of columns ``col0 .. col0 + n``
        of ``row``, as a writable *view* of the row store.

        Every data access resolves its bytes here (or, for an index array,
        through :meth:`_column_grid`), so this is where a column index is
        checked — before the row is materialised.
        """
        config = self.config
        size = config.col_bytes
        stop = (col0 + n) * size
        if col0 < 0 or n < 0 or stop > config.row_bytes:
            raise IndexError(
                f"columns {col0}..{col0 + n - 1} out of range "
                f"(0..{config.cols_per_row - 1})"
            )
        return self._row_array(row)[col0 * size : stop]

    def _column_grid(self, row: int, cols) -> Tuple[np.ndarray, np.ndarray]:
        """``row`` as a ``(cols_per_row, col_bytes)`` view, plus ``cols`` as a
        checked index array (a negative index would wrap silently)."""
        cols = np.asarray(cols, dtype=np.intp)
        if cols.size and not 0 <= cols.min() <= cols.max() < self.config.cols_per_row:
            raise IndexError(
                f"column index out of range (0..{self.config.cols_per_row - 1})"
            )
        return self._row_array(row).reshape(-1, self.config.col_bytes), cols

    def peek(self, row: int, col: int) -> np.ndarray:
        """Read a column without any state/timing effect (testing/debug)."""
        return self._run(row, col, 1).copy()

    def poke(self, row: int, col: int, data: np.ndarray) -> None:
        """Write a column directly, bypassing the command path (test setup)."""
        data = np.asarray(data, dtype=np.uint8)
        if data.size != self.config.col_bytes:
            raise ValueError(f"column write must be {self.config.col_bytes} bytes")
        self._run(row, col, 1)[:] = data

    def peek_columns(self, row: int, cols: np.ndarray) -> np.ndarray:
        """Read arbitrary columns of one row: ``(len(cols), col_bytes)``.

        The index-array counterpart of :func:`~repro.dram.ecc.peek_block`
        for column sets that are not one consecutive run.  Like
        :meth:`peek` it has no state or timing effect and returns a fresh
        copy (an index-array gather, never a slice).
        """
        grid, cols = self._column_grid(row, cols)
        return grid[cols]

    def _column_block(self, n: int, data: np.ndarray) -> np.ndarray:
        """``data`` as uint8, checked to be exactly ``n`` whole columns."""
        data = np.asarray(data, dtype=np.uint8)
        if data.shape != (n, self.config.col_bytes):
            raise ValueError(
                f"expected ({n}, {self.config.col_bytes}) column bytes, "
                f"got {data.shape}"
            )
        return data

    def poke_columns(self, row: int, cols: np.ndarray, data: np.ndarray) -> None:
        """Write arbitrary columns of one row (index-array :meth:`poke`).

        ``data`` must be ``(len(cols), col_bytes)`` uint8; duplicate column
        indices are rejected by the caller (the fused compiler splits
        groups with repeated columns), so scatter order never matters.
        """
        data = self._column_block(len(cols), data)
        grid, cols = self._column_grid(row, cols)
        grid[cols] = data

    def materialized_rows(self) -> List[int]:
        """Row indices holding live (ever-written) data, sorted.

        The fault injector and the ECC scrubber walk only these: an
        unmaterialised row is all-zero and (with ``encode(0) == 0``)
        trivially consistent.
        """
        return sorted(self._rows)

    def flip_bit(self, row: int, bit: int) -> None:
        """Flip one stored data bit of ``row`` (fault injection).

        ``bit`` indexes the whole row (``row_bytes * 8`` bits).  Check
        bits, where present, are deliberately left untouched — that is
        what makes the flip an *error*.
        """
        if not 0 <= bit < self.config.row_bytes * 8:
            raise ValueError("bit index out of row range")
        self._row_array(row)[bit // 8] ^= 1 << (bit % 8)

    # -- timing queries -------------------------------------------------------

    def earliest_act(self) -> int:
        """Earliest cycle an ACT may issue (tRC/tRP bound)."""
        return self.next_act

    def earliest_pre(self) -> int:
        """Earliest cycle a PRE may issue (tRAS/tWR/tRTP bound)."""
        return self.next_pre

    def earliest_col(self, is_write: bool) -> int:
        """Earliest cycle a column command may issue (tRCD bound)."""
        return self.next_wr if is_write else self.next_rd

    # -- command execution ----------------------------------------------------

    def activate(self, row: int, cycle: int) -> None:
        """Open ``row`` into the row buffer (ACT)."""
        if self.state is not BankState.IDLE:
            raise TimingViolation("ACT to a bank with an open row")
        if cycle < self.next_act:
            raise TimingViolation(f"ACT at {cycle} before tRC/tRP bound {self.next_act}")
        t = self.timing
        self.state = BankState.ACTIVE
        self.open_row = row
        self.next_rd = max(self.next_rd, cycle + t.trcd)
        self.next_wr = max(self.next_wr, cycle + t.trcd)
        self.next_pre = max(self.next_pre, cycle + t.tras)
        self.next_act = max(self.next_act, cycle + t.trc)
        self.act_count += 1

    def precharge(self, cycle: int) -> None:
        """Close the open row (PRE).  PRE to an idle bank is a NOP."""
        if self.state is BankState.IDLE:
            return
        if cycle < self.next_pre:
            raise TimingViolation(f"PRE at {cycle} before bound {self.next_pre}")
        t = self.timing
        self.state = BankState.IDLE
        self.open_row = None
        self.next_act = max(self.next_act, cycle + t.trp)

    def merge_broadcast(
        self,
        open_row: Optional[int],
        bounds: Tuple[int, int, int, int],
        counts: Tuple[int, int, int],
    ) -> None:
        """Materialise a deferred all-bank update into this bank.

        In the all-bank modes one command drives every bank of the
        pseudo-channel identically, so the channel advances one shared
        copy of the row-buffer state and applies it here only when
        per-bank state can be observed.  ``open_row`` is the shared row
        buffer (None: idle); ``bounds`` are lower bounds on
        ``(next_act, next_pre, next_rd, next_wr)`` — the per-command
        updates are all ``max(own, cycle + t)``, so their running maximum
        is all a bank has to absorb; ``counts`` are the ACT/RD/WR commands
        broadcast since the last merge.
        """
        self.state = BankState.IDLE if open_row is None else BankState.ACTIVE
        self.open_row = open_row
        act, pre, rd, wr = bounds
        if act > self.next_act:
            self.next_act = act
        if pre > self.next_pre:
            self.next_pre = pre
        if rd > self.next_rd:
            self.next_rd = rd
        if wr > self.next_wr:
            self.next_wr = wr
        self.act_count += counts[0]
        self.rd_count += counts[1]
        self.wr_count += counts[2]

    def force_precharge(self, cycle: int) -> None:
        """Close the bank unconditionally (channel-recovery path).

        Unlike :meth:`precharge` this ignores the tRAS/tWR/tRTP bound —
        the recovery sequence models a driver that waits out the worst
        case, so the next ACT is simply pushed past ``cycle + tRP``.
        """
        self.state = BankState.IDLE
        self.open_row = None
        self.next_act = max(self.next_act, cycle + self.timing.trp)

    def read(self, row: int, col: int, cycle: int, ahead: int = 0) -> np.ndarray:
        """Column read; returns the 32-byte burst.

        ``row`` must match the open row — the model checks what silicon
        simply assumes, surfacing controller bugs loudly.

        ``ahead`` is :class:`~repro.dram.commands.Command`'s read-ahead:
        the next ``ahead`` reads of this bank are the following columns,
        unwritten until then.  When :meth:`_clean_run` can vouch for the
        whole run the answer is its ``(1 + ahead, col_bytes)`` block and
        those reads arrive as :meth:`read_fetched`; otherwise — and for a
        run that leaves the row, which must fail at the column that does —
        it is the one column, and every later one reads for itself.
        """
        self._check_column(row, cycle, is_write=False)
        t = self.timing
        # Read-to-precharge constraint.
        self.next_pre = max(self.next_pre, cycle + t.trtp)
        self.rd_count += 1
        if ahead and col + ahead < self.config.cols_per_row:
            block = self._clean_run(row, col, 1 + ahead)
            if block is not None:
                return block
        return self.peek(row, col)

    def read_fetched(self, row: int, cycle: int) -> None:
        """A column read whose bytes an earlier read-ahead delivered: the
        row, timing and count effects of :meth:`read`, and no data path."""
        self.touch_column(row, cycle, is_write=False)
        self.rd_count += 1

    def _clean_run(self, row: int, col0: int, n: int) -> Optional[np.ndarray]:
        """Columns ``col0 .. col0 + n`` of ``row`` as a fresh ``(n,
        col_bytes)`` block, when one pass can stand for ``n`` calls of
        :meth:`peek`; None when it cannot.  A plain bank's columns are its
        stored bytes; a subclass has a column path of its own to answer for.
        """
        if type(self) is not Bank:
            return None
        return self._run(row, col0, n).reshape(n, -1).copy()

    def framed(self, row: int) -> bool:
        """Whether :meth:`read_block` of ``row`` stands for timed reads of
        it: a live plain bank (a subclass has a column path of its own)."""
        return type(self) is Bank and self._failed_channel is None

    def read_block(self, row: int, col0: int, n: int) -> np.ndarray:
        """What ``n`` timed reads of columns ``col0 ..`` of ``row`` return,
        as one fresh ``(n, col_bytes)`` block, for a row :meth:`framed`
        vouches for: the data path of those reads, without their timing
        and ``rd_count`` (a frame sets those)."""
        return self._run(row, col0, n).reshape(n, -1).copy()

    def write(self, row: int, col: int, data: np.ndarray, cycle: int) -> None:
        """Column write of a 32-byte burst."""
        self._check_column(row, cycle, is_write=True)
        t = self.timing
        # Write recovery before precharge.
        self.next_pre = max(self.next_pre, cycle + t.cwl + t.burst_cycles + t.twr)
        self.wr_count += 1
        self.poke(row, col, data)

    def touch_column(self, row: int, cycle: int, is_write: bool) -> None:
        """Apply the state/timing effects of a column command without moving
        data through the host datapath.

        Used in AB-PIM mode, where the column command's data flow is governed
        by the PIM instruction (the execution unit peeks/pokes the row buffer
        itself) but the bank-level timing behaviour is identical to a normal
        access.
        """
        self._check_column(row, cycle, is_write)
        t = self.timing
        if is_write:
            self.next_pre = max(self.next_pre, cycle + t.cwl + t.burst_cycles + t.twr)
        else:
            self.next_pre = max(self.next_pre, cycle + t.trtp)

    def _check_column(self, row: int, cycle: int, is_write: bool) -> None:
        if self.state is not BankState.ACTIVE:
            raise TimingViolation("column command to a bank with no open row")
        if self.open_row != row:
            raise TimingViolation(
                f"column command to row {row} but row {self.open_row} is open"
            )
        bound = self.next_wr if is_write else self.next_rd
        if cycle < bound:
            raise TimingViolation(f"column command at {cycle} before bound {bound}")
