"""A pseudo-channel: 4 bank groups x 4 banks behind one CA/data bus.

The pseudo-channel owns all *shared-resource* timing constraints: column
cadence (tCCD_S/tCCD_L), activate spacing (tRRD_S/tRRD_L, tFAW), and data-bus
turnaround (tWTR/tRTW).  It also models the middle control logic that decodes
a CA pair and routes it to the target bank (Section II-B).

:class:`repro.pim.device.PimPseudoChannel` subclasses this to add all-bank
broadcast and PIM instruction triggering; the command interface — the JEDEC
boundary — is identical in both.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any, Deque, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Type,
)

import numpy as np

from .bank import Bank, BankConfig, TimingViolation, Verdict
from .commands import Command, CommandType
from .timing import TimingParams

__all__ = ["Frame", "PseudoChannel", "BANK_GROUPS", "BANKS_PER_GROUP", "BANKS_PER_PCH"]

BANK_GROUPS = 4
BANKS_PER_GROUP = 4
BANKS_PER_PCH = BANK_GROUPS * BANKS_PER_GROUP

_RD, _WR, _ACT, _PRE = CommandType.RD, CommandType.WR, CommandType.ACT, CommandType.PRE


class Frame(NamedTuple):
    """What a command sequence did to a pseudo-channel, every cycle counted
    from its origin (see :meth:`PseudoChannel.record_frame`).

    ``steps`` are the commands as the bus shows them, ``(kind, bg, ba,
    row, col, offset, count, mode)`` — a column burst the device serves
    command by command spelled as its single commands, ``mode`` the
    device's operation mode at the command (None: a plain channel);
    ``banks`` each bank they touched (an all-bank program: every bank) as
    ``(flat index, state, open_row, next_act, next_pre, next_rd, next_wr,
    ACTs, RDs, WRs)``; ``last_col`` the last column's ``(cycle, bank
    group, was write)``, ``last_act`` the last ACT's ``(cycle, bank
    group)``, ``act_window`` the tFAW window,
    ``maxima`` the channel's ``next_act/pre/rd/wr`` maxima; ``counts`` the
    ``cmd_counts`` delta; ``reads`` each read run's ``(flat bank, row,
    col0, count)``; ``armed`` the mode FSM's armed row of a PIM channel and
    ``program`` what an all-bank program did on one beyond that.
    """

    steps: Tuple[tuple, ...]
    banks: Tuple[tuple, ...]
    last_col: tuple
    last_act: tuple
    act_window: Tuple[int, ...]
    maxima: Tuple[int, int, int, int]
    counts: Tuple[Tuple[CommandType, int], ...]
    reads: Tuple[Tuple[int, int, int, int], ...]
    armed: Optional[int] = None
    program: Any = None


class PseudoChannel:
    """One HBM2 pseudo-channel with 16 banks and shared-bus timing."""

    #: The operation mode a frame notes beside each command: a plain
    #: channel is standard DRAM and has none.
    mode = None

    def __init__(
        self,
        timing: TimingParams,
        bank_config: Optional[BankConfig] = None,
        bank_cls: Type[Bank] = Bank,
    ):
        self.timing = timing
        self.bank_config = bank_config or BankConfig()
        # The 16 banks, flat (``bg * 4 + ba``).
        self.banks: List[Bank] = [
            bank_cls(self.bank_config, timing) for _ in range(BANKS_PER_PCH)
        ]
        for half in (self.banks[0::2], self.banks[1::2]):  # the row stores (dram/bank.py)
            Bank.share_store(half)
        self._verdict = Verdict()  # see ``vouched``
        for bank in self.banks:
            bank._verdict = self._verdict
        # Shared-resource history.
        self._last_col_cycle: Optional[int] = None
        self._last_col_bg: Optional[int] = None
        self._last_col_was_write = False
        self._last_act_cycle: Optional[int] = None
        self._last_act_bg: Optional[int] = None
        self._act_window: Deque[int] = deque(maxlen=4)  # for tFAW
        # Running maxima over the banks of next_act/pre/rd/wr.  The per-bank
        # bounds only ever grow, so absorbing a bank after each mutation
        # keeps every maximum equal to max() over the 16 banks.
        self._max_act = 0
        self._max_pre = 0
        self._max_rd = 0
        self._max_wr = 0
        # Statistics.
        self.cmd_counts = {ct: 0 for ct in CommandType}

    # -- helpers ------------------------------------------------------------

    def bank(self, bg: int, ba: int) -> Bank:
        """The bank addressed by (bank group, bank)."""
        return self.banks[bg * BANKS_PER_GROUP + ba]

    def vouched(self) -> bool:
        """Whether every bank vouches for every row
        (:meth:`Bank.framed_everywhere`): one verdict for the channel, asked
        of the banks again only after one's fault state changed.  Where it
        is False a frame asks each bank for each row it reaches
        (:meth:`Bank.framed`)."""
        verdict = self._verdict
        if verdict.value is None:
            verdict.value = all(bank.framed_everywhere() for bank in self.banks)
        return verdict.value

    def hard_reset(self, cycle: int) -> None:
        """Force every bank closed (channel-recovery path).

        Models the driver's recovery sequence after a mid-kernel fault: a
        worst-case wait followed by PREA.  Timing legality is not
        re-checked; each bank's next ACT is pushed past ``cycle + tRP``.
        """
        for bank in self.banks:
            bank.force_precharge(cycle)
            self._absorb(bank)

    def _absorb(self, bank: Bank) -> None:
        """Fold ``bank``'s bounds into the channel maxima after a mutation."""
        if bank.next_act > self._max_act:
            self._max_act = bank.next_act
        if bank.next_pre > self._max_pre:
            self._max_pre = bank.next_pre
        if bank.next_rd > self._max_rd:
            self._max_rd = bank.next_rd
        if bank.next_wr > self._max_wr:
            self._max_wr = bank.next_wr

    def _col_bus_bound(self, bg: int, is_write: bool) -> int:
        """Earliest cycle for a column command given shared-bus history."""
        last = self._last_col_cycle
        if last is None:
            return 0
        t = self.timing
        bound = last + (t.tccd_l if self._last_col_bg == bg else t.tccd_s)
        if self._last_col_was_write and not is_write:
            # End of write burst to read command.
            bound = max(bound, last + t.cwl + t.burst_cycles + t.twtr)
        elif not self._last_col_was_write and is_write:
            bound = max(bound, last + t.trtw)
        return bound

    def _act_bus_bound(self, bg: int) -> int:
        """Earliest cycle for an ACT given tRRD and tFAW history."""
        t = self.timing
        bound = 0
        if self._last_act_cycle is not None:
            same_bg = self._last_act_bg == bg
            bound = self._last_act_cycle + (t.trrd_l if same_bg else t.trrd_s)
        if len(self._act_window) == self._act_window.maxlen:
            bound = max(bound, self._act_window[0] + t.tfaw)
        return bound

    # -- command interface ----------------------------------------------------

    def earliest_act(self, bg: int, ba: int) -> int:
        """Earliest legal cycle for an ACT to bank (``bg``, ``ba``)."""
        bank = self.banks[bg * BANKS_PER_GROUP + ba]
        return max(bank.next_act, self._act_bus_bound(bg))

    def earliest_pre(self, bg: int, ba: int) -> int:
        """Earliest legal cycle for a PRE to bank (``bg``, ``ba``)."""
        return self.banks[bg * BANKS_PER_GROUP + ba].next_pre

    def earliest_col(self, bg: int, ba: int, is_write: bool) -> int:
        """Earliest legal cycle for a RD/WR to bank (``bg``, ``ba``).

        The probe-free form of :meth:`earliest_issue` the controller's
        scheduler uses: the bound depends only on the bank and the
        direction, never on the row, column or data of the request.
        """
        bank = self.banks[bg * BANKS_PER_GROUP + ba]
        return max(
            bank.next_wr if is_write else bank.next_rd,
            self._col_bus_bound(bg, is_write),
        )

    def first_ready(self, classes: Iterable[int]) -> Tuple[int, int]:
        """The FR-FCFS first-ready choice: of the column-command classes
        ``classes`` (``2 * flat_bank + is_write``, oldest first) the one
        that may issue earliest — ties to the older — and that cycle.

        One query for what would be an :meth:`earliest_col` per class: the
        shared-bus bound depends only on the direction and on whether the
        bank group is the last column's, so it is worked out once for each
        of those, and the banks' own bounds are read in place.
        """
        banks = self.banks
        last_bg = self._last_col_bg
        bus: List[Optional[int]] = [None] * 4
        best = cycle = -1
        for cls in classes:
            is_write = cls & 1
            bg = cls // (2 * BANKS_PER_GROUP)
            slot = is_write + 2 * (bg == last_bg)
            bound = bus[slot]
            if bound is None:
                bound = bus[slot] = self._col_bus_bound(bg, is_write)
            bank = banks[cls >> 1]
            own = bank.next_wr if is_write else bank.next_rd
            if own > bound:
                bound = own
            if best < 0 or bound < cycle:
                best, cycle = cls, bound
        return best, cycle

    def timing_state(self, origin: int) -> tuple:
        """Everything the legality and the earliest cycle of a command
        depend on, cycles counted from ``origin``: each bank's open row and
        ``next_*`` bounds (the channel maxima are theirs), the last
        column's cycle, bank group and direction, the last ACT's cycle and
        bank group, and the tFAW window.  From equal states a command
        stream is legal at the same offsets — what a controller keys a
        schedule on."""
        state: List[Optional[int]] = []
        for bank in self.banks:
            state += (
                bank.open_row, bank.next_act - origin, bank.next_pre - origin,
                bank.next_rd - origin, bank.next_wr - origin,
            )
        col, act = self._last_col_cycle, self._last_act_cycle
        return (
            tuple(state),
            None if col is None else col - origin, self._last_col_bg,
            self._last_col_was_write,
            None if act is None else act - origin, self._last_act_bg,
            tuple(cycle - origin for cycle in self._act_window),
        )

    def earliest_issue(self, cmd: Command) -> int:
        """Earliest legal issue cycle for ``cmd`` (bank + shared bounds)."""
        kind = cmd.cmd
        if kind is CommandType.RD or kind is CommandType.WR:
            return self.earliest_col(cmd.bg, cmd.ba, kind is CommandType.WR)
        if kind is CommandType.ACT:
            return self.earliest_act(cmd.bg, cmd.ba)
        if kind is CommandType.PRE:
            return self.earliest_pre(cmd.bg, cmd.ba)
        if kind is CommandType.PREA:
            return self._max_pre
        if kind is CommandType.REF:
            return self._max_act
        raise ValueError(f"unhandled command {kind}")

    def issue(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """Issue ``cmd`` at ``cycle``; returns read data for RD commands."""
        if cmd.count > 1:
            return self._issue_each(cmd, cycle)
        kind = cmd.cmd
        if kind is _RD or kind is _WR:
            return self._bank_column(cmd, cycle)
        bound = self.earliest_issue(cmd)
        if cycle < bound:
            raise TimingViolation(f"{cmd!r} at {cycle} before bound {bound}")
        self.cmd_counts[kind] += 1
        if kind is CommandType.PREA:
            for bank in self.banks:
                bank.precharge(cycle)
                self._absorb(bank)
            return None
        if kind is CommandType.REF:
            self._refresh_banks(cycle)
            return None
        bank = self.banks[cmd.bg * BANKS_PER_GROUP + cmd.ba]
        if kind is CommandType.ACT:  # both raise, if at all, before any change
            bank.activate(cmd.row, cycle)
            self._record_act(cmd.bg, cycle)
        else:
            bank.precharge(cycle)
        self._absorb(bank)
        return None

    def _bank_column(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """A single RD / WR to a bank row: the bound :meth:`earliest_col`
        gives, the bank's data path, the column history; a RD's data."""
        is_write = cmd.cmd is _WR
        bg = cmd.bg
        bank = self.banks[bg * BANKS_PER_GROUP + cmd.ba]
        own = bank.next_wr if is_write else bank.next_rd
        bound = max(own, self._col_bus_bound(bg, is_write))
        if cycle < bound:
            raise TimingViolation(f"{cmd!r} at {cycle} before bound {bound}")
        self.cmd_counts[cmd.cmd] += 1
        data = None
        try:
            if is_write:
                if cmd.data is None:
                    raise ValueError("WR command without data")
                bank.write(cmd.row, cmd.col, cmd.data, cycle)
            else:
                data = bank.read(cmd.row, cmd.col, cycle)
            self._record_col(bg, cycle, is_write)
        finally:
            # Also when the data path raises (PimChannelError): the bank
            # moved its bounds before touching the row array.
            self._absorb(bank)
        return data

    # -- frames -----------------------------------------------------------------
    #
    # From equal timing states (``timing_state``) a command sequence is
    # legal at the same offsets and leaves the channel in the same state,
    # counted from the origin.  So a sequence issued once command by
    # command can be taken down as that end state, and the next time it
    # goes out from an equal state the channel takes the end state in one
    # step — all but the bytes, which a read run moves as one block.

    def frame_entry(self) -> Any:
        """What the channel notes as a command sequence it may take down
        as a frame starts (:meth:`record_frame`'s ``entry``): nothing on a
        plain channel."""
        return None

    def record_frame(
        self, steps: Sequence[tuple], origin: int,
        reads: Sequence[Tuple[int, int, int, int]], entry: Any = None,
    ) -> Optional[Frame]:
        """The channel as ``steps`` — ``(kind, bg, ba, row, col, offset,
        count, mode, source)``, the commands just issued from ``origin``,
        ``source`` where a write's bytes came from — left it, as a
        :class:`Frame` whose read runs are ``reads``; None when a step is
        not an ACT, PRE or RD.  (``entry``: :meth:`frame_entry` as the
        commands found it.)"""
        touched: Dict[int, List[int]] = {}
        records = []
        for kind, bg, ba, row, col, offset, count, mode, _ in steps:
            if kind is not _ACT and kind is not _PRE and kind is not _RD:
                return None
            tally = touched.setdefault(bg * BANKS_PER_GROUP + ba, [0, 0, 0])
            tally[0] += kind is _ACT
            if kind is _RD:
                tally[1] += count
            if count == 1:
                records.append((kind, bg, ba, row, col, offset, 1, mode))
            else:
                records += self._singles(kind, bg, ba, row, col, offset, count, mode)
        banks = self._bank_entries(touched, origin)
        return self._frame(records, origin, banks, tuple(reads))

    def _bank_entries(
        self, tallies: Dict[int, Sequence[int]], origin: int
    ) -> Tuple[tuple, ...]:
        """Each bank of ``tallies`` — flat index to the ``(ACTs, RDs, WRs)``
        it took — as a :class:`Frame` records it, cycles from ``origin``."""
        entries = []
        for index, (acts, rds, wrs) in tallies.items():
            bank = self.banks[index]
            entries.append((
                index, bank.state, bank.open_row, bank.next_act - origin,
                bank.next_pre - origin, bank.next_rd - origin, bank.next_wr - origin,
                acts, rds, wrs,
            ))
        return tuple(entries)

    def _singles(
        self, kind: CommandType, bg: int, ba: int, row: int, col: int, offset: int,
        count: int, mode: Any,
    ) -> List[tuple]:
        """The bus records of a command: a burst as its single commands,
        ``tCCD_L`` apart, as :meth:`issue` serves it."""
        step = self.timing.tccd_l
        return [
            (kind, bg, ba, row, col + i, offset + i * step, 1, mode) for i in range(count)
        ]

    def _frame(
        self, records: List[tuple], origin: int, banks: Tuple[tuple, ...],
        reads: Tuple[tuple, ...], **device: Any,
    ) -> Frame:
        """A :class:`Frame` of the bus ``records`` just issued from
        ``origin``: the channel's history, window, maxima and counts as
        they left it."""
        counts: Dict[CommandType, int] = {}
        for record in records:
            counts[record[0]] = counts.get(record[0], 0) + record[6]
        col, act = self._last_col_cycle, self._last_act_cycle
        return Frame(
            tuple(records), banks,
            (None if col is None else col - origin, self._last_col_bg,
             self._last_col_was_write),
            (None if act is None else act - origin, self._last_act_bg),
            tuple(cycle - origin for cycle in self._act_window),
            (self._max_act - origin, self._max_pre - origin,
             self._max_rd - origin, self._max_wr - origin),
            tuple(counts.items()), reads, **device,
        )

    def apply_frame(
        self, frame: Frame, origin: int, blocks: Sequence[np.ndarray] = (),
    ) -> Optional[List[np.ndarray]]:
        """Take ``frame`` from ``origin``, a cycle the channel's timing
        state equals the recorded one from; returns each read run's ``(count,
        col_bytes)`` block.  None, with nothing changed, unless every read
        bank vouches for its row (:meth:`Bank.framed`): a failed bank, an
        injected word or a bank class of its own takes the command path.
        (``blocks``: the written bytes of a frame that writes.)"""
        banks = self.banks
        if not self.vouched():
            for index, row, _, _ in frame.reads:
                if not banks[index].framed(row):
                    return None
        self._take(frame, origin)
        return [
            banks[index].read_block(row, col0, count)
            for index, row, col0, count in frame.reads
        ]

    def _take(self, frame: Frame, origin: int) -> None:
        """The channel part of ``frame`` from ``origin``: the recorded banks,
        the column and ACT history, the tFAW window, the maxima, the
        command counts."""
        banks = self.banks
        for index, state, open_row, act, pre, rd, wr, acts, rds, wrs in frame.banks:
            bank = banks[index]
            bank.state, bank.open_row = state, open_row
            bank.next_act, bank.next_pre = origin + act, origin + pre
            bank.next_rd, bank.next_wr = origin + rd, origin + wr
            bank.act_count += acts
            bank.rd_count += rds
            bank.wr_count += wrs
        col, self._last_col_bg, self._last_col_was_write = frame.last_col
        self._last_col_cycle = None if col is None else origin + col
        act, self._last_act_bg = frame.last_act
        self._last_act_cycle = None if act is None else origin + act
        window = self._act_window
        window.clear()
        window.extend(origin + cycle for cycle in frame.act_window)
        act, pre, rd, wr = frame.maxima
        self._max_act = max(self._max_act, origin + act)
        self._max_pre = max(self._max_pre, origin + pre)
        self._max_rd = max(self._max_rd, origin + rd)
        self._max_wr = max(self._max_wr, origin + wr)
        counts = self.cmd_counts
        for kind, n in frame.counts:
            counts[kind] += n

    def _issue_each(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """Serve a column burst as its single commands, ``tCCD_L`` apart.

        Consecutive columns of one bank, row and direction are bound by
        the column cadence alone, so command ``i`` is legal at ``cycle +
        i * tCCD_L`` whenever the first is legal at ``cycle`` — in every
        mode, and each still goes through the ordinary per-command checks.
        When one raises, the commands before it (and whatever of it the
        per-command path commits) have landed, exactly as if they had been
        issued one by one.  Returns the ``(count, col_bytes)`` block of the
        commands' read data, in column order.
        """
        step = self.timing.tccd_l
        columns = [
            self.issue(cmd.single(index), cycle + index * step)
            for index in range(cmd.count)
        ]
        return None if columns[0] is None else np.stack(columns)

    def _refresh_banks(self, cycle: int) -> None:
        """REF: every bank's next ACT waits out tRFC."""
        bound = cycle + self.timing.trfc
        for bank in self.banks:
            bank.next_act = max(bank.next_act, bound)
        self._max_act = max(self._max_act, bound)

    def _record_act(self, bg: int, cycle: int) -> None:
        self._last_act_cycle = cycle
        self._last_act_bg = bg
        self._act_window.append(cycle)

    def _record_col(self, bg: Optional[int], cycle: int, is_write: bool) -> None:
        self._last_col_cycle = cycle
        self._last_col_bg = bg
        self._last_col_was_write = is_write

    # -- bookkeeping ----------------------------------------------------------

    @property
    def all_banks_idle(self) -> bool:
        return all(bank.open_row is None for bank in self.banks)
