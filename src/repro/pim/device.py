"""The PIM-HBM device: pseudo-channels with PIM execution units.

:class:`PimPseudoChannel` extends the standard :class:`PseudoChannel` with

* the SB / AB / AB-PIM mode FSM driven by standard command sequences,
* all-bank broadcast of ACT/PRE/column commands in AB modes,
* register-mapped access to CRF/GRF/SRF and PIM_OP_MODE, and
* column-command-triggered PIM instruction execution in AB-PIM mode.

Crucially, the *interface* is unchanged — the same :class:`Command` objects
a JEDEC controller emits — which is the paper's drop-in-replacement claim.

In the AB and AB-PIM modes one command drives all 16 banks of the
pseudo-channel in lock-step (``_issue_all_bank``): the channel checks it
once against its maxima and bus history, then moves every bank through
that bank's own method — ``activate``, ``precharge``, ``read`` / ``write``,
or ``touch_column`` for an AB-PIM trigger.  One command is 16 ``Bank``
updates, so per-bank state is current after every command.  Each bank
takes the same ``max(own, cycle + t)`` bound update, so folding bank 0
into the channel maxima keeps them exact; and a bank moves its bounds and
counts before its bytes, so when bank *k*'s data path raises (a failed
channel, an uncorrectable word), banks ``0..k`` have taken the command and
the rest have not.

A :class:`Command` with ``count > 1`` is a column burst: ``count`` column
commands to consecutive columns of one row, ``tCCD_L`` apart.  In AB-PIM
mode — where execution latency is deterministic and bound to the column
commands — a trigger burst touches each bank once, at its last command's
cycle, and is one entry on the exec group's tape (``_issue_burst``); in
every other situation the channel loops its ordinary single-command
``issue``, so a burst can never do anything its commands would not.

SB mode is standard DRAM: a RD / WR to a bank row (the GEMV readback)
goes straight to the bank-column frame of every pseudo-channel.

A command sequence the controller has issued once from a timing state can
come back as one *channel frame* (``record_frame`` / ``apply_frame``, see
:mod:`repro.dram.pseudochannel`).  Here that is the readback's SB-mode
reads, and a launch's fenced all-bank program from SB mode back to SB
mode, its mode transitions and CRF / SRF loads among its runs: the frame
sets every bank, the mode FSM, ``pim_op_mode`` and the column counters
in one step and replays the data events — register write runs, AB
writes, and each AB-PIM window's compiled trace, looked up by the trace
key it recorded — against the bytes of the drain that takes it, then
writes the units' state once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..dram.bank import Bank, BankConfig, TimingViolation
from ..dram.commands import Command, CommandType
from ..dram.device import DeviceConfig, HbmDevice
from ..dram.pseudochannel import BANKS_PER_GROUP, BANKS_PER_PCH, Frame, PseudoChannel
from ..dram.timing import TimingParams
from .exec_unit import ColumnTrigger, PimExecutionUnit
from .fused import Window
from .lockstep import LockstepGroup
from .modes import ModeController, PimMemoryMap, PimMode
from .registers import write_column_run

__all__ = ["PimPseudoChannel", "PimHbmDevice", "UNITS_PER_PCH"]

UNITS_PER_PCH = BANKS_PER_PCH // 2  # one unit per bank pair (Table V: 8)

_ACT, _RD, _WR = CommandType.ACT, CommandType.RD, CommandType.WR
_SB, _AB_PIM = PimMode.SB, PimMode.AB_PIM

# The data events of an all-bank program's frame (see ``_record_program``).
_REGISTER, _WINDOW, _BROADCAST = "register", "window", "broadcast"


class _Program(NamedTuple):
    """What an all-bank program did to a PIM channel beyond the channel
    part of its frame.  ``rows``: the bank rows its columns reach;
    ``writes``: each write's ``(source, count, PIM_OP_MODE value or
    None)``, ``source`` its block's ``(operand, first row)``; ``events``:
    the data events in bus order — register write runs, closed windows,
    AB write runs; ``open``: the window it leaves open, or None;
    ``sequencer``: the units' sequencer state it leaves (None: it starts
    none); ``transitions``: each mode change as ``(offset, mode)``;
    ``fsm``: the end mode, the transitions made and the last PIM_OP_MODE
    value written; ``triggered`` / ``broadcast``: the column counters'
    deltas."""

    rows: Tuple[int, ...]
    writes: Tuple[tuple, ...]
    events: Tuple[tuple, ...]
    open: Optional[Window]
    sequencer: Optional[tuple]
    transitions: Tuple[Tuple[int, PimMode], ...]
    fsm: tuple
    triggered: int
    broadcast: int


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
                u, self.banks[2 * u], self.banks[2 * u + 1],
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

        Register contents (CRF/GRF/SRF) are deliberately preserved — a
        retried kernel loads the CRF where a unit's differs from its
        microkernel and reprograms whatever else it needs before executing.
        """
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

    def timing_state(self, origin: int) -> tuple:
        """The pseudo-channel's timing state plus the mode FSM and the
        program the exec group's next windows would run on
        (:meth:`~repro.pim.lockstep.LockstepGroup.frame_entry`)."""
        return super().timing_state(origin) + self.mode_ctrl.state + (
            self.lockstep.frame_entry(),
        )

    # -- frames ---------------------------------------------------------------------
    #
    # When a drain is taken down or taken as a frame is ``repro.dram.frames``'
    # table.  Besides SB-mode ACT / PRE / RD commands to bank rows (with the
    # mode FSM's armed row), a PIM channel takes down an all-bank program —
    # a kernel's fenced AB-PIM program, or a launch from SB mode back to SB
    # mode with its transitions, CRF / SRF loads and tile programs joined at
    # seams — on an exec group that defers, holds no tape and one CRF program
    # on every unit, when every window replayed a compiled trace.  Such a
    # frame records all 16 banks, the mode FSM (armed row and
    # ``transition_count``), ``pim_op_mode`` and the column counters, and
    # its data events in bus order: each register-row write run (one flush
    # and one write per unit, ``_write_registers``), each AB write run, and
    # each AB-PIM *window* — the trigger runs between two flushes — with the
    # trace key its flush used, the write blocks feeding its HOST operand and
    # its trigger pattern.  Taken, it replays the events against the drain's
    # blocks: a window looks its key up (``FusedLockstepGroup.replay_window``;
    # a miss rebuilds the tape from the pattern and compiles under the same
    # key), and the units' sequencer state, stats and ``fused_replays`` are
    # written once, at the frame's end.

    def frame_entry(self) -> Any:
        """The exec group's fallback count, when its windows can be framed
        (see :meth:`~repro.pim.fused.FusedLockstepGroup.frame_entry`): an
        all-bank program is taken down only when no window of it fell back
        to the execution units.  From here the group logs the trace key of
        every window it replays, for :meth:`record_frame` to take."""
        group = self.lockstep
        if group.frame_entry() is None:
            return None
        group.window_keys = []
        return group.fused_fallbacks

    def record_frame(
        self, steps: Sequence[tuple], origin: int,
        reads: Sequence[Tuple[int, int, int, int]], entry: Any = None,
    ) -> Optional[Frame]:
        """A frame of SB-mode commands to bank rows only — none of which
        can change the mode — with the mode FSM's armed row, or of an
        all-bank program (:meth:`_record_program`); None for anything
        else."""
        logged = None
        if entry is not None:
            logged, self.lockstep.window_keys = self.lockstep.window_keys, None
        modes = {step[7] for step in steps} | {self.mode_ctrl.mode}
        if modes == {_SB}:
            reserved = self.memory_map.first_reserved_row
            if any(step[3] >= reserved for step in steps):
                return None
            frame = super().record_frame(steps, origin, reads)
            if frame is not None:
                frame = frame._replace(armed=self.mode_ctrl._armed_row)
            return frame
        if entry is None or entry != self.lockstep.fused_fallbacks:
            return None
        return self._record_program(steps, origin, logged)

    def _record_program(
        self, steps: Sequence[tuple], origin: int, logged: Optional[List[tuple]]
    ) -> Optional[Frame]:
        """The frame of an all-bank program just issued from ``origin``,
        every window of which replayed a compiled trace — the ``logged``
        trace keys, in order — from SB mode back to SB mode if it enters
        and leaves there: SB-mode PREA, ACT and PRE commands (a mode
        transition's) at its ends; None when one of its columns goes out
        in SB mode, reads bytes out (a register or an AB read), writes the
        CRF with bytes the key does not hold (a write to a keyed row's,
        see ``repro.dram.frames.CheckedProgram``), flushes triggers it
        gave the exec group before any ``start_all`` (their trace key
        holds the sequencer state the program found), or stops the
        sequencers it did not start."""
        memory_map = self.memory_map
        register, conf = self._register_rows, memory_map.conf_row
        group = self.lockstep
        records: List[tuple] = []
        events: List[tuple] = []
        writes: List[tuple] = []
        window: List[tuple] = []  # the trigger runs since the last flush
        rows = set()
        acts = [0] * BANKS_PER_PCH
        triggered = broadcast = 0
        pim_op_mode = None
        started = False
        end = self.mode_ctrl.mode
        ends = [step[7] for step in steps[1:]] + [end]
        for step, after in zip(steps, ends):
            kind, bg, ba, row, col, offset, count, mode, source = step
            if not kind.is_column:
                if kind is _ACT:
                    if mode is _SB:  # one bank's
                        acts[bg * BANKS_PER_GROUP + ba] += 1
                    else:
                        acts = [n + 1 for n in acts]
                records.append((kind, bg, ba, row, col, offset, 1, mode))
                continue
            if mode is _SB:
                return None
            is_write = kind is _WR
            if is_write:
                writes.append((source, count, None))
            if row in register:
                if not is_write or row == memory_map.crf_row and not source[0]:
                    return None
                if window:  # the column flushes the exec group
                    if not started:
                        return None
                    events.append((_WINDOW, tuple(window)))
                    window = []
                if row == conf:
                    pim_op_mode = int(after is _AB_PIM)
                    writes[-1] = (source, count, pim_op_mode)
                    if after is not mode:
                        if after is not _AB_PIM and not started:
                            return None  # the sequencers' end state is the entry's
                        started = True
                else:
                    events.append((_REGISTER, row, col, count, len(writes) - 1))
            elif mode is _AB_PIM:
                rows.add(row)
                triggered += count
                window.append((is_write, row, col, count, len(writes) - 1 if is_write else None))
                records.append((kind, bg, ba, row, col, offset, count, mode))
                continue
            elif is_write:
                rows.add(row)
                broadcast += count
                events.append((_BROADCAST, row, col, count, len(writes) - 1))
            else:
                return None
            records += self._singles(kind, bg, ba, row, col, offset, count, mode)
        # Each closed window's key is the one its flush used, in order.
        if logged is None or sum(event[0] is _WINDOW for event in events) != len(logged):
            return None
        keys = iter(logged)
        events = [
            (_WINDOW, Window.of(next(keys), event[1])) if event[0] is _WINDOW else event
            for event in events
        ]
        state = None
        if started:
            state = group.units[0].sequencer_state()
            if any(unit.sequencer_state() != state for unit in group.units):
                return None
        modes = [record[7] for record in records[1:]] + [end]
        transitions = [
            (record[5], after) for record, after in zip(records, modes)
            if after is not record[7]
        ]
        program = _Program(
            tuple(sorted(rows)), tuple(writes), tuple(events),
            Window.of(None, window) if window else None, state, tuple(transitions),
            (end, len(transitions), pim_op_mode), triggered, broadcast,
        )
        # Every bank took every all-bank ACT and every AB write, an SB-mode
        # ACT its own bank alone; a trigger counts in none, and a program
        # with an AB read is not taken down.
        tallies = {index: (n, 0, broadcast) for index, n in enumerate(acts)}
        return self._frame(
            records, origin, self._bank_entries(tallies, origin), (),
            armed=self.mode_ctrl._armed_row, program=program,
        )

    def apply_frame(
        self, frame: Frame, origin: int, blocks: Sequence[np.ndarray] = (),
    ) -> Optional[List[np.ndarray]]:
        """The frame, and the mode FSM's armed row as it left it; an
        all-bank program's frame (:meth:`_apply_program`) returns no
        block."""
        if frame.program is None:
            got = super().apply_frame(frame, origin)
        else:
            got = [] if self._apply_program(frame, origin, blocks) else None
        if got is not None:
            self.mode_ctrl._armed_row = frame.armed
        return got

    def _apply_program(
        self, frame: Frame, origin: int, blocks: Sequence[np.ndarray],
    ) -> bool:
        """Take an all-bank program's frame with this drain's ``blocks``:
        False, with nothing changed, where any of it could raise."""
        program = frame.program
        banks = self.banks
        if not self.vouched():
            for row in program.rows:
                for bank in banks:
                    if not bank.framed(row):
                        return False
        data = []
        width = self.bank_config.col_bytes
        for (_, operand, first), count, value in program.writes:
            block = blocks[operand]
            if not isinstance(block, np.ndarray):
                return False
            if block.ndim == 2:  # what a lone run or a pick leaves of it
                block = block[first : first + count] if count > 1 else block[first]
            block = np.ascontiguousarray(block, dtype=np.uint8)
            if block.shape != ((count, width) if count > 1 else (width,)):
                return False
            if value is not None and block[0] & 1 != value:
                return False
            data.append(block)
        # Timing: the channel part (every bank), the FSM.
        self._take(frame, origin)
        fsm = self.mode_ctrl
        fsm.mode, transitions, pim_op_mode = program.fsm
        fsm.transition_count += transitions
        if pim_op_mode is not None:
            self.pim_op_mode = pim_op_mode
        self.pim_triggered_columns += program.triggered
        self.ab_broadcast_columns += program.broadcast
        # Function: the data events in bus order, with this drain's bytes,
        # then the exec units' state, once.
        group = self.lockstep
        for event in program.events:
            kind = event[0]
            if kind is _WINDOW:
                group.replay_window(event[1], data)
            elif kind is _REGISTER:
                _, row, col, count, write = event
                self._write_registers(row, col, data[write].reshape(count, -1))
            else:  # an AB write, column by column
                _, row, col, count, write = event
                columns = data[write] if count > 1 else (data[write],)
                for i, column in enumerate(columns):
                    for bank in banks:
                        bank.poke(row, col + i, column)
        group.end_frame(program.sequencer, data, program.open)
        if self.tracer is not None:
            for offset, mode in program.transitions:
                self._mode_event(mode, origin + offset)
        return True

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
            self._mode_event(after, cycle)
        return result

    def _mode_event(self, mode: PimMode, cycle: int) -> None:
        """Tell the tracer the mode FSM entered ``mode`` at ``cycle``."""
        self.tracer.event(
            f"mode:{mode.value}",
            at_ns=self.tracer.cycles_ns(cycle),
            category="mode",
            channel=self.channel_id,
            cycle=cycle,
        )

    def _issue_single_bank(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """SB mode but a bank-row column: ACT / PRE (the mode FSM), registers."""
        kind = cmd.cmd
        if kind is CommandType.ACT:
            self.mode_ctrl.observe_act(cmd.row)
            return super().issue(cmd, cycle)
        if kind is CommandType.PRE or kind is CommandType.PREA:
            result = super().issue(cmd, cycle)
            self.mode_ctrl.observe_pre()
            if self.mode_ctrl.all_bank and not self.all_banks_idle:
                # Rows left open (a driver bug): the banks no longer share
                # one row state, and it is undefined until ``hard_reset``.
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
        if kind is CommandType.REF:
            self._refresh_banks(cycle)
            return None
        banks = self.banks
        if kind is CommandType.ACT:
            self.mode_ctrl.observe_act(cmd.row)
            for bank in banks:  # an open row raises at bank 0, before any change
                bank.activate(cmd.row, cycle)
            self._record_act(cmd.bg, cycle)
        else:
            for bank in banks:
                bank.precharge(cycle)
            self.mode_ctrl.observe_pre()
        self._absorb(banks[0])
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
        banks = self.banks
        if self.mode_ctrl.pim_executing:
            for bank in banks:
                bank.touch_column(row, cycle, is_write)
            self._absorb(banks[0])
            self._record_col(cmd.bg, cycle, is_write)
            self.pim_triggered_columns += 1
            trig = ColumnTrigger(
                is_write=is_write, row=row, col=cmd.col, host_data=cmd.data
            )
            self.lockstep.trigger_all(trig)
            # AB-PIM column commands do not drive data to the external I/O.
            return None
        # AB (non-PIM): the column moves through every bank's data path, one
        # bank at a time, so SEC-DED checks and failed-channel errors fire
        # per bank.
        col = cmd.col
        try:
            if is_write:
                for bank in banks:
                    bank.write(row, col, cmd.data, cycle)
            else:
                for bank in banks:
                    bank.read(row, col, cycle)
        finally:
            self._absorb(banks[0])
        self._record_col(cmd.bg, cycle, is_write)
        self.ab_broadcast_columns += 1
        if is_write:
            return None
        # AB (non-PIM) read: the addressed bank's data reaches the I/O.
        return banks[cmd.bank_index].peek(row, col)

    def _issue_burst(self, cmd: Command, cycle: int) -> Optional[np.ndarray]:
        """A column burst; an AB-PIM trigger run is *one* update per bank.

        ``count`` triggers to one open row at ``cycle + i * tCCD_L`` move
        every bank exactly as far as the last of them would: the bound and
        the open row are checked once, each bank is touched at the last
        command's cycle, the counters advance by ``count``, the column
        history comes from the last command, and the exec group takes the
        run as one tape entry.  That holds only while nothing can stop the
        run half way, so everything else is served command by command
        (``_issue_each``): SB and AB (non-PIM) bursts and register rows,
        whose data path runs per command; an eager exec group, whose
        triggers execute — and can raise — one at a time; and a run whose
        first command must raise (too early, row not open), which then
        raises exactly where and how the single command does.
        """
        is_write = cmd.cmd is CommandType.WR
        row = cmd.row
        banks = self.banks
        if not (
            self.mode_ctrl.pim_executing
            and self.lockstep.defers
            and row == banks[0].open_row
            and row not in self._register_rows
            and cycle >= self._all_bank_col_bound(cmd.bg, is_write)
        ):
            return self._issue_each(cmd, cycle)
        count = cmd.count
        last = cycle + (count - 1) * self.timing.tccd_l
        for bank in banks:
            bank.touch_column(row, last, is_write)
        self._absorb(banks[0])
        self.cmd_counts[cmd.cmd] += count
        self._record_col(cmd.bg, last, is_write)
        self.pim_triggered_columns += count
        self.lockstep.trigger_all(
            ColumnTrigger(
                is_write=is_write, row=row, col=cmd.col, host_data=cmd.data,
                count=count,
            )
        )
        return None

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

    def _write_registers(self, row: int, col: int, columns: np.ndarray) -> None:
        """A register-row write run broadcast into every unit
        (:func:`~repro.pim.registers.write_column_run`) once the exec group
        is flushed, as its columns' ``_register_access`` writes leave them."""
        self.lockstep.flush_pending()
        m = self.memory_map
        name = "crf" if row == m.crf_row else "grf" if row == m.grf_row else "srf"
        write_column_run([unit.regs for unit in self.units], name, col, columns)

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
