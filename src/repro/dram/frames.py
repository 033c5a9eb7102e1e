"""What the memory controllers of a system remember of their drains: one
channel frame per kernel shape and timing state.

:class:`~repro.dram.controller.MemoryController` schedules; this module
remembers.  The controllers of one system share one :class:`FrameCache`
(``HostSystem.frames``), as its channels share one trace cache.
``drain`` asks it for a frame before it queues a program
(:meth:`FrameCache.take`) and, when none was taken, offers it what the
command path did afterwards (:meth:`FrameCache.offer`); while a drain
records, the controller's ``_put`` and ``_due`` notify its
:class:`_Recorder` of every bus command and every refresh check.

The rules, stated once.  A program's runs reach the bus by one of four
paths:

============  ============================================================
path          taken when
============  ============================================================
frame         the policy is in order (FR-FCFS or FCFS), the queue is
              empty, the program is ``framed`` (:class:`CheckedProgram`),
              an entry is remembered under an equal key, no refresh falls
              due before the entry's horizon, and the channel accepts it
queue         any other program drain: its runs are queued, fenced as
              they say, and leave by the next two paths
lone run      an in-order policy and a run alone in its fence epoch at
              the queue head: one :class:`~repro.dram.commands.Command`,
              no window and no pick (a refresh due inside it sends the
              first column that way and the rest by pick)
pick          every other queued run: a reorder window and a pick per
              column; ``SHUFFLE`` picks among single commands
============  ============================================================

A drain takes no frame, with nothing changed, for one of these reasons;
it then takes the queue path and records it:

=================================  =======================================
reason                             decided by
=================================  =======================================
first drain of this shape on this  no entry (refresh, ``reset_channel``,
system                             mode changes and new keyed bytes all
                                   move the key; nothing is invalidated)
refresh due inside the program     the next refresh falls at or before
                                   the cycle plus the entry's horizon
failed bank, injected row, bank    the channel (``PseudoChannel.vouched``,
class of its own                   ``Bank.framed``)
interpreting exec group, a block   ``PimPseudoChannel.apply_frame``
of another shape or PIM_OP_MODE
=================================  =======================================

What a drain recorded is kept only when it returned, no refresh went out
inside it and the channel could take it down as a frame
(``PseudoChannel.record_frame``): SB-mode ACT / PRE / RD commands to
bank rows, or an all-bank program on a deferring exec group every window
of which replayed a compiled trace and which writes the CRF only with
bytes the key holds (``PimPseudoChannel.record_frame``).  The least
recently used of :data:`_SCHEDULES` entries goes out first.
:class:`FrameCacheStats` counts the frames taken, recorded, declined
(an entry found and not taken) and evicted.

**The key** is what a drain does, not where it does it.  Every *plain*
bank row — a row below the channel's ``first_reserved_row`` — is renamed
to its index of first use, counted over the program's runs, then the
controller's open-row shadow, then the banks' open rows in
``timing_state``; that order is the drain's *row table*.  The reserved
rows (ABMR, SBMR and the PIM_CONF, CRF, GRF and SRF rows) stay literal,
because the mode FSM and the register files read those addresses, and so
do the bytes the program writes to its ``keyed`` rows.  The key is then
the renamed runs (:meth:`CheckedProgram.shape`, worked out once per
program), those bytes, the controller's CA bus and renamed open-row
shadow and the channel's timing state with its open rows renamed, every
cycle counted from the controller's.  The command path uses a plain row
only through equality — row hits and misses, which bank holds which row —
and through the bytes stored there, which the frame reads and writes at
the drain's own rows, so one entry serves its kernel shape at any rows
and on any channel of the system.  A table never spans systems: each
system's set-up records its own.

What is kept is a function of the key, with its rows renamed as the key
names them: the channel's end state as a
:class:`~repro.dram.pseudochannel.Frame`, each read run's program index
in the order ``read_data`` files them, the controller's snapshots at the
drain's start and end (``MemoryController.snapshot``), the drain's
segments between mode transitions and its *horizon*, the latest cycle
any of its refresh checks compared.  A drain that takes it takes the
frame and the end snapshot put back at its own row table
(``Frame.at``), worked out once per entry and table; the channel
(``apply_frame``) and the controller (``restore``) see no index.  Faults
are not in the key: the command path meets them command by command,
where they raise, and the channel asks its banks about the drain's own
rows.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .commands import CommandType
from .pseudochannel import Frame

__all__ = ["CheckedProgram", "FrameCache", "FrameCacheStats"]

# Frames a system remembers, least recently used out first: a workload's
# kernel programs and readbacks meet a few dozen timing states, wave after
# wave.
_SCHEDULES = 64

# Row tables an entry keeps its frame put back at, the oldest out first: a
# shape meets the rows of a few operators (at most 8 in the four serving
# workloads), and a warm take then puts back no row.
_PLACED = 16

_ACT = CommandType.ACT


class _Shape(tuple):
    """A program's runs with its plain rows renamed (see
    :meth:`CheckedProgram.shape`), hashed once."""

    def __new__(cls, runs: Sequence[tuple]) -> "_Shape":
        self = super().__new__(cls, runs)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash


class CheckedProgram(tuple):
    """A program's runs — ``(write, row, col, count, fence, operand,
    barrier, bank, seam, transition)`` each, a
    :class:`repro.pim.stream.Run` — checked and hashed once, where it is
    built: a plan caches it, so every drain of it reuses both (a frame's
    key holds its :meth:`shape`).  A run is at least one column, except a
    mode transition, a read of none; a block feeds bursts of one length.
    ``bursts``: each write operand's burst length past one, whose block a
    drain must hand as ``(count, col_bytes)``.  ``keyed``: the operands
    written to one of ``keyed_rows``, rows whose bytes decide more than
    what they store (a PIM channel's CRF row, the program every window
    runs on), so the key holds them; the plan building it names them, the
    controller knows no PIM row.  ``framed``: whether a frame can stand
    for it — fenced (its runs lone runs), one run, or no write (no frame
    stands for an epoch's writes)."""

    def __new__(
        cls, runs: Sequence[tuple], keyed_rows: Sequence[int] = ()
    ) -> "CheckedProgram":
        self = super().__new__(cls, runs)
        bursts: Dict[int, int] = {}
        keyed = set()
        fenced = writes = False
        for run in self:
            write, count, operand = run[0], run[3], run[5]
            if count < 1 and not (run[9] and not write and count == 0):
                raise ValueError(f"a run is at least one column, not {count}")
            if write:
                writes = True
                if run[1] in keyed_rows:
                    keyed.add(operand)
                if count > 1 and bursts.setdefault(operand, count) != count:
                    raise ValueError(
                        f"block {operand} feeds bursts of {bursts[operand]} and {count} columns"
                    )
            fenced = fenced or run[4] or run[6]
        self.bursts = tuple(bursts.items())
        self.keyed = tuple(sorted(keyed))
        self.framed = fenced or len(self) == 1 or not writes
        self._hash = tuple.__hash__(self)
        self._shapes: Dict[int, Tuple[_Shape, Dict[int, int]]] = {}
        return self

    def __hash__(self) -> int:
        return self._hash

    def check(self, blocks: Sequence[np.ndarray], col_bytes: int) -> None:
        """Refuse ``blocks`` a write burst of the program could only partly
        carry."""
        for operand, count in self.bursts:
            shape = (count, col_bytes)
            if getattr(blocks[operand], "shape", None) != shape:
                raise ValueError(f"a write burst of {count} columns needs a {shape} block")

    def shape(self, reserved: int) -> Tuple[_Shape, Dict[int, int]]:
        """The runs with every plain row — below ``reserved`` — renamed to
        its index of first use, and that row table (row to index); worked
        out once per boundary, as the hash is."""
        got = self._shapes.get(reserved)
        if got is None:
            table: Dict[int, int] = {}
            runs = []
            for run in self:
                row = run[1]
                if row < reserved:
                    row = table.setdefault(row, len(table))
                runs.append((run[0], row) + tuple(run[2:]))
            got = self._shapes[reserved] = (_Shape(runs), table)
        return got


@dataclass
class FrameCacheStats:
    """Observability counters of one frame cache: drains that took a
    frame, entries kept, drains that found an entry and took no frame (a
    refresh due inside it, or the channel declined it) and entries the
    least-recently-used bound dropped."""

    taken: int = 0
    recorded: int = 0
    declined: int = 0
    evicted: int = 0


class _Entry(NamedTuple):
    """A remembered drain, every cycle counted from its start and every
    plain row an index into the row table of the drain that takes it;
    ``placed``: the frame and the end snapshot put back at each row table
    (index to row) a drain took them at, the latest :data:`_PLACED`."""

    frame: Frame
    reads: Tuple[int, ...]
    start: tuple
    end: tuple
    segments: Tuple[Tuple[int, int, int, int], ...]
    horizon: int
    placed: Dict[Tuple[int, ...], Tuple[Frame, tuple]]

    def at(self, rows: Tuple[int, ...], reserved: int) -> Tuple[Frame, tuple]:
        """The frame and the end snapshot at the row table ``rows``
        (``reserved``: the channel's ``first_reserved_row``)."""
        got = self.placed.get(rows)
        if got is None:
            if len(self.placed) == _PLACED:
                del self.placed[next(iter(self.placed))]
            end = self.end
            shadow = tuple(row if row is None or row >= reserved else rows[row] for row in end[6])
            got = self.placed[rows] = (self.frame.at(rows, reserved), end[:6] + (shadow,))
        return got


class _Recorder:
    """What the drain that records takes down: ``steps``, each bus command
    as ``(kind, bg, ba, row, col, offset, count, mode, source)`` — an ACT's
    and a column's plain row renamed by the drain's row table ``rows``,
    ``mode`` the channel's at the command, ``source`` where a write's
    bytes sit, ``(keyed, operand, first row)`` in the drain's blocks —
    ``reads``, the program index of each read run in the order their
    first columns went out, and ``horizon``, the latest cycle a refresh
    check compared.  A drain starts on an empty queue, so every plain row
    it opens or reaches is its program's, in the table."""

    __slots__ = ("key", "rows", "reserved", "start", "origin", "program", "entry",
                 "refreshes", "steps", "reads", "horizon")

    def __init__(
        self, key: tuple, rows: Dict[int, int], reserved: int, start: tuple,
        program: CheckedProgram, entry: Any, refreshes: int,
    ):
        self.key, self.rows, self.reserved = key, rows, reserved
        self.start, self.program = start, program
        self.origin = self.horizon = start[0]
        self.entry = entry  # the channel's frame_entry() as the drain found it
        self.refreshes = refreshes
        self.steps: List[tuple] = []
        self.reads: Dict[int, None] = {}

    def note(self, cmd: Any, cycle: int, index: Optional[int], mode: Any) -> None:
        """Take down ``cmd``, about to go out at ``cycle`` in ``mode`` — a
        column of program run ``index``, or (None) an ACT, a PRE or a
        PREA."""
        source = None
        row = cmd.row
        if index is not None:
            run = self.program[index]
            if run[0]:
                operand = run[5]
                source = (operand in self.program.keyed, operand, cmd.col - run[2])
            else:
                self.reads[index] = None
        if (index is not None or cmd.cmd is _ACT) and row < self.reserved:
            row = self.rows[row]
        self.steps.append((
            cmd.cmd, cmd.bg, cmd.ba, row, cmd.col, cycle - self.origin, cmd.count,
            mode, source,
        ))


class FrameCache:
    """The remembered frames of a system's controllers (see the module
    docstring)."""

    __slots__ = ("_entries", "stats")

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, _Entry]" = OrderedDict()
        self.stats = FrameCacheStats()

    @staticmethod
    def key(
        program: CheckedProgram, blocks: Sequence[np.ndarray], channel: Any, start: tuple,
    ) -> Tuple[tuple, Dict[int, int]]:
        """The key of draining ``program`` with ``blocks`` on ``channel``
        from the controller's snapshot ``start``, and the drain's row table
        (plain row to index, in first-use order)."""
        reserved = channel.first_reserved_row
        shape, table = program.shape(reserved)
        rows = dict(table)
        shadow = start[6]
        if shadow.count(None) != len(shadow):
            shadow = tuple([
                row if row is None or row >= reserved else rows.setdefault(row, len(rows))
                for row in shadow
            ])
        key = (
            shape,
            tuple(blocks[operand].tobytes() for operand in program.keyed),
            start[5], shadow, channel.timing_state(start[0], rows),
        )
        return key, rows

    def take(
        self, mc: Any, program: CheckedProgram, blocks: Sequence[np.ndarray], out: Any,
    ) -> bool:
        """Drain ``program`` on ``mc`` as the frame remembered under its key
        — the channel's end state in one step, at this drain's rows, each
        read run's bytes one block under its index in ``out.read_data``,
        the recorded segments in ``out.segments``, the controller moved as
        the recorded drain moved it — and return True; or return False
        with nothing changed, a framed program leaving ``mc`` a
        recorder."""
        if not program.framed:
            return False
        start = mc.snapshot()
        origin = start[0]
        channel = mc.channel
        key, rows = self.key(program, blocks, channel, start)
        entry = self._entries.get(key)
        if entry is not None:
            if not mc.refresh or origin + entry.horizon < mc._next_refresh:
                frame, end = entry.at(tuple(rows), channel.first_reserved_row)
                got = channel.apply_frame(frame, origin, blocks)
                if got is not None:
                    read_data = out.read_data
                    for index, block in zip(entry.reads, got):
                        read_data[index] = block if len(block) > 1 else block[0]
                    out.segments = [
                        (origin + first, origin + last, columns, commands)
                        for first, last, columns, commands in entry.segments
                    ]
                    mc.restore(entry.start, end)
                    self._entries.move_to_end(key)
                    self.stats.taken += 1
                    return True
            self.stats.declined += 1
        mc._recording = _Recorder(
            key, rows, channel.first_reserved_row, start, program, channel.frame_entry(),
            mc.refresh_count,
        )
        return False

    def offer(self, mc: Any, recorder: _Recorder, segments: Sequence[tuple]) -> None:
        """Keep what the drain ``recorder`` took down did — ``segments``
        its segments between mode transitions — when no refresh went out
        inside it and the channel takes it down as a frame."""
        if mc.refresh_count != recorder.refreshes:
            return
        origin, rows, reserved = recorder.origin, recorder.rows, recorder.reserved
        shape = recorder.program.shape(reserved)[0]
        reads = tuple(recorder.reads)
        frame = mc.channel.record_frame(
            recorder.steps, origin,
            [(run[7], run[1], run[2], run[3]) for run in (shape[i] for i in reads)],
            recorder.entry, rows,
        )
        if frame is None:
            return
        end = mc.snapshot()
        shadow = tuple(row if row is None or row >= reserved else rows[row] for row in end[6])
        self._entries[recorder.key] = _Entry(
            frame, reads, recorder.start[:6] + (recorder.key[3],), end[:6] + (shadow,),
            tuple(
                (first - origin, last - origin, columns, commands)
                for first, last, columns, commands in segments
            ),
            recorder.horizon - origin, {},
        )
        self.stats.recorded += 1
        if len(self._entries) > _SCHEDULES:
            self._entries.popitem(last=False)
            self.stats.evicted += 1
