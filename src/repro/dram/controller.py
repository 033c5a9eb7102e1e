"""A JEDEC-compliant per-pseudo-channel memory controller.

The controller is the component the paper insists must stay *unmodified*: it
receives read/write transactions, reorders them for row-buffer locality
(FR-FCFS [Rixner et al., ISCA 2000]), and emits standard DRAM commands.  It
has no knowledge of PIM; the only host-visible ordering control is the fence
(barrier) the programming model in Section V-B uses, modelled as epochs that
commands never cross.  Crossing one stalls the CA bus by ``fence_penalty``
cycles — except at a *seam* (below), where a drain would have ended.

Three scheduling policies are provided:

* ``frfcfs`` — first-ready, first-come-first-served: row hits first, then
  oldest.  This is the realistic baseline whose reordering Fig. 5 worries
  about and address-aligned mode (AAM) tolerates.
* ``fcfs`` — strict arrival order.  Models the paper's "processor guarantees
  the order of DRAM commands in PIM mode" study (Section VII-B, no fences).
* ``shuffle`` — adversarial random order within an epoch window, used by
  tests to show non-AAM microkernels break while AAM ones do not.

The unit of queued *and scheduled* work is the **run**: ``count``
consecutive columns of one (bank, row, direction) as one :class:`Request`
— what a PIM kernel emits for every fenced 8-command AAM group, and what
the GEMV readback asks of each bank.  A single request is a run of one,
and a run is scheduled exactly as its single requests would be:

* The **reorder window** is the queue head: the oldest fence epoch's runs
  while a budget of ``window`` *bus commands* lasts.  Each pick walks
  those few entries, asks the channel one first-ready question for the
  row-hit classes among them (a column's earliest cycle depends only on
  its class, ``Request.cls``), issues the chosen run's next column and
  shrinks the run, which stays a run under an in-order policy.
* **The lone-run rule.**  A run alone in its fence epoch at the queue
  head, under an in-order policy, is equally-ready row hits of one class,
  taken in arrival order ``tCCD_L`` apart, so ``_lone_run`` issues it as
  one :class:`Command` with no window and no pick.  A PIM kernel's
  program is queued like any other requests, so each fenced run is one.
* **Seams.**  A GEMV launch hands a channel one program, its kernel
  programs joined (:func:`repro.pim.stream.launch`), the first run of each
  after the first marked ``seam``.  ``drain`` crosses the fence before a
  seamed run as it crosses from one drain to the next: no
  ``fence_penalty``, and the busy cycles before it counted there, as a
  drain per program would have.
* **Transitions and register loads are program runs**
  (:func:`repro.pim.stream.sb_to_sb`).  A mode transition — PREA, then an
  ACT and a PRE to the ABMR or the SBMR row — is a request of no columns
  in an epoch of its own, and ``drain`` crosses either side of it as the
  boundary between two drains: the segment before it closes (its busy
  cycles counted, its ``drain`` span traced), its commands go out with no
  refresh check, no fence penalty and no row hit or miss, and the next
  segment pays no penalty at its first epoch.
* ``shuffle`` draws among single commands, so ``drain`` expands the queue
  on entry — the one place ``Request.expand`` is called.

A tagged read run answers with the ``(count, 32)`` block of its columns.
When a program drains as one channel frame instead — what a controller
of the system did with a program of its shape from an equal timing
state — is :mod:`repro.dram.frames`' to say, in its table of paths.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .commands import Command, CommandType
from .frames import CheckedProgram, FrameCache
from .pseudochannel import BANKS_PER_GROUP, BANKS_PER_PCH, PseudoChannel

__all__ = ["MemOp", "Request", "SchedulerPolicy", "ScheduleResult", "MemoryController"]

_RD, _WR = CommandType.RD, CommandType.WR
# Iterating the enum class runs a generator per call; a tuple does not.
_COMMAND_TYPES = tuple(CommandType)


class MemOp(enum.Enum):
    """Transaction direction: read or write."""
    READ = "RD"
    WRITE = "WR"


class SchedulerPolicy(enum.Enum):
    """Command scheduling policy (see the module docstring)."""
    FRFCFS = "frfcfs"
    FCFS = "fcfs"
    SHUFFLE = "shuffle"


_FCFS, _SHUFFLE = SchedulerPolicy.FCFS, SchedulerPolicy.SHUFFLE


@dataclass(eq=False)
class Request:
    """One 32-byte read or write transaction to a decoded DRAM address;
    requests compare by identity (two transactions to one address are two).

    ``count > 1`` makes it a *run*: ``count`` transactions to columns
    ``col ..`` of the row, in order, ``data`` a ``(count, 32)`` block —
    shorthand for the requests :meth:`expand` returns, issued from its
    first column on, :meth:`shrink` keeping it to the columns still to go.
    ``index``: the run's position in the program ``drain`` was handed
    (None: queued by :meth:`MemoryController.enqueue`; only those are
    listed in ``ScheduleResult.issue_order``).  ``seam``: the run begins a
    kernel program of a launch (see the module docstring).
    """

    op: MemOp
    bg: int
    ba: int
    row: int
    col: int
    data: Optional[np.ndarray] = None
    tag: Any = None
    epoch: int = 0
    count: int = 1
    index: Optional[int] = None
    seam: bool = False
    # Scheduling class, ``2 * flat_bank + is_write``: a column command's
    # earliest issue cycle depends on nothing else of the request.
    cls: int = field(init=False)

    def __post_init__(self) -> None:
        bank = self.bg * BANKS_PER_GROUP + self.ba
        self.cls = 2 * bank + (self.op is MemOp.WRITE)

    def expand(self) -> List["Request"]:
        """The single-command requests this run stands for."""
        if self.count <= 1:
            return [self]
        data = self.data
        return [
            Request(
                self.op, self.bg, self.ba, self.row, self.col + column,
                data=None if data is None else data[column],
                tag=self.tag, epoch=self.epoch, index=self.index, seam=self.seam,
            )
            for column in range(self.count)
        ]

    def shrink(self, done: int = 1) -> None:
        """Drop the first ``done`` columns: what is left once they issued."""
        self.col += done
        self.count -= done
        if self.data is not None:
            self.data = self.data[done:]

    def __repr__(self) -> str:
        op, col = self.op.value, str(self.col)
        if self.count > 1:
            op, col = f"{op}x{self.count}", f"{col}..{self.col + self.count - 1}"
        return (
            f"{op}(bg={self.bg},ba={self.ba},row={self.row},"
            f"col={col},epoch={self.epoch})"
        )


@dataclass
class ScheduleResult:
    """Outcome of one ``drain()``: every count is of that drain alone (the
    controller keeps the lifetime row hit/miss tallies)."""

    cycles: int
    issue_order: List[Tuple[int, Request]]
    read_data: Dict[Any, np.ndarray]
    command_count: Dict[CommandType, int]
    row_hits: int
    row_misses: int

    @property
    def column_commands(self) -> int:
        return self.command_count[CommandType.RD] + self.command_count[CommandType.WR]


class _Drain:
    """What one ``drain()`` has built so far; none of it outlives the call."""

    __slots__ = (
        "issue_order", "read_data", "blocks", "segments", "start", "busy_from", "counts", "seam",
    )

    def __init__(self) -> None:
        self.issue_order: List[Tuple[int, Request]] = []
        self.read_data: Dict[Any, np.ndarray] = {}
        # Tagged read runs under way: the block each one's columns land in,
        # with the column of its first row.
        self.blocks: Dict[Any, Tuple[np.ndarray, int]] = {}
        # The drain's segments between mode transitions: each closed one's
        # ``(first cycle, last cycle, columns, commands)``, and where the
        # open one started (:meth:`open`).
        self.segments: List[Tuple[int, int, int, int]] = []
        self.start = self.busy_from = 0
        self.counts: Dict[CommandType, int] = {}
        self.seam: Optional[Dict[CommandType, int]] = None

    def open(self, cycle: int, counts: Dict[CommandType, int]) -> None:
        """Start a segment at ``cycle``, the channel's ``cmd_counts`` then
        ``counts``: busy time runs from there (moved on at a seam, to
        ``busy_from``, the channel's ``cmd_counts`` then ``seam``)."""
        self.start = self.busy_from = cycle
        self.counts = counts
        self.seam = None

    def land(self, run: Any, tag: Any, col: int, count: int, data: np.ndarray) -> None:
        """File what the RD of column ``col`` of ``run`` (``count`` columns
        from it still to read) returned under ``tag``: a single's result as
        it is, a run's column into its row of the run's block."""
        dest = self.blocks.get(run)
        if dest is None:
            if count == 1:
                self.read_data[tag] = data
                return
            block = np.empty((count, data.size), dtype=np.uint8)
            dest = self.blocks[run] = (block, col)
        block, col0 = dest
        block[col - col0] = data
        self.read_data[tag] = block


class MemoryController:
    """FR-FCFS controller for one pseudo-channel.

    Usage: ``enqueue`` requests, interleave ``fence()`` calls to forbid
    reordering across points the programming model synchronises with
    barriers, then ``drain()`` to simulate the whole stream.
    """

    def __init__(
        self,
        channel: PseudoChannel,
        policy: SchedulerPolicy = SchedulerPolicy.FRFCFS,
        window: int = 16,
        seed: Optional[int] = None,
        start_cycle: int = 0,
        fence_penalty: int = 0,
        refresh: bool = False,
        frames: Optional[FrameCache] = None,
    ):
        if window < 1:
            raise ValueError(f"the reorder window holds at least one command, not {window}")
        if fence_penalty < 0:
            raise ValueError(f"a fence stalls the CA bus; it cannot rewind it by {-fence_penalty}")
        self.channel = channel
        self.policy = policy
        self.window = window
        # Auto-refresh: a PREA+REF pair every tREFI.  JEDEC controllers must
        # keep refreshing in every mode; the PIM device broadcasts the REF
        # like any other command, and the kernel's next request re-opens its
        # row — correctness is unaffected, only timing (tested).
        self.refresh = refresh
        self._next_refresh = start_cycle + channel.timing.trefi
        self.refresh_count = 0
        # Cycles the CA bus sits idle at each fence: the cost of the
        # thread-group barrier that orders memory requests (Section V-B).
        # The paper's "processor guarantees the order of DRAM commands in
        # PIM mode" study corresponds to fence_penalty=0 with FCFS.
        self.fence_penalty = fence_penalty
        self.fence_count = 0
        self._rng = random.Random(seed)
        # Cycles this channel spent actively working through its queue,
        # summed over drains (and counted at a launch's seams).  A serving
        # lane's occupancy is this against the session makespan; the gap is
        # time the channel sat idle waiting for requests (what pipelining
        # across channel sets is meant to eliminate).
        self.busy_cycles = 0
        self._queue: Deque[Request] = deque()
        self._epoch = 0
        self._cycle = start_cycle
        self._next_ca = start_cycle  # CA bus: one command per tCK
        # Controller-side shadow of open rows by flat bank index (an
        # unmodified controller does not peek into the device).
        self._open_rows: List[Optional[int]] = [None] * BANKS_PER_PCH
        self.row_hits = 0
        self.row_misses = 0
        # What the controller remembers of its drains (repro.dram.frames):
        # its own table, or the one the controllers of its system share;
        # and the recorder of the drain taking one down, if any.
        self.frames = FrameCache() if frames is None else frames
        self._recording = None
        # repro.obs hook: a Tracer records a "drain" span per segment that
        # put a column on the bus.  None (the default) costs one test.
        self.tracer = None
        self.channel_id = 0

    # -- queueing -------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Queue a transaction in the current fence epoch (a run is checked
        first: :meth:`_check_run`)."""
        self._check_run(request.op is MemOp.WRITE, request.count, request.data)
        request.epoch = self._epoch
        self._queue.append(request)

    def read(
        self, bg: int, ba: int, row: int, col: int, tag: Any = None, count: int = 1
    ) -> None:
        """Queue a 32-byte read — or a burst of ``count`` from ``col`` as
        one entry; the result is keyed by ``tag`` in drain()."""
        self.enqueue(Request(MemOp.READ, bg, ba, row, col, tag=tag, count=count))

    def write(
        self, bg: int, ba: int, row: int, col: int, data: np.ndarray,
        tag: Any = None, count: int = 1,
    ) -> None:
        """Queue a 32-byte write — or, with ``count > 1``, a column burst of
        ``count`` writes from ``col``, ``data`` their ``(count, 32)`` block."""
        self.enqueue(
            Request(MemOp.WRITE, bg, ba, row, col, data=data, tag=tag, count=count)
        )

    def _check_run(self, write: bool, count: int, data: Optional[np.ndarray]) -> None:
        """Refuse a run the bus could only partly carry."""
        if count < 1:
            raise ValueError(f"a run is at least one column, not {count}")
        shape = (count, self.channel.bank_config.col_bytes)
        if write and count > 1 and getattr(data, "shape", None) != shape:
            raise ValueError(f"a write burst of {count} columns needs a {shape} block")

    def fence(self) -> None:
        """Commands after a fence never issue before commands preceding it."""
        self._epoch += 1
        self.fence_count += 1

    @property
    def pending(self) -> int:
        """Bus commands still queued (a burst counts each of its columns)."""
        return sum(request.count for request in self._queue)

    @property
    def current_cycle(self) -> int:
        return self._cycle

    # -- scheduling ---------------------------------------------------------------
    #
    # The reorder window, the lone-run rule and ``SHUFFLE``'s expansion are
    # the module docstring's.  ``_put`` is the one way to the channel and
    # ``_due`` the one refresh check; both tell a drain's recorder, if it
    # has one, what went out and what was compared (repro.dram.frames).

    def _window(self, epoch: int) -> List[Request]:
        """The runs in the reorder window, oldest first."""
        window = []
        budget = self.window
        for run in self._queue:
            if run.epoch != epoch:
                break
            window.append(run)
            budget -= run.count
            if budget <= 0:
                break
        return window

    def _pick(self, epoch: int) -> Tuple[Request, Optional[int]]:
        """The run whose next column issues next, and that command's
        earliest cycle when it was worked out and is still current."""
        queue = self._queue
        if self.policy is _FCFS:
            return queue[0], None
        window = self._window(epoch)
        if self.policy is _SHUFFLE:
            return queue[self._rng.randrange(len(window))], None
        # FR-FCFS: among row hits, the first *ready* one (earliest legal
        # column issue — this is what lets hits to other bank groups slip in
        # at tCCD_S); with no hits, the oldest request.  Ties go to the
        # older request, so only the first hit of each class can win.
        open_rows = self._open_rows
        hits: Dict[int, Request] = {}
        misses = []
        for run in window:
            if open_rows[run.cls >> 1] != run.row:
                misses.append(run)
            else:
                hits.setdefault(run.cls, run)
        if hits:
            cls, bound = self.channel.first_ready(hits)
            best = hits[cls]
        else:
            best, bound = queue[0], None
        if misses:
            if bound is None:
                bound = self.channel.earliest_col(best.bg, best.ba, best.cls & 1)
            # Slack before the picked column: use it on the misses' rows.
            if bound > self._next_ca and self._opportunistic_activate(
                misses, best.cls >> 1, bound, window
            ):
                bound = None  # commands went out since the query
        return best, bound

    def _opportunistic_activate(
        self, misses: List[Request], picked_bank: int, col_cycle: int, window: List[Request]
    ) -> bool:
        """Open other requests' rows while the picked column waits, as real
        FR-FCFS controllers interleave ACTs with the column stream.
        ``misses`` are the runs of ``window`` whose row is not open,
        ``col_cycle`` the picked column's cycle; returns whether any command
        was issued."""
        channel = self.channel
        open_rows = self._open_rows
        touched = {picked_bank}
        for other in misses:
            bank = other.cls >> 1
            if bank in touched:
                continue
            shadow = open_rows[bank]
            if shadow is not None:
                # Conflict: close the stale row early, unless a windowed
                # request still wants it.
                if any(run.cls >> 1 == bank and run.row == shadow for run in window):
                    continue
                cycle = max(self._next_ca, channel.earliest_pre(other.bg, other.ba))
                if cycle >= col_cycle:
                    continue
                self._put(Command(CommandType.PRE, other.bg, other.ba), cycle)
                open_rows[bank] = None
            else:
                cycle = max(self._next_ca, channel.earliest_act(other.bg, other.ba))
                if cycle >= col_cycle:
                    continue
                self._put(Command(CommandType.ACT, other.bg, other.ba, row=other.row), cycle)
                open_rows[bank] = other.row
                self.row_misses += 1
            self._next_ca = cycle + 1
            touched.add(bank)
        return len(touched) > 1

    def _put(
        self, cmd: Command, cycle: int, index: Optional[int] = None
    ) -> Optional[np.ndarray]:
        """Put ``cmd`` on the bus at ``cycle``: the controller's one way to
        the channel, where a drain being recorded takes it down (with
        ``index``, the program run of a column)."""
        recording = self._recording
        if recording is not None:
            recording.note(cmd, cycle, index, self.channel.mode)
        return self.channel.issue(cmd, cycle)

    def _due(self, cycle: int) -> bool:
        """The refresh check: whether a refresh is due by ``cycle``.  A
        drain being recorded takes the cycle down as its horizon."""
        recording = self._recording
        if recording is not None and cycle > recording.horizon:
            recording.horizon = cycle
        return self.refresh and cycle >= self._next_refresh

    def _issue(
        self, cmd: Command, bound: Optional[int] = None, index: Optional[int] = None
    ) -> Optional[np.ndarray]:
        """Issue ``cmd`` at its earliest cycle (``bound``, when the caller
        holds a current answer to ``channel.earliest_issue(cmd)``)."""
        if bound is None:
            bound = self.channel.earliest_issue(cmd)
        cycle = max(self._next_ca, bound)
        data = self._put(cmd, cycle, index)
        self._next_ca = cycle + 1
        self._cycle = cycle
        return data

    def _open(self, bg: int, ba: int, row: int) -> bool:
        """Get ``row`` open in bank (``bg``, ``ba``) for the next column
        command, tallying it a row hit (returned) or miss."""
        bank = bg * BANKS_PER_GROUP + ba
        open_row = self._open_rows[bank]
        if open_row == row:
            self.row_hits += 1
            return True
        if open_row is not None:
            # Row conflict: only close a row no windowed request still
            # wants (FR-FCFS open-page policy).  The picked request
            # needs it closed regardless.
            self._issue(Command(CommandType.PRE, bg, ba))
            self._open_rows[bank] = None
        self._issue(Command(CommandType.ACT, bg, ba, row=row))
        self._open_rows[bank] = row
        self.row_misses += 1
        return False

    def _issue_column(self, run: Request, bound: Optional[int], out: _Drain) -> None:
        """Issue the next column of ``run``, whose row is open, and take it
        off the queue (``bound`` as for :meth:`_issue`).  A tagged read
        run's columns fill one ``(count, 32)`` block.  When the channel
        raises, the run is still queued from that column on."""
        bg, ba, row, col, tag = run.bg, run.ba, run.row, run.col, run.tag
        if run.cls & 1:
            data = run.data
            if data is not None and data.ndim == 2:
                data = data[0]
            cmd = Command(_WR, bg, ba, row=row, col=col, data=data, tag=tag)
        else:
            cmd = Command(_RD, bg, ba, row=row, col=col, tag=tag)
        data = self._issue(cmd, bound, run.index)
        # None: a write or an AB-PIM trigger (no I/O).
        if data is not None and tag is not None:
            out.land(run, tag, col, run.count, data)
        if run.index is None:
            out.issue_order.append((self._cycle, run))
        if run.count == 1:
            self._queue.remove(run)
        else:
            run.shrink()

    def _lone_run(self, head: Request, out: _Drain) -> bool:
        """Issue ``head``, the queue head and alone in its fence epoch, as
        one command (the lone-run rule); returns whether it went whole.  A
        refresh due before its second-to-last command issues the first
        only, the rest taking the pick path; a raise part way leaves
        clocks, hits and the run from that command on as the per-command
        loop does."""
        bg, ba, row, count, is_write = head.bg, head.ba, head.row, head.count, head.cls & 1
        if self._due(self._cycle):
            self._do_refresh()
        self._open(bg, ba, row)
        channel = self.channel
        bound = channel.earliest_col(bg, ba, is_write)
        first = max(self._next_ca, bound)
        step = channel.timing.tccd_l
        if count > 1 and self._due(first + (count - 2) * step):
            self._issue_column(head, bound, out)
            return False
        kind = _WR if is_write else _RD
        data = head.data
        if count == 1 and data is not None and data.ndim == 2:
            data = data[0]  # what is left of a write burst
        cmd = Command(
            kind, bg, ba, row=row, col=head.col, data=data, tag=head.tag, count=count
        )
        taken = channel.cmd_counts[kind]
        try:
            answer = self._put(cmd, first, head.index)
        except BaseException:
            # The channel counts a command before its data path can raise:
            # all but the last one it counted ran to completion.
            done = channel.cmd_counts[kind] - taken - 1
            if done > 0:
                self._cycle = first + (done - 1) * step
                self._next_ca = self._cycle + 1
                self.row_hits += done
                head.shrink(done)
            raise
        self._cycle = last = first + (count - 1) * step
        self._next_ca = last + 1
        self.row_hits += count - 1
        if head.tag is not None and answer is not None:
            out.read_data[head.tag] = answer
        self._queue.popleft()
        if head.index is None:
            out.issue_order.extend((cycle, head) for cycle in range(first, last + 1, step))
        return True

    def _queue_runs(self, program: Sequence[tuple], blocks: Sequence[np.ndarray]) -> None:
        """Queue the runs of ``program`` one request each, fenced as they
        say, with its index in it (a read tagged with it too).  A mode
        transition is queued as a request of no columns in an epoch of no
        fence's, -1: no run shares a reorder window with it."""
        for i, run in enumerate(program):
            write, row, col, count, fence, operand, barrier, bank, seam, transition = run
            if barrier:
                self.fence()
            bg, ba = divmod(bank, BANKS_PER_GROUP)
            if transition:
                self._queue.append(
                    Request(MemOp.READ, bg, ba, row, col, epoch=-1, count=0, index=i)
                )
                continue
            op = MemOp.WRITE if write else MemOp.READ
            data, tag = (blocks[operand], None) if write else (None, i)
            self.enqueue(
                Request(op, bg, ba, row, col, data, tag, count=count, index=i, seam=seam)
            )
            if fence:
                self.fence()

    def _expand_queue(self, out: _Drain) -> None:
        """Turn every queued run into its single requests (``SHUFFLE``'s
        seeded draws are among single commands); the singles of a tagged
        read run land in the rows of one block."""
        runs = list(self._queue)
        self._queue.clear()
        col_bytes = self.channel.bank_config.col_bytes
        for run in runs:
            singles = run.expand()
            self._queue.extend(singles)
            if run.count > 1 and run.tag is not None and run.op is MemOp.READ:
                dest = (np.empty((run.count, col_bytes), dtype=np.uint8), run.col)
                for single in singles:
                    out.blocks[single] = dest

    # -- what a frame sees of the controller ----------------------------------------

    def snapshot(self) -> tuple:
        """The controller's cycle, row hits, row misses, fences and busy
        cycles, then its CA bus counted from its cycle and its open-row
        shadow: the last two are what a frame's key holds of it."""
        cycle = self._cycle
        return (cycle, self.row_hits, self.row_misses, self.fence_count, self.busy_cycles,
                self._next_ca - cycle, tuple(self._open_rows))

    def restore(self, start: tuple, end: tuple) -> None:
        """Move the controller, from its cycle, as a drain moved it from
        snapshot ``start`` to ``end`` (its fences crossed included)."""
        cycle, hits, misses, fences, busy, _, _ = start
        self._cycle += end[0] - cycle
        self._next_ca = self._cycle + end[5]
        self.row_hits += end[1] - hits
        self.row_misses += end[2] - misses
        self._epoch += end[3] - fences
        self.fence_count += end[3] - fences
        self.busy_cycles += end[4] - busy
        self._open_rows = list(end[6])

    # -- segments -------------------------------------------------------------------

    def _segment(self, out: _Drain, end: int, counts: Dict[CommandType, int]) -> tuple:
        """The open segment of ``out`` up to cycle ``end``, the channel's
        ``cmd_counts`` then ``counts``, traced."""
        before = out.counts
        segment = (out.start, end, counts[_RD] - before[_RD] + counts[_WR] - before[_WR],
                   sum(counts.values()) - sum(before.values()))
        self._trace(*segment)
        return segment

    def _trace(self, start: int, end: int, columns: int, commands: int) -> None:
        """A segment that put a column on the bus, as a ``drain`` span."""
        if columns and self.tracer is not None:
            self.tracer.record_cycles(
                "drain", start, end, category="device", channel=self.channel_id,
                requests=columns, commands=commands,
            )

    def _close_segment(self, out: _Drain) -> None:
        """End the drain's open segment at the controller's cycle: count
        its busy cycles, note it (see :class:`_Drain`) and trace it."""
        self.busy_cycles += self._cycle - out.busy_from
        out.segments.append(self._segment(out, self._cycle, self.channel.cmd_counts))
        out.seam = None

    def _transition(self, run: Request, out: _Drain) -> None:
        """Issue the mode transition ``run`` between two segments of the
        drain (see the module docstring)."""
        self._close_segment(out)
        self._queue.popleft()
        self.precharge_all()
        self._act_pre(run.bg, run.ba, run.row)
        out.open(self._cycle, dict(self.channel.cmd_counts))

    def drain(
        self, program: Sequence[tuple] = (), blocks: Sequence[np.ndarray] = ()
    ) -> ScheduleResult:
        """Simulate until the queue is empty; return the schedule outcome.

        ``program``, a :mod:`repro.pim.stream` program whose WR runs carry
        ``blocks[run.operand]``, means: check the blocks (a
        :class:`CheckedProgram` was checked where it was built; any other
        sequence is checked here), then take the frame
        :mod:`repro.dram.frames` remembers for it, or enqueue every run
        with its fences and drain.  A read run's bytes are ``read_data[i]``
        for its index ``i`` in the program; ``issue_order`` never lists a
        program's runs.  With no program and an empty queue the drain
        returns at once.  Each segment between mode transitions is traced
        as it closes; a drain that raises traces its open segment up to
        its last seam."""
        if not program and not self._queue:
            return ScheduleResult(
                self._cycle, [], {}, dict.fromkeys(_COMMAND_TYPES, 0), 0, 0
            )
        channel = self.channel
        start_counts = dict(channel.cmd_counts)
        out = _Drain()
        out.open(self._cycle, start_counts)
        start_hits, start_misses = self.row_hits, self.row_misses
        queue = self._queue
        in_order = self.policy is not _SHUFFLE
        taken = False
        if program:
            if type(program) is not CheckedProgram:
                program = CheckedProgram(program)
            program.check(blocks, channel.bank_config.col_bytes)
            if queue or not in_order or not self.frames.take(self, program, blocks, out):
                self._queue_runs(program, blocks)
            else:
                taken = True
        if not in_order:
            self._expand_queue(out)
        epoch: Optional[int] = None
        try:
            while queue:
                head = queue[0]
                if not head.count:
                    self._transition(head, out)
                    epoch = None
                    continue
                if head.epoch != epoch:
                    if head.seam:
                        # Crossing a seam: where a drain of each kernel
                        # program of the launch would end and the next begin.
                        self.busy_cycles += self._cycle - out.busy_from
                        out.busy_from = self._cycle
                        out.seam = dict(channel.cmd_counts)
                    elif epoch is not None:
                        # Crossing a fence: the barrier stalls the request stream.
                        self._next_ca += self.fence_penalty
                    epoch = head.epoch
                    if in_order and (len(queue) == 1 or queue[1].epoch != epoch):
                        self._lone_run(head, out)
                        continue
                if self._due(self._cycle):
                    self._do_refresh()
                run, bound = self._pick(epoch)
                if not self._open(run.bg, run.ba, run.row):
                    bound = None  # commands went out since the pick's query
                self._issue_column(run, bound, out)
        except BaseException:
            if out.seam is not None:  # the open segment's kernel programs that ended
                self._segment(out, out.busy_from, out.seam)
            raise
        finally:
            recording, self._recording = self._recording, None
        if taken:  # a frame's segments are the recorded drain's, all closed
            if self.tracer is not None:
                for segment in out.segments:
                    self._trace(*segment)
        else:
            self._close_segment(out)
        if recording is not None:
            self.frames.offer(self, recording, out.segments)
        counts = channel.cmd_counts
        return ScheduleResult(
            cycles=self._cycle,
            issue_order=out.issue_order,
            read_data=out.read_data,
            command_count={ct: counts[ct] - start_counts[ct] for ct in _COMMAND_TYPES},
            row_hits=self.row_hits - start_hits,
            row_misses=self.row_misses - start_misses,
        )

    def _do_refresh(self) -> None:
        """Close every row and issue REF; rows re-open on demand."""
        self.precharge_all()
        self._issue(Command(CommandType.REF))
        self._next_refresh += self.channel.timing.trefi
        self.refresh_count += 1

    def closed_page_access(self, bg: int, ba: int, row: int) -> None:
        """An ACT+PRE pair to ``row``: an uncacheable access with
        closed-page semantics, the PIM mode transition (Section III-B),
        issued on a drained queue."""
        if self._queue:
            raise RuntimeError("drain the request queue before a mode transition")
        self._act_pre(bg, ba, row)

    def _act_pre(self, bg: int, ba: int, row: int) -> None:
        """An ACT to ``row`` of bank (``bg``, ``ba``), then its PRE."""
        self._issue(Command(CommandType.ACT, bg, ba, row=row))
        self._issue(Command(CommandType.PRE, bg, ba))
        self._open_rows[bg * BANKS_PER_GROUP + ba] = None

    def reset_channel(self) -> None:
        """Abandon pending work (:meth:`abandon`) and return the channel to
        a clean state after a fault unwound through :meth:`drain`: the
        device driver's wait past every bank bound, PREA and forced SB mode,
        without moving data or registers, the open-row shadow cleared."""
        self.abandon()
        self._open_rows = [None] * BANKS_PER_PCH
        bound = self._cycle
        for bank in self.channel.banks:
            bound = max(
                bound, bank.next_act, bank.next_pre, bank.next_rd, bank.next_wr
            )
        self._cycle = bound
        self._next_ca = max(self._next_ca, bound + 1)
        self.channel.hard_reset(bound)

    def abandon(self) -> None:
        """Drop every queued request, taking back the fences counted
        behind them: the epoch and the fence count go back to the epoch of
        the oldest queued column request, so what a drain that raised left
        queued — the rest of its program — is as though it had never been
        queued.  (A mode transition's request carries no epoch of its
        own.)"""
        taken = self._epoch - min(
            (request.epoch for request in self._queue if request.count), default=self._epoch
        )
        self._queue.clear()
        self._epoch -= taken
        self.fence_count -= taken

    def precharge_all(self) -> None:
        """Issue PREA (used before SB<->AB mode transitions)."""
        self._issue(Command(CommandType.PREA))
        self._open_rows = [None] * BANKS_PER_PCH
