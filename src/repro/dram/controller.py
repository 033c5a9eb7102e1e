"""A JEDEC-compliant per-pseudo-channel memory controller.

The controller is the component the paper insists must stay *unmodified*: it
receives read/write transactions, reorders them for row-buffer locality
(FR-FCFS [Rixner et al., ISCA 2000]), and emits standard DRAM commands.  It
has no knowledge of PIM; the only host-visible ordering control is the fence
(barrier) the programming model in Section V-B uses, modelled as epochs that
commands never cross.

Three scheduling policies are provided:

* ``frfcfs`` — first-ready, first-come-first-served: row hits first, then
  oldest.  This is the realistic baseline whose reordering Fig. 5 worries
  about and address-aligned mode (AAM) tolerates.
* ``fcfs`` — strict arrival order.  Models the paper's "processor guarantees
  the order of DRAM commands in PIM mode" study (Section VII-B, no fences).
* ``shuffle`` — adversarial random order within an epoch window, used by
  tests to show non-AAM microkernels break while AAM ones do not.

The unit of queued *and scheduled* work is the **run**: ``count``
consecutive columns of one (bank, row, direction) as one :class:`Request` —
what a PIM kernel emits for every fenced 8-command AAM group, and what the
GEMV readback asks of each bank.  A single request is a run of one.  A run
is shorthand for its single requests and is scheduled exactly as they would
be:

* The **reorder window** is the head of the queue: the oldest fence epoch's
  runs, while a budget of ``window`` *bus commands* lasts (a run only
  partly inside the budget is still in it — its class and row are those of
  its in-window commands).  Nothing is expanded and nothing is maintained
  between picks: each pick walks those few entries, asks the channel one
  first-ready question for the row-hit classes among them, issues the
  chosen run's next column, and shrinks the run.  An in-order policy takes
  a run's commands oldest first, so what is left of it is always a run.
* Alone in its fence epoch under an in-order policy, a run's commands are
  equally-ready row hits of one class — FR-FCFS and FCFS both take them in
  arrival order, ``tCCD_L`` apart — so ``drain`` issues it as one
  :class:`Command` with no window and no pick (``_lone_run``); when a
  refresh falls due inside it, the first command goes out there and the
  rest take the pick path, one refresh check per command.  Each fenced run
  of a PIM kernel's program (``drain(program, blocks)``) is one, not queued.
* ``shuffle`` draws among single commands, so ``drain`` expands the queue
  on entry — the one place ``Request.expand`` is called.

A tagged read run answers with the ``(count, 32)`` block of its columns, in
column order, whichever way it went.  In an epoch that holds no write the
read of its first column carries the read-ahead of :class:`Command`, so a
clean run's bytes cross the channel boundary once.

One thing is remembered from one ``drain`` to the next: what the
controller did with a program drained under an in-order policy on an
empty queue — a kernel's fenced program (its lone runs) or a program that
is one fence epoch of several read runs (the GEMV readback's picks) — or
a fenced program behind a queue of writes the channel can replay as its
*prefix* (on a PIM channel the CRF / SRF loads ``PimSession`` queues
ahead of a kernel: untagged register-row writes, no read, no bank row),
which the queue path drains first.  What it did is a function of the
program, of the prefix's shape (its runs, their epochs counted from the
current one, and what the channel's ``prefix_key`` holds of their bytes
— the CRF's, which decide the program every window runs on) and of the
timing state — the channel's (:meth:`PseudoChannel.timing_state`) and
the controller's clocks and open-row shadow — counted from the
controller's cycle, and that is its key, so refresh, ``reset_channel``
and mode changes move the key and there is nothing to invalidate.  So is
the channel's end state, and that is what is kept: a
:class:`~repro.dram.pseudochannel.Frame` — the touched banks' state and
bounds, the column and ACT history, the tFAW window, the channel maxima,
the ``cmd_counts`` delta, each read run's (bank, row, columns) and, on a
PIM channel, the mode FSM and what an all-bank program did there — with
the controller's hits, misses, clocks, fences and shadow as the drain
left it (its fence penalties, the one at the load-to-program crossing
included), and the cycles the prefix's requests were listed at in
``issue_order``.  The next drain from an equal key hands the channel the
frame (``apply_frame``) with its own operand blocks and queued data: one
step, each read run's bytes one block, each kernel program's data events
— its prefix's writes first — replayed against this drain's bytes; the
queue is emptied and each queued request listed at its recorded cycles.
The channel declines a frame — nothing changed, the drain takes the lone
runs, the picks or the queue path — where any of it could raise: a
failed bank, an injection entry on a row the commands reach, a bank
class of its own, an exec group that interprets.  Faults are not in the
key; the command path meets them command by command, where they raise.
Nor is a refresh due inside the program: a frame is taken only when the
refresh falls due after the latest cycle any of the recorded drain's
refresh checks compared (its ``horizon``).
"""

from __future__ import annotations

import enum
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from .commands import Command, CommandType
from .pseudochannel import BANKS_PER_GROUP, BANKS_PER_PCH, Frame, PseudoChannel

__all__ = ["MemOp", "Request", "SchedulerPolicy", "ScheduleResult", "MemoryController"]

_RD, _WR = CommandType.RD, CommandType.WR

# Schedules a controller remembers, least recently used out first: a
# workload's kernel programs and readbacks meet a few dozen timing states,
# wave after wave.
_SCHEDULES = 64


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
    """One 32-byte read or write transaction to a decoded DRAM address.

    Requests compare by identity: two transactions to the same address are
    still two transactions (and ``data`` is an array, which has no scalar
    truth value to compare with).

    ``count > 1`` makes it a *run* (a column burst): ``count`` transactions
    to columns ``col .. col + count - 1`` of the row, in that order,
    ``data`` a ``(count, 32)`` block — shorthand for the requests
    :meth:`expand` returns (which share its tag and epoch), and scheduled
    exactly as they would be.  The controller issues a run from its first
    column on, and :meth:`shrink` keeps it to the columns still to go.

    ``index`` is the run's position in the program ``drain`` was handed
    (None: queued by :meth:`MemoryController.enqueue`); a program's runs
    are never listed in ``ScheduleResult.issue_order``.
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
    # Scheduling class, ``2 * flat_bank + is_write``: a column command's
    # earliest issue cycle depends on nothing else of the request.
    cls: int = field(init=False)

    def __post_init__(self) -> None:
        bank = self.bg * BANKS_PER_GROUP + self.ba
        self.cls = 2 * bank + (self.op is MemOp.WRITE)

    def expand(self) -> List["Request"]:
        """The single-command requests this run stands for."""
        if self.count == 1:
            return [self]
        data = self.data
        return [
            Request(
                self.op, self.bg, self.ba, self.row, self.col + column,
                data=None if data is None else data[column],
                tag=self.tag, epoch=self.epoch, index=self.index,
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

    __slots__ = ("issue_order", "read_data", "blocks", "fetched", "_checked", "_no_write")

    def __init__(self) -> None:
        self.issue_order: List[Tuple[int, Request]] = []
        self.read_data: Dict[Any, np.ndarray] = {}
        # Tagged read runs under way: the block each one's columns land in
        # (with the column of its first row), or that it was read ahead.
        self.blocks: Dict[Any, Tuple[np.ndarray, int]] = {}
        self.fetched: Set[Any] = set()
        self._checked: Optional[int] = None
        self._no_write = False

    def no_write(self, queue: Deque[Request], epoch: int) -> bool:
        """Whether ``epoch``, at the queue head, held no write when first
        asked — looked up once per epoch (writes only ever leave)."""
        if self._checked != epoch:
            self._checked = epoch
            self._no_write = True
            for request in queue:
                if request.epoch != epoch:
                    break
                if request.cls & 1:
                    self._no_write = False
                    break
        return self._no_write

    def land(self, run: Any, tag: Any, col: int, count: int, data: np.ndarray) -> None:
        """File what the RD of column ``col`` of ``run`` (``count`` columns
        from it still to read) returned under ``tag``: the whole block when
        it was read ahead, else the column — a single's result as it is, a
        run's into its row of the run's block."""
        if data.ndim == 2:
            self.read_data[tag] = data
            self.fetched.add(run)
            return
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


class _Schedule:
    """What the controller did with one program from one timing state,
    counted from ``base`` — the controller's ``(row hits, row misses,
    cycle, fences)`` as the drain found it — kept while recording.

    ``steps`` holds each bus command of ``program`` as ``(kind, bg, ba,
    row, col, offset, count, mode, source)``: ``mode`` the channel's at the
    command, ``source`` where a write's bytes sit: ``(False, operand,
    first row)`` in the drain's blocks, or ``(True, j, first row)`` in the
    data of ``queued[j]``, the ``j``-th of the requests queued ahead of
    the program (its prefix, see :meth:`MemoryController._prefix`);
    ``reads`` the program index of each read run, in the order their first
    columns went out (as ``read_data`` files them); ``entry`` is
    :meth:`PseudoChannel.frame_entry` as the drain found it, ``horizon``
    the latest cycle a refresh check compared.  Once remembered, ``frame``
    is what the commands did to the channel
    (:meth:`PseudoChannel.record_frame`), ``end`` the controller as the
    drain left it (see :meth:`MemoryController._mark`) and ``listed`` the
    prefix's ``issue_order`` entries as ``(offset, j)``.
    """

    __slots__ = (
        "base", "program", "steps", "reads", "entry", "frame", "end", "horizon",
        "queued", "columns", "listed",
    )

    def __init__(
        self, base: Tuple[int, int, int, int], program: Sequence[tuple], entry: Any,
        queued: Sequence[Request] = (),
    ) -> None:
        self.base = base
        self.program = program
        self.steps: List[tuple] = []
        self.reads: Dict[int, None] = {}
        self.entry = entry
        self.frame: Optional[Frame] = None
        self.end: Optional[tuple] = None
        self.horizon = 0
        self.queued = list(queued)
        # Each queued column by (class, row, column): ``(j, first row)``;
        # None when two queued writes share one (its source is ambiguous).
        self.columns: Optional[Dict[tuple, Tuple[int, int]]] = {
            (request.cls, request.row, request.col + first): (j, first)
            for j, request in enumerate(self.queued) for first in range(request.count)
        }
        if len(self.columns) < sum(request.count for request in self.queued):
            self.columns = None
        self.listed: Tuple[Tuple[int, int], ...] = ()

    def note(self, cmd: Command, cycle: int, index: Optional[int], mode: Any) -> None:
        """Take down ``cmd``, about to go out at ``cycle`` in ``mode`` —
        a column of program run ``index``, of a queued write (None), or an
        ACT or a PRE (None)."""
        source = None
        if index is not None:
            write, _, col, _, _, operand, _, _ = self.program[index]
            if write:
                source = (False, operand, cmd.col - col)
            else:
                self.reads[index] = None
        elif cmd.cmd is _WR and self.columns is not None:
            source = (True, *self.columns[(2 * cmd.bank_index + 1, cmd.row, cmd.col)])
        self.steps.append((
            cmd.cmd, cmd.bg, cmd.ba, cmd.row, cmd.col, cycle - self.base[2], cmd.count,
            mode, source,
        ))


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
    ):
        if window < 1:
            raise ValueError(f"the reorder window holds at least one command, not {window}")
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
        # summed over drains.  A serving lane's occupancy is this against
        # the session makespan; the gap is time the channel sat idle
        # waiting for requests (what pipelining across channel sets is
        # meant to eliminate).
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
        # Programs' schedules by program and timing state (see
        # ``_apply_frame``), and the one a drain is taking down, if any.
        self._schedules: "OrderedDict[tuple, _Schedule]" = OrderedDict()
        self._recording: Optional[_Schedule] = None
        # Observability hook (repro.obs): when a Tracer is attached each
        # non-empty drain records a "drain" span on this channel's
        # timeline.  None (the default) costs one attribute test.
        self.tracer = None
        self.channel_id = 0

    # -- queueing -------------------------------------------------------------

    def enqueue(self, request: Request) -> None:
        """Queue a transaction in the current fence epoch."""
        request.epoch = self._epoch
        self._queue.append(request)

    def read(
        self, bg: int, ba: int, row: int, col: int, tag: Any = None, count: int = 1
    ) -> None:
        """Queue a 32-byte read; the result is keyed by ``tag`` in drain().

        ``count > 1`` queues a column burst: reads of ``count`` consecutive
        columns from ``col`` as one queue entry.
        """
        self._check_run(False, count, None)
        self.enqueue(Request(MemOp.READ, bg, ba, row, col, tag=tag, count=count))

    def write(
        self, bg: int, ba: int, row: int, col: int, data: np.ndarray,
        tag: Any = None, count: int = 1,
    ) -> None:
        """Queue a 32-byte write — or, with ``count > 1``, a column burst of
        ``count`` writes from ``col``, ``data`` their ``(count, 32)`` block."""
        self._check_run(True, count, data)
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
    # The reorder window is not a data structure: ``_window`` lists the
    # queue head — the oldest epoch's runs while a budget of ``self.window``
    # bus commands lasts — once per pick.  A run's commands share one class
    # (``Request.cls``) and one row, and an in-order policy takes them
    # oldest first, so the commands eligible at a pick are "the first run
    # of each class" and the run that issued a column is again a run: no
    # expansion, no splice, and the bus sees the single requests' commands
    # at the single requests' cycles.  A column command's earliest issue
    # cycle depends only on its class — never on row, column or data — so
    # the first-ready choice among the row hits is one channel query
    # (``first_ready``), and every other timing question goes through the
    # channel too: the controller never looks into a bank.
    #
    # Where the schedule can be written down — the run is alone in its
    # fence epoch and the policy keeps arrival order — ``_lone_run`` issues
    # it without a window or a pick, off the queue or straight from a
    # program.  Where it cannot — several runs of a program in one epoch,
    # the readback, the register writes queued ahead of a kernel — the
    # pick path works it out.  Either way a program is issued command by
    # command once per timing state and prefix: ``_put`` takes every
    # command down, the channel records what they did as a frame, and the
    # next drain of that program from an equal state behind an equal
    # prefix (``_schedule_key``) is that frame (``_apply_frame``).  Only
    # ``SHUFFLE``, whose seeded draws are among single commands, expands
    # runs (at ``drain`` entry).

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
        """Open other requests' rows while the picked column waits.

        Real FR-FCFS controllers interleave ACTs to idle banks with the
        column stream; without this, a multi-bank stream degenerates to one
        bank at a time.  ``misses`` are the runs of ``window`` whose row is
        not open, ``col_cycle`` the cycle the picked column goes out;
        returns whether any command was issued.
        """
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
        the channel, where a schedule being recorded takes it down (with
        ``index``, the program run of a column)."""
        recording = self._recording
        if recording is not None:
            recording.note(cmd, cycle, index, self.channel.mode)
        return self.channel.issue(cmd, cycle)

    def _due(self, cycle: int) -> bool:
        """The refresh check: whether a refresh is due by ``cycle``.  A
        schedule being recorded takes the cycle down as its horizon."""
        recording = self._recording
        if recording is not None:
            recording.horizon = max(recording.horizon, cycle - recording.base[2])
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
        off the queue (``bound`` as for :meth:`_issue`).

        A tagged read run fills one ``(count, 32)`` block.  The RD of the
        first column it issues in this drain asks the device for the rest
        of the run as well, when no write still queued in the epoch could
        slip in between: answered with the block, the run's later RDs go
        out ``fetched`` — a command each, no bytes; answered with the one
        column, every column reads for itself at its own cycle.  When the
        channel raises, the run is still queued from that column on.
        """
        bg, ba, row, col, tag = run.bg, run.ba, run.row, run.col, run.tag
        if run.cls & 1:
            data = run.data
            if data is not None and data.ndim == 2:
                data = data[0]
            cmd = Command(_WR, bg, ba, row=row, col=col, data=data, tag=tag)
        elif tag is not None and run in out.fetched:
            cmd = Command(_RD, bg, ba, row=row, col=col, tag=tag, fetched=True)
        else:
            ahead = 0
            if (
                tag is not None
                and run.count > 1
                and run not in out.blocks
                and out.no_write(self._queue, run.epoch)
            ):
                ahead = run.count - 1
            cmd = Command(_RD, bg, ba, row=row, col=col, tag=tag, ahead=ahead)
        data = self._issue(cmd, bound, run.index)
        # None: a write, a fetched read, an AB-PIM trigger (no I/O).
        if data is not None and tag is not None:
            out.land(run, tag, col, run.count, data)
        if run.index is None:
            out.issue_order.append((self._cycle, run))
        if run.count == 1:
            self._queue.remove(run)
        else:
            run.shrink()

    def _lone_run(
        self, is_write: bool, bg: int, ba: int, row: int, col: int, count: int,
        data: Optional[np.ndarray], tag: Any, out: _Drain,
        enqueue: Optional[Callable[[], None]] = None, index: Optional[int] = None,
    ) -> bool:
        """Issue a run alone in its fence epoch — the queue head, or not
        queued (``enqueue()`` queues it and what follows it); returns
        whether it went to the channel whole.  FR-FCFS and FCFS both take
        its equally-ready commands in arrival order: the first pays the
        refresh check and any PRE/ACT, the rest are row hits ``tCCD_L``
        apart (a column command moves no bank bound) — one command.  A
        refresh due before its second-to-last command, or a raise part way,
        leaves the run at the queue head: a refresh issues its first
        command off the queue, the rest take the pick path; a raise leaves
        clocks, hits and the run from that command on as the per-command
        loop does.  ``index``: the program run it is, if any."""
        if self._due(self._cycle):
            self._do_refresh()
        self._open(bg, ba, row)
        channel = self.channel
        bound = channel.earliest_col(bg, ba, is_write)
        first = max(self._next_ca, bound)
        step = channel.timing.tccd_l
        if count > 1 and self._due(first + (count - 2) * step):
            if enqueue is not None:
                enqueue()
            self._issue_column(self._queue[0], bound, out)
            return False
        kind = CommandType.WR if is_write else CommandType.RD
        if count == 1 and data is not None and data.ndim == 2:
            data = data[0]  # what is left of a write burst
        cmd = Command(kind, bg, ba, row=row, col=col, data=data, tag=tag, count=count)
        taken = channel.cmd_counts[kind]
        try:
            answer = self._put(cmd, first, index)
        except BaseException:
            # The channel counts a command before its data path can raise:
            # all but the last one it counted ran to completion.
            done = channel.cmd_counts[kind] - taken - 1
            if enqueue is not None:
                enqueue()
            if done > 0:
                self._cycle = first + (done - 1) * step
                self._next_ca = self._cycle + 1
                self.row_hits += done
                self._queue[0].shrink(done)
            raise
        self._cycle = last = first + (count - 1) * step
        self._next_ca = last + 1
        self.row_hits += count - 1
        if tag is not None and answer is not None:
            out.read_data[tag] = answer
        if enqueue is None:  # the queue head: dequeue it, list its commands
            head = self._queue.popleft()
            if head.index is None:
                out.issue_order.extend((cycle, head) for cycle in range(first, last + 1, step))
        return True

    def _queue_runs(
        self, program: Sequence[tuple], blocks: Sequence[np.ndarray], start: int = 0
    ) -> None:
        """Queue the runs of ``program`` (checked) from ``start`` one request
        each, fenced as they say, with its index in it (a read tagged with
        it too)."""
        for i in range(start, len(program)):
            write, row, col, count, fence, operand, barrier, bank = program[i]
            if barrier:
                self.fence()
            bg, ba = divmod(bank, BANKS_PER_GROUP)
            op = MemOp.WRITE if write else MemOp.READ
            data, tag = (blocks[operand], None) if write else (None, i)
            self.enqueue(Request(op, bg, ba, row, col, data, tag, count=count, index=i))
            if fence:
                self.fence()

    def _program_pass(
        self, program: Sequence[tuple], blocks: Sequence[np.ndarray], out: _Drain
    ) -> Optional[int]:
        """One :meth:`_lone_run` per run of ``program``; returns the epoch of
        the last command (None: none went out).  From a run that shares its
        epoch with the next or does not go out whole, the rest of the
        program is queued and the drain carries on from the queue."""
        epoch = None
        for i, (write, row, col, count, fence, operand, barrier, bank) in enumerate(program):
            if not fence:
                self._queue_runs(program, blocks, i)
                break
            if epoch is not None:
                self._next_ca += self.fence_penalty  # crossing a fence
            epoch = self._epoch + barrier  # the run's epoch, had it been queued
            if not self._lone_run(
                write, bank // BANKS_PER_GROUP, bank % BANKS_PER_GROUP, row, col, count,
                blocks[operand] if write else None, None if write else i,
                out, lambda: self._queue_runs(program, blocks, i), i,
            ):
                break
            if barrier:
                self.fence()
            self.fence()
        return epoch

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

    # -- remembered schedules -------------------------------------------------------

    def _prefix(self) -> Optional[tuple]:
        """The queue as the prefix of a program drained behind it, or None
        when it cannot be one: every queued request an untagged write that
        is no program's run, and the channel able to replay them
        (:meth:`~repro.dram.pseudochannel.PseudoChannel.prefix_key` — on a
        PIM channel, register-row writes only).  The key part: each
        request's class, row, column, count and epoch counted from the
        current one, and what the channel's key holds of their bytes."""
        epoch = self._epoch
        shape = []
        for request in self._queue:
            if not request.cls & 1 or request.tag is not None or request.index is not None:
                return None
            shape.append((
                request.cls, request.row, request.col, request.count, request.epoch - epoch,
            ))
        held = self.channel.prefix_key(
            [(request.row, request.col, request.data) for request in self._queue]
        )
        return None if held is None else (tuple(shape), held)

    def _schedule_key(self, program: Sequence[tuple], prefix: tuple = ()) -> tuple:
        """What the schedule of ``program`` behind the queued ``prefix``
        (see :meth:`_prefix`) depends on, cycles counted from the
        controller's: the program, the prefix, the channel's timing state,
        the CA bus and the open-row shadow.  (The policy and the window are
        the controller's own for life.)"""
        origin = self._cycle
        return (
            tuple(program),
            prefix,
            self._next_ca - origin,
            tuple(self._open_rows),
            self.channel.timing_state(origin),
        )

    def _base(self) -> Tuple[int, int, int, int]:
        """The controller's row hits, row misses, cycle and fences."""
        return self.row_hits, self.row_misses, self._cycle, self.fence_count

    def _mark(self, base: Tuple[int, int, int, int]) -> tuple:
        """The controller's row hits, row misses, cycle, next CA cycle and
        fences counted from ``base`` (see :meth:`_base`), and its open-row
        shadow."""
        hits, misses, origin, fences = base
        return (
            self.row_hits - hits, self.row_misses - misses,
            self._cycle - origin, self._next_ca - origin, self.fence_count - fences,
            tuple(self._open_rows),
        )

    def _set_mark(self, mark: tuple, base: Tuple[int, int, int, int]) -> None:
        """Put the controller where ``mark``, counted from ``base``, says."""
        hits, misses, origin, _ = base
        row_hits, row_misses, cycle, next_ca, fences, open_rows = mark
        self.row_hits, self.row_misses = hits + row_hits, misses + row_misses
        self._cycle, self._next_ca = origin + cycle, origin + next_ca
        self._epoch += fences
        self.fence_count += fences
        self._open_rows = list(open_rows)

    def _remember(
        self, key: tuple, schedule: _Schedule, issue_order: List[Tuple[int, Request]]
    ) -> None:
        """Keep what the drain just did — its prefix's commands listed in
        ``issue_order`` — as the schedule under ``key``, when the channel
        can take it down as a frame."""
        base, program, queued = schedule.base, schedule.program, schedule.queued
        if schedule.columns is None:
            return
        frame = self.channel.record_frame(
            schedule.steps, base[2],
            [(bank, row, col, count)
             for _, row, col, count, _, _, _, bank in (program[i] for i in schedule.reads)],
            schedule.entry,
        )
        if frame is None:
            return
        schedule.frame, schedule.end = frame, self._mark(base)
        schedule.listed = tuple(
            (cycle - base[2], queued.index(request)) for cycle, request in issue_order
        )
        schedule.program, schedule.steps, schedule.entry = (), [], None
        schedule.queued, schedule.columns = [], {}
        self._schedules[key] = schedule
        if len(self._schedules) > _SCHEDULES:
            self._schedules.popitem(last=False)

    def _apply_frame(
        self, schedule: _Schedule, out: _Drain, blocks: Sequence[np.ndarray] = ()
    ) -> bool:
        """Issue the program ``schedule`` was recorded from, behind the
        queued prefix it was recorded behind, as its frame, from the
        controller's cycle, with this drain's ``blocks`` and queued data:
        the channel's end state in one step, each read run's bytes as one
        block under its index, the queue empty and each queued request
        listed at its recorded cycles, the controller where the recorded
        drain left it.  False, with nothing changed, when the channel
        declines the frame."""
        base = self._base()
        queue = self._queue
        got = self.channel.apply_frame(
            schedule.frame, self._cycle, blocks, [request.data for request in queue]
        )
        if got is None:
            return False
        read_data = out.read_data
        for index, block in zip(schedule.reads, got):
            read_data[index] = block if len(block) > 1 else block[0]
        if queue:
            queued, origin = list(queue), self._cycle
            queue.clear()
            out.issue_order.extend(
                (origin + offset, queued[j]) for offset, j in schedule.listed
            )
        self._set_mark(schedule.end, base)
        return True

    def drain(
        self, program: Sequence[tuple] = (), blocks: Sequence[np.ndarray] = ()
    ) -> ScheduleResult:
        """Simulate until the queue is empty; return the schedule outcome.

        ``program``, a :mod:`repro.pim.stream` program each of whose runs
        names its bank and whose WR runs carry ``blocks[run.operand]``,
        means: check it, enqueue every run with its fences, drain.  A read
        run's bytes, when any reach the I/O, are ``read_data[i]`` for its
        index ``i`` in the program.  ``issue_order`` never lists a
        program's runs, whichever way they went.  On an empty queue under
        an in-order policy they are issued unqueued the first time from a
        timing state — a fenced run as a lone run (:meth:`_program_pass`),
        an epoch of several runs, when none is a write, through the pick
        path — and a fenced program behind a queued prefix
        (:meth:`_prefix`) drains off the queue after it; every later time
        from that key it is the frame remembered then
        (:meth:`_apply_frame`), unless a refresh falls due inside it or the
        channel declines the frame."""
        out = _Drain()
        channel = self.channel
        start_counts = dict(channel.cmd_counts)
        start_hits, start_misses = self.row_hits, self.row_misses
        entry_cycle = self._cycle
        queue = self._queue
        in_order = self.policy is not _SHUFFLE
        epoch: Optional[int] = None
        key, refreshes, passing = None, self.refresh_count, False
        if program:
            fenced = False
            for write, _, _, count, fence, operand, barrier, _ in program:
                self._check_run(write, count, blocks[operand] if write else None)
                fenced = fenced or fence or barrier
            lone = fenced or len(program) == 1
            prefix = () if not queue else self._prefix() if lone and in_order else None
            if prefix is None or not in_order or not lone and any(run[0] for run in program):
                self._queue_runs(program, blocks)  # no frame stands for an epoch's writes
            else:
                key = self._schedule_key(program, prefix)
                schedule = self._schedules.get(key)
                if schedule is not None and (
                    not self.refresh or self._cycle + schedule.horizon < self._next_refresh
                ) and self._apply_frame(schedule, out, blocks):
                    self._schedules.move_to_end(key)
                    key = None
                else:
                    self._recording = _Schedule(
                        self._base(), program, channel.frame_entry(), queue
                    )
                    passing = lone and not queue
                    if not passing:
                        self._queue_runs(program, blocks)
        if not in_order:
            self._expand_queue(out)
        try:
            if passing:
                epoch = self._program_pass(program, blocks, out)
            while queue:
                head = queue[0]
                if head.epoch != epoch:
                    if epoch is not None:
                        # Crossing a fence: the barrier stalls the request stream.
                        self._next_ca += self.fence_penalty
                    epoch = head.epoch
                    if in_order and (len(queue) == 1 or queue[1].epoch != epoch):
                        self._lone_run(
                            head.cls & 1, head.bg, head.ba, head.row, head.col, head.count,
                            head.data, head.tag, out, index=head.index,
                        )
                        continue
                if self._due(self._cycle):
                    self._do_refresh()
                run, bound = self._pick(epoch)
                if not self._open(run.bg, run.ba, run.row):
                    bound = None  # commands went out since the pick's query
                self._issue_column(run, bound, out)
        finally:
            recording, self._recording = self._recording, None
        if key is not None and self.refresh_count == refreshes:
            self._remember(key, recording, out.issue_order)
        self.busy_cycles += self._cycle - entry_cycle
        counts = {
            ct: channel.cmd_counts[ct] - start_counts.get(ct, 0) for ct in CommandType
        }
        columns = counts[CommandType.RD] + counts[CommandType.WR]
        if self.tracer is not None and columns:
            self.tracer.record_cycles(
                "drain",
                entry_cycle,
                self._cycle,
                category="device",
                channel=self.channel_id,
                requests=columns,
                commands=sum(counts.values()),
            )
        return ScheduleResult(
            cycles=self._cycle,
            issue_order=out.issue_order,
            read_data=out.read_data,
            command_count=counts,
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
        """An ACT+PRE pair to ``row``, as produced by an uncacheable access
        with closed-page semantics.

        This is the PIM mode-transition sequence (Section III-B): the driver
        maps ABMR/SBMR into an uncacheable region, so a single load/store
        reaches DRAM as exactly this command pair.  The queue must be
        drained first — transitions are ordered by a fence in the kernel.
        """
        if self._queue:
            raise RuntimeError("drain the request queue before a mode transition")
        self._issue(Command(CommandType.ACT, bg, ba, row=row))
        self._issue(Command(CommandType.PRE, bg, ba))
        self._open_rows[bg * BANKS_PER_GROUP + ba] = None

    def reset_channel(self) -> None:
        """Abandon pending work and return the channel to a clean state.

        The self-healing serving layer calls this after a mid-kernel fault
        unwound through :meth:`drain`, which leaves unissued requests
        queued and may leave the channel stranded in AB(-PIM) mode with
        open rows.  The recovery models the driver's sequence — wait out
        the worst-case bank bound, PREA, force SB mode — without moving
        data: queued requests are dropped (their kernel is being retried
        from scratch), the open-row shadow is cleared, and the CA clock
        advances past every per-bank bound so the next command is legal.
        """
        self._queue.clear()
        self._open_rows = [None] * BANKS_PER_PCH
        bound = self._cycle
        for bank in self.channel.banks:
            bound = max(
                bound, bank.next_act, bank.next_pre, bank.next_rd, bank.next_wr
            )
        self._cycle = bound
        self._next_ca = max(self._next_ca, bound + 1)
        self.channel.hard_reset(bound)

    def precharge_all(self) -> None:
        """Issue PREA (used before SB<->AB mode transitions)."""
        self._issue(Command(CommandType.PREA))
        self._open_rows = [None] * BANKS_PER_PCH
