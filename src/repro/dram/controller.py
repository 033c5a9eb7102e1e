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
* **The lone-run rule.**  A run alone in its fence epoch at the queue
  head, under an in-order policy, is equally-ready row hits of one class —
  FR-FCFS and FCFS both take them in arrival order, ``tCCD_L`` apart — so
  ``drain`` issues it as one :class:`Command` with no window and no pick
  (``_lone_run``).  When a refresh falls due inside it, the first command
  goes out there and the rest take the pick path, one refresh check per
  command.  A PIM kernel's program (``drain(program, blocks)``) is queued
  like any other requests, so each of its fenced runs is one.
* **Seams.**  A GEMV launch hands a channel one program: its kernel
  programs joined (:func:`repro.pim.stream.launch`), the first run of each
  after the first marked ``seam``.  A kernel program ends with a fence, so
  the epoch boundary before a seamed run is a *seam*, and ``drain``
  crosses it as it crosses from one drain to the next: no
  ``fence_penalty``, and the busy cycles of the programs before it are
  counted there (``drain`` counts the rest when it returns), so one that
  raises further on has counted what a drain per program would have.
  The seam rides on the queued :class:`Request`, so the queue path,
  ``SHUFFLE``'s expansion and a remembered frame all see it, and a
  launch's cycles are those of one drain per kernel program under every
  policy, fence penalty and refresh.
* **Transitions and register loads are program runs.**  A launch runs
  from SB mode back to SB mode (:func:`repro.pim.stream.sb_to_sb`): its
  mode transitions — PREA, then an ACT and a PRE to the ABMR or the SBMR
  row — and its CRF / SRF loads — fenced write runs to register rows —
  are runs of its program like the kernel's.  A transition is a request
  of no columns in an epoch of its own, and ``drain`` crosses the
  boundary on either side of it as the boundary between two drains: the
  segment before it closes (its busy cycles counted, its ``drain`` span
  traced), the commands go out with no refresh check, no fence, no
  ``fence_penalty`` and no row hit or miss, and the next segment starts
  after them, paying no penalty at its first epoch.
* ``shuffle`` draws among single commands, so ``drain`` expands the queue
  on entry — the one place ``Request.expand`` is called.

A tagged read run answers with the ``(count, 32)`` block of its columns, in
column order, whichever way it went: a lone run's burst returns it whole,
and on the pick path each column lands in its row as it issues.

One thing is remembered from one ``drain`` to the next: what the
controller did with a program drained under an in-order policy on an
empty queue — a kernel's fenced program (its lone runs; a launch's every
tile program, joined at seams, between its transitions and after its
register loads) or a program that is one fence epoch of several read runs
(the GEMV readback's picks).  What it did is a function of the program,
of the bytes it writes to its *keyed* rows (a PIM plan's CRF row: they
decide the program every window runs on) and of the timing state — the channel's
(:meth:`PseudoChannel.timing_state`) and the controller's clocks and
open-row shadow — counted from the controller's cycle, and that is its
key, so refresh, ``reset_channel`` and mode changes move the key and
there is nothing to invalidate.  So is the channel's end state, and that
is what is kept: a :class:`~repro.dram.pseudochannel.Frame` — the
touched banks' state and bounds, the column and ACT history, the tFAW
window, the channel maxima, the ``cmd_counts`` delta, each read run's
(bank, row, columns) and, on a PIM channel, the mode FSM and what an
all-bank program did there — with the controller's hits, misses, clocks,
fences, busy cycles and shadow as the drain left it (its fence penalties
included), and the drain's segments between transitions.  The next drain
from an equal key hands the channel the frame (``apply_frame``) with its
own operand blocks: one step, each read run's bytes one block, each
kernel program's data events — its register loads' among them —
replayed against this drain's bytes.  The channel declines a frame —
nothing changed, the drain takes the queue path — where any of it could
raise: a failed bank, an injection entry on a row the commands reach, a
bank class of its own, an exec group that interprets.  Faults are not in
the key; the command path meets them command by command, where they
raise.  Nor is a refresh due inside the program: a frame is taken only
when the refresh falls due after the latest cycle any of the recorded
drain's refresh checks compared (its ``horizon``).  A
:class:`CheckedProgram` is checked and hashed once, where a plan builds
it, so a drain that takes a frame checks only its blocks' shapes.
"""

from __future__ import annotations

import enum
import random
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .commands import Command, CommandType
from .pseudochannel import BANKS_PER_GROUP, BANKS_PER_PCH, Frame, PseudoChannel

__all__ = [
    "CheckedProgram", "MemOp", "Request", "SchedulerPolicy", "ScheduleResult",
    "MemoryController",
]

_RD, _WR = CommandType.RD, CommandType.WR
# Iterating the enum class runs a generator per call; a tuple does not.
_COMMAND_TYPES = tuple(CommandType)

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
    are never listed in ``ScheduleResult.issue_order``.  ``seam``: the run
    begins a kernel program of a launch, so the fence crossed into its
    epoch is a seam (see the module docstring).
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

    __slots__ = ("issue_order", "read_data", "blocks", "segments", "start", "busy_from", "counts")

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

    def open(self, cycle: int, counts: Dict[CommandType, int]) -> None:
        """Start a segment at ``cycle``, the channel's ``cmd_counts`` then
        ``counts``: busy time runs from there (moved on at a seam)."""
        self.start = self.busy_from = cycle
        self.counts = counts

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


class CheckedProgram(tuple):
    """A program's runs — ``(write, row, col, count, fence, operand,
    barrier, bank, seam, transition)`` each, a
    :class:`repro.pim.stream.Run` — checked and hashed once, where it is
    built: a plan caches it, so every drain of it reuses both.  A run is
    at least one column, except a mode transition, a read of none; a block
    feeds bursts of one length.  ``keyed_rows``: the rows whose written
    bytes decide more than what they store — a PIM channel's CRF row, the
    program every window runs on — so a remembered schedule's key holds
    them; the builder names them, the controller knows no PIM row.
    ``bursts``: each write operand's burst length past one, whose block a
    drain must hand as ``(count, col_bytes)``; ``keyed``: the operands
    written to a keyed row; ``framed``: whether a frame can stand for it —
    fenced (its runs lone runs), one run, or no write (no frame stands for
    an epoch's writes)."""

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


class _Schedule:
    """What the controller did with one program from one timing state,
    counted from ``base`` — the controller's ``(row hits, row misses,
    cycle, fences, busy cycles)`` as the drain found it — kept while
    recording.

    ``steps`` holds each bus command of ``program`` as ``(kind, bg, ba,
    row, col, offset, count, mode, source)``: ``mode`` the channel's at the
    command, ``source`` where a write's bytes sit — ``(keyed, operand,
    first row)`` in the drain's blocks, ``keyed`` whether the key holds
    them; ``reads`` the program index of each read run, in the order their
    first columns went out (as ``read_data`` files them); ``entry`` is
    :meth:`PseudoChannel.frame_entry` as the drain found it, ``horizon``
    the latest cycle a refresh check compared.  Once remembered, ``frame``
    is what the commands did to the channel
    (:meth:`PseudoChannel.record_frame`), ``end`` the controller as the
    drain left it (see :meth:`MemoryController._mark`) and ``segments``
    the drain's segments between mode transitions (see :class:`_Drain`),
    cycles counted from the base's.
    """

    __slots__ = (
        "base", "program", "steps", "reads", "entry", "frame", "end", "horizon", "segments",
    )

    def __init__(
        self, base: Tuple[int, int, int, int, int], program: CheckedProgram, entry: Any,
    ) -> None:
        self.base = base
        self.program = program
        self.steps: List[tuple] = []
        self.reads: Dict[int, None] = {}
        self.entry = entry
        self.frame: Optional[Frame] = None
        self.end: Optional[tuple] = None
        self.horizon = 0
        self.segments: Tuple[Tuple[int, int, int, int], ...] = ()

    def note(self, cmd: Command, cycle: int, index: Optional[int], mode: Any) -> None:
        """Take down ``cmd``, about to go out at ``cycle`` in ``mode`` —
        a column of program run ``index``, or (None) an ACT, a PRE or a
        PREA."""
        source = None
        if index is not None:
            run = self.program[index]
            if run[0]:
                operand = run[5]
                source = (operand in self.program.keyed, operand, cmd.col - run[2])
            else:
                self.reads[index] = None
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
        """Queue a transaction in the current fence epoch (a run is checked
        first: :meth:`_check_run`)."""
        self._check_run(request.op is MemOp.WRITE, request.count, request.data)
        request.epoch = self._epoch
        self._queue.append(request)

    def read(
        self, bg: int, ba: int, row: int, col: int, tag: Any = None, count: int = 1
    ) -> None:
        """Queue a 32-byte read; the result is keyed by ``tag`` in drain().

        ``count > 1`` queues a column burst: reads of ``count`` consecutive
        columns from ``col`` as one queue entry.
        """
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
    # Where the schedule can be written down — the lone-run rule of the
    # module docstring — ``_lone_run`` issues the queue head without a
    # window or a pick.  Where it cannot — several runs of a program in
    # one epoch, the readback — the pick path works it out.  Either way a
    # program is issued command by command once per timing state and
    # keyed bytes: ``_put`` takes every command down, the channel records
    # what they did as a frame, and the next drain of that program from an
    # equal state with equal keyed bytes (``_schedule_key``) is that frame
    # (``_apply_frame``).
    # Only ``SHUFFLE``, whose seeded draws are among single commands,
    # expands runs (at ``drain`` entry).

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
        """Issue ``head``, the queue head and alone in its fence epoch (the
        lone-run rule of the module docstring); returns whether it went to
        the channel whole.  The first command pays the refresh check and
        any PRE/ACT, the rest are row hits ``tCCD_L`` apart (a column
        command moves no bank bound) — one command.  A refresh due before
        its second-to-last command, or a raise part way, leaves the run at
        the queue head: a refresh issues its first command, the rest take
        the pick path; a raise leaves clocks, hits and the run from that
        command on as the per-command loop does."""
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

    # -- remembered schedules -------------------------------------------------------

    def _schedule_key(self, program: CheckedProgram, blocks: Sequence[np.ndarray]) -> tuple:
        """What the schedule of ``program`` depends on, cycles counted from
        the controller's: the program, the bytes of its keyed runs'
        blocks, the channel's timing state, the CA bus and the open-row
        shadow.  (The policy and the window are the controller's own for
        life.)"""
        origin = self._cycle
        return (
            program,
            tuple(blocks[operand].tobytes() for operand in program.keyed),
            self._next_ca - origin,
            tuple(self._open_rows),
            self.channel.timing_state(origin),
        )

    def _base(self) -> Tuple[int, int, int, int, int]:
        """The controller's row hits, row misses, cycle, fences and busy
        cycles."""
        return self.row_hits, self.row_misses, self._cycle, self.fence_count, self.busy_cycles

    def _mark(self, base: Tuple[int, int, int, int, int]) -> tuple:
        """The controller's row hits, row misses, cycle, next CA cycle,
        fences and busy cycles counted from ``base`` (see :meth:`_base`),
        and its open-row shadow."""
        hits, misses, origin, fences, busy = base
        return (
            self.row_hits - hits, self.row_misses - misses,
            self._cycle - origin, self._next_ca - origin, self.fence_count - fences,
            self.busy_cycles - busy, tuple(self._open_rows),
        )

    def _set_mark(self, mark: tuple, base: Tuple[int, int, int, int, int]) -> None:
        """Put the controller where ``mark``, counted from ``base``, says."""
        hits, misses, origin, _, _ = base
        row_hits, row_misses, cycle, next_ca, fences, busy, open_rows = mark
        self.row_hits, self.row_misses = hits + row_hits, misses + row_misses
        self._cycle, self._next_ca = origin + cycle, origin + next_ca
        self._epoch += fences
        self.fence_count += fences
        self.busy_cycles += busy
        self._open_rows = list(open_rows)

    def _remember(self, key: tuple, schedule: _Schedule, out: _Drain) -> None:
        """Keep what the drain just did — its segments ``out`` holds — as
        the schedule under ``key``, when the channel can take it down as a
        frame."""
        base, program = schedule.base, schedule.program
        frame = self.channel.record_frame(
            schedule.steps, base[2],
            [(run[7], run[1], run[2], run[3]) for run in (program[i] for i in schedule.reads)],
            schedule.entry,
        )
        if frame is None:
            return
        schedule.frame, schedule.end = frame, self._mark(base)
        origin = base[2]
        schedule.segments = tuple(
            (start - origin, end - origin, columns, commands)
            for start, end, columns, commands in out.segments
        )
        schedule.program, schedule.steps, schedule.entry = (), [], None
        self._schedules[key] = schedule
        if len(self._schedules) > _SCHEDULES:
            self._schedules.popitem(last=False)

    def _apply_frame(
        self, schedule: _Schedule, out: _Drain, blocks: Sequence[np.ndarray] = ()
    ) -> bool:
        """Issue the program ``schedule`` was recorded from as its frame,
        from the controller's cycle, with this drain's ``blocks``: the
        channel's end state in one step, each read run's bytes as one
        block under its index, the drain's segments as recorded, the
        controller where the recorded drain left it.  False, with nothing
        changed, when the channel declines the frame."""
        base = self._base()
        origin = self._cycle
        got = self.channel.apply_frame(schedule.frame, origin, blocks)
        if got is None:
            return False
        read_data = out.read_data
        for index, block in zip(schedule.reads, got):
            read_data[index] = block if len(block) > 1 else block[0]
        out.segments = [
            (origin + start, origin + end, columns, commands)
            for start, end, columns, commands in schedule.segments
        ]
        self._set_mark(schedule.end, base)
        return True

    def _close_segment(self, out: _Drain) -> None:
        """End the drain's open segment at the controller's cycle: count
        its busy cycles and note it (see :class:`_Drain`)."""
        end = self._cycle
        self.busy_cycles += end - out.busy_from
        counts, before = self.channel.cmd_counts, out.counts
        columns = counts[_RD] - before[_RD] + counts[_WR] - before[_WR]
        commands = sum(counts.values()) - sum(before.values())
        out.segments.append((out.start, end, columns, commands))

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

        ``program``, a :mod:`repro.pim.stream` program each of whose runs
        names its bank and whose WR runs carry ``blocks[run.operand]``,
        means: check the blocks (a :class:`CheckedProgram` was checked and
        hashed where it was built; any other sequence is checked here),
        enqueue every run with its fences, drain.  A read run's bytes,
        when any reach the I/O, are ``read_data[i]`` for its index ``i``
        in the program.  ``issue_order`` never lists a program's runs,
        whichever way they went.  Under an in-order policy a fenced
        program (its runs lone runs), or one epoch of several runs none of
        which is a write (the pick path), on an empty queue drains off the
        queue the first time from a timing state; every later time from
        that key it is the frame remembered then (:meth:`_apply_frame`),
        unless a refresh falls due inside it or the channel declines the
        frame.  With no program and an empty queue there is nothing to
        move: the drain returns the full path's result at once.  A seam
        and either side of a mode transition (see the module docstring)
        are crossed as the boundary between two drains."""
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
        key, refreshes = None, self.refresh_count
        framed = False
        if program:
            if type(program) is not CheckedProgram:
                program = CheckedProgram(program)
            program.check(blocks, channel.bank_config.col_bytes)
            if queue or not in_order or not program.framed:
                self._queue_runs(program, blocks)
            else:
                key = self._schedule_key(program, blocks)
                schedule = self._schedules.get(key)
                if schedule is not None and (
                    not self.refresh or self._cycle + schedule.horizon < self._next_refresh
                ) and self._apply_frame(schedule, out, blocks):
                    self._schedules.move_to_end(key)
                    key, framed = None, True
                else:
                    self._recording = _Schedule(self._base(), program, channel.frame_entry())
                    self._queue_runs(program, blocks)
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
        finally:
            recording, self._recording = self._recording, None
        if not framed:  # a frame's segments are the recorded drain's, all closed
            self._close_segment(out)
        if key is not None and self.refresh_count == refreshes:
            self._remember(key, recording, out)
        counts = channel.cmd_counts
        if self.tracer is not None:
            for start, end, columns, commands in out.segments:
                if columns:  # a segment that put a column on the bus
                    self.tracer.record_cycles(
                        "drain", start, end, category="device", channel=self.channel_id,
                        requests=columns, commands=commands,
                    )
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
        """An ACT+PRE pair to ``row``, as produced by an uncacheable access
        with closed-page semantics.

        This is the PIM mode-transition sequence (Section III-B): the driver
        maps ABMR/SBMR into an uncacheable region, so a single load/store
        reaches DRAM as exactly this command pair.  The queue must be
        drained first — transitions are ordered by a fence in the kernel.
        """
        if self._queue:
            raise RuntimeError("drain the request queue before a mode transition")
        self._act_pre(bg, ba, row)

    def _act_pre(self, bg: int, ba: int, row: int) -> None:
        """An ACT to ``row`` of bank (``bg``, ``ba``), then its PRE."""
        self._issue(Command(CommandType.ACT, bg, ba, row=row))
        self._issue(Command(CommandType.PRE, bg, ba))
        self._open_rows[bg * BANKS_PER_GROUP + ba] = None

    def reset_channel(self) -> List[Request]:
        """Abandon pending work and return the channel to a clean state;
        returns the queued requests it abandoned.

        The self-healing serving layer calls this after a mid-kernel fault
        unwound through :meth:`drain`, which leaves unissued requests
        queued and may leave the channel stranded in AB(-PIM) mode with
        open rows.  The recovery models the driver's sequence — wait out
        the worst-case bank bound, PREA, force SB mode — without moving
        data: queued requests are dropped with their fences
        (:meth:`abandon`; their kernel is being retried from scratch), the
        open-row shadow is cleared, and the CA clock advances past every
        per-bank bound so the next command is legal.
        """
        abandoned = self.abandon()
        self._open_rows = [None] * BANKS_PER_PCH
        bound = self._cycle
        for bank in self.channel.banks:
            bound = max(
                bound, bank.next_act, bank.next_pre, bank.next_rd, bank.next_wr
            )
        self._cycle = bound
        self._next_ca = max(self._next_ca, bound + 1)
        self.channel.hard_reset(bound)
        return abandoned

    def abandon(self) -> List[Request]:
        """Drop every queued request and return them, taking back the
        fences counted behind them: the epoch and the fence count go back
        to the epoch of the oldest queued column request, so what a drain
        that raised left queued — the rest of its program — is as though
        it had never been queued.  (A mode transition's request carries
        no epoch of its own.)"""
        abandoned = list(self._queue)
        self._queue.clear()
        taken = self._epoch - min(
            (request.epoch for request in abandoned if request.count), default=self._epoch
        )
        self._epoch -= taken
        self.fence_count -= taken
        return abandoned

    def precharge_all(self) -> None:
        """Issue PREA (used before SB<->AB mode transitions)."""
        self._issue(Command(CommandType.PREA))
        self._open_rows = [None] * BANKS_PER_PCH
