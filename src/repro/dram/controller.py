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

The unit of queued work is the **column burst**: ``count`` consecutive
columns of one (bank, row, direction) as one :class:`Request` — what a PIM
kernel emits for every fenced 8-command AAM group.  A burst is shorthand
for its single requests and is scheduled exactly as they would be; the
controller just does not search for a schedule it can write down.  Alone
in its fence epoch under an in-order policy, its commands are
equally-ready row hits of one class — FR-FCFS and FCFS both take them in
arrival order, ``tCCD_L`` apart — so ``drain`` issues it as one
:class:`Command` with no reorder window and no pick.  A burst that shares
its epoch, meets ``shuffle``, or has a refresh fall due inside it is
expanded in place into single requests and takes the ordinary path.
Nothing is remembered from one burst to the next, so there is nothing to
invalidate.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from .commands import Command, CommandType
from .pseudochannel import BANKS_PER_GROUP, BANKS_PER_PCH, PseudoChannel

__all__ = ["MemOp", "Request", "SchedulerPolicy", "ScheduleResult", "MemoryController"]


class MemOp(enum.Enum):
    """Transaction direction: read or write."""
    READ = "RD"
    WRITE = "WR"


class SchedulerPolicy(enum.Enum):
    """Command scheduling policy (see the module docstring)."""
    FRFCFS = "frfcfs"
    FCFS = "fcfs"
    SHUFFLE = "shuffle"


@dataclass(eq=False)
class Request:
    """One 32-byte read or write transaction to a decoded DRAM address.

    Requests compare by identity: two transactions to the same address are
    still two transactions (and ``data`` is an array, which has no scalar
    truth value to compare with).

    ``count > 1`` makes it a *column burst*: ``count`` transactions to
    columns ``col .. col + count - 1`` of the row, in that order, ``data``
    a ``(count, 32)`` block — shorthand for the requests :meth:`expand`
    returns (which share its tag and epoch), and scheduled exactly as they
    would be.
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

    def expand(self) -> List["Request"]:
        """The single-command requests this burst stands for."""
        if self.count == 1:
            return [self]
        data = self.data
        return [
            Request(
                self.op, self.bg, self.ba, self.row, self.col + index,
                data=None if data is None else data[index],
                tag=self.tag, epoch=self.epoch,
            )
            for index in range(self.count)
        ]

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
    # The reorder window holds one entry ``(cls, row, request)`` per request,
    # ``cls = 2 * flat_bank + is_write``.  A column command's earliest issue
    # cycle depends only on ``cls`` — never on row, column or data — so a
    # pick asks the channel once per class, not once per candidate.
    #
    # A column burst (``Request.count > 1``) is scheduled as the single
    # requests it stands for.  Where that schedule can be written down —
    # the burst is alone in its fence epoch and the policy keeps arrival
    # order — ``_drain_burst`` issues it without a window or a pick;
    # anywhere else it is expanded into those requests as it enters the
    # window.  Either way the bus sees the same commands at the same cycles.

    def _fill_window(self, window: List[Tuple[int, int, Request]], epoch: int) -> None:
        """Bring ``window`` up to ``queue[:self.window]`` of ``epoch``."""
        queue = self._queue
        position = len(window)
        while position < self.window and position < len(queue):
            request = queue[position]
            if request.epoch != epoch:
                break
            if request.count > 1:
                # Shares the epoch (or the policy shuffles): expanded in
                # place, its commands compete like any other request.
                queue.rotate(-position)
                queue.popleft()
                queue.extendleft(reversed(request.expand()))
                queue.rotate(position)
                request = queue[position]
            bank = request.bg * BANKS_PER_GROUP + request.ba
            window.append(
                (2 * bank + (request.op is MemOp.WRITE), request.row, request)
            )
            position += 1

    def _pick(self, window: List[Tuple[int, int, Request]]) -> Tuple[int, Optional[int]]:
        """Window index of the next request, and its column command's
        earliest cycle when that was worked out and is still current."""
        if self.policy is SchedulerPolicy.FCFS:
            return 0, None
        if self.policy is SchedulerPolicy.SHUFFLE:
            return self._rng.randrange(len(window)), None
        # FR-FCFS: among row hits, the first *ready* one (earliest legal
        # column issue — this is what lets hits to other bank groups slip in
        # at tCCD_S); with no hits, the oldest request.  Ties go to the
        # older request, so only the first hit of each class can win.
        open_rows = self._open_rows
        earliest_col = self.channel.earliest_col
        seen = set()
        misses = []
        best, bound = 0, None
        for index, entry in enumerate(window):
            cls, row, request = entry
            if open_rows[cls >> 1] != row:
                misses.append(entry)
            elif cls not in seen:
                seen.add(cls)
                cycle = earliest_col(request.bg, request.ba, cls & 1)
                if bound is None or cycle < bound:
                    best, bound = index, cycle
        if misses:
            cls, _, request = window[best]
            if bound is None:
                bound = earliest_col(request.bg, request.ba, cls & 1)
            # Slack before the picked column: use it on the misses' rows.
            if bound > self._next_ca and self._opportunistic_activate(
                window, misses, cls >> 1, bound
            ):
                bound = None  # commands went out since the query
        return best, bound

    def _opportunistic_activate(
        self,
        window: List[Tuple[int, int, Request]],
        misses: List[Tuple[int, int, Request]],
        picked_bank: int,
        col_cycle: int,
    ) -> bool:
        """Open other requests' rows while the picked column waits.

        Real FR-FCFS controllers interleave ACTs to idle banks with the
        column stream; without this, a multi-bank stream degenerates to one
        bank at a time.  ``misses`` are the windowed requests whose row is
        not open, ``col_cycle`` the cycle the picked column goes out;
        returns whether any command was issued.
        """
        channel = self.channel
        open_rows = self._open_rows
        touched = {picked_bank}
        for cls, row, other in misses:
            bank = cls >> 1
            if bank in touched:
                continue
            shadow = open_rows[bank]
            if shadow is not None:
                # Conflict: close the stale row early, unless a windowed
                # request still wants it.
                if any(c >> 1 == bank and r == shadow for c, r, _ in window):
                    continue
                cycle = max(self._next_ca, channel.earliest_pre(other.bg, other.ba))
                if cycle >= col_cycle:
                    continue
                channel.issue(Command(CommandType.PRE, other.bg, other.ba), cycle)
                open_rows[bank] = None
            else:
                cycle = max(self._next_ca, channel.earliest_act(other.bg, other.ba))
                if cycle >= col_cycle:
                    continue
                channel.issue(
                    Command(CommandType.ACT, other.bg, other.ba, row=row), cycle
                )
                open_rows[bank] = row
                self.row_misses += 1
            self._next_ca = cycle + 1
            touched.add(bank)
        return len(touched) > 1

    def _issue(self, cmd: Command, bound: Optional[int] = None) -> Optional[np.ndarray]:
        """Issue ``cmd`` at its earliest cycle (``bound``, when the caller
        holds a current answer to ``channel.earliest_issue(cmd)``)."""
        if bound is None:
            bound = self.channel.earliest_issue(cmd)
        cycle = max(self._next_ca, bound)
        data = self.channel.issue(cmd, cycle)
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

    def _drain_burst(
        self,
        burst: Request,
        issue_order: List[Tuple[int, Request]],
        read_data: Dict[Any, np.ndarray],
    ) -> None:
        """Issue the column burst at the queue head, alone in its epoch.

        Its commands are equally-ready requests of one (bank, row,
        direction) class, so FR-FCFS and FCFS both take them in arrival
        order: the first pays the refresh check and any PRE/ACT, every
        later one is a row hit ``tCCD_L`` after its predecessor (the bank
        bounds do not move on a column command, and ``tCCD_L`` covers the
        CA slot).  The whole run therefore goes to the channel as one
        command at the first one's cycle.  Only a refresh can fall between
        two of them: when the run's second-to-last command would issue at
        or past ``_next_refresh``, just the first command is issued here
        and the rest re-enter the queue as single requests.

        When the channel raises part way, the controller is left as the
        per-command loop leaves it: clocks at the last command that
        completed, hits tallied up to the one that raised, and the burst —
        still queued — shrunk to the commands from that one on.
        """
        queue = self._queue
        if self.refresh and self._cycle >= self._next_refresh:
            self._do_refresh()
        bg, ba = burst.bg, burst.ba
        is_write = burst.op is MemOp.WRITE
        self._open(bg, ba, burst.row)
        channel = self.channel
        first = max(self._next_ca, channel.earliest_col(bg, ba, is_write))
        step = channel.timing.tccd_l
        count = burst.count
        if self.refresh and first + (count - 2) * step >= self._next_refresh:
            queue.popleft()
            queue.extendleft(reversed(burst.expand()))
            burst, count = queue[0], 1
        kind = CommandType.WR if is_write else CommandType.RD
        cmd = Command(
            kind, bg, ba, row=burst.row, col=burst.col, data=burst.data,
            tag=burst.tag, count=count,
        )
        taken = channel.cmd_counts[kind]
        try:
            data = channel.issue(cmd, first)
        except BaseException:
            # The channel counts a command before its data path can raise:
            # all but the last one it counted ran to completion.
            done = channel.cmd_counts[kind] - taken - 1
            if done > 0:
                self._cycle = first + (done - 1) * step
                self._next_ca = self._cycle + 1
                self.row_hits += done
                burst.col += done
                burst.count -= done
                if burst.data is not None:
                    burst.data = burst.data[done:]
            raise
        self._cycle = last = first + (count - 1) * step
        self._next_ca = last + 1
        self.row_hits += count - 1
        if not is_write and burst.tag is not None and data is not None:
            read_data[burst.tag] = data
        issue_order.extend([(cycle, burst) for cycle in range(first, last + 1, step)])
        queue.popleft()

    def drain(self) -> ScheduleResult:
        """Simulate until the queue is empty; return the schedule outcome."""
        issue_order: List[Tuple[int, Request]] = []
        read_data: Dict[Any, np.ndarray] = {}
        start_counts = dict(self.channel.cmd_counts)
        start_hits, start_misses = self.row_hits, self.row_misses
        entry_cycle = self._cycle
        queue = self._queue
        in_order = self.policy is not SchedulerPolicy.SHUFFLE
        # Entries for queue[:len(window)]: the oldest epoch's requests, up
        # to the reorder window, kept current as requests leave and enter.
        window: List[Tuple[int, int, Request]] = []
        epoch: Optional[int] = None
        while queue:
            if not window:
                head = queue[0]
                if epoch is not None and head.epoch != epoch:
                    # Crossing a fence: the barrier stalls the request stream.
                    self._next_ca += self.fence_penalty
                epoch = head.epoch
                if (
                    head.count > 1
                    and in_order
                    and (len(queue) == 1 or queue[1].epoch != epoch)
                ):
                    self._drain_burst(head, issue_order, read_data)
                    continue
                self._fill_window(window, epoch)
            if self.refresh and self._cycle >= self._next_refresh:
                self._do_refresh()
            index, bound = self._pick(window)
            cls, row, request = window[index]
            if not self._open(request.bg, request.ba, row):
                bound = None  # commands went out since the pick's query
            is_write = cls & 1
            data = self._issue(
                Command(
                    CommandType.WR if is_write else CommandType.RD,
                    request.bg,
                    request.ba,
                    row=row,
                    col=request.col,
                    data=request.data,
                    tag=request.tag,
                ),
                bound,
            )
            if not is_write and request.tag is not None and data is not None:
                read_data[request.tag] = data
            issue_order.append((self._cycle, request))
            del queue[index]
            del window[index]
            self._fill_window(window, epoch)
        self.busy_cycles += self._cycle - entry_cycle
        counts = {
            ct: self.channel.cmd_counts[ct] - start_counts.get(ct, 0)
            for ct in CommandType
        }
        if self.tracer is not None and issue_order:
            self.tracer.record_cycles(
                "drain",
                entry_cycle,
                self._cycle,
                category="device",
                channel=self.channel_id,
                requests=len(issue_order),
                commands=sum(counts.values()),
            )
        return ScheduleResult(
            cycles=self._cycle,
            issue_order=issue_order,
            read_data=read_data,
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
