"""The per-candidate FR-FCFS scheduler, kept as a differential oracle.

This is the controller as it stood before scheduling became incremental
(``repro.dram.controller``): every pick rebuilds the epoch window from the
queue, builds a probe :class:`Command` per candidate and asks the channel
for its bound, and refresh and reset loop the 16 banks.  It is slow and
obviously right — the class body is the old one verbatim — which is the
point: ``test_controller_differential.py`` requires the production
controller to agree with it cycle for cycle.  It shares the production
``Request``/``ScheduleResult`` types so the two sides' outputs compare
directly; nothing under ``src/`` imports it.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.dram.bank import TimingViolation
from repro.dram.commands import Command, CommandType
from repro.dram.controller import MemOp, Request, ScheduleResult, SchedulerPolicy
from repro.dram.pseudochannel import PseudoChannel


class ReferenceController:
    """Per-candidate FR-FCFS controller for one pseudo-channel.

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
        # Controller-side shadow of open rows (an unmodified controller does
        # not peek into the device).
        self._open_rows: Dict[Tuple[int, int], Optional[int]] = {}
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

    def read(self, bg: int, ba: int, row: int, col: int, tag: Any = None) -> None:
        """Queue a 32-byte read; the result is keyed by ``tag`` in drain()."""
        self.enqueue(Request(MemOp.READ, bg, ba, row, col, tag=tag))

    def write(self, bg: int, ba: int, row: int, col: int, data: np.ndarray, tag: Any = None) -> None:
        """Queue a 32-byte write."""
        self.enqueue(Request(MemOp.WRITE, bg, ba, row, col, data=data, tag=tag))

    def fence(self) -> None:
        """Commands after a fence never issue before commands preceding it."""
        self._epoch += 1
        self.fence_count += 1

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def current_cycle(self) -> int:
        return self._cycle

    # -- shadow row state -------------------------------------------------------

    def _shadow_row(self, bg: int, ba: int) -> Optional[int]:
        return self._open_rows.get((bg, ba))

    # -- scheduling ---------------------------------------------------------------

    def _window_requests(self) -> List[Request]:
        """Oldest-epoch requests, limited to the reorder window."""
        if not self._queue:
            return []
        active_epoch = self._queue[0].epoch
        window: List[Request] = []
        for request in self._queue:
            if request.epoch != active_epoch:
                break
            window.append(request)
            if len(window) >= self.window:
                break
        return window

    def _pick(self, window: List[Request]) -> Request:
        if self.policy is SchedulerPolicy.FCFS:
            return window[0]
        if self.policy is SchedulerPolicy.SHUFFLE:
            return self._rng.choice(window)
        # FR-FCFS: among row hits, the first *ready* one (earliest legal
        # column issue — this is what lets hits to other bank groups slip in
        # at tCCD_S); with no hits, the oldest request.
        best: Optional[Request] = None
        best_cycle = 0
        for request in window:
            if self._shadow_row(request.bg, request.ba) != request.row:
                continue
            cmd_type = CommandType.RD if request.op is MemOp.READ else CommandType.WR
            probe = Command(
                cmd_type, request.bg, request.ba, row=request.row, col=request.col,
                data=request.data,
            )
            cycle = self.channel.earliest_issue(probe)
            if best is None or cycle < best_cycle:
                best = request
                best_cycle = cycle
        if best is not None:
            return best
        return window[0]

    def _opportunistic_activate(self, window: List[Request], picked: Request) -> None:
        """Open another request's row while the picked column waits.

        Real FR-FCFS controllers interleave ACTs to idle banks with the
        column stream; without this, a multi-bank stream degenerates to one
        bank at a time.
        """
        cmd_type = CommandType.RD if picked.op is MemOp.READ else CommandType.WR
        probe = Command(
            cmd_type, picked.bg, picked.ba, row=picked.row, col=picked.col,
            data=picked.data,
        )
        col_cycle = max(self._next_ca, self.channel.earliest_issue(probe))
        if col_cycle <= self._next_ca:
            return  # no slack: the column goes out right now
        touched = set()
        for other in window:
            if other is picked:
                continue
            key = (other.bg, other.ba)
            if key in touched or key == (picked.bg, picked.ba):
                continue
            shadow = self._shadow_row(*key)
            if shadow == other.row:
                continue  # already open on the right row
            if shadow is not None:
                # Conflict: close the stale row early, unless a windowed
                # request still wants it.
                if any(
                    r.bg == other.bg and r.ba == other.ba and r.row == shadow
                    for r in window
                ):
                    continue
                pre = Command(CommandType.PRE, other.bg, other.ba)
                pre_cycle = max(self._next_ca, self.channel.earliest_issue(pre))
                if pre_cycle >= col_cycle:
                    continue
                self.channel.issue(pre, pre_cycle)
                self._next_ca = pre_cycle + 1
                self._open_rows[key] = None
                touched.add(key)
                continue
            act = Command(CommandType.ACT, other.bg, other.ba, row=other.row)
            act_cycle = max(self._next_ca, self.channel.earliest_issue(act))
            if act_cycle >= col_cycle:
                continue
            self.channel.issue(act, act_cycle)
            self._next_ca = act_cycle + 1
            self._open_rows[key] = other.row
            self.row_misses += 1
            touched.add(key)

    def _issue(self, cmd: Command) -> Optional[np.ndarray]:
        cycle = max(self._next_ca, self.channel.earliest_issue(cmd))
        data = self.channel.issue(cmd, cycle)
        self._next_ca = cycle + 1
        self._cycle = cycle
        return data

    def drain(self) -> ScheduleResult:
        """Simulate until the queue is empty; return the schedule outcome."""
        issue_order: List[Tuple[int, Request]] = []
        read_data: Dict[Any, np.ndarray] = {}
        start_counts = dict(self.channel.cmd_counts)
        start_hits, start_misses = self.row_hits, self.row_misses
        entry_cycle = self._cycle
        active_epoch: Optional[int] = None
        while self._queue:
            head_epoch = self._queue[0].epoch
            if active_epoch is not None and head_epoch != active_epoch:
                # Crossing a fence: the barrier stalls the request stream.
                self._next_ca += self.fence_penalty
            active_epoch = head_epoch
            if self.refresh and self._cycle >= self._next_refresh:
                self._do_refresh()
            window = self._window_requests()
            request = self._pick(window)
            if self.policy is SchedulerPolicy.FRFCFS:
                self._opportunistic_activate(window, request)
            open_row = self._shadow_row(request.bg, request.ba)
            if open_row is not None and open_row != request.row:
                # Row conflict: only close a row no windowed request still
                # wants (FR-FCFS open-page policy).  The picked request
                # needs it closed regardless.
                self._issue(Command(CommandType.PRE, request.bg, request.ba))
                self._open_rows[(request.bg, request.ba)] = None
                open_row = None
            if open_row is None:
                self._issue(
                    Command(CommandType.ACT, request.bg, request.ba, row=request.row)
                )
                self._open_rows[(request.bg, request.ba)] = request.row
                self.row_misses += 1
            else:
                self.row_hits += 1
            cmd_type = (
                CommandType.RD if request.op is MemOp.READ else CommandType.WR
            )
            cmd = Command(
                cmd_type,
                request.bg,
                request.ba,
                row=request.row,
                col=request.col,
                data=request.data,
                tag=request.tag,
            )
            data = self._issue(cmd)
            if request.op is MemOp.READ and request.tag is not None and data is not None:
                read_data[request.tag] = data
            issue_order.append((self._cycle, request))
            self._queue.remove(request)
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
        bound = max(bank.earliest_pre() for bank in self.channel.banks)
        self._next_ca = max(self._next_ca, bound)
        self._issue(Command(CommandType.PREA))
        self._issue(Command(CommandType.REF))
        for key in list(self._open_rows):
            self._open_rows[key] = None
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
        self._open_rows[(bg, ba)] = None

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
        self._open_rows.clear()
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
        try:
            self._issue(Command(CommandType.PREA))
        except TimingViolation:
            # Wait for the latest per-bank bound, then retry.
            bound = max(bank.earliest_pre() for bank in self.channel.banks)
            self._next_ca = max(self._next_ca, bound)
            self._issue(Command(CommandType.PREA))
        for key in list(self._open_rows):
            self._open_rows[key] = None
