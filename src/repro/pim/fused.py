"""Trace-compiled fused kernel execution (the tier-2 hot path).

The paper's AB-PIM microkernels are *static* programs: once a CRF program
is broadcast, every execution of it against the same column-command
pattern performs exactly the same per-command register/bank dataflow —
only the data (HOST bursts, GRF/SRF/bank contents) differs.  The
execution units interpret one CRF instruction per column command, unit
by unit; :class:`FusedLockstepGroup` removes that interpretation by
*trace compilation*:

1. **Capture** — within one AB-PIM window (``start_all`` .. ``stop_all``)
   column triggers are buffered instead of interpreted.  Nothing outside
   the group can observe the deferral: bank/bus timing still advances
   per command in the device, and the device flushes the tape before any
   register-mapped access, mode transition, or channel reset.
2. **Compile** — at the window boundary the tape is resolved once
   against the (verified-uniform) CRF program: the sequencer is
   simulated, every trigger is bound to its instruction, and the bound
   steps become a small *dataflow program* (:func:`_schedule`).  Every
   register operand is resolved to its producer — the register's value at
   window entry, a HOST burst, or the value an earlier step computed — so
   ``GRF`` / ``SRF`` names are renamed away: reusing a register (WAR, WAW)
   orders nothing, a plain MOV / FILL *is* its source and costs no op,
   and each register's last value is stored once, when the replay ends.
   MAC / MAD split into the hardware's two stages, MULT then ADD, so a
   product waits for its multiplicands only.  Every op gets the level
   ``1 + max(level of its producers)`` and the ops of one level and one
   kind are a single NumPy call over ``k`` consecutive slots of the value
   pool: a GEMV tile of 16 chunks is one multiply over 128 columns and a
   chain of 16 eight-wide adds, found by the levels, not matched by shape.
   **Bank locations are never renamed**: storage outlives the window and
   a read can meet a stored fault, so any two accesses to one (bank space,
   row, column) of which one is a write keep tape order.  The compiled trace —
   fetches, ops, per-unit stat deltas, and the final sequencer state — is
   stored in a content-keyed LRU :class:`TraceCache`.
3. **Replay** — later windows with the same content key skip straight to
   the program.  First the *fetches*: every bank read of a location the
   window has not written, in tape order, consecutive ascending columns of
   one row under one instruction merged into one *block*
   (:func:`~repro.dram.ecc.peek_block`: all units' banks, one SEC-DED pass
   per weight row — each word is still read once, so checks, corrections
   and inline scrubs count exactly as on the interpreted path).  Then the
   levelled ops over one value pool — HOST operands written from the
   *current* tape's write blocks, each block's rows straight into their
   slots, entry registers copied from the stacked register state — with
   bank writes as blocks (``poke_block``) at their level, and last
   the register file stores.  The pool is slot-major, ``(slots, units,
   16)`` FP16: an op's operands and result are contiguous runs of slots,
   and it computes in place (``np.add(a, b, out=pool[out])``), the units'
   own float16 arithmetic without their per-call copies.  A channel frame
   of a kernel program (:mod:`repro.pim.device`) replays its windows
   without a tape: each :class:`Window` recorded the key its flush used,
   the write blocks that feed its HOST operand, its rows and its trigger
   pattern, so :meth:`FusedLockstepGroup.replay_window` looks the key up
   and replays the trace at those rows with the applying drain's blocks;
   a miss rebuilds the tape from the pattern and takes the flush's own
   compile-and-put under that key.  The units' sequencer state, stats and
   ``fused_replays`` are then written once per frame
   (:meth:`FusedLockstepGroup.end_frame`).

**Cache keys are content signatures**, not identities or places: the
uniform sequencer entry state, every CRF word of the program, and the
window's per-trigger ``(is_write, row, col, has_host)`` pattern with
where each host-carrying burst starts (the HOST operand is compiled block
by block) — the last two packed into exact ``bytes`` (no digest), a few KB
per entry.  In the pattern each bank row is renamed to the index of its
first use in the window, and the replay is handed the window's real rows
as a table (``rows``): the compiler uses a row only through equality (bank
locations' order, fetch merging, the runs a load / store stacks), which
the renaming keeps, so one trace serves a kernel shape at any weight rows
on any channel, and the cache grows with the distinct shapes, not with
the operands.  A CRF fault upset therefore *cannot* replay a stale
program — the flipped word changes the key — and nothing is dropped on a
fault: the entries of a corrupted or quarantined channel age out of the
bounded LRU.

Anything irregular runs on the execution units themselves, trigger by
trigger, through the inherited eager loop — so the fused path is
bit-exact with the units by construction wherever it engages, and *is*
the units wherever it does not:

* divergent per-unit sequencer state or CRF contents -> the units;
* a control word at a trigger fetch, a garbage word, an out-of-range
  PPC, an operand/trigger-kind mismatch -> the tape compiles *poisoned*
  (cached, so the check is paid once) and runs on the units, which raise
  what they always raised;
* a hard-failed bank -> the units, raising
  :class:`~repro.errors.PimChannelError` exactly as before.

The one observable difference is exception *ordering* inside a window:
an uncorrectable ECC word is met among the fetches, so it aborts the
whole window before any register or bank write of it lands (inline
corrections of the fetches already made stay), where the units leave
earlier triggers fully executed.  The raise still comes from the same
``flush_pending`` — the same simulated cycle — and a merged block that
turns out dirty is re-read at the width of the reads it merged (8
columns under AAM, else one; all banks, then the next columns), so the
first uncorrectable word met is the one those reads would have met in
tape order.  Both states are post-error garbage the self-healing layer
discards before retrying; the retried request's makespan is the one
simulated number that depends on it
(``tests/faults/test_exec_path_under_faults.py``).
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from itertools import count, groupby
from typing import (
    Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

import numpy as np

from ..common.fp16 import FP16
from ..dram.ecc import peek_block, poke_block
from .exec_unit import ColumnTrigger, PimExecutionUnit, fetch, resolve_control
from .isa import GRF_REGS, Instruction, Opcode, OperandSpace
from .lockstep import LockstepGroup
from .registers import LANES, StackedRegisterState

__all__ = [
    "CompiledTrace", "FusedLockstepGroup", "TraceCache", "TraceCacheStats", "Window",
]

# -- the compiled-trace cache ---------------------------------------------------


@dataclass
class TraceCacheStats:
    """Observability counters of one compiled-trace cache."""

    hits: int = 0
    misses: int = 0
    compiles: int = 0
    poisoned: int = 0
    evictions: int = 0


class TraceCache:
    """A content-keyed, LRU-bounded store of compiled trigger tapes.

    Keys are ``(entry_state, crf_words, pattern)`` — pure content, the
    pattern's rows renamed by first use (see the module docstring), so a
    mutated program or a different command pattern can never hit a stale
    entry, and one trace serves its shape at any rows.  One cache is
    shared by every channel of a system (``PimSystem._trace_cache``);
    nothing is dropped but by the LRU bound.
    """

    def __init__(self, limit: int = 128):
        self.limit = limit
        self._entries: "OrderedDict[tuple, CompiledTrace]" = OrderedDict()
        self.stats = TraceCacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[tuple]:
        """The live cache keys, least recently used first."""
        return list(self._entries)

    def get(self, key: tuple) -> Optional["CompiledTrace"]:
        """The entry under ``key`` (freshened), or None on a miss."""
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: tuple, entry: "CompiledTrace") -> None:
        """Insert ``entry``, evicting least-recently-used past the limit."""
        self._entries[key] = entry
        self.stats.compiles += 1
        if entry.poisoned:
            self.stats.poisoned += 1
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)
            self.stats.evictions += 1


# -- compiled representation -----------------------------------------------------


#: Pool slots ``_REG_BASE[space] + index`` hold the registers' values at
#: window entry, so the rename table starts as the identity.
_REG_BASE = {
    space: i * GRF_REGS
    for i, space in enumerate(
        (OperandSpace.GRF_A, OperandSpace.GRF_B, OperandSpace.SRF_M, OperandSpace.SRF_A)
    )
}
_ENTRY_SLOTS = len(_REG_BASE) * GRF_REGS
#: Op kinds, in the order one level executes them: a level's bank reads
#: come before its bank writes.
_KINDS = ("load", "mul", "add", "relu", "store")

#: Pool slots of one operand: a slice when they are an ascending run.
_Slots = Union[slice, np.ndarray]


@dataclass(frozen=True)
class _Op:
    """One stacked NumPy step of a compiled trace: every micro-op of one
    kind at one dataflow level (``load`` / ``store``: one run of one row).

    ``out`` / ``a`` / ``b`` are slots of the replay's value pool —
    ``(slots, units, 16)`` FP16 — so ``mul`` / ``add`` / ``relu`` read
    ``pool[a]`` (and ``pool[b]``) and write ``pool[out]`` in place; a
    ``store`` writes ``pool[a]`` to the bank.  ``bank`` is ``(space,
    row, cols, col0, width)``: ``row`` is an index into the replayed
    window's row table, ``col0`` is the first column when ``cols``
    are one ascending run (decided here, at compile time, so replay moves
    them as a block) else None, and ``width`` is how many columns a dirty
    block is re-read at a time (see :func:`~repro.dram.ecc.peek_block`).
    """

    kind: str
    level: int
    out: Optional[slice] = None
    a: Optional[_Slots] = None
    b: Optional[_Slots] = None
    bank: Optional[tuple] = None


@dataclass(frozen=True)
class CompiledTrace:
    """One compiled (CRF program x command-stream signature) pair.

    Replay fills a value pool from ``entry_regs`` and ``host``, runs
    ``fetches`` and then ``ops`` in order, and ends with ``puts``.
    """

    poisoned: bool
    #: The window's bank reads of locations it has not written, in tape
    #: order: every read that can meet a stored fault, ahead of any write.
    fetches: Tuple[_Op, ...] = ()
    #: The levelled ops (a ``load`` here re-reads a column the window wrote).
    ops: Tuple[_Op, ...] = ()
    #: Register halves whose window-entry values are read.
    entry_regs: Tuple[OperandSpace, ...] = ()
    #: The HOST bursts that are read, per write block, as ``(block, slots,
    #: rows)``: block ``block`` of the tape's host-carrying entries indexed
    #: by ``rows`` — its rows as ``(k, 1, 32)`` bytes, or None for a single
    #: command's ``(32,)`` block — goes to pool ``slots``, every unit.
    host: Tuple[Tuple[int, _Slots, Optional[tuple]], ...] = ()
    #: ``(space, registers, slots)``: each written GRF half's last values.
    puts: Tuple[Tuple[OperandSpace, np.ndarray, _Slots], ...] = ()
    slots: int = _ENTRY_SLOTS
    #: Uniform per-unit deltas: (triggers, instructions, flops,
    #: bank_reads, bank_writes, ignored_after_exit).
    stat_deltas: Tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)
    #: Final (ppc, exited, nop_remaining, jump-slot items).
    end_state: tuple = (0, True, 0, ())
    #: Bank operand spaces touched (re-checked for failures per replay).
    bank_spaces: Tuple[OperandSpace, ...] = ()


class Window(NamedTuple):
    """One AB-PIM window of an all-bank program's channel frame: ``key``,
    the trace key its flush used when the frame was recorded (None: the
    frame ends with the window open, its triggers left on the tape);
    ``hosts``, the indices of the write blocks that feed its HOST operand,
    in order; ``rows``, its bank rows in first-use order, the row table
    its trace replays at (a frame keeps them as its own row table names
    them, and puts them back with :meth:`at`); ``pattern``, its trigger
    runs as ``(is_write, row, col, count, write block index or None)``,
    ``row`` an index into ``rows``."""

    key: Optional[tuple]
    hosts: Tuple[int, ...]
    rows: Tuple[int, ...]
    pattern: Tuple[Tuple[bool, int, int, int, Optional[int]], ...]

    @classmethod
    def of(cls, key: Optional[tuple], runs: Sequence[tuple]) -> "Window":
        """The window of trigger ``runs`` under ``key``: its rows in
        first-use order are the row table :func:`_pack_signature` derives
        from its tape."""
        hosts = tuple(write for _, _, _, _, write in runs if write is not None)
        table: Dict[int, int] = {}
        pattern = tuple(
            (is_write, table.setdefault(row, len(table)), col, count, write)
            for is_write, row, col, count, write in runs
        )
        return cls(key, hosts, tuple(table), pattern)

    def at(self, place: Callable[[int], int]) -> "Window":
        """The window with each of its rows put where ``place`` puts it."""
        return Window(self.key, self.hosts, tuple(map(place, self.rows)), self.pattern)

    def tape(self, blocks: Sequence[np.ndarray]) -> List[ColumnTrigger]:
        """The window's tape with the write ``blocks`` of a drain."""
        rows = self.rows
        return [
            ColumnTrigger(
                is_write, rows[row], col, None if write is None else blocks[write], count
            )
            for is_write, row, col, count, write in self.pattern
        ]


@dataclass
class _Step:
    """One trigger bound to its instruction during compilation."""

    host: Optional[Tuple[int, Optional[int]]]  # where its HOST burst sits (see _commands)
    word: int
    is_write: bool
    row: int
    col: int
    instr: Instruction
    reads: List[tuple]  # per-operand ("bank", space) / ("host",) / ("grf"/"srf", space, idx)
    dst: tuple
    flops: int
    bank_reads: int
    bank_writes: int
    bank_spaces: frozenset


_FLOPS = {
    Opcode.MOV: 0,
    Opcode.FILL: 0,
    Opcode.MUL: LANES,
    Opcode.ADD: LANES,
    Opcode.MAC: 2 * LANES,
    Opcode.MAD: 2 * LANES,
}


class FusedLockstepGroup(LockstepGroup):
    """A lock-step group that trace-compiles AB-PIM windows.

    Drop-in for :class:`~repro.pim.lockstep.LockstepGroup`:
    ``trigger_all`` buffers, the window boundaries
    (``start_all``/``stop_all``/``flush_pending``) compile-or-replay the
    buffered tape, and every irregular case runs on the execution units
    through the inherited eager loop.  A group of one unit, or of units
    computing a non-FP16 lane format (the bit-accurate softfloat), never
    defers.
    """

    def __init__(
        self,
        units: Sequence[PimExecutionUnit],
        cache: Optional[TraceCache] = None,
    ):
        super().__init__(units)
        self.defers = len(self.units) > 1 and all(
            u.lane_format is FP16 for u in self.units
        )
        # The replay reads and writes every unit's GRF/SRF at once, so the
        # units' register halves become row views of one stacked array.
        self.stacked = StackedRegisterState(len(self.units))
        for i, unit in enumerate(self.units):
            self.stacked.adopt(i, unit.regs)
        self.cache = cache if cache is not None else TraceCache()
        self._tape: List[ColumnTrigger] = []
        # Observability: tapes replayed from compiled traces vs run on the
        # execution units.
        self.fused_replays = 0
        self.fused_fallbacks = 0
        # The trace keys of the windows replayed since a channel frame's
        # recording began, oldest first: ``PimPseudoChannel.frame_entry``
        # starts the log, ``record_frame`` takes it, a hard reset drops it
        # (a recording that raised or met a refresh leaves it to the next
        # ``frame_entry``); None while no log is kept.
        self.window_keys: Optional[List[tuple]] = None
        # Replays of a frame's windows whose stats the units are owed.
        self._owed: List[CompiledTrace] = []

    # -- window control ---------------------------------------------------------

    def start_all(self) -> None:
        """AB-PIM entry: flush the prior window, then reset the sequencers."""
        if self._tape:
            self.flush_pending()
        super().start_all()

    def stop_all(self) -> None:
        """AB-PIM exit: flush the window closed by this mode transition."""
        if self._tape:
            self.flush_pending()
        super().stop_all()

    def abort_pending(self) -> None:
        """Discard the buffered tape without executing it (hard reset); a
        recording the reset cut short logs no more window keys."""
        self._tape.clear()
        self.window_keys = None

    def frame_entry(self) -> Optional[Tuple[int, ...]]:
        """The CRF program every unit holds, when the group defers, has no
        tape buffered and the units agree on it: then a window's trace key
        is a function of it and of the triggers since the sequencers were
        last started, so a channel frame keyed on it meets its recorded
        trace keys again (``PimPseudoChannel.timing_state``).  None
        otherwise."""
        if not self.defers or self._tape:
            return None
        crf = self.units[0].regs.crf
        for unit in self.units[1:]:
            if unit.regs.crf != crf:
                return None
        return tuple(crf)

    def trigger_all(self, trig: ColumnTrigger) -> None:
        """Buffer one broadcast column command — or one column burst, as a
        single tape entry — for deferred fused execution.

        Equivalent to the eager ``LockstepGroup.trigger_all`` — the device
        flushes the tape at every point deferred state could be observed.
        """
        if self.defers:
            self._tape.append(trig)
            return
        super().trigger_all(trig)

    # -- flush: compile or replay ------------------------------------------------

    def _any_failed(self, space: OperandSpace) -> bool:
        return any(u._bank(space)._failed_channel is not None for u in self.units)

    def _interpret(self, tape: List[ColumnTrigger]) -> None:
        """Run a whole tape on the execution units, trigger by trigger."""
        self.fused_fallbacks += 1
        for trig in tape:
            LockstepGroup.trigger_all(self, trig)

    def flush_pending(self) -> None:
        """Execute the buffered tape: replay a compiled trace, compile one,
        or run the triggers on the execution units."""
        tape = self._tape
        if not tape:
            return
        # Detach first: a mid-replay error (uncorrectable ECC word, dead
        # channel) must not leave triggers behind to re-execute on reset.
        self._tape = []
        units = self.units
        leader = units[0]
        entry_state = leader.sequencer_state()
        for unit in units[1:]:
            if unit.sequencer_state() != entry_state:
                self._interpret(tape)
                return
        crf = leader.regs.crf
        for unit in units[1:]:
            if unit.regs.crf != crf:
                self._interpret(tape)
                return
        try:
            words, pattern, rows = _pack_signature(crf, tape)
        except OverflowError:
            # A word or column beyond the packed widths: nothing the
            # kernels emit; the units raise whatever they always did.
            self._interpret(tape)
            return
        key = (entry_state, words, pattern)
        self._flush(key, rows, self.cache.get(key), tape)

    def _flush(
        self, key: tuple, rows: Tuple[int, ...], entry: Optional[CompiledTrace],
        tape: List[ColumnTrigger],
    ) -> None:
        """Run ``tape``, whose trace key is ``key`` and row table ``rows``,
        with ``entry`` — the cache's trace under it, None on a miss: compile
        and put one, then replay it or run the triggers on the units."""
        if entry is None:
            entry = self._compile(tape, key[0], rows)
            self.cache.put(key, entry)
        if entry.poisoned or any(
            self._any_failed(space) for space in entry.bank_spaces
        ):
            self._interpret(tape)
            return
        self._replay(entry, [t.host_data for t in tape if t.host_data is not None], rows)
        self._owed.append(entry)
        self._settle(entry.end_state)
        if self.window_keys is not None:
            self.window_keys.append(key)

    # -- a channel frame's windows ----------------------------------------------

    def replay_window(self, window: Window, blocks: Sequence[np.ndarray]) -> None:
        """One closed window of an all-bank program's frame, with the
        applying drain's ``blocks``: on a hit under its recorded key, the
        compiled trace at the window's rows, its sequencer state and stats
        owed to the units until :meth:`end_frame`; on a miss, what the
        window's flush does on the command path — the owed state written,
        the tape rebuilt from the pattern, compiled and put under the same
        key.  A replay that raises leaves the units as that flush would: at
        the window's entry state, with the earlier windows' stats."""
        key = window.key
        entry = self.cache.get(key)
        if entry is None:
            self._settle(key[0])
            self._flush(key, window.rows, None, window.tape(blocks))
            return
        try:
            self._replay(entry, [blocks[i] for i in window.hosts], window.rows)
        except BaseException:
            self._settle(key[0])
            raise
        self._owed.append(entry)

    def end_frame(
        self, state: Optional[tuple], blocks: Sequence[np.ndarray],
        window: Optional[Window] = None,
    ) -> None:
        """Close an all-bank program's frame: the stats and replay counts its
        windows owe, its end sequencer ``state`` (None: it started no
        window), one write per unit; then the triggers of the ``window`` it
        leaves open, if any, on the tape, as the command path leaves them."""
        self._settle(state)
        if window is not None:
            self._tape = window.tape(blocks)

    def _settle(self, state: Optional[tuple]) -> None:
        """Add the stats of the replays owed to every unit, count them, and
        install sequencer ``state`` (None: leave the sequencers)."""
        owed = self._owed
        if owed:
            dt, di, df, dbr, dbw, dig = map(sum, zip(*(entry.stat_deltas for entry in owed)))
            for unit in self.units:
                stats = unit.stats
                stats.triggers += dt
                stats.instructions += di
                stats.flops += df
                stats.bank_reads += dbr
                stats.bank_writes += dbw
                stats.ignored_after_exit += dig
            self.fused_replays += len(owed)
            owed.clear()
        if state is not None:
            for unit in self.units:
                unit.install_sequencer_state(*state)

    def _replay(
        self, entry: CompiledTrace, hosts: List[np.ndarray], rows: Tuple[int, ...]
    ) -> None:
        """The compiled trace's dataflow over the registers and banks, with
        ``hosts`` — the window's WR bursts in order, a ``(count, 32)``
        block each (``(32,)`` for a single command) — as its HOST operands
        and ``rows`` as its row table.

        The value pool is slot-major, ``(slots, units, 16)``: the slots of
        a stacked op are one contiguous run, and ``mul`` / ``add`` /
        ``relu`` write theirs in place.  Registers and banks are
        unit-major, so their values are transposed at the pool's edge."""
        units = self.units
        stacked = self.stacked
        pool = np.empty((entry.slots, len(units), LANES), dtype=np.float16)
        for space in entry.entry_regs:
            base = _REG_BASE[space]
            pool[base : base + GRF_REGS] = (
                stacked.grf(space).swapaxes(0, 1) if space.is_grf
                else stacked.srf(space).T[:, :, None]
            )
        if entry.host:
            # Each block's rows straight into their slots, over every unit.
            raw = pool.view(np.uint8)
            for block, out, index in entry.host:
                raw[out] = hosts[block][index]
        banks = {space: [u._bank(space) for u in units] for space in entry.bank_spaces}
        for op in entry.fetches + entry.ops:
            kind = op.kind
            if kind == "add":
                np.add(pool[op.a], pool[op.b], out=pool[op.out])
            elif kind == "mul":
                np.multiply(pool[op.a], pool[op.b], out=pool[op.out])
            elif kind == "load":
                pool[op.out] = _peek_run(banks, op.bank, rows).view(np.float16).swapaxes(0, 1)
            elif kind == "relu":
                # The sign-bit mux: a lane with its sign set becomes +0.
                bits = pool[op.a].view(np.int16)
                np.bitwise_and(bits, ~(bits >> 15), out=pool[op.out].view(np.int16))
            else:  # store
                raw = np.ascontiguousarray(pool[op.a].swapaxes(0, 1)).view(np.uint8)
                _poke_run(banks, op.bank, rows, raw)
        for space, regs, src in entry.puts:
            stacked.grf(space)[:, regs] = pool[src].swapaxes(0, 1)

    # -- compilation -------------------------------------------------------------

    def _compile(
        self, tape: List[ColumnTrigger], entry_state: tuple, rows: Tuple[int, ...]
    ) -> CompiledTrace:
        """Bind the tape to the (uniform) CRF program, stepping the
        sequencer as :meth:`PimExecutionUnit.trigger` does, each bank row
        renamed to its index in ``rows``.  Whatever the units would raise
        at, or a step the compiler does not lower, compiles the tape
        poisoned."""
        crf = self.units[0].regs.crf
        ppc, exited, nop_remaining, jump_items = entry_state
        jump: Dict[int, int] = dict(jump_items)
        steps: List[_Step] = []
        triggers = instructions = flops = bank_reads = bank_writes = ignored = 0
        try:
            for is_write, row, col, host in _commands(tape, rows):
                triggers += 1
                if exited:
                    # Uniformity was verified at flush: every unit ignores it.
                    ignored += 1
                    continue
                instr = fetch(crf, ppc)
                instructions += 1
                if instr.opcode is Opcode.NOP:
                    nop_remaining -= 1
                    if nop_remaining <= 0:
                        ppc, exited, nop_remaining = resolve_control(
                            crf, ppc + 1, nop_remaining, jump
                        )
                    continue
                step = _plan_step(host, crf[ppc], instr, is_write, row, col)
                if step is None:
                    return CompiledTrace(poisoned=True)
                flops += step.flops
                bank_reads += step.bank_reads
                bank_writes += step.bank_writes
                steps.append(step)
                ppc, exited, nop_remaining = resolve_control(
                    crf, ppc + 1, nop_remaining, jump
                )
        except ValueError:  # PimProgramError included
            return CompiledTrace(poisoned=True)
        spaces = frozenset().union(*(s.bank_spaces for s in steps)) if steps else frozenset()
        return CompiledTrace(
            poisoned=False,
            **_schedule(steps),
            stat_deltas=(
                triggers, instructions, flops, bank_reads, bank_writes, ignored,
            ),
            end_state=(ppc, exited, nop_remaining, tuple(sorted(jump.items()))),
            bank_spaces=tuple(spaces),
        )


def _peek_run(
    banks: Dict[OperandSpace, list], bank: tuple, rows: Tuple[int, ...]
) -> np.ndarray:
    """One run of bank columns from every unit's bank at row
    ``rows[bank[1]]``: ``(units, k, 32)``.

    One block when the columns are a run from ``col0``; a run the compiler
    could not order (descending or gapped columns) gathers bank by bank
    through the index-array path.  Either way the SEC-DED engine
    classifies, corrects, scrubs, counts and raises as on the interpreted
    path.
    """
    space, row, cols, col0, width = bank
    row = rows[row]
    if col0 is None:
        return np.array([b.peek_columns(row, cols) for b in banks[space]])
    return peek_block(banks[space], row, col0, len(cols), width)


def _poke_run(
    banks: Dict[OperandSpace, list], bank: tuple, rows: Tuple[int, ...], raw: np.ndarray
) -> None:
    """Scatter a ``(units, k, 32)`` result (mirror of :func:`_peek_run`)."""
    space, row, cols, col0, _ = bank
    row = rows[row]
    if col0 is None:
        for b, slab in zip(banks[space], raw):
            b.poke_columns(row, cols, slab)
    else:
        poke_block(banks[space], row, col0, raw)


def _pack_signature(
    crf: Sequence[int], tape: List[ColumnTrigger]
) -> Tuple[bytes, bytes, Tuple[int, ...]]:
    """The CRF program and the tape's command pattern as exact ``bytes``,
    and the tape's row table: its bank rows in first-use order.

    Every CRF word is packed as a u32; the tape as its rows, each renamed
    to its index in the table, followed by one ``col << 3 | first << 2 |
    is_write << 1 | has_host`` word per trigger, i32 each — fixed-width
    fields of a known count, so equal bytes mean equal content up to where
    the rows are.  A burst entry packs as the single triggers it stands
    for, so the key does not depend on how the commands arrived — but for
    ``first``, set on the first command of each host-carrying entry: the
    compiled HOST operand reads block by block.  Raises
    :class:`OverflowError` for a value that does not fit.
    """
    table: Dict[int, int] = {}
    rows: List[int] = []
    words: List[int] = []
    for t in tape:
        count = t.count
        has_host = t.host_data is not None
        word = t.col << 3 | t.is_write << 1 | has_host
        rows.extend([table.setdefault(t.row, len(table))] * count)
        words.append(word | has_host << 2)
        words.extend(range(word + 8, word + 8 * count, 8))  # col + i, same flags
    rows.extend(words)
    return array("I", crf).tobytes(), array("i", rows).tobytes(), tuple(table)


def _commands(
    tape: List[ColumnTrigger], rows: Tuple[int, ...],
) -> Iterator[Tuple[bool, int, int, Optional[Tuple[int, Optional[int]]]]]:
    """``(is_write, row, col, host)`` of every command of ``tape``: ``row``
    its index in the row table ``rows``, ``host`` where its HOST burst sits
    — ``(block, row)``, the block counted over the tape's host-carrying
    entries and ``row`` None for a single command's ``(32,)`` block — or
    None."""
    index = {row: i for i, row in enumerate(rows)}
    block = 0
    for t in tape:
        row = index[t.row]
        if t.host_data is None:
            for col in range(t.col, t.col + t.count):
                yield t.is_write, row, col, None
            continue
        for i in range(t.count):
            yield t.is_write, row, t.col + i, (block, i if t.count > 1 else None)
        block += 1


def _plan_step(
    host: Optional[Tuple[int, Optional[int]]],
    word: int,
    instr: Instruction,
    is_write: bool,
    row: int,
    col: int,
) -> Optional[_Step]:
    """Bind one trigger to its instruction.  A control word, an operand
    the trigger cannot supply or a destination it cannot write — what
    the unit raises at — returns None (the tape compiles poisoned)."""
    op = instr.opcode
    dst = instr.dst
    if op is Opcode.MOV or op is Opcode.FILL:
        operands = (instr.src0,)
    elif op is Opcode.MUL or op is Opcode.ADD:
        operands = (instr.src0, instr.src1)
    elif op is Opcode.MAC:
        operands = (instr.src0, instr.src1, dst)
    elif op is Opcode.MAD:
        operands = (instr.src0, instr.src1, instr.src2)
    else:
        return None
    reads: List[tuple] = []
    bank_spaces = set()
    bank_read_count = 0
    for operand in operands:
        space = operand.space
        if space.is_bank:
            if is_write:
                return None
            bank_read_count += 1
            bank_spaces.add(space)
            reads.append(("bank", space))
        elif space is OperandSpace.HOST:
            if not is_write or host is None:
                return None
            reads.append(("host",))
        elif space.is_grf or space.is_srf:
            index = col % GRF_REGS if instr.aam else operand.index
            reads.append(("grf" if space.is_grf else "srf", space, index))
        else:
            return None
    if dst.space.is_bank:
        if not is_write:
            return None
        bank_spaces.add(dst.space)
        dst_plan = ("bank", dst.space)
        bank_write_count = 1
    elif dst.space.is_grf:
        index = col % GRF_REGS if instr.aam else dst.index
        dst_plan = ("grf", dst.space, index)
        bank_write_count = 0
    else:
        return None
    return _Step(
        host=host,
        word=word,
        is_write=is_write,
        row=row,
        col=col,
        instr=instr,
        reads=reads,
        dst=dst_plan,
        flops=_FLOPS[op],
        bank_reads=bank_read_count,
        bank_writes=bank_write_count,
        bank_spaces=frozenset(bank_spaces),
    )


def _slots(slots: List[int]) -> _Slots:
    """``slots`` as a pool index: a slice when they ascend by one."""
    first = slots[0]
    if slots == list(range(first, first + len(slots))):
        return slice(first, first + len(slots))
    return np.array(slots)


class _MicroOp(NamedTuple):
    """One operation on values, before levelling stacks it with its peers."""

    kind: str
    a: Optional[int]  # operand value ids
    b: Optional[int]
    step: _Step
    where: Optional[tuple]  # load / store: (space, row, col)
    #: What it stacks with: ``(level, kind rank)``, and for a load / store
    #: the one row of one bank space under one instruction it may run with.
    run: tuple


def _schedule(steps: List[_Step]) -> dict:
    """The bound steps as a levelled dataflow program: the ``fetches`` /
    ``ops`` / ``entry_regs`` / ``host`` / ``puts`` / ``slots`` of a
    :class:`CompiledTrace`.

    Every operand is resolved to the *value* that produces it, so register
    names vanish: a plain MOV / FILL is its source, MAC / MAD are a ``mul``
    and an ``add``, and a micro-op's level is one more than its producers'.
    Bank locations are not renamed: a read is levelled after the last
    write to its (space, row, column), a write after every earlier access.
    """
    # Value ids index ``level``.  Those below ``_ENTRY_SLOTS`` are the
    # registers' entry values — level 0, like the HOST bursts.
    level: List[int] = [0] * _ENTRY_SLOTS
    micro: Dict[int, _MicroOp] = {}  # value id -> what computes it
    host_ids: Dict[Tuple[int, Optional[int]], int] = {}  # (block, row) -> value id
    renamed: Dict[tuple, int] = {}  # (space, register) -> value id
    entry_regs = set()
    written: Dict[tuple, int] = {}  # bank location -> level of its last store
    touched: Dict[tuple, int] = {}  # ... -> highest level of any access

    def emit(kind, step, a=None, b=None, where=None, after=0) -> int:
        run = (
            1 + max(after, 0 if a is None else level[a], 0 if b is None else level[b]),
            _KINDS.index(kind),
        )
        if where is not None:
            run += (where[:2], step.word)
        micro[len(level)] = _MicroOp(kind, a, b, step, where, run)
        level.append(run[0])
        return len(level) - 1

    for step in steps:
        values = []
        for plan in step.reads:
            if plan[0] == "bank":
                where = (plan[1], step.row, step.col)
                value = emit("load", step, where=where, after=written.get(where, 0))
                touched[where] = max(touched.get(where, 0), level[value])
            elif plan[0] == "host":
                value = host_ids.get(step.host)
                if value is None:
                    value = host_ids[step.host] = len(level)
                    level.append(0)
            else:
                value = renamed.get(plan[1:])
                if value is None:
                    value = _REG_BASE[plan[1]] + plan[2]
                    entry_regs.add(plan[1])
            values.append(value)
        op = step.instr.opcode
        if op is Opcode.MOV or op is Opcode.FILL:
            result = emit("relu", step, values[0]) if step.instr.relu else values[0]
        elif op is Opcode.MUL:
            result = emit("mul", step, values[0], values[1])
        elif op is Opcode.ADD:
            result = emit("add", step, values[0], values[1])
        elif op is Opcode.MAC:
            result = emit("add", step, values[2], emit("mul", step, values[0], values[1]))
        else:  # MAD
            result = emit("add", step, emit("mul", step, values[0], values[1]), values[2])
        if step.dst[0] == "grf":
            renamed[step.dst[1:]] = result
        else:
            where = (step.dst[1], step.row, step.col)
            store = emit("store", step, result, where=where, after=touched.get(where, 0))
            written[where] = touched[where] = level[store]

    # Execution order: by level, a level's kinds in ``_KINDS`` order, tape
    # order within a kind.  Slots follow it — entry registers, HOST rows in
    # first-use order, then the micro-ops' values — so a stacked op writes
    # a slice and mostly reads slices.
    order = sorted(micro, key=lambda value: micro[value].run[:2])
    valued = [value for value in order if micro[value].kind != "store"]
    base = _ENTRY_SLOTS + len(host_ids)
    slot = dict(zip(host_ids.values(), count(_ENTRY_SLOTS)))
    slot.update(zip(valued, count(base)))

    def at(values: List[int]) -> _Slots:
        return _slots([v if v < _ENTRY_SLOTS else slot[v] for v in values])

    ops: List[_Op] = []
    for key, run in groupby(order, key=lambda value: micro[value].run):
        run = list(run)
        members = [micro[value] for value in run]
        kind, _, _, step, where, _ = members[0]
        bank = None
        if where is not None:
            cols = [member.where[2] for member in members]
            ascending = cols == list(range(cols[0], cols[0] + len(cols)))
            bank = (
                *where[:2], np.array(cols), cols[0] if ascending else None,
                GRF_REGS if step.instr.aam else 1,
            )
        ops.append(_Op(
            kind=kind,
            level=key[0],
            out=None if kind == "store" else at(run),
            a=None if kind == "load" else at([member.a for member in members]),
            b=at([member.b for member in members]) if kind in ("mul", "add") else None,
            bank=bank,
        ))
    # Level-1 loads sort first: the reads of what the window has not written.
    fetches = sum(op.kind == "load" and op.level == 1 for op in ops)
    blocks: Dict[int, Tuple[List[int], List[int]]] = {}
    for (block, row), value in host_ids.items():
        slots, rows = blocks.setdefault(block, ([], []))
        slots.append(slot[value])
        rows.append(row)
    puts = []
    for space in (OperandSpace.GRF_A, OperandSpace.GRF_B):
        regs = sorted(reg for s, reg in renamed if s is space)
        if regs:
            puts.append((space, np.array(regs), at([renamed[space, r] for r in regs])))
    return dict(
        fetches=tuple(ops[:fetches]),
        ops=tuple(ops[fetches:]),
        entry_regs=tuple(space for space in _REG_BASE if space in entry_regs),
        host=tuple(
            (block, _slots(slots), None if rows == [None] else (_slots(rows), None))
            for block, (slots, rows) in sorted(blocks.items())
        ),
        puts=tuple(puts),
        slots=base + len(valued),
    )
