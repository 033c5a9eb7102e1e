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
   kind are a single stacked ``(units, k, 16)``-lane NumPy call: a GEMV
   tile of 16 chunks is one multiply over 128 columns and a chain of 16
   eight-wide adds, found by the levels, not matched by shape.  **Bank
   locations are never renamed**: storage outlives the window and a read
   can meet a stored fault, so any two accesses to one (bank space, row,
   column) of which one is a write keep tape order.  The compiled trace —
   fetches, ops, per-unit stat deltas, and the final sequencer state — is
   stored in a content-keyed LRU :class:`TraceCache`.
3. **Replay** — later windows with the same content key skip straight to
   the program.  First the *fetches*: every bank read of a location the
   window has not written, in tape order, consecutive ascending columns of
   one row under one instruction merged into one *block*
   (:func:`~repro.dram.ecc.peek_block`: all units' banks, one SEC-DED pass
   per weight row — each word is still read once, so checks, corrections
   and inline scrubs count exactly as on the interpreted path).  Then the
   levelled ops over one value pool — HOST operands gathered from the
   *current* tape, entry registers copied from the stacked register state
   — with bank writes as blocks (``poke_block``) at their level, and last
   the register file stores.

**Cache keys are content signatures**, not identities: the channel id,
the uniform sequencer entry state, every CRF word of the program, and
the per-trigger ``(is_write, row, col, has_host)`` pattern — the last two
packed into exact ``bytes`` (no digest), a few KB per entry.  A CRF fault
upset therefore *cannot* replay a stale program — the flipped word
changes the key — and the fault injector additionally calls
:meth:`TraceCache.invalidate_channel` (modelling the driver dropping its
compiled traces alongside the broadcast cache) so the bounded cache
never accumulates entries for corrupted or quarantined channels.

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
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..common.fp16 import FP16, vec_add, vec_mul, vec_relu
from ..dram.ecc import peek_block, poke_block
from .exec_unit import ColumnTrigger, PimExecutionUnit, fetch, resolve_control
from .isa import GRF_REGS, Instruction, Opcode, OperandSpace
from .lockstep import LockstepGroup
from .registers import GRF_REG_BYTES, LANES, StackedRegisterState

__all__ = ["CompiledTrace", "FusedLockstepGroup", "TraceCache", "TraceCacheStats"]


# -- the compiled-trace cache ---------------------------------------------------


@dataclass
class TraceCacheStats:
    """Observability counters of one compiled-trace cache."""

    hits: int = 0
    misses: int = 0
    compiles: int = 0
    poisoned: int = 0
    evictions: int = 0
    invalidations: int = 0


class TraceCache:
    """A content-keyed, LRU-bounded store of compiled trigger tapes.

    Keys are ``(channel_id, entry_state, crf_words, tape_signature)`` —
    pure content, so a mutated program or a different command pattern can
    never hit a stale entry.  One cache is shared by every channel of a
    system (``PimSystem._trace_cache``); :meth:`invalidate_channel` drops
    one channel's entries on CRF fault upsets and channel quarantine.
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

    def invalidate_channel(self, channel_id: int) -> int:
        """Drop every compiled trace of one channel; returns the count."""
        doomed = [key for key in self._entries if key[0] == channel_id]
        for key in doomed:
            del self._entries[key]
        self.stats.invalidations += len(doomed)
        return len(doomed)

    def clear(self) -> None:
        """Drop every entry (the stats survive)."""
        self._entries.clear()


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
    ``(units, slots, 16)`` FP16 — so ``mul`` / ``add`` / ``relu`` read
    ``pool[:, a]`` (and ``pool[:, b]``) and write ``pool[:, out]``; a
    ``store`` writes ``pool[:, a]`` to the bank.  ``bank`` is ``(space,
    row, cols, col0, width)``: ``col0`` is the first column when ``cols``
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
    #: ``(slots, rows)``: the tape's HOST bursts (counted over its
    #: host-carrying commands) that are read, or None.
    host: Optional[Tuple[slice, _Slots]] = None
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


@dataclass
class _Step:
    """One trigger bound to its instruction during compilation."""

    pos: int  # ordinal among the tape's host-carrying commands (HOST gather index)
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
        channel_id: int = 0,
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
        self.channel_id = channel_id
        self._tape: List[ColumnTrigger] = []
        # Observability: tapes replayed from compiled traces vs run on the
        # execution units.
        self.fused_replays = 0
        self.fused_fallbacks = 0

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
        """Discard the buffered tape without executing it (hard reset)."""
        self._tape.clear()

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
            key = (self.channel_id, entry_state, *_pack_signature(crf, tape))
        except OverflowError:
            # A word, row or column beyond the packed widths: nothing the
            # kernels emit; the units raise whatever they always did.
            self._interpret(tape)
            return
        entry = self.cache.get(key)
        if entry is None:
            entry = self._compile(tape, entry_state)
            self.cache.put(key, entry)
        if entry.poisoned or any(
            self._any_failed(space) for space in entry.bank_spaces
        ):
            self._interpret(tape)
            return
        self._replay(entry, tape)

    def _replay(self, entry: CompiledTrace, tape: List[ColumnTrigger]) -> None:
        units = self.units
        stacked = self.stacked
        pool = np.empty((len(units), entry.slots, LANES), dtype=np.float16)
        for space in entry.entry_regs:
            base = _REG_BASE[space]
            pool[:, base : base + GRF_REGS] = (
                stacked.grf(space) if space.is_grf else stacked.srf(space)[:, :, None]
            )
        if entry.host is not None:
            # Every WR burst of the tape, one row per command: a burst
            # entry brings its ``(count, 32)`` block as the kernel built it.
            host = np.concatenate([
                np.asarray(trig.host_data, dtype=np.uint8).reshape(-1, GRF_REG_BYTES)
                for trig in tape
                if trig.host_data is not None
            ])
            out, rows = entry.host
            pool[:, out] = host[rows].view(np.float16)  # broadcast over units
        banks = {space: [u._bank(space) for u in units] for space in entry.bank_spaces}
        for op in entry.fetches + entry.ops:
            kind = op.kind
            if kind == "load":
                pool[:, op.out] = _peek_run(banks, op.bank).view(np.float16)
            elif kind == "mul":
                pool[:, op.out] = vec_mul(pool[:, op.a], pool[:, op.b])
            elif kind == "add":
                pool[:, op.out] = vec_add(pool[:, op.a], pool[:, op.b])
            elif kind == "relu":
                pool[:, op.out] = vec_relu(pool[:, op.a])
            else:  # store
                _poke_run(banks, op.bank, np.ascontiguousarray(pool[:, op.a]).view(np.uint8))
        for space, regs, src in entry.puts:
            stacked.grf(space)[:, regs] = pool[:, src]
        end = entry.end_state
        for unit in units:
            unit.install_sequencer_state(*end)
        dt, di, df, dbr, dbw, dig = entry.stat_deltas
        for unit in units:
            stats = unit.stats
            stats.triggers += dt
            stats.instructions += di
            stats.flops += df
            stats.bank_reads += dbr
            stats.bank_writes += dbw
            stats.ignored_after_exit += dig
        self.fused_replays += 1

    # -- compilation -------------------------------------------------------------

    def _compile(
        self, tape: List[ColumnTrigger], entry_state: tuple
    ) -> CompiledTrace:
        """Bind the tape to the (uniform) CRF program, stepping the
        sequencer as :meth:`PimExecutionUnit.trigger` does.  Whatever the
        units would raise at, or a step the compiler does not lower,
        compiles the tape poisoned."""
        crf = self.units[0].regs.crf
        ppc, exited, nop_remaining, jump_items = entry_state
        jump: Dict[int, int] = dict(jump_items)
        steps: List[_Step] = []
        triggers = instructions = flops = bank_reads = bank_writes = ignored = 0
        hosts = 0  # host-carrying commands so far
        try:
            for is_write, row, col, has_host in _commands(tape):
                pos = hosts
                hosts += has_host
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
                step = _plan_step(pos, crf[ppc], instr, is_write, row, col, has_host)
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


def _peek_run(banks: Dict[OperandSpace, list], bank: tuple) -> np.ndarray:
    """One run of bank columns from every unit's bank: ``(units, k, 32)``.

    One block when the columns are a run from ``col0``; a run the compiler
    could not order (descending or gapped columns) gathers bank by bank
    through the index-array path.  Either way the SEC-DED engine
    classifies, corrects, scrubs, counts and raises as on the interpreted
    path.
    """
    space, row, cols, col0, width = bank
    if col0 is None:
        return np.array([b.peek_columns(row, cols) for b in banks[space]])
    return peek_block(banks[space], row, col0, len(cols), width)


def _poke_run(banks: Dict[OperandSpace, list], bank: tuple, raw: np.ndarray) -> None:
    """Scatter a ``(units, k, 32)`` result (mirror of :func:`_peek_run`)."""
    space, row, cols, col0, _ = bank
    if col0 is None:
        for b, slab in zip(banks[space], raw):
            b.poke_columns(row, cols, slab)
    else:
        poke_block(banks[space], row, col0, raw)


def _pack_signature(
    crf: Sequence[int], tape: List[ColumnTrigger]
) -> Tuple[bytes, bytes]:
    """The CRF program and the tape's command pattern as exact ``bytes``.

    Every CRF word is packed as a u32; the tape as its rows followed by
    one ``col << 2 | is_write << 1 | has_host`` word per trigger, i32
    each — fixed-width fields of a known count, so equal bytes mean equal
    content.  A burst entry packs as the single triggers it stands for, so
    the key does not depend on how the commands arrived.  Raises
    :class:`OverflowError` for a value that does not fit.
    """
    rows: List[int] = []
    words: List[int] = []
    for t in tape:
        count = t.count
        word = t.col << 2 | t.is_write << 1 | (t.host_data is not None)
        rows.extend([t.row] * count)
        words.extend(range(word, word + 4 * count, 4))  # col + i, same flags
    rows.extend(words)
    return array("I", crf).tobytes(), array("i", rows).tobytes()


def _commands(tape: List[ColumnTrigger]) -> Iterator[Tuple[bool, int, int, bool]]:
    """``(is_write, row, col, has_host)`` of every command of ``tape``."""
    for t in tape:
        has_host = t.host_data is not None
        for col in range(t.col, t.col + t.count):
            yield t.is_write, t.row, col, has_host


def _plan_step(
    pos: int,
    word: int,
    instr: Instruction,
    is_write: bool,
    row: int,
    col: int,
    has_host: bool,
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
            if not is_write or not has_host:
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
        pos=pos,
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
    host_ids: Dict[int, int] = {}  # tape host row -> value id
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
                value = host_ids.get(step.pos)
                if value is None:
                    value = host_ids[step.pos] = len(level)
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
    puts = []
    for space in (OperandSpace.GRF_A, OperandSpace.GRF_B):
        regs = sorted(reg for s, reg in renamed if s is space)
        if regs:
            puts.append((space, np.array(regs), at([renamed[space, r] for r in regs])))
    return dict(
        fetches=tuple(ops[:fetches]),
        ops=tuple(ops[fetches:]),
        entry_regs=tuple(space for space in _REG_BASE if space in entry_regs),
        host=(slice(_ENTRY_SLOTS, base), _slots(list(host_ids))) if host_ids else None,
        puts=tuple(puts),
        slots=base + len(valued),
    )
