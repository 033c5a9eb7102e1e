"""Trace-compiled fused kernel execution (the tier-2 hot path).

The paper's AB-PIM microkernels are *static* programs: once a CRF program
is broadcast, every execution of it against the same column-command
pattern performs exactly the same per-command register/bank dataflow —
only the data (HOST bursts, GRF/SRF/bank contents) differs.  The
lock-step executor (PR 5) still interprets one CRF instruction per
column command; :class:`FusedLockstepGroup` removes that last
interpretation layer by *trace compilation*:

1. **Capture** — within one AB-PIM window (``start_all`` .. ``stop_all``)
   column triggers are buffered instead of interpreted.  Nothing outside
   the group can observe the deferral: bank/bus timing still advances
   per command in the device, and the device flushes the tape before any
   register-mapped access, mode transition, or channel reset.
2. **Compile** — at the window boundary the tape is resolved once
   against the (verified-uniform) CRF program: the sequencer is
   simulated, every trigger is bound to its instruction, and runs of
   hazard-free same-instruction triggers are fused into single stacked
   ``(units, k, 16)``-lane NumPy group steps.  The compiled trace — group
   steps, per-unit stat deltas, and the final sequencer state — is
   stored in a content-keyed LRU :class:`TraceCache`.
3. **Replay** — later windows with the same content key skip straight to
   the group steps.  Bank operands move live as one *block* per group
   (:func:`~repro.dram.ecc.peek_block` / ``poke_block``: all units' banks,
   one SEC-DED pass — so checks, corrections, inline scrubs, and
   uncorrectable raises happen exactly as on the interpreted path), HOST
   operands are gathered from the *current* tape, and GRF/SRF operands
   slice the stacked register state.

**Cache keys are content signatures**, not identities: the channel id,
the uniform sequencer entry state, every CRF word of the program, and
the per-trigger ``(is_write, row, col, has_host)`` pattern — the last two
packed into exact ``bytes`` (no digest), a few KB per entry.  A CRF fault
upset therefore *cannot* replay a stale program — the flipped word
changes the key — and the fault injector additionally calls
:meth:`TraceCache.invalidate_channel` (modelling the driver dropping its
compiled traces alongside the broadcast cache) so the bounded cache
never accumulates entries for corrupted or quarantined channels.

Anything irregular falls back to the inherited lock-step interpreter,
trigger by trigger, which itself falls back to the per-unit scalar
loop — so the fused path is bit-exact with both oracles by
construction wherever it engages, and *is* the oracle path wherever it
does not:

* divergent per-unit sequencer state or CRF contents -> interpreted;
* a control word at a trigger fetch, a garbage word, an out-of-range
  PPC, an operand/trigger-kind mismatch -> the tape compiles *poisoned*
  (cached, so the check is paid once) and replays interpreted;
* a hard-failed bank -> interpreted (the lock-step refusal), raising
  :class:`~repro.errors.PimChannelError` exactly as before.

The one observable difference is exception *ordering* inside a group:
an uncorrectable ECC word aborts the whole group step before any unit's
writes land, where the interpreter leaves earlier triggers fully
executed.  This extends the documented lock-step caveat (see
:mod:`repro.pim.lockstep`): both states are post-error garbage the
self-healing layer discards before retrying.
"""

from __future__ import annotations

from array import array
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..common.fp16 import vec_add, vec_mul, vec_relu
from ..dram.ecc import peek_block, poke_block
from .exec_unit import ColumnTrigger, PimExecutionUnit
from .isa import CRF_ENTRIES, GRF_REGS, Instruction, Opcode, OperandSpace, decode
from .lockstep import LockstepGroup
from .registers import GRF_REG_BYTES, LANES

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
        self.limit = max(1, int(limit))
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


@dataclass
class _GroupStep:
    """One fused run of hazard-free same-instruction triggers.

    ``reads``/``dst`` are pre-resolved operand plans:

    * ``("bank", space, row, cols, col0)`` — gather/scatter ``cols`` of
      ``row`` on every unit's bank for ``space``; ``col0`` is their first
      column when they are one ascending run (decided here, at compile
      time, so replay moves them as a block), else None;
    * ``("host", indices)`` — gather the WR bursts of the current tape,
      counted over its host-carrying commands only;
    * ``("grf", space, indices)`` / ``("srf", space, indices)`` — fancy
      slices of the stacked register state.
    """

    opcode: Opcode
    relu: bool
    k: int
    reads: Tuple[tuple, ...]
    dst: tuple


@dataclass
class CompiledTrace:
    """One compiled (CRF program x command-stream signature) pair."""

    poisoned: bool
    groups: Tuple[_GroupStep, ...] = ()
    #: Uniform per-unit deltas: (triggers, instructions, flops,
    #: bank_reads, bank_writes, ignored_after_exit).
    stat_deltas: Tuple[int, int, int, int, int, int] = (0, 0, 0, 0, 0, 0)
    batched_triggers: int = 0
    #: Final (ppc, exited, nop_remaining, jump-slot items).
    end_state: tuple = (0, True, 0, ())
    #: Bank operand spaces touched (re-checked for failures per replay).
    bank_spaces: Tuple[OperandSpace, ...] = ()
    #: Whether any group gathers HOST operands from the tape.
    reads_host: bool = False
    replays: int = 0


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
    reg_reads: frozenset
    reg_writes: frozenset
    bank_spaces: frozenset

    @property
    def has_bank(self) -> bool:
        return bool(self.bank_spaces)


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
    buffered tape, and every irregular case delegates to the inherited
    interpreter for bit-exact oracle behaviour.
    """

    def __init__(
        self,
        units: Sequence[PimExecutionUnit],
        enabled: bool = True,
        cache: Optional[TraceCache] = None,
        channel_id: int = 0,
    ):
        super().__init__(units, enabled=enabled)
        self.cache = cache if cache is not None else TraceCache()
        self.channel_id = channel_id
        self._tape: List[ColumnTrigger] = []
        # Observability: tapes replayed from compiled traces vs routed
        # through the inherited interpreter.
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

    @property
    def defers(self) -> bool:
        """Whether triggers are buffered (and ``trigger_all`` cannot raise)."""
        return self.enabled and self._fp16_ok

    def trigger_all(self, trig: ColumnTrigger) -> None:
        """Buffer one broadcast column command — or one column burst, as a
        single tape entry — for deferred fused execution.

        Equivalent to the eager ``LockstepGroup.trigger_all`` — the device
        flushes the tape at every point deferred state could be observed.
        """
        if self.enabled and self._fp16_ok:
            self._tape.append(trig)
            return
        super().trigger_all(trig)

    # -- flush: compile or replay ------------------------------------------------

    def _interpret(self, tape: List[ColumnTrigger]) -> None:
        """Route a whole tape through the inherited lock-step interpreter."""
        self.fused_fallbacks += 1
        for trig in tape:
            LockstepGroup.trigger_all(self, trig)

    def flush_pending(self) -> None:
        """Execute the buffered tape: replay a compiled trace, compile one,
        or route the triggers through the inherited interpreter."""
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
            # kernels emit; the interpreter raises whatever it always did.
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
        host = None
        if entry.reads_host:
            # Every WR burst of the tape, one row per command: a burst
            # entry brings its ``(count, 32)`` block as the kernel built it.
            host = np.concatenate([
                np.asarray(trig.host_data, dtype=np.uint8).reshape(-1, GRF_REG_BYTES)
                for trig in tape
                if trig.host_data is not None
            ])
        for group in entry.groups:
            self._exec_group(group, host)
        end = entry.end_state
        for unit in self.units:
            unit.install_sequencer_state(*end)
        dt, di, df, dbr, dbw, dig = entry.stat_deltas
        for unit in self.units:
            stats = unit.stats
            stats.triggers += dt
            stats.instructions += di
            stats.flops += df
            stats.bank_reads += dbr
            stats.bank_writes += dbw
            stats.ignored_after_exit += dig
        self.batched_triggers += entry.batched_triggers
        entry.replays += 1
        self.fused_replays += 1

    def _exec_group(self, group: _GroupStep, host: Optional[np.ndarray]) -> None:
        units = self.units
        values = []
        for plan in group.reads:
            kind = plan[0]
            if kind == "bank":
                _, space, row, cols, col0 = plan
                stacked = _peek_group([u._bank(space) for u in units], row, cols, col0)
                values.append(stacked.view(np.float16))  # (units, k, 16)
            elif kind == "host":
                # (1, k, 16) broadcast over units
                values.append(host[plan[1]].view(np.float16)[None])
            elif kind == "grf":
                values.append(self.stacked.grf(plan[1])[:, plan[2], :])
            else:  # srf: (units, k, 1) broadcast over lanes
                values.append(self.stacked.srf(plan[1])[:, plan[2]][:, :, None])
        op = group.opcode
        if op is Opcode.MOV or op is Opcode.FILL:
            result = values[0]
            if group.relu:
                result = vec_relu(result)
        elif op is Opcode.MUL:
            result = vec_mul(values[0], values[1])
        elif op is Opcode.ADD:
            result = vec_add(values[0], values[1])
        elif op is Opcode.MAC:
            result = vec_add(values[2], vec_mul(values[0], values[1]))
        else:  # MAD
            result = vec_add(vec_mul(values[0], values[1]), values[2])
        dst = group.dst
        if dst[0] == "grf":
            self.stacked.grf(dst[1])[:, dst[2], :] = result
        else:
            _, space, row, cols, col0 = dst
            data = np.ascontiguousarray(
                np.broadcast_to(result, (len(units), group.k, LANES)),
                dtype=np.float16,
            )
            _poke_group(
                [u._bank(space) for u in units], row, cols, col0, data.view(np.uint8)
            )

    # -- compilation -------------------------------------------------------------

    def _compile(
        self, tape: List[ColumnTrigger], entry_state: tuple
    ) -> CompiledTrace:
        crf = self.units[0].regs.crf
        ppc, exited, nop_remaining, jump_items = entry_state
        jump: Dict[int, int] = dict(jump_items)
        poisoned = CompiledTrace(poisoned=True)
        steps: List[_Step] = []
        triggers = instructions = flops = bank_reads = bank_writes = ignored = 0
        hosts = 0  # host-carrying commands so far
        for is_write, row, col, has_host in _commands(tape):
            pos = hosts
            hosts += has_host
            triggers += 1
            if exited:
                # The interpreter requires *every* unit exited for the
                # stats-only path; uniformity was verified at flush.
                ignored += 1
                continue
            if not 0 <= ppc < CRF_ENTRIES:
                return poisoned  # the scalar path raises here
            word = crf[ppc]
            try:
                instr = decode(word)
            except ValueError:
                return poisoned
            op = instr.opcode
            if op is Opcode.NOP:
                instructions += 1
                nop_remaining -= 1
                if nop_remaining <= 0:
                    resolved = self._dry_resolve(ppc + 1, 0, jump)
                    if resolved is None:
                        return poisoned
                    ppc, exited, nop_remaining, jump = resolved
                continue
            if op is Opcode.JUMP or op is Opcode.EXIT:
                # A control word at a trigger fetch: the CRF changed under
                # a resolved sequencer; the scalar path raises.
                return poisoned
            resolved = self._dry_resolve(ppc + 1, nop_remaining, jump)
            if resolved is None:
                return poisoned
            step = _plan_step(pos, word, instr, is_write, row, col, has_host)
            if step is None:
                return poisoned
            instructions += 1
            flops += step.flops
            bank_reads += step.bank_reads
            bank_writes += step.bank_writes
            steps.append(step)
            ppc, exited, nop_remaining, jump = resolved
        spaces = frozenset().union(*(s.bank_spaces for s in steps)) if steps else frozenset()
        return CompiledTrace(
            poisoned=False,
            groups=tuple(_fuse_steps(steps)),
            stat_deltas=(
                triggers, instructions, flops, bank_reads, bank_writes, ignored,
            ),
            batched_triggers=triggers,
            end_state=(ppc, exited, nop_remaining, tuple(sorted(jump.items()))),
            bank_spaces=tuple(spaces),
            reads_host=any(("host",) in s.reads for s in steps),
        )


def _peek_group(banks: list, row: int, cols: np.ndarray, col0: Optional[int]) -> np.ndarray:
    """A group's bank operand from every unit's bank: ``(units, k, 32)``.

    One block when the group's columns are a run from ``col0``; the rare
    group the compiler could not order into a run (out-of-order columns)
    gathers bank by bank through the index-array path.  Either way the
    SEC-DED engine classifies, corrects, scrubs, counts and raises as on
    the interpreted path.
    """
    if col0 is None:
        return np.array([bank.peek_columns(row, cols) for bank in banks])
    return peek_block(banks, row, col0, len(cols))


def _poke_group(
    banks: list, row: int, cols: np.ndarray, col0: Optional[int], raw: np.ndarray
) -> None:
    """Scatter a group's ``(units, k, 32)`` result (mirror of :func:`_peek_group`)."""
    if col0 is None:
        for bank, slab in zip(banks, raw):
            bank.poke_columns(row, cols, slab)
    else:
        poke_block(banks, row, col0, raw)


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
    """Bind one trigger to its instruction, mirroring the lock-step
    refusal conditions: any case ``_execute_batch`` would hand to the
    scalar loop returns None (the tape compiles poisoned)."""
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
    reg_reads = set()
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
            reg_reads.add((space, index))
            reads.append(("grf" if space.is_grf else "srf", space, index))
        else:
            return None
    reg_writes = set()
    if dst.space.is_bank:
        if not is_write:
            return None
        bank_spaces.add(dst.space)
        dst_plan = ("bank", dst.space)
        bank_write_count = 1
    elif dst.space.is_grf:
        index = col % GRF_REGS if instr.aam else dst.index
        reg_writes.add((dst.space, index))
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
        reg_reads=frozenset(reg_reads),
        reg_writes=frozenset(reg_writes),
        bank_spaces=frozenset(bank_spaces),
    )


class _GroupBuilder:
    """Accumulates consecutive steps that may execute as one array op."""

    def __init__(self, step: _Step):
        self.steps = [step]
        self.word = step.word
        self.row = step.row
        self.cols = {step.col}
        self.reg_writes = set(step.reg_writes)

    def accepts(self, step: _Step) -> bool:
        if step.word != self.word:
            return False
        if step.has_bank and (step.row != self.row or step.col in self.cols):
            return False
        # Vectorized execution reads every step's operands before any
        # write lands, so a step may not read — or rewrite — a register
        # an earlier step of the group writes (sequential semantics).
        if step.reg_reads & self.reg_writes or step.reg_writes & self.reg_writes:
            return False
        return True

    def add(self, step: _Step) -> None:
        self.steps.append(step)
        self.cols.add(step.col)
        self.reg_writes |= step.reg_writes

    def finish(self, index_array) -> _GroupStep:
        steps = self.steps
        first = steps[0]
        cols = index_array(s.col for s in steps)
        # Contiguity is decided here, once per compiled trace: an ascending
        # run moves as a block on every replay.
        col0 = first.col if all(
            s.col == first.col + i for i, s in enumerate(steps)
        ) else None
        positions = index_array(s.pos for s in steps)
        reads = []
        for j, plan in enumerate(first.reads):
            kind = plan[0]
            if kind == "bank":
                reads.append(("bank", plan[1], first.row, cols, col0))
            elif kind == "host":
                reads.append(("host", positions))
            else:  # grf / srf
                reads.append(
                    (kind, plan[1], index_array(s.reads[j][2] for s in steps))
                )
        if first.dst[0] == "bank":
            dst = ("bank", first.dst[1], first.row, cols, col0)
        else:
            dst = ("grf", first.dst[1], index_array(s.dst[2] for s in steps))
        return _GroupStep(
            opcode=first.instr.opcode,
            relu=first.instr.relu,
            k=len(steps),
            reads=tuple(reads),
            dst=dst,
        )


def _fuse_steps(steps: List[_Step]) -> List[_GroupStep]:
    """Fuse bound steps into maximal hazard-free group steps."""
    builders: List[_GroupBuilder] = []
    for step in steps:
        if builders and builders[-1].accepts(step):
            builders[-1].add(step)
        else:
            builders.append(_GroupBuilder(step))
    # A trace's groups repeat a handful of index patterns (columns 0..7,
    # registers 0..7): one read-only array per distinct pattern.
    pool: Dict[tuple, np.ndarray] = {}

    def index_array(values) -> np.ndarray:
        key = tuple(values)
        indices = pool.get(key)
        if indices is None:
            indices = pool[key] = np.array(key)
            indices.setflags(write=False)
        return indices

    return [b.finish(index_array) for b in builders]
