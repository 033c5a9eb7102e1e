"""Lock-step batched execution across the units of one pseudo-channel.

The paper's execution model is lock-step by construction: in AB-PIM mode
every column command is broadcast, so all 8 units of a pseudo-channel fetch
the *same* CRF word and execute the same instruction — only their data
(GRF/SRF contents and bank columns) differs.  :class:`LockstepGroup`
exploits that: fetch, decode and control-flow resolution happen **once per
column command**, and the FP16 arithmetic runs as one stacked
``(units x 16)``-lane numpy operation over a contiguous register-file view
(:class:`~repro.pim.registers.StackedRegisterState`).

The per-unit scalar path (:meth:`PimExecutionUnit.trigger`) is retained in
full, for three reasons:

* it is the **differential oracle** the batch path is property-tested
  against (byte-identical register/bank state, identical ``UnitStats``);
* non-FP16 lane formats (the Table I alternatives) run through the
  bit-accurate softfloat, which is inherently lane-serial; and
* any irregularity — units whose sequencer state or CRF contents have
  diverged (single-bank programming, fault injection), a failed bank, a
  trigger kind the instruction would reject — falls back to the scalar
  loop, which reproduces the historical behaviour (including the exact
  exception and partial-state semantics) bit for bit.

Divergence detection is per fetched word: before executing, the group
verifies every unit holds the leader's sequencer state and the leader's
CRF word at each program counter it visits this trigger.  That makes the
batch path safe against *any* per-unit CRF mutation — broadcast writes
keep units identical, single-bank writes and injected bit flips are caught
at the next fetch.

The only observable difference of the batch path is exception *ordering*:
when a mid-execution error is raised (e.g. an uncorrectable ECC word), the
scalar loop leaves earlier units fully executed and later units untouched,
while the batch path leaves all units un-advanced.  Both states are
post-error garbage that the self-healing layer discards (the channel is
reset or quarantined); all pre-detectable errors fall back *before*
executing and so raise exactly as the scalar loop does.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..common.fp16 import FP16, vec_add, vec_mul, vec_relu
from .exec_unit import ColumnTrigger, PimExecutionUnit
from .isa import CRF_ENTRIES, GRF_REGS, Instruction, Opcode, Operand, OperandSpace, decode
from .registers import LANES, StackedRegisterState

__all__ = ["LockstepGroup"]


class LockstepGroup:
    """The lock-stepped execution units of one pseudo-channel."""

    #: Whether ``trigger_all`` buffers triggers for later execution (and so
    #: cannot raise): False here — every trigger executes, and can raise,
    #: before ``trigger_all`` returns.
    defers = False

    def __init__(self, units: Sequence[PimExecutionUnit], enabled: bool = True):
        self.units: List[PimExecutionUnit] = list(units)
        #: Set False to force the per-unit scalar path
        #: (``SystemConfig(exec_mode="scalar")`` does this device-wide).
        self.enabled = enabled
        self._fp16_ok = len(self.units) > 1 and all(
            u.lane_format is FP16 for u in self.units
        )
        self.stacked = StackedRegisterState(len(self.units))
        for i, unit in enumerate(self.units):
            self.stacked.adopt(i, unit.regs)
        # Observability counters: how many column commands ran batched vs
        # fell back to the per-unit loop.
        self.batched_triggers = 0
        self.scalar_fallbacks = 0

    # -- control -----------------------------------------------------------------

    def start_all(self) -> None:
        """AB-PIM entry: reset every unit's sequencer (PPC <- 0)."""
        for unit in self.units:
            unit.start()

    def stop_all(self) -> None:
        """AB-PIM exit."""
        for unit in self.units:
            unit.stop()

    def flush_pending(self) -> None:
        """Execute any deferred triggers; a no-op for the eager executor.

        The trace-compiled subclass (:mod:`repro.pim.fused`) buffers
        column triggers within an AB-PIM window and executes them in
        compiled groups; the device calls this hook before any
        register-mapped access so deferred state is never observable.
        """

    def abort_pending(self) -> None:
        """Discard any deferred triggers (channel hard-reset path)."""

    # -- the batched trigger path --------------------------------------------------

    def _scalar(self, trig: ColumnTrigger) -> None:
        self.scalar_fallbacks += 1
        for unit in self.units:
            unit.trigger(trig)

    def trigger_all(self, trig: ColumnTrigger) -> None:
        """Execute one broadcast column command on every unit.

        Equivalent to ``for unit in units: unit.trigger(trig)`` — batched
        when the units are verifiably in lock-step, scalar otherwise.  A
        column burst executes as its single triggers, in order.
        """
        if trig.count > 1:
            for single in trig.singles():
                # Not ``self.trigger_all``: a deferring subclass lands
                # here to *execute* a buffered burst.
                LockstepGroup.trigger_all(self, single)
            return
        units = self.units
        if not (self.enabled and self._fp16_ok):
            for unit in units:
                unit.trigger(trig)
            return
        leader = units[0]
        if leader.exited:
            for unit in units[1:]:
                if not unit.exited:
                    self._scalar(trig)
                    return
            for unit in units:
                stats = unit.stats
                stats.triggers += 1
                stats.ignored_after_exit += 1
            self.batched_triggers += 1
            return
        ppc = leader.ppc
        nop_remaining = leader._nop_remaining
        jump_state = leader._jump_state
        for unit in units[1:]:
            if (
                unit.exited
                or unit.ppc != ppc
                or unit._nop_remaining != nop_remaining
                or unit._jump_state != jump_state
            ):
                self._scalar(trig)
                return
        if not 0 <= ppc < CRF_ENTRIES:
            self._scalar(trig)  # every unit raises identically, in order
            return
        word = leader.regs.crf[ppc]
        for unit in units[1:]:
            if unit.regs.crf[ppc] != word:
                self._scalar(trig)
                return
        try:
            instr = decode(word)
        except ValueError:
            self._scalar(trig)  # garbage word: raise exactly as before
            return
        op = instr.opcode
        if op is Opcode.NOP:
            remaining = nop_remaining - 1
            resolved = None
            if remaining <= 0:
                resolved = self._dry_resolve(ppc + 1, 0, jump_state)
                if resolved is None:
                    self._scalar(trig)
                    return
            for unit in units:
                stats = unit.stats
                stats.triggers += 1
                stats.instructions += 1
                unit._nop_remaining = remaining
            self.batched_triggers += 1
            if resolved is not None:
                self._commit(resolved)
            return
        if op is Opcode.JUMP or op is Opcode.EXIT:
            # A control word at the trigger fetch means the CRF changed
            # under a resolved sequencer; the scalar path raises.
            self._scalar(trig)
            return
        # Control resolution is data-independent, so it dry-runs on a
        # scratch copy *before* the instruction executes: any irregularity
        # (divergent CRF word, bad PPC, garbage word) routes the whole
        # trigger to the scalar loop while every unit is still pristine.
        resolved = self._dry_resolve(ppc + 1, nop_remaining, jump_state)
        if resolved is None:
            self._scalar(trig)
            return
        if not self._execute_batch(instr, trig):
            self._scalar(trig)
            return
        self.batched_triggers += 1
        self._commit(resolved)

    # -- batched execute -----------------------------------------------------------

    def _any_failed(self, space: OperandSpace) -> bool:
        if space is OperandSpace.EVEN_BANK:
            return any(u.even_bank._failed_channel is not None for u in self.units)
        return any(u.odd_bank._failed_channel is not None for u in self.units)

    def _read(
        self, operand: Operand, instr: Instruction, trig: ColumnTrigger
    ) -> np.ndarray:
        """One operand for all units: ``(units, 16)`` or broadcastable."""
        space = operand.space
        if space.is_bank:
            columns = [
                unit._bank(space).peek(trig.row, trig.col) for unit in self.units
            ]
            return np.stack(columns).view(np.float16)
        if space is OperandSpace.HOST:
            return trig.host_fp16()  # (16,) broadcast over (units, 16)
        index = trig.col % GRF_REGS if instr.aam else operand.index
        if space.is_grf:
            return self.stacked.grf(space)[:, index]
        return self.stacked.srf(space)[:, index][:, None]  # (units, 1)

    def _execute_batch(self, instr: Instruction, trig: ColumnTrigger) -> bool:
        """Run one data/ALU instruction on all units at once.

        Returns False (without mutating anything) whenever the scalar
        path would raise or handle an irregular case — the caller then
        delegates to the per-unit loop for exact legacy behaviour.
        """
        op = instr.opcode
        dst = instr.dst
        if op is Opcode.MOV or op is Opcode.FILL:
            reads: Tuple[Operand, ...] = (instr.src0,)
        elif op is Opcode.MUL or op is Opcode.ADD:
            reads = (instr.src0, instr.src1)
        elif op is Opcode.MAC:
            reads = (instr.src0, instr.src1, dst)
        elif op is Opcode.MAD:
            reads = (instr.src0, instr.src1, instr.src2)
        else:
            return False
        bank_reads = 0
        for operand in reads:
            space = operand.space
            if space.is_bank:
                if trig.is_write or self._any_failed(space):
                    return False
                bank_reads += 1
            elif space is OperandSpace.HOST:
                if not trig.is_write or trig.host_data is None:
                    return False
            elif not (space.is_grf or space.is_srf):
                return False
        if dst.space.is_bank:
            if not trig.is_write or self._any_failed(dst.space):
                return False
        elif not dst.space.is_grf:
            return False

        values = [self._read(operand, instr, trig) for operand in reads]
        if op is Opcode.MOV or op is Opcode.FILL:
            result = values[0]
            if instr.relu:
                result = vec_relu(result)
            flops = 0
        elif op is Opcode.MUL:
            result = vec_mul(values[0], values[1])
            flops = LANES
        elif op is Opcode.ADD:
            result = vec_add(values[0], values[1])
            flops = LANES
        elif op is Opcode.MAC:
            result = vec_add(values[2], vec_mul(values[0], values[1]))
            flops = 2 * LANES
        else:  # MAD
            result = vec_add(vec_mul(values[0], values[1]), values[2])
            flops = 2 * LANES

        if dst.space.is_grf:
            index = trig.col % GRF_REGS if instr.aam else dst.index
            self.stacked.grf(dst.space)[:, index] = result
            bank_writes = 0
        else:
            data = np.asarray(result, dtype=np.float16)
            for i, unit in enumerate(self.units):
                unit._bank(dst.space).poke(
                    trig.row, trig.col, data[i].view(np.uint8)
                )
            bank_writes = 1
        for unit in self.units:
            stats = unit.stats
            stats.triggers += 1
            stats.instructions += 1
            stats.flops += flops
            stats.bank_reads += bank_reads
            stats.bank_writes += bank_writes
        return True

    # -- shared control resolution ---------------------------------------------------

    def _dry_resolve(self, ppc, nop_remaining, jump_state):
        """Resolve control on a scratch copy of the shared sequencer state.

        Mirrors :meth:`PimExecutionUnit._resolve_control` exactly —
        zero-cycle JUMP with per-slot iteration counts, EXIT, NOP arming —
        while cross-checking every follower's CRF word at each visited
        program counter.  Returns the post-resolution
        ``(ppc, exited, nop_remaining, jump_state)`` tuple, or None when
        the scalar loop must take over: a follower's CRF diverges at a
        visited index, the PPC leaves the CRF, a word fails to decode, or
        resolution does not converge.  Because nothing has executed yet
        when None is returned, the scalar fallback reproduces legacy
        behaviour (including the exact exception and partial-unit state)
        bit for bit.
        """
        units = self.units
        leader = units[0]
        followers = units[1:]
        jump = dict(jump_state)
        exited = False
        steps = 0
        while not exited:
            steps += 1
            if steps > 1_000_000:
                return None
            if not 0 <= ppc < CRF_ENTRIES:
                return None
            word = leader.regs.crf[ppc]
            for follower in followers:
                if follower.regs.crf[ppc] != word:
                    return None
            try:
                instr = decode(word)
            except ValueError:
                return None
            opcode = instr.opcode
            if opcode is Opcode.JUMP:
                remaining = jump.get(ppc)
                if remaining is None:
                    remaining = instr.imm1
                if remaining > 0:
                    jump[ppc] = remaining - 1
                    ppc += instr.imm0
                else:
                    # Exhausted: fall through and re-arm for re-entry.
                    jump.pop(ppc, None)
                    ppc += 1
                continue
            if opcode is Opcode.EXIT:
                exited = True
                continue
            if opcode is Opcode.NOP and nop_remaining == 0:
                nop_remaining = max(1, instr.imm0)
            break
        return (ppc, exited, nop_remaining, jump)

    def _commit(self, resolved) -> None:
        """Install a dry-resolved sequencer state on every unit."""
        ppc, exited, nop_remaining, jump = resolved
        for i, unit in enumerate(self.units):
            unit.ppc = ppc
            unit.exited = exited
            unit._nop_remaining = nop_remaining
            unit._jump_state = dict(jump) if i else jump
