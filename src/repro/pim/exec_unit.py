"""The PIM execution unit (Section IV).

One unit sits at the I/O boundary of a bank *pair* (EVEN_BANK / ODD_BANK)
and contains a 16-wide FP16 SIMD FPU, the CRF/GRF/SRF register files and a
small controller.  It is entirely slaved to the DRAM command stream: in
AB-PIM mode, every column RD/WR command to a non-register address triggers
exactly one PIM instruction with deterministic latency.

The pipeline (Section IV-B) is 5 stages — fetch/decode, bank read, MULT,
ADD, write-back — but because execution is lock-stepped to the column
command cadence (one instruction per tCCD_L), the architectural state
update can be modelled atomically per trigger; the pipeline depth only
contributes a fixed fill/drain latency accounted in the performance model.

Zero-cycle JUMP and multi-cycle NOP are implemented exactly as described:
JUMP is resolved at fetch (it never consumes a column command) with a
pre-programmed iteration count; NOP consumes ``imm0`` triggers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from ..common.fp16 import (
    FP16,
    FloatFormat,
    format_vec_add,
    format_vec_mac,
    format_vec_mul,
    vec_relu,
)
from ..dram.bank import Bank
from ..errors import PimProgramError
from .isa import CRF_ENTRIES, GRF_REGS, Instruction, Opcode, Operand, OperandSpace, decode
from .registers import GRF_REG_BYTES, LANES, RegisterFiles

__all__ = [
    "ColumnTrigger", "PimExecutionUnit", "PimProgramError", "UnitStats",
    "fetch", "resolve_control",
]


def fetch(crf: Sequence[int], ppc: int) -> Instruction:
    """The instruction at PPC ``ppc``; ``ValueError`` if it does not decode."""
    if not 0 <= ppc < CRF_ENTRIES:
        raise PimProgramError(f"PPC {ppc} out of CRF range")
    return decode(crf[ppc])


def resolve_control(
    crf: Sequence[int], ppc: int, nop_remaining: int, jump: Dict[int, int]
) -> Tuple[int, bool, int]:
    """The sequencer's fetch-stage rules, applied from PPC ``ppc`` on.

    A JUMP is zero-cycle: it is taken its pre-programmed number of times
    (``jump`` holds each slot's remaining count and is updated in place;
    an exhausted slot falls through and re-arms for a later re-entry),
    EXIT stops the sequencer, and a NOP met with no cycles pending arms
    ``max(1, imm0)`` of them.  Returns ``(ppc, exited, nop_remaining)``;
    raises :class:`PimProgramError` for a PPC outside the CRF or a
    resolution that does not converge, ``ValueError`` for a word that does
    not decode.  The execution unit and the fused compiler both resolve
    through here.
    """
    for _ in range(1_000_000):
        instr = fetch(crf, ppc)
        op = instr.opcode
        if op is Opcode.JUMP:
            remaining = jump.get(ppc)
            if remaining is None:
                remaining = instr.imm1
            if remaining > 0:
                jump[ppc] = remaining - 1
                ppc += instr.imm0
            else:
                jump.pop(ppc, None)
                ppc += 1
            continue
        if op is Opcode.EXIT:
            return ppc, True, nop_remaining
        if op is Opcode.NOP and nop_remaining == 0:
            nop_remaining = max(1, instr.imm0)
        return ppc, False, nop_remaining
    raise PimProgramError("control-flow resolution did not converge")


@dataclass(frozen=True)
class ColumnTrigger:
    """The DRAM column command that triggers one PIM instruction.

    ``row``/``col`` form the implicit bank address of BANK operands and the
    AAM register index; ``host_data`` is the 32-byte WR burst (None for RD).

    ``count > 1`` is a column burst (see :class:`~repro.dram.commands.Command`):
    the triggers of columns ``col .. col + count - 1``, in that order, with
    ``host_data`` a ``(count, 32)`` block.  Only the exec groups take one;
    a unit executes the single triggers :meth:`singles` yields.
    """

    is_write: bool
    row: int
    col: int
    host_data: Optional[np.ndarray] = None
    count: int = 1

    def singles(self) -> Iterator["ColumnTrigger"]:
        """The single triggers this burst stands for, in issue order."""
        if self.count == 1:
            yield self
            return
        host = self.host_data
        for index in range(self.count):
            yield ColumnTrigger(
                self.is_write, self.row, self.col + index,
                None if host is None else host[index],
            )

    def host_fp16(self) -> np.ndarray:
        """The WR burst as 16 FP16 lanes, built once per broadcast.

        Every unit of a pseudo-channel reads the same HOST operand from
        the same trigger, so the FP16 view is cached on the trigger
        instead of re-deriving (and copying) it per unit.  Callers treat
        the returned array as read-only.
        """
        cached = self.__dict__.get("_host_fp16")
        if cached is None:
            cached = np.ascontiguousarray(
                self.host_data, dtype=np.uint8
            ).view(np.float16)
            object.__setattr__(self, "_host_fp16", cached)
        return cached


@dataclass
class UnitStats:
    """Per-unit execution counters (feed the energy model)."""

    triggers: int = 0
    instructions: int = 0
    flops: int = 0
    bank_reads: int = 0
    bank_writes: int = 0
    ignored_after_exit: int = 0


class PimExecutionUnit:
    """One PIM execution unit shared by an even/odd bank pair."""

    def __init__(
        self,
        unit_id: int,
        even_bank: Bank,
        odd_bank: Bank,
        lane_format: FloatFormat = FP16,
    ):
        self.unit_id = unit_id
        self.even_bank = even_bank
        self.odd_bank = odd_bank
        # The fabricated unit computes FP16; BF16 is the Table I alternative
        # the paper weighed (and rejected for software-ecosystem reasons).
        # Lanes stay 16-bit storage either way; non-FP16 formats run through
        # the bit-accurate softfloat.
        self.lane_format = lane_format
        self.regs = RegisterFiles()
        self.ppc = 0
        self.exited = True  # not started until AB-PIM entry
        self._nop_remaining = 0
        # Remaining taken-count per JUMP slot; absent means "not yet entered",
        # so re-entering an exhausted loop re-arms it (needed for nesting).
        self._jump_state: Dict[int, int] = {}
        self.stats = UnitStats()

    # -- control ---------------------------------------------------------------

    def start(self) -> None:
        """Reset the sequencer; called on AB-PIM mode entry (PPC <- 0)."""
        self.ppc = 0
        self.exited = False
        self._nop_remaining = 0
        self._jump_state.clear()
        self._resolve_control()

    def stop(self) -> None:
        """Called on AB-PIM mode exit."""
        self.exited = True

    def sequencer_state(self) -> tuple:
        """The architectural sequencer state as a hashable snapshot.

        ``(ppc, exited, nop_remaining, sorted jump-slot items)`` — the
        exact state the trace-compiled executor keys its uniformity check
        and compiled-trace cache entries on.
        """
        return (
            self.ppc,
            self.exited,
            self._nop_remaining,
            tuple(sorted(self._jump_state.items())),
        )

    def install_sequencer_state(
        self, ppc: int, exited: bool, nop_remaining: int, jump_items
    ) -> None:
        """Install a resolved sequencer state (compiled-trace replay)."""
        self.ppc = ppc
        self.exited = exited
        self._nop_remaining = nop_remaining
        self._jump_state = dict(jump_items)

    def _resolve_control(self) -> None:
        """Resolve zero-cycle JUMPs (and EXIT) at the fetch stage."""
        self.ppc, self.exited, self._nop_remaining = resolve_control(
            self.regs.crf, self.ppc, self._nop_remaining, self._jump_state
        )

    # -- execution ------------------------------------------------------------

    def trigger(self, trig: ColumnTrigger) -> None:
        """Execute one PIM instruction in response to a column command."""
        self.stats.triggers += 1
        if self.exited:
            # The microkernel has finished; surplus commands are ignored by
            # the sequencer (the bank access itself still happened).
            self.stats.ignored_after_exit += 1
            return
        instr = fetch(self.regs.crf, self.ppc)
        if instr.opcode is Opcode.NOP:
            self._nop_remaining -= 1
            self.stats.instructions += 1
            if self._nop_remaining <= 0:
                self.ppc += 1
                self._resolve_control()
            return
        self._execute(instr, trig)
        self.stats.instructions += 1
        self.ppc += 1
        self._resolve_control()

    def _execute(self, instr: Instruction, trig: ColumnTrigger) -> None:
        op = instr.opcode
        if op is Opcode.MOV or op is Opcode.FILL:
            value = self._read_operand(instr.src0, instr, trig)
            if instr.relu:
                value = vec_relu(value)
            self._write_dst(instr.dst, instr, trig, value)
            return
        a = self._read_operand(instr.src0, instr, trig)
        b = self._read_operand(instr.src1, instr, trig)
        fmt = self.lane_format
        if op is Opcode.MUL:
            result = format_vec_mul(fmt, a, b)
            self.stats.flops += LANES
        elif op is Opcode.ADD:
            result = format_vec_add(fmt, a, b)
            self.stats.flops += LANES
        elif op is Opcode.MAC:
            # The accumulator is the destination register (Section III-C).
            acc = self._read_operand(instr.dst, instr, trig)
            result = format_vec_mac(fmt, acc, a, b)
            self.stats.flops += 2 * LANES
        elif op is Opcode.MAD:
            addend = self._read_operand(instr.src2, instr, trig)
            result = format_vec_add(fmt, format_vec_mul(fmt, a, b), addend)
            self.stats.flops += 2 * LANES
        else:
            raise PimProgramError(f"cannot execute {op}")
        self._write_dst(instr.dst, instr, trig, result)

    # -- operand resolution ------------------------------------------------------

    def _aam_index(self, trig: ColumnTrigger) -> int:
        """Address-aligned-mode register index from the column address.

        The low 3 column-address bits index the 8 registers of a GRF/SRF
        half — the "sub-fields of the row and column addresses" of
        Section IV-C.
        """
        return trig.col % GRF_REGS

    def _reg_index(self, operand: Operand, instr: Instruction, trig: ColumnTrigger) -> int:
        return self._aam_index(trig) if instr.aam else operand.index

    def _bank(self, space: OperandSpace) -> Bank:
        return self.even_bank if space is OperandSpace.EVEN_BANK else self.odd_bank

    def _read_operand(
        self, operand: Operand, instr: Instruction, trig: ColumnTrigger
    ) -> np.ndarray:
        space = operand.space
        if space.is_bank:
            if trig.is_write:
                raise PimProgramError(
                    "bank-sourced operand requires a column RD trigger"
                )
            self.stats.bank_reads += 1
            # peek returns a fresh copy, so the view needs no further copy.
            raw = self._bank(space).peek(trig.row, trig.col)
            return raw.view(np.float16)
        if space is OperandSpace.HOST:
            if not trig.is_write or trig.host_data is None:
                raise PimProgramError("HOST operand requires a column WR trigger")
            return trig.host_fp16()
        if space.is_grf or space.is_srf:
            return self.regs.read_vector(space, self._reg_index(operand, instr, trig))
        raise PimProgramError(f"cannot read operand from {space}")

    def _write_dst(
        self,
        operand: Operand,
        instr: Instruction,
        trig: ColumnTrigger,
        value: np.ndarray,
    ) -> None:
        space = operand.space
        if space.is_grf:
            self.regs.write_vector(space, self._reg_index(operand, instr, trig), value)
            return
        if space.is_bank:
            if not trig.is_write:
                raise PimProgramError(
                    "bank-destination requires a column WR trigger (write drivers)"
                )
            self.stats.bank_writes += 1
            raw = np.asarray(value, dtype=np.float16).view(np.uint8)
            if raw.size != GRF_REG_BYTES:
                raise PimProgramError("bank write must be one full column")
            self._bank(space).poke(trig.row, trig.col, raw)
            return
        raise PimProgramError(f"cannot write result to {space}")
