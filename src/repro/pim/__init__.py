"""The paper's core contribution: PIM-HBM ISA, execution unit and device."""

from .assembler import AssemblyError, assemble, assemble_words, disassemble
from .device import PimHbmDevice, PimPseudoChannel, UNITS_PER_PCH
from .exec_unit import ColumnTrigger, PimExecutionUnit, PimProgramError, UnitStats
from .isa import (
    CRF_ENTRIES,
    GRF_REGS,
    SRF_REGS,
    Instruction,
    Opcode,
    Operand,
    OperandSpace,
    decode,
    encode,
    legal_compute_combinations,
    legal_move_combinations,
)
from .modes import ModeController, PimMemoryMap, PimMode
from .registers import GRF_REG_BYTES, LANES, RegisterFiles

__all__ = [
    "AssemblyError",
    "assemble",
    "assemble_words",
    "disassemble",
    "PimHbmDevice",
    "PimPseudoChannel",
    "UNITS_PER_PCH",
    "ColumnTrigger",
    "PimExecutionUnit",
    "PimProgramError",
    "UnitStats",
    "CRF_ENTRIES",
    "GRF_REGS",
    "SRF_REGS",
    "Instruction",
    "Opcode",
    "Operand",
    "OperandSpace",
    "decode",
    "encode",
    "legal_compute_combinations",
    "legal_move_combinations",
    "ModeController",
    "PimMemoryMap",
    "PimMode",
    "RegisterFiles",
    "GRF_REG_BYTES",
    "LANES",
]
