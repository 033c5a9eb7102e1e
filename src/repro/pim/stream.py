"""A PIM kernel's DRAM command stream, stated once, as data.

The paper's PIM kernel *is* a standard DRAM command stream (Section IV-C /
VII-B): 8 column commands to consecutive columns of one row, a fence,
repeat — each column triggering one microkernel instruction — between
the mode transitions and register loads a launch starts and ends with
(:func:`sb_to_sb`), and SB-mode reads bring a GEMV's partial sums back.
A *program* is such a stream as
an immutable tuple of :class:`Run`\\ s, built from an operator's shape and
base rows.  Everything else reads it: the kernels enqueue it, their
reports and the fabric router count it, Fig. 14's trace generators
rewrite it per variant, the latency model counts it, the exporter emits it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .device import UNITS_PER_PCH
from .isa import GRF_REGS, Instruction, Opcode
from .modes import PimMemoryMap
from .registers import LANES

# What rides on a WR run, as an index into the operand blocks of a launch:
# ``k >= 0`` is chunk ``k`` of the staged input vector, the negative ones
# the blocks every launch keeps at the end of its block list.
ZEROS = -1  # content nothing reads: a GRF -> bank MOV trigger, the GRF_B clear
MODE_OFF = -2  # the two values of the PIM_OP_MODE register
MODE_ON = -3
CRF = -4  # the launch's microkernel image, a column per 8 instructions
SRF = -5  # the launch's SRF_M and SRF_A columns


class Run(NamedTuple):
    """``count`` column commands of one direction to columns ``col ..
    col + count - 1`` of ``row`` in ``bank``: one queue entry, one burst.
    With ``transition``, a *mode transition* of no columns (:func:`transition`)."""

    write: bool
    row: int
    col: int
    count: int
    fence: bool  # a fence follows: later runs never issue before this one
    operand: int = ZEROS  # WR only: the block on the data bus (see above)
    barrier: bool = False  # a fence precedes it too (a mode-register write)
    bank: int = 0  # flat bank index; unit u's even bank is 2u (AB modes ignore it)
    seam: bool = False  # it begins a kernel program of a launch (see ``launch``)
    transition: bool = False  # PREA, then ACT + PRE to ``row`` of ``bank``


Program = Tuple[Run, ...]

# -- shapes: the one statement of the GEMV tiling and the elementwise grouping
# (``scale``: execution resources relative to PIM-HBM — Fig. 14's 2x variant
# has a unit per bank and doubled registers, so a column feeds twice the lanes)


def gemv_shape(m: int, n: int, num_slices: int, scale: int = 1) -> Tuple[int, int]:
    """``(tiles, chunks)``: output tiles of 128 and 8-column input chunks
    of one padded slice of an ``m x n`` GEMV over ``num_slices`` slices."""
    n_slice = -(-n // num_slices)
    return -(-m // (UNITS_PER_PCH * LANES * scale)), -(-n_slice // GRF_REGS)


def elementwise_groups(length: int, slots: int, scale: int = 1) -> int:
    """8-column groups per unit stream of a ``length`` vector whose
    16-element blocks interleave over ``slots`` channel slots."""
    blocks = -(-length // (LANES * scale))
    seq = -(-blocks // (slots * UNITS_PER_PCH))
    return -(-seq // GRF_REGS)


# -- builders (locations default to row 0 of a 32-column bank row: all a
# reader that only counts needs)
_ROW_CHUNKS = 4  # 8-column chunks of that row


def gemv_tile(
    chunks: int, chunks_per_row: int = _ROW_CHUNKS, weight_row: int = 0,
    out_row: int = 0, out_col: int = 0,
) -> Program:
    """One output tile of one input slice, as triggered in AB-PIM mode: per
    chunk a WR burst staging 8 x values into ``GRF_A`` and the RD burst of
    the 8 weight columns at the same address (the MACs), then the WR burst
    that writes the 8 ``GRF_B`` partial sums out."""
    runs: List[Run] = []
    for chunk in range(chunks):
        row, slot = divmod(chunk, chunks_per_row)
        row, col = weight_row + row, slot * GRF_REGS
        runs.append(Run(True, row, col, GRF_REGS, True, chunk))
        runs.append(Run(False, row, col, GRF_REGS, True))
    runs.append(Run(True, out_row, out_col, GRF_REGS, True))
    return tuple(runs)


def gemv_readback(out_row: int, out_col: int, scale: int = 1) -> Program:
    """One tile's partial sums back to the host in SB mode: per unit one
    unfenced RD run of the 8 ``GRF_B`` columns it wrote to its (even)
    bank — ``scale`` 2 has a unit per bank; the controller reorders them."""
    return tuple(
        Run(False, out_row, out_col, GRF_REGS, False, ZEROS, False, unit * 2 // scale)
        for unit in range(UNITS_PER_PCH * scale)
    )


def gemv_slice(tiles: int, chunks: int) -> List[Program]:
    """Every tile of one input slice in 32-column rows: weight rows tile
    after tile from row 0, then the partial sums, 8 columns per tile."""
    per_row = _ROW_CHUNKS
    rows = -(-chunks // per_row)
    return [
        gemv_tile(
            chunks, per_row, tile * rows,
            tiles * rows + tile // per_row, tile % per_row * GRF_REGS,
        )
        for tile in range(tiles)
    ]


# RD runs per group ahead of the result WR run: FILL then the ALU op for the
# two-operand operators, one run for ReLU (FILL) and BN (MAD).
_GROUP_READS = {"add": 2, "mul": 2, "relu": 1, "bn": 1}


def elementwise_stream(
    op: str, groups: int, in_cols: int = _ROW_CHUNKS * GRF_REGS // 2, base_row: int = 0
) -> Program:
    """One channel slot of an elementwise operator, as triggered in AB-PIM
    mode: per 8-column group of the ``in_cols`` operand columns of a row,
    the operator's RD bursts, then the WR burst ``in_cols`` further."""
    runs: List[Run] = []
    for group in range(groups):
        row, slot = divmod(group, in_cols // GRF_REGS)
        row, col = base_row + row, slot * GRF_REGS
        runs.extend([Run(False, row, col, GRF_REGS, True)] * _GROUP_READS[op])
        runs.append(Run(True, row, in_cols + col, GRF_REGS, True))
    return tuple(runs)


def kernel_program(
    body: Program, registers: PimMemoryMap, clear_grf_b: bool = False
) -> Program:
    """``body`` as a channel executes it: between the ``PIM_OP_MODE``
    writes that enter and leave AB-PIM mode, each fenced on both sides,
    after zeroing the 8 ``GRF_B`` accumulators when the body needs that."""
    clear = (Run(True, registers.grf_row, GRF_REGS, GRF_REGS, True),)
    mode_on, mode_off = (
        Run(True, registers.conf_row, registers.PIM_OP_MODE_COL, 1, True, value, True)
        for value in (MODE_ON, MODE_OFF)
    )
    return (clear if clear_grf_b else ()) + (mode_on,) + body + (mode_off,)


def transition(row: int) -> Run:
    """The mode transition a PREA, then an ACT and a PRE to ``row`` — the
    ABMR or the SBMR row — make (Section III-B): no column, no fence.  A
    controller crosses it as it crosses from one drain to the next
    (``repro.dram.controller``)."""
    return Run(False, row, 0, 0, False, transition=True)


def sb_to_sb(
    body: Program, registers: PimMemoryMap, enter: bool = True, leave: bool = True,
    crf: int = 0, srf: bool = False,
) -> Program:
    """``body`` as a launch runs it from SB mode back to SB mode: the
    transition into AB mode (``enter``), the ``crf`` columns of block
    :data:`CRF` into the CRF — they decide the program every window runs
    on, so a plan checks the program with the CRF row keyed
    (``repro.dram.frames.CheckedProgram``) — and block :data:`SRF`
    into SRF_M and SRF_A (``srf``), each a fenced register-row write run,
    then ``body`` and the transition back (``leave``).  A launch that
    spans several drains enters in its first and leaves in its last."""
    head: Tuple[Run, ...] = (transition(registers.abmr_row),) if enter else ()
    if crf:
        head += (Run(True, registers.crf_row, 0, crf, True, CRF),)
    if srf:
        head += (Run(True, registers.srf_row, 0, 2, True, SRF),)
    tail = (transition(registers.sbmr_row),) if leave else ()
    return head + tuple(body) + tail


def launch(programs: Iterable[Tuple[Program, int]]) -> Program:
    """Kernel programs, each with the offset of its operand blocks in one
    block list, as the one program of a launch: each program's staged
    operands (``operand >= 0``) moved up by its offset, and each program
    after the first marked at its first run as beginning at a *seam*.  A
    kernel program ends with a fence, so a seam is a fence epoch boundary,
    and a controller crosses it as it crosses from one drain to the next:
    with no fence penalty (``repro.dram.controller``)."""
    runs: List[Run] = []
    for program, offset in programs:
        for i, run in enumerate(program):
            if run.operand >= 0:
                run = run._replace(operand=run.operand + offset)
            runs.append(run._replace(seam=True) if i == 0 and runs else run)
    return tuple(runs)


# -- readers


def triggers(program: Program) -> Program:
    """The runs of a :func:`kernel_program` between the mode writes: each
    of their columns triggers one microkernel instruction."""
    modes = (MODE_ON, MODE_OFF)
    on, off = (i for i, run in enumerate(program) if run.operand in modes)
    return program[on + 1 : off]


def columns(program: Iterable[Run]) -> int:
    """Column commands the runs put on the bus (a transition puts none)."""
    return sum(run.count for run in program)


def fences(program: Iterable[Run]) -> int:
    """Fences the runs put in the request stream."""
    return sum(run.fence + run.barrier for run in program)


def triggered_instructions(microkernel: Sequence[Instruction]) -> Iterator[Instruction]:
    """The instructions successive column triggers execute: a (NOP-free)
    microkernel with its zero-cycle JUMP loops unrolled, up to EXIT."""
    taken = {}
    pc = 0
    while microkernel[pc].opcode is not Opcode.EXIT:
        instr = microkernel[pc]
        if instr.opcode is not Opcode.JUMP:
            yield instr
            pc += 1
        elif taken.setdefault(pc, instr.imm1) > 0:
            taken[pc] -= 1
            pc += instr.imm0
        else:
            del taken[pc]  # exhausted: re-armed for a later re-entry
            pc += 1
