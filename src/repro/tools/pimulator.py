"""HBM-PIMulator textual trace frontend: parse, execute, emit.

The simulator ecosystem around PIM-HBM exchanges workloads as plain-text
traces — one device-visible operation per line.  This module makes that
ISA a first-class input *and* output of our stack: external traces
become deterministic regression/load-test vectors executed against our
device model, and our recorded request streams can be emitted back out
in the same ISA for other simulators to consume.

Line forms accepted (comments start ``#``, blank lines are skipped)::

    SB R [PA]             single-bank read at a 35-bit physical address
    SB W [PA]             single-bank write
    R/W GPR [id]          host-side staging register (AiM frontend)
    R/W CFR [id] [data]   configuration register (0 broadcast, 1
                          EWUL_bg, 2 afm)
    R/W MEM [ch] [bank] [row]   direct bank-row access
    AB W                  enter all-bank mode
    PIM <OP> [DST] [SRC0] [SRC1]   one PIM instruction; operands are
                          ``GRF,k`` / ``BANK,k`` / ``SRF,k`` tokens, or
                          ``HOST,0`` for the burst of a triggering WR
    PIM NOP|JUMP|EXIT     sequencer control (no architectural effect)
    AiM WR_SBK [gpr] [ch_mask] [bank] [row]
    AiM WR_GB  [opsize] [gpr] [ch_mask]
    AiM WR_BIAS [gpr] [ch_mask]

The 35-bit physical address packs, MSB first::

    [1 Rank][6 Channel][2 Bankgroup][2 Bank][14 Row][5 Column][5 Offset]

with rank 0 addressing the PIM die.  Trace lines carry no data payloads,
so execution synthesises deterministic column data from a running
operation counter — two executions of the same operation sequence are
bit-identical, which is what makes ``execute(parse(emit(parse(t))))``
comparable to ``execute(parse(t))`` by digest.

Malformed lines raise :class:`~repro.errors.PimReplayError` with the
1-based line number.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..dram.ecc import peek_block
from ..dram.pseudochannel import BANKS_PER_GROUP
from ..dram.timing import TimingParams
from ..errors import PimReplayError
from ..pim import isa, stream
from ..pim.assembler import assemble
from ..pim.device import PimPseudoChannel
from ..pim.exec_unit import ColumnTrigger
from ..pim.isa import Operand, OperandSpace
from ..stack.kernels import ELEMENTWISE_OPS, GemvKernel

__all__ = [
    "PhysicalAddress",
    "TraceOp",
    "TraceExecution",
    "parse_trace",
    "execute_trace",
    "emit_trace",
    "requests_to_trace",
    "sample_trace",
]

# MSB-first field widths of the 35-bit physical address.
_PA_FIELDS: Tuple[Tuple[str, int], ...] = (
    ("rank", 1),
    ("channel", 6),
    ("bankgroup", 2),
    ("bank", 2),
    ("row", 14),
    ("column", 5),
    ("offset", 5),
)
PA_BITS = sum(width for _, width in _PA_FIELDS)


@dataclass(frozen=True)
class PhysicalAddress:
    """One decoded 35-bit HBM-PIMulator physical address."""

    rank: int = 0
    channel: int = 0
    bankgroup: int = 0
    bank: int = 0
    row: int = 0
    column: int = 0
    offset: int = 0

    def encode(self) -> int:
        """Pack back into the 35-bit integer form."""
        value = 0
        for name, width in _PA_FIELDS:
            part = getattr(self, name)
            if not 0 <= part < (1 << width):
                raise PimReplayError(
                    f"PA field {name}={part} does not fit {width} bits"
                )
            value = (value << width) | part
        return value

    @classmethod
    def decode(cls, value: int) -> "PhysicalAddress":
        """Unpack a 35-bit integer physical address."""
        if not 0 <= value < (1 << PA_BITS):
            raise PimReplayError(
                f"physical address {value} does not fit {PA_BITS} bits"
            )
        parts: Dict[str, int] = {}
        shift = PA_BITS
        for name, width in _PA_FIELDS:
            shift -= width
            parts[name] = (value >> shift) & ((1 << width) - 1)
        return cls(**parts)


#: PIM operand spaces a trace may name, and the mnemonics of each class.
_PIM_SPACES = ("GRF", "BANK", "SRF", "HOST")
_PIM_COMPUTE = ("ADD", "MUL", "MAC", "MAD")
_PIM_MOVE = ("MOV", "FILL")
_PIM_CONTROL = ("NOP", "JUMP", "EXIT")
#: AiM mnemonics with a fixed operand count (others accept any ints).
_AIM_ARITY = {"WR_SBK": 4, "WR_GB": 3, "WR_BIAS": 2}


@dataclass(frozen=True)
class TraceOp:
    """One parsed trace line, lossless for re-emission.

    ``kind`` is the leading token class (``SB``/``GPR``/``CFR``/``MEM``/
    ``AB``/``PIM``/``AiM``); register operands of PIM lines are kept as
    ``(space, index)`` pairs exactly as written.
    """

    kind: str
    rw: Optional[str] = None
    mnemonic: Optional[str] = None
    args: Tuple[int, ...] = ()
    operands: Tuple[Tuple[str, int], ...] = ()

    @property
    def pa(self) -> Optional[PhysicalAddress]:
        """The decoded physical address of an ``SB`` op (else None)."""
        if self.kind == "SB" and self.args:
            return PhysicalAddress.decode(self.args[0])
        return None

    def emit(self) -> str:
        """The canonical text line of this operation."""
        if self.kind == "SB":
            return f"SB {self.rw} {self.args[0]}"
        if self.kind == "AB":
            return f"AB {self.rw}"
        if self.kind in ("GPR", "CFR", "MEM"):
            tail = " ".join(str(a) for a in self.args)
            return f"{self.rw} {self.kind} {tail}".rstrip()
        if self.kind == "PIM":
            tokens = [f"{space},{index}" for space, index in self.operands]
            tokens.extend(str(a) for a in self.args)
            body = " ".join(tokens)
            return f"PIM {self.mnemonic} {body}".rstrip()
        if self.kind == "AiM":
            tail = " ".join(str(a) for a in self.args)
            return f"AiM {self.mnemonic} {tail}".rstrip()
        raise PimReplayError(f"cannot emit trace op kind {self.kind!r}")


def _parse_int(token: str, lineno: int) -> int:
    try:
        return int(token, 0)
    except ValueError:
        raise PimReplayError(f"line {lineno}: expected an integer, got {token!r}")


def _parse_operand(token: str, lineno: int) -> Tuple[str, int]:
    space, sep, index = token.partition(",")
    if not sep or space not in _PIM_SPACES:
        raise PimReplayError(
            f"line {lineno}: bad PIM operand {token!r} "
            f"(expected SPACE,INDEX with SPACE in {_PIM_SPACES})"
        )
    return space, _parse_int(index, lineno)


def _parse_line(tokens: List[str], lineno: int) -> TraceOp:
    head = tokens[0]
    if head == "SB":
        if len(tokens) != 3 or tokens[1] not in ("R", "W"):
            raise PimReplayError(f"line {lineno}: expected 'SB R|W <pa>'")
        pa = _parse_int(tokens[2], lineno)
        try:
            PhysicalAddress.decode(pa)  # range check at parse time
        except PimReplayError as exc:
            raise PimReplayError(f"line {lineno}: {exc}")
        return TraceOp("SB", rw=tokens[1], args=(pa,))
    if head == "AB":
        if len(tokens) != 2 or tokens[1] != "W":
            raise PimReplayError(f"line {lineno}: expected 'AB W'")
        return TraceOp("AB", rw="W")
    if head in ("R", "W"):
        if len(tokens) < 2:
            raise PimReplayError(f"line {lineno}: bare {head!r}")
        target = tokens[1]
        raw = [t.strip('"') for t in tokens[2:]]
        args = tuple(_parse_int(t, lineno) for t in raw)
        if target == "GPR" and len(args) == 1:
            return TraceOp("GPR", rw=head, args=args)
        if target == "CFR" and len(args) in (1, 2):
            return TraceOp("CFR", rw=head, args=args)
        if target == "MEM" and len(args) == 3:
            return TraceOp("MEM", rw=head, args=args)
        raise PimReplayError(
            f"line {lineno}: bad {head} {target} operand count"
        )
    if head == "PIM":
        if len(tokens) < 2:
            raise PimReplayError(f"line {lineno}: PIM without a mnemonic")
        mnemonic = tokens[1]
        if mnemonic in _PIM_CONTROL:
            args = tuple(_parse_int(t, lineno) for t in tokens[2:])
            return TraceOp("PIM", mnemonic=mnemonic, args=args)
        if mnemonic not in _PIM_COMPUTE and mnemonic not in _PIM_MOVE:
            raise PimReplayError(
                f"line {lineno}: unknown PIM mnemonic {mnemonic!r}"
            )
        operands = tuple(_parse_operand(t, lineno) for t in tokens[2:])
        expected = 2 if mnemonic in _PIM_MOVE else 3
        if len(operands) != expected:
            raise PimReplayError(
                f"line {lineno}: PIM {mnemonic} takes {expected} operands, "
                f"got {len(operands)}"
            )
        return TraceOp("PIM", mnemonic=mnemonic, operands=operands)
    if head == "AiM":
        if len(tokens) < 2:
            raise PimReplayError(f"line {lineno}: AiM without a mnemonic")
        mnemonic = tokens[1]
        args = tuple(_parse_int(t, lineno) for t in tokens[2:])
        arity = _AIM_ARITY.get(mnemonic)
        if arity is not None and len(args) != arity:
            raise PimReplayError(
                f"line {lineno}: AiM {mnemonic} takes {arity} args, "
                f"got {len(args)}"
            )
        return TraceOp("AiM", mnemonic=mnemonic, args=args)
    raise PimReplayError(f"line {lineno}: unknown trace line head {head!r}")


def parse_trace(text: str) -> List[TraceOp]:
    """Parse a trace body into operations (comments/blank lines skipped)."""
    ops: List[TraceOp] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        ops.append(_parse_line(line.split(), lineno))
    return ops


def emit_trace(ops: Iterable[TraceOp]) -> str:
    """The canonical text form of ``ops`` (one line each, trailing \\n)."""
    lines = [op.emit() for op in ops]
    return "\n".join(lines) + ("\n" if lines else "")


# -- execution --------------------------------------------------------------------


def _map_operand(
    mnemonic: str, position: int, space: str, index: int
) -> Operand:
    """One trace operand token as a device ISA operand.

    ``GRF,k`` maps to GRF_A (k < 8) or GRF_B (k - 8); ``BANK,k`` maps to
    the even/odd bank of the pair by parity; ``SRF,k`` maps to the
    adder-side SRF_A for ADD and the multiplier-side SRF_M elsewhere
    (the Table II legality split of the device ISA); ``HOST,0`` is the
    data burst of the WR that triggers the instruction.
    """
    if space == "HOST":
        return Operand(OperandSpace.HOST, 0)
    if space == "GRF":
        if 0 <= index < isa.GRF_REGS:
            return Operand(OperandSpace.GRF_A, index)
        if index < 2 * isa.GRF_REGS:
            return Operand(OperandSpace.GRF_B, index - isa.GRF_REGS)
        raise PimReplayError(f"GRF index {index} out of range")
    if space == "BANK":
        return Operand(
            OperandSpace.EVEN_BANK if index % 2 == 0 else OperandSpace.ODD_BANK,
            0,
        )
    # SRF: the destination slot never takes an SRF, so position > 0 here.
    if not 0 <= index < isa.SRF_REGS:
        raise PimReplayError(f"SRF index {index} out of range")
    if mnemonic == "ADD":
        return Operand(OperandSpace.SRF_A, index)
    return Operand(OperandSpace.SRF_M, index)


def _pim_instruction(op: TraceOp) -> Optional[isa.Instruction]:
    """The device instruction of one PIM trace line (None for control)."""
    mnemonic = op.mnemonic
    if mnemonic in _PIM_CONTROL:
        return None
    mapped = [
        _map_operand(mnemonic, i, space, index)
        for i, (space, index) in enumerate(op.operands)
    ]
    try:
        if mnemonic == "MOV":
            return isa.mov(mapped[0], mapped[1])
        if mnemonic == "FILL":
            return isa.fill(mapped[0], mapped[1])
        if mnemonic == "ADD":
            return isa.add(mapped[0], mapped[1], mapped[2])
        if mnemonic == "MUL":
            return isa.mul(mapped[0], mapped[1], mapped[2])
        if mnemonic == "MAC":
            return isa.mac(mapped[0], mapped[1], mapped[2])
        # MAD: src2 carries the addend from the adder-side SRF at the
        # same index as src1 (the ISA's SRC1# == SRC2# constraint).
        src2_space = (
            OperandSpace.SRF_A
            if mapped[2].space in (OperandSpace.SRF_M, OperandSpace.SRF_A)
            else mapped[2].space
        )
        return isa.mad(
            mapped[0], mapped[1], mapped[2], Operand(src2_space, mapped[2].index)
        )
    except (ValueError, PimReplayError) as exc:
        raise PimReplayError(f"illegal PIM {mnemonic} operands: {exc}")


class TraceExecution:
    """Executes parsed trace operations against the PIM device model.

    Channels are materialised lazily as :class:`PimPseudoChannel`
    replicas (trace channel ids fold modulo ``channels``); PIM lines run
    on unit 0 of channel 0 through the real CRF-programmed sequencer
    path, at the row/column cursor of the most recent bank access.
    ``state_digest()`` summarises every device-visible effect — bank
    contents, register files, GPR/CFR/global-buffer state, and the bytes
    every read returned — so two executions agree iff the device agrees.
    """

    def __init__(self, channels: int = 2):
        if channels < 1:
            raise PimReplayError("need at least one trace channel")
        self.channels = int(channels)
        self._timing = TimingParams()
        self._pchs: Dict[int, PimPseudoChannel] = {}
        self._gpr: Dict[int, np.ndarray] = {}
        self._cfr: Dict[int, int] = {}
        self._gb: Dict[int, np.ndarray] = {}
        self._bias: Dict[int, np.ndarray] = {}
        self._hash = hashlib.sha1()
        self._counter = 0
        self._row = 0
        self._col = 0
        self.all_bank = False
        self.executed = 0
        self.pim_instructions = 0

    # -- plumbing ---------------------------------------------------------------

    def _pch(self, channel: int) -> PimPseudoChannel:
        index = channel % self.channels
        pch = self._pchs.get(index)
        if pch is None:
            pch = PimPseudoChannel(self._timing)
            self._pchs[index] = pch
        return pch

    def _bank(self, channel: int, bank: int):
        pch = self._pch(channel)
        return pch.banks[bank % len(pch.banks)]

    def _synth(self) -> np.ndarray:
        """Deterministic 32-byte column payload for the next write.

        Small-integer FP16 lanes (exact, no rounding surprises) derived
        from the running op counter — the only entropy source, so equal
        operation sequences produce equal device state.
        """
        seed = hashlib.sha1(f"pimulator:{self._counter}".encode()).digest()
        self._counter += 1
        lanes = np.array(
            [(seed[i] % 17) - 8 for i in range(16)], dtype=np.float16
        )
        return lanes.view(np.uint8).copy()

    def _fold(self, tag: str, payload: Any) -> None:
        self._hash.update(tag.encode())
        self._hash.update(np.asarray(payload).tobytes())

    # -- execution --------------------------------------------------------------

    def execute(self, ops: Iterable[TraceOp]) -> "TraceExecution":
        """Execute every op in order against the device model; returns self."""
        for op in ops:
            self._execute_one(op)
            self.executed += 1
        return self

    def _execute_one(self, op: TraceOp) -> None:
        if op.kind == "SB":
            pa = op.pa
            bank = self._bank(pa.channel, pa.bankgroup * BANKS_PER_GROUP + pa.bank)
            row = pa.row % bank.config.num_rows
            col = pa.column % bank.config.cols_per_row
            if op.rw == "W":
                bank.poke(row, col, self._synth())
            else:
                self._fold("sb", bank.peek(row, col))
            self._row, self._col = row, col
            return
        if op.kind == "MEM":
            channel, bank_index, row = op.args
            bank = self._bank(channel, bank_index)
            row %= bank.config.num_rows
            if op.rw == "W":
                bank.poke(row, 0, self._synth())
            else:
                self._fold("mem", bank.peek(row, 0))
            self._row, self._col = row, 0
            return
        if op.kind == "GPR":
            (index,) = op.args
            if op.rw == "W":
                self._gpr[index] = self._synth()
            else:
                self._fold("gpr", self._gpr.get(index, np.zeros(32, np.uint8)))
            return
        if op.kind == "CFR":
            index = op.args[0]
            if op.rw == "W":
                self._cfr[index] = op.args[1] if len(op.args) > 1 else 0
            else:
                self._fold("cfr", self._cfr.get(index, 0))
            return
        if op.kind == "AB":
            self.all_bank = True
            return
        if op.kind == "PIM":
            self._execute_pim(op)
            return
        if op.kind == "AiM":
            self._execute_aim(op)
            return
        raise PimReplayError(f"cannot execute trace op kind {op.kind!r}")

    def _execute_pim(self, op: TraceOp) -> None:
        instr = _pim_instruction(op)
        if instr is None:
            return  # sequencer control: no architectural effect here
        unit = self._pch(0).units[0]
        unit.regs.crf[0] = isa.encode(instr)
        unit.regs.crf[1] = isa.encode(isa.exit_())
        unit.start()
        host = instr.src0.space is OperandSpace.HOST
        trig = ColumnTrigger(
            is_write=instr.dst.space.is_bank or host,
            row=self._row,
            col=self._col,
            host_data=self._synth() if host else None,
        )
        unit.trigger(trig)
        self.pim_instructions += 1

    def _execute_aim(self, op: TraceOp) -> None:
        mnemonic = op.mnemonic
        if mnemonic == "WR_SBK":
            gpr, ch_mask, bank_index, row = op.args
            data = self._gpr.get(gpr)
            if data is None:
                data = np.zeros(32, np.uint8)
            for channel in range(self.channels):
                if ch_mask & (1 << channel):
                    bank = self._bank(channel, bank_index)
                    bank.poke(row % bank.config.num_rows, 0, data.copy())
            return
        if mnemonic == "WR_GB":
            _opsize, gpr, ch_mask = op.args
            data = self._gpr.get(gpr, np.zeros(32, np.uint8))
            for channel in range(self.channels):
                if ch_mask & (1 << channel):
                    self._gb[channel] = data.copy()
            return
        if mnemonic == "WR_BIAS":
            gpr, ch_mask = op.args
            data = self._gpr.get(gpr, np.zeros(32, np.uint8))
            for channel in range(self.channels):
                if ch_mask & (1 << channel):
                    self._bias[channel] = data.copy()
            return
        # Unmodelled AiM extension op: deterministic no-op, folded so it
        # still participates in the digest (order matters).
        self._fold(f"aim:{mnemonic}", np.array(op.args, dtype=np.int64))

    # -- results ----------------------------------------------------------------

    def state_digest(self) -> str:
        """Hex digest over every device-visible effect of the execution."""
        digest = self._hash.copy()
        for index in sorted(self._pchs):
            pch = self._pchs[index]
            for b, bank in enumerate(pch.banks):
                for row in bank.materialized_rows():
                    digest.update(f"bank:{index}:{b}:{row}".encode())
                    digest.update(
                        peek_block([bank], row, 0, bank.config.cols_per_row).tobytes()
                    )
            for u, unit in enumerate(pch.units):
                digest.update(f"unit:{index}:{u}".encode())
                digest.update(unit.regs.grf_a.tobytes())
                digest.update(unit.regs.grf_b.tobytes())
                digest.update(unit.regs.srf_m.tobytes())
                digest.update(unit.regs.srf_a.tobytes())
        for store, tag in ((self._gpr, "gpr"), (self._gb, "gb"),
                           (self._bias, "bias")):
            for index in sorted(store):
                digest.update(f"{tag}:{index}".encode())
                digest.update(np.asarray(store[index]).tobytes())
        for index in sorted(self._cfr):
            digest.update(f"cfr:{index}:{self._cfr[index]}".encode())
        return digest.hexdigest()


def execute_trace(
    ops: Iterable[TraceOp], channels: int = 2
) -> TraceExecution:
    """Execute parsed trace operations; returns the finished execution."""
    return TraceExecution(channels=channels).execute(ops)


# -- our requests in their ISA ----------------------------------------------------


def _pim_op(instr: isa.Instruction, col: int) -> TraceOp:
    """The instruction a column command to ``col`` triggers, as a ``PIM``
    line: GRF_A / GRF_B are registers 0-7 / 8-15 of the dialect's one GRF
    space, the bank pair is ``BANK,0`` / ``BANK,1``, and an address-aligned
    register index is the column's low bits."""

    def token(operand: Operand) -> Tuple[str, int]:
        space = operand.space
        if space.is_bank:
            return "BANK", int(space is OperandSpace.ODD_BANK)
        if space is OperandSpace.HOST:
            return "HOST", 0
        index = col % isa.GRF_REGS if instr.aam else operand.index
        if space.is_srf:
            return "SRF", index
        return "GRF", index + isa.GRF_REGS * (space is OperandSpace.GRF_B)

    # MAC's accumulator and MAD's addend (src2) are implied by the dialect.
    operands = (instr.dst, instr.src0, instr.src1)[: 2 if instr.opcode.is_move else 3]
    return TraceOp(
        "PIM", mnemonic=instr.opcode.name, operands=tuple(token(o) for o in operands)
    )


def requests_to_trace(
    requests: Iterable[Any], slices: int = 1, slots: int = 1
) -> List[TraceOp]:
    """Emit a request stream as the trace of its kernels' command programs.

    Each request becomes the program its kernel enqueues
    (:mod:`repro.pim.stream`) on every stream it is spread over — a GEMV
    over ``slices`` input slices, an elementwise vector over ``slots``
    channel slots, each opened by ``AB W`` — with one ``PIM`` line per
    triggering column command: the microkernel instruction that column
    triggers, walked beside the program.  A GEMV stream then reads each
    tile's partial sums back (:func:`~repro.pim.stream.gemv_readback`,
    from where the tile's last run wrote them): one ``SB R`` line per
    column, channel = the stream's index.
    """
    ops: List[TraceOp] = []
    for rid, request in enumerate(requests):
        ops.append(TraceOp("CFR", rw="W", args=(0, rid % 256)))
        readback = []  # (bank group, bank, row, column) of each SB read
        if request.op == "gemv":
            tiles, chunks = stream.gemv_shape(*np.shape(request.weights), slices)
            windows = stream.gemv_slice(tiles, chunks)  # one microkernel run per tile
            source = GemvKernel.MICROKERNEL.format(reps=chunks - 1)
            streams = slices
            readback = [
                (*divmod(run.bank, BANKS_PER_GROUP), run.row, col)
                for window in windows
                for run in stream.gemv_readback(window[-1].row, window[-1].col)
                for col in range(run.col, run.col + run.count)
            ]
        else:
            groups = stream.elementwise_groups(int(np.size(request.a)), slots)
            windows = [stream.elementwise_stream(request.op, groups)]
            source = ELEMENTWISE_OPS[request.op].microkernel.format(reps=groups - 1)
            streams = slots
        microkernel = assemble(source)
        pim = [TraceOp("AB", rw="W")]
        for window in windows:
            instructions = stream.triggered_instructions(microkernel)
            for run in window:
                pim.extend(
                    _pim_op(next(instructions), col)
                    for col in range(run.col, run.col + run.count)
                )
        for channel in range(streams):
            ops.extend(pim)
            ops.extend(
                TraceOp("SB", rw="R", args=(PhysicalAddress(0, channel, *at).encode(),))
                for at in readback
            )
    return ops


def sample_trace() -> str:
    """An ``all_inst.trace``-style sample covering every line form."""
    pa_w = PhysicalAddress(rank=0, channel=1, bankgroup=1, bank=0,
                           row=12, column=3).encode()
    pa_r = PhysicalAddress(rank=0, channel=0, bankgroup=0, bank=1,
                           row=8, column=1).encode()
    return "\n".join(
        [
            "# all_inst-style sample: every line form of the frontend",
            "W CFR 0 1",
            "W GPR 0",
            "W GPR 1",
            "W MEM 0 2 8",
            "R MEM 0 2 8",
            f"SB W {pa_w}",
            f"SB R {pa_r}",
            "AB W",
            "PIM MOV GRF,0 BANK,0",
            "PIM FILL GRF,1 BANK,1",
            "PIM ADD GRF,0 BANK,1 SRF,1",
            "PIM MUL GRF,1 BANK,0 SRF,2",
            "PIM MAC GRF,0 BANK,0 SRF,0",
            "PIM MAD GRF,2 GRF,0 SRF,3",
            "PIM NOP",
            "PIM JUMP 2 4",
            "PIM EXIT",
            "AiM WR_SBK 0 1 0 0",
            "AiM WR_GB 2 2 15",
            "AiM WR_BIAS 4 15",
            "R GPR 0",
            "R CFR 0 0",
        ]
    ) + "\n"
