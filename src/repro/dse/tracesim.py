"""Trace-driven DRAM simulation — the role DRAMSim2 plays in the paper.

Section VII-D evaluates the 2x/2BA/SRW variants "with a modified version of
DRAMSim2", noting the results are theoretical upper bounds because the host
processor is not modelled.  This module provides the same capability:

* a tiny text trace format (one command per line);
* :class:`TraceReplayer`, which replays a trace in order against any
  :class:`~repro.dram.timing.TimingParams` at the earliest legal cycles —
  no controller, no fences, no host: the pure DRAM-side upper bound;
* generators that emit a kernel's command program
  (:mod:`repro.pim.stream` — what the kernels enqueue) as such a trace,
  rewritten as each Fig. 14 variant rewrites it — the AB-PIM stream only,
  on purpose: a GEMV's SB-mode readback (``stream.gemv_readback``) is not.

Lock-step (AB-mode) streams address a single bank: per-bank and
same-bank-group constraints then coincide with the all-bank broadcast
timing, so a plain pseudo-channel replays them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from ..dram.bank import BankConfig
from ..dram.commands import Command, CommandType
from ..dram.pseudochannel import PseudoChannel
from ..dram.timing import TimingParams
from ..pim import stream
from .variants import PimVariant, VARIANTS

__all__ = [
    "TraceCommand",
    "parse_trace",
    "format_trace",
    "TraceReplayer",
    "gemv_trace",
    "elementwise_trace",
    "replay_variant_gemv",
    "replay_variant_elementwise",
]


@dataclass(frozen=True)
class TraceCommand:
    """One line of a command trace."""

    kind: str  # ACT | PRE | PREA | RD | WR | REF
    bg: int = 0
    ba: int = 0
    row: int = 0
    col: int = 0

    def to_line(self) -> str:
        """Serialise to the one-line trace format."""
        return f"{self.kind} {self.bg} {self.ba} {self.row} {self.col}"


def parse_trace(text: str) -> List[TraceCommand]:
    """Parse a trace: ``KIND bg ba row col`` per line; '#' comments."""
    out: List[TraceCommand] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0].upper()
        if kind not in CommandType.__members__:
            raise ValueError(f"line {line_no}: unknown command {kind!r}")
        numbers = [int(p) for p in parts[1:]]
        numbers += [0] * (4 - len(numbers))
        out.append(TraceCommand(kind, *numbers[:4]))
    return out


def format_trace(commands: Iterable[TraceCommand]) -> str:
    """Serialise a command list to trace text (inverse of parse_trace)."""
    return "\n".join(cmd.to_line() for cmd in commands)


class TraceReplayer:
    """Replays a command trace in order at the earliest legal cycles."""

    def __init__(self, timing: TimingParams, num_rows: int = 8192):
        self.timing = timing
        self.num_rows = num_rows

    def replay(self, commands: Iterable[TraceCommand]) -> int:
        """Returns the cycle at which the last command issues."""
        channel = PseudoChannel(self.timing, BankConfig(num_rows=self.num_rows))
        dummy = np.zeros(channel.bank_config.col_bytes, dtype=np.uint8)
        cycle = 0
        last = 0
        for tc in commands:
            kind = CommandType[tc.kind]
            cmd = Command(
                kind, tc.bg, tc.ba, row=tc.row, col=tc.col,
                data=dummy if kind is CommandType.WR else None,
            )
            cycle = max(cycle, channel.earliest_issue(cmd))
            channel.issue(cmd, cycle)
            last = cycle
            cycle += 1
        return last

    def bandwidth(self, commands: List[TraceCommand], col_bytes: int = 32) -> float:
        """Average bytes/cycle over the replayed trace."""
        columns = sum(1 for c in commands if c.kind in ("RD", "WR"))
        cycles = self.replay(commands)
        return columns * col_bytes / cycles if cycles else 0.0


# ---------------------------------------------------------------------------
# Kernel trace generators (per pseudo-channel, lock-step -> single bank)
# ---------------------------------------------------------------------------


def _program_trace(program: stream.Program) -> List[TraceCommand]:
    """A program's column commands, with the PRE / ACT pair each row
    change needs and the closing PRE."""
    out: List[TraceCommand] = []
    open_row = None
    for run in program:
        if open_row != run.row:
            if open_row is not None:
                out.append(TraceCommand("PRE"))
            out.append(TraceCommand("ACT", row=run.row))
            open_row = run.row
        kind = "WR" if run.write else "RD"
        out.extend(
            TraceCommand(kind, row=run.row, col=run.col + j) for j in range(run.count)
        )
    if open_row is not None:
        out.append(TraceCommand("PRE"))
    return out


def gemv_trace(
    m: int, n: int, num_pchs: int, variant: Optional[PimVariant] = None
) -> List[TraceCommand]:
    """The AB-PIM GEMV command stream of one pseudo-channel: every tile's
    program of one input slice, as the variant rewrites it (SRW's combined
    slots are emitted as RDs — the WR data rides along)."""
    variant = variant or VARIANTS["PIM-HBM"]
    tiles, chunks = stream.gemv_shape(m, n, num_pchs, variant.lanes_scale)
    program = sum(stream.gemv_slice(tiles, chunks), ())
    return _program_trace(variant.rewrite(program))


def elementwise_trace(
    elements: int, num_pchs: int, op: str = "add", variant: Optional[PimVariant] = None
) -> List[TraceCommand]:
    """The AB-PIM stream of one channel slot of elementwise operator
    ``op``, as the variant rewrites it; element throughput scales with
    the variant's lane count."""
    variant = variant or VARIANTS["PIM-HBM"]
    groups = stream.elementwise_groups(elements, num_pchs, variant.lanes_scale)
    program = stream.elementwise_stream(op, groups)
    return _program_trace(variant.rewrite(program))


def replay_variant_gemv(
    variant_name: str, m: int, n: int, num_pchs: int, timing: TimingParams
) -> int:
    """Upper-bound cycles of one variant's GEMV stream (one channel)."""
    trace = gemv_trace(m, n, num_pchs, VARIANTS[variant_name])
    return TraceReplayer(timing).replay(trace)


def replay_variant_elementwise(
    variant_name: str, elements: int, num_pchs: int, timing: TimingParams,
    bn: bool = False,
) -> int:
    """Upper-bound cycles of one variant's elementwise stream."""
    trace = elementwise_trace(
        elements, num_pchs, "bn" if bn else "add", VARIANTS[variant_name]
    )
    return TraceReplayer(timing).replay(trace)
