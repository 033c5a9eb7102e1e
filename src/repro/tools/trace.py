"""Command-bus tracing.

Records every command a (PIM-)pseudo-channel receives — cycle, command,
the device's operation mode at that instant — in the spirit of the
FPGA-based bring-up system of Section VI, which existed precisely to watch
and verify the command stream a JEDEC controller sends to PIM-HBM.

Usage::

    from repro.tools import trace_channel

    with trace_channel(system.device.pch(0)) as trace:
        blas.gemv(w, x)
    print(trace.summary())
    for line in trace.lines()[:20]:
        print(line)
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from ..dram.commands import Command, CommandType

__all__ = ["TraceRecord", "CommandTrace", "trace_channel"]


@dataclass(frozen=True)
class TraceRecord:
    """One command observed on the CA bus — or one column burst: ``count``
    commands to consecutive columns from ``col``, ``tCCD_L`` apart."""

    cycle: int
    command: str
    cmd_type: CommandType
    row: int
    col: int
    mode: str
    count: int = 1

    def __str__(self) -> str:
        return f"{self.cycle:8d}  {self.mode:12s}  {self.command}"


@dataclass
class CommandTrace:
    """A recorded command stream with summary helpers."""

    records: List[TraceRecord] = field(default_factory=list)

    def lines(self) -> List[str]:
        """Human-readable one-line-per-command rendering."""
        return [str(r) for r in self.records]

    def counts(self) -> Dict[CommandType, int]:
        """Command counts by type (a burst counts each of its columns)."""
        out: Dict[CommandType, int] = {}
        for record in self.records:
            out[record.cmd_type] = out.get(record.cmd_type, 0) + record.count
        return out

    def columns_in_mode(self, mode: str) -> int:
        """Column commands observed while the device was in ``mode``."""
        return sum(
            r.count
            for r in self.records
            if r.cmd_type.is_column and r.mode == mode
        )

    def mode_transitions(self) -> List[str]:
        """The sequence of modes the device moved through."""
        out: List[str] = []
        for record in self.records:
            if not out or out[-1] != record.mode:
                out.append(record.mode)
        return out

    def summary(self) -> str:
        """One-line digest: counts, cycle span, mode sequence."""
        counts = ", ".join(
            f"{ct.value}:{n}" for ct, n in sorted(
                self.counts().items(), key=lambda kv: kv[0].value
            )
        )
        span = (
            f"cycles {self.records[0].cycle}..{self.records[-1].cycle}"
            if self.records
            else "empty"
        )
        return f"{sum(self.counts().values())} commands ({counts}); {span}; " \
               f"modes {' -> '.join(self.mode_transitions())}"

    def filter(self, cmd_type: CommandType) -> List[TraceRecord]:
        """Records of one command type."""
        return [r for r in self.records if r.cmd_type is cmd_type]


@contextmanager
def trace_channel(channel: Any) -> Iterator[CommandTrace]:
    """Record every command issued to ``channel`` for the block's duration.

    Works on plain :class:`~repro.dram.pseudochannel.PseudoChannel` and on
    :class:`~repro.pim.device.PimPseudoChannel` (where the current PIM mode
    is attached to each record).  A frame the channel takes in one step
    (``apply_frame``) is recorded as the commands it stands for, each at
    its cycle and in its mode, a burst the device takes whole as one
    record.
    """
    trace = CommandTrace()
    hooked = [name for name in ("issue", "apply_frame") if name in vars(channel)]
    original_issue = channel.issue
    original_frame = channel.apply_frame

    def mode_now() -> str:
        return getattr(getattr(channel, "mode", None), "value", "dram")

    def recording_issue(cmd: Command, cycle: int):
        mode = mode_now()
        seen = len(trace.records)
        result = original_issue(cmd, cycle)
        # A burst the device serves command by command comes back through
        # this hook once per column: those records are the burst.
        if len(trace.records) == seen:
            trace.records.append(
                TraceRecord(cycle, repr(cmd), cmd.cmd, cmd.row, cmd.col, mode, cmd.count)
            )
        return result

    def recording_frame(frame, origin: int, blocks=(), queued=()):
        got = original_frame(frame, origin, blocks, queued)
        if got is not None:
            for kind, bg, ba, row, col, offset, count, mode in frame.steps:
                cmd = Command(kind, bg, ba, row=row, col=col, count=count)
                trace.records.append(TraceRecord(
                    origin + offset, repr(cmd), kind, row, col,
                    getattr(mode, "value", "dram"), count,
                ))
        return got

    channel.issue = recording_issue
    channel.apply_frame = recording_frame
    try:
        yield trace
    finally:
        for name, original in (("issue", original_issue), ("apply_frame", original_frame)):
            if name in hooked:
                setattr(channel, name, original)
            else:
                # Remove the shadowing attribute so the class method shows
                # through again (identity-preserving detach).
                delattr(channel, name)
