"""DRAM bus commands.

A :class:`Command` is what travels over the CA bus of one pseudo-channel.
It is the *only* interface between the memory controller and the (PIM-)DRAM
device — the paper's central constraint is that PIM is driven exclusively by
these standard JEDEC commands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

__all__ = ["CommandType", "Command"]


class CommandType(enum.Enum):
    """Standard DRAM command types (JESD235 subset used by the model)."""

    ACT = "ACT"
    PRE = "PRE"
    PREA = "PREA"  # precharge all banks
    RD = "RD"
    WR = "WR"
    REF = "REF"

    # Members are singletons compared by identity; the identity hash keeps
    # the per-command ``cmd_counts[kind]`` lookups out of Python-level
    # ``Enum.__hash__``.
    __hash__ = object.__hash__

    @property
    def is_column(self) -> bool:
        return self is CommandType.RD or self is CommandType.WR


@dataclass
class Command:
    """One CA-bus command addressed to a single pseudo-channel.

    ``bg``/``ba`` select the bank group and bank; they are ignored by the
    device in all-bank (AB / AB-PIM) modes, exactly as Section III-B
    specifies.  ``data`` carries the 32-byte write burst for WR commands.
    ``tag`` is controller-side metadata (e.g. the originating request) and
    never visible to the device.

    ``count > 1`` makes this a *column burst*: ``count`` RD (or WR) commands
    to consecutive columns ``col .. col + count - 1`` of one row, issued
    ``tCCD_L`` apart from the cycle given to ``issue``.  It is shorthand for
    the ``count`` commands :meth:`single` returns — nothing more: ``data``
    is then a ``(count, 32)`` block, one write burst per command, and a
    read burst answers with the ``(count, 32)`` block of its columns.

    ``ahead`` and ``fetched`` spell the *read-ahead* of a row run the
    controller issues column by column.  ``ahead = n`` on a RD promises
    that the next ``n`` reads of this bank are the following columns of the
    row, with no write to them in between: a device that can vouch for all
    ``1 + n`` columns in one pass may answer with their ``(1 + n, 32)``
    block instead of the one column.  The controller then issues those
    reads with ``fetched`` set — commands like any other to the bus, the
    bank's timing and its counters, whose bytes have already crossed.  A
    device is free to ignore ``ahead``; it never sees ``fetched`` unless it
    answered with a block.
    """

    cmd: CommandType
    bg: int = 0
    ba: int = 0
    row: int = 0
    col: int = 0
    data: Optional[np.ndarray] = None
    tag: Any = field(default=None, compare=False)
    count: int = 1
    ahead: int = 0
    fetched: bool = False

    def __post_init__(self) -> None:
        if self.cmd is CommandType.WR and self.data is not None:
            self.data = np.ascontiguousarray(self.data, dtype=np.uint8)

    @property
    def bank_index(self) -> int:
        """Flat bank index within the pseudo-channel (bg*banks_per_bg+ba)."""
        return self.bg * 4 + self.ba

    def single(self, index: int) -> "Command":
        """Command ``index`` of this burst, as an ordinary single command."""
        if self.count == 1:
            return self
        data = self.data
        return Command(
            self.cmd, self.bg, self.ba, self.row, self.col + index,
            data=None if data is None else data[index], tag=self.tag,
        )

    def __repr__(self) -> str:  # compact, for debug traces
        if self.cmd.is_column:
            if self.count > 1:
                return (
                    f"{self.cmd.value}x{self.count}(bg={self.bg},ba={self.ba},"
                    f"row={self.row},col={self.col}..{self.col + self.count - 1})"
                )
            return (
                f"{self.cmd.value}(bg={self.bg},ba={self.ba},"
                f"row={self.row},col={self.col})"
            )
        if self.cmd is CommandType.ACT:
            return f"ACT(bg={self.bg},ba={self.ba},row={self.row})"
        if self.cmd is CommandType.PRE:
            return f"PRE(bg={self.bg},ba={self.ba})"
        return self.cmd.value
