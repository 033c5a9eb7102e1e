"""Register files of one PIM execution unit (Section IV-A, Table IV).

* **CRF** — command register file: 32 x 32-bit instruction buffer.
* **GRF** — general register file: 16 x 256-bit vector registers, evenly
  split into GRF_A and GRF_B (8 each) for the EVEN/ODD bank pair.
* **SRF** — scalar register file: 16 x 16-bit, split into SRF_M (multiply
  scalars) and SRF_A (add scalars), 8 each; a read broadcasts the scalar to
  all 16 SIMD lanes.

All register files are also memory-mapped (Section III-B: "PIM mode,
configuration, general, command scalar registers are mapped to specific
reserved memory addresses"), so each exposes 32-byte column accessors used
by the register-mapped read/write path in :mod:`repro.pim.device`.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from .isa import CRF_ENTRIES, GRF_REGS, SRF_REGS, OperandSpace

__all__ = [
    "RegisterFiles", "StackedRegisterState", "write_column_run", "LANES", "GRF_REG_BYTES",
]

LANES = 16  # 16 FP16 lanes = 256-bit datapath
GRF_REG_BYTES = LANES * 2  # one GRF register is one 32-byte column


class RegisterFiles:
    """The CRF/GRF/SRF state of one PIM execution unit."""

    def __init__(self) -> None:
        self.crf: List[int] = [0] * CRF_ENTRIES
        self.grf_a = np.zeros((GRF_REGS, LANES), dtype=np.float16)
        self.grf_b = np.zeros((GRF_REGS, LANES), dtype=np.float16)
        self.srf_m = np.zeros(SRF_REGS, dtype=np.float16)
        self.srf_a = np.zeros(SRF_REGS, dtype=np.float16)

    # -- typed accessors ------------------------------------------------------

    def grf(self, space: OperandSpace) -> np.ndarray:
        """The GRF half selected by an operand space."""
        if space is OperandSpace.GRF_A:
            return self.grf_a
        if space is OperandSpace.GRF_B:
            return self.grf_b
        raise ValueError(f"{space} is not a GRF half")

    def srf(self, space: OperandSpace) -> np.ndarray:
        """The SRF half selected by an operand space."""
        if space is OperandSpace.SRF_M:
            return self.srf_m
        if space is OperandSpace.SRF_A:
            return self.srf_a
        raise ValueError(f"{space} is not an SRF half")

    def read_vector(self, space: OperandSpace, index: int) -> np.ndarray:
        """Read a 16-lane FP16 vector operand (SRF scalars broadcast)."""
        if space.is_grf:
            return self.grf(space)[index].copy()
        if space.is_srf:
            return np.full(LANES, self.srf(space)[index], dtype=np.float16)
        raise ValueError(f"cannot read vector from {space}")

    def write_vector(self, space: OperandSpace, index: int, value: np.ndarray) -> None:
        """Write a 16-lane vector into a GRF register."""
        if not space.is_grf:
            raise ValueError(f"cannot write vector to {space}")
        self.grf(space)[index] = np.asarray(value, dtype=np.float16)

    # -- fault injection ------------------------------------------------------

    def flip_bit(self, file: str, index: int, bit: int) -> None:
        """Flip one stored bit of a register word (fault injection).

        ``file`` names the register file (``"crf"``, ``"grf_a"``,
        ``"grf_b"``, ``"srf_m"``, ``"srf_a"``); ``index`` the entry and
        ``bit`` the bit within it (32 bits for a CRF word, 16 per FP16
        element times the lane count for a GRF register, 16 for an SRF
        scalar).
        """
        if file == "crf":
            if not 0 <= bit < 32:
                raise ValueError("CRF bit index out of range")
            self.crf[index] ^= 1 << bit
            return
        try:
            target = {
                "grf_a": self.grf_a,
                "grf_b": self.grf_b,
                "srf_m": self.srf_m,
                "srf_a": self.srf_a,
            }[file]
        except KeyError:
            raise ValueError(f"unknown register file {file!r}") from None
        entry = target[index : index + 1] if target.ndim == 1 else target[index]
        raw = entry.view(np.uint8)
        if not 0 <= bit < raw.size * 8:
            raise ValueError("register bit index out of range")
        raw[bit // 8] ^= 1 << (bit % 8)

    # -- memory-mapped column access (32 bytes per column) ----------------------

    def write_crf_column(self, col: int, data: np.ndarray) -> None:
        """One column write programs 8 consecutive 32-bit CRF entries."""
        words = np.ascontiguousarray(data, dtype=np.uint8).view("<u4")
        base = col * 8
        if base + 8 > CRF_ENTRIES:
            raise IndexError(f"CRF column {col} out of range")
        for i, word in enumerate(words):
            self.crf[base + i] = int(word)

    def read_crf_column(self, col: int) -> np.ndarray:
        """Read 8 CRF entries back as a 32-byte column."""
        base = col * 8
        if base + 8 > CRF_ENTRIES:
            raise IndexError(f"CRF column {col} out of range")
        words = np.array(self.crf[base : base + 8], dtype="<u4")
        return words.view(np.uint8).copy()

    def write_grf_column(self, col: int, data: np.ndarray) -> None:
        """Columns 0-7 map to GRF_A[0..7], 8-15 to GRF_B[0..7]."""
        target = self.grf_a if col < GRF_REGS else self.grf_b
        target[col % GRF_REGS] = (
            np.ascontiguousarray(data, dtype=np.uint8).view(np.float16)
        )

    def read_grf_column(self, col: int) -> np.ndarray:
        """Read one GRF register as raw column bytes."""
        source = self.grf_a if col < GRF_REGS else self.grf_b
        return source[col % GRF_REGS].view(np.uint8).copy()

    def write_srf_column(self, col: int, data: np.ndarray) -> None:
        """Column 0 maps to SRF_M, column 1 to SRF_A (16 bytes each used)."""
        values = np.ascontiguousarray(data, dtype=np.uint8).view(np.float16)[:SRF_REGS]
        if col == 0:
            self.srf_m[:] = values
        elif col == 1:
            self.srf_a[:] = values
        else:
            raise IndexError(f"SRF column {col} out of range")

    def read_srf_column(self, col: int) -> np.ndarray:
        """Read one SRF half as raw column bytes (zero-padded)."""
        if col == 0:
            half = self.srf_m
        elif col == 1:
            half = self.srf_a
        else:
            raise IndexError(f"SRF column {col} out of range")
        out = np.zeros(GRF_REG_BYTES, dtype=np.uint8)
        out[: SRF_REGS * 2] = half.view(np.uint8)
        return out


def write_column_run(
    files: Sequence[RegisterFiles], name: str, col: int, columns: np.ndarray
) -> None:
    """A run of column writes from ``col`` into register file ``name``
    (``"crf"``, ``"grf"`` or ``"srf"``) of each of ``files``, left as its
    columns' ``write_<name>_column`` calls leave them: the run's bytes
    taken apart once, then one assignment per file where the run is one
    CRF span or lies in one GRF half, one per SRF half it covers; column
    by column, each into every file, elsewhere."""
    raw = np.ascontiguousarray(columns, dtype=np.uint8)
    count = len(raw)
    if name == "crf":
        base = col * 8
        if 0 <= base and base + 8 * count <= CRF_ENTRIES:
            words = raw.view("<u4").reshape(-1).tolist()
            for regs in files:
                regs.crf[base : base + len(words)] = words
            return
    elif name == "grf":
        if col // GRF_REGS == (col + count - 1) // GRF_REGS < 2:
            values, first = raw.view(np.float16), col % GRF_REGS
            for regs in files:
                half = regs.grf_a if col < GRF_REGS else regs.grf_b
                half[first : first + count] = values
            return
    elif 0 <= col and col + count <= 2:
        values = raw.view(np.float16)[:, :SRF_REGS]
        for regs in files:
            for half, value in zip((regs.srf_m, regs.srf_a)[col : col + count], values):
                half[:] = value
        return
    for i, column in enumerate(raw):
        for regs in files:
            getattr(regs, f"write_{name}_column")(col + i, column)


class StackedRegisterState:
    """Contiguous ``(units, ...)`` GRF/SRF backing for lock-stepped units.

    The fused replay (:mod:`repro.pim.fused`) reads and writes every
    unit's registers as one stacked ``(units, ...)`` numpy operation,
    which needs every unit's register halves to live in one contiguous
    array.  :meth:`adopt` rebinds a unit's :class:`RegisterFiles` arrays
    to row views of the stacked storage — all per-unit accessors (column
    writes, fault injection, the unit's own execution) keep working
    unchanged on the views, while the replay slices all units at once.

    The CRF is *not* stacked: it stays a per-unit list so units can
    diverge (single-bank programming, fault injection), which the fused
    group detects before it compiles a window.
    """

    def __init__(self, num_units: int):
        self.num_units = num_units
        self.grf_a = np.zeros((num_units, GRF_REGS, LANES), dtype=np.float16)
        self.grf_b = np.zeros((num_units, GRF_REGS, LANES), dtype=np.float16)
        self.srf_m = np.zeros((num_units, SRF_REGS), dtype=np.float16)
        self.srf_a = np.zeros((num_units, SRF_REGS), dtype=np.float16)

    def adopt(self, unit_index: int, regs: RegisterFiles) -> None:
        """Rebind ``regs``'s GRF/SRF arrays to views of the stacked state."""
        for name in ("grf_a", "grf_b", "srf_m", "srf_a"):
            view = getattr(self, name)[unit_index]
            view[...] = getattr(regs, name)
            setattr(regs, name, view)

    def grf(self, space: OperandSpace) -> np.ndarray:
        """The stacked ``(units, regs, lanes)`` GRF half for ``space``."""
        if space is OperandSpace.GRF_A:
            return self.grf_a
        if space is OperandSpace.GRF_B:
            return self.grf_b
        raise ValueError(f"{space} is not a GRF half")

    def srf(self, space: OperandSpace) -> np.ndarray:
        """The stacked ``(units, regs)`` SRF half for ``space``."""
        if space is OperandSpace.SRF_M:
            return self.srf_m
        if space is OperandSpace.SRF_A:
            return self.srf_a
        raise ValueError(f"{space} is not an SRF half")
