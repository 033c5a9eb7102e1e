"""The PIM memory manager (Section V-A) and data-layout helpers (Fig. 15).

Three responsibilities from the paper:

* govern the memory the driver reserved (delegated to
  :class:`repro.stack.driver.PimDeviceDriver`);
* cache generated **microkernel code** so repeated invocations skip the CRF
  reprogramming commands ("stores not only generated PIM microkernel code
  ... in cache area for later use");
* place operand data **PIM-friendly**: Fig. 15(b) requires elementwise
  operands at 128-byte-aligned boundaries with vectors padded ("concatenate
  dummy values") to the PIM chunk multiple.

The layout helpers reason about *physical addresses* through
:class:`repro.host.memmap.AddressMap`, demonstrating the paper's claim that
the architecture is agnostic to the host's interleaving scheme as long as
the BLAS knows it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..host.memmap import AddressMap, DramAddress
from ..pim.assembler import assemble_words

__all__ = [
    "MicrokernelCache",
    "PimLayout",
    "aligned_size",
    "pad_vector",
    "chunk_locations",
]


class MicrokernelCache:
    """Caches assembled CRF images by source text.

    The runtime consults this before programming the CRF (the PIM memory
    manager's "cache area"); a hit means the source needs no assembling.
    Whether a launch writes the CRF at all is the device's answer: it
    loads where some unit's CRF differs from the image.
    """

    def __init__(self) -> None:
        self._images: Dict[str, List[int]] = {}
        self._blocks: Dict[str, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def get(self, source: str) -> List[int]:
        """The CRF image for ``source``, assembling on first use."""
        words = self._images.get(source)
        if words is None:
            self.misses += 1
            words = assemble_words(source)
            self._images[source] = words
        else:
            self.hits += 1
        return words

    def image(self, source: str) -> np.ndarray:
        """:meth:`get`'s words as the ``(columns, 32)`` bytes a CRF load
        writes, column ``c`` holding CRF entries ``8c .. 8c + 7``."""
        words = self.get(source)
        if source not in self._blocks:
            self._blocks[source] = np.array(words, dtype="<u4").view(np.uint8).reshape(-1, 32)
        return self._blocks[source]

    def __len__(self) -> int:
        return len(self._images)


def aligned_size(num_elements: int, chunk_bytes: int = 256, dtype_bytes: int = 2) -> int:
    """Elements after padding to the PIM chunk multiple (Fig. 15(b)).

    A 256-byte chunk is 8 columns x 32 bytes — the GRF capacity one AAM
    window covers.  Vectors that are not a multiple get dummy elements
    concatenated; the paper notes the overhead is negligible for the large
    vectors PIM targets.
    """
    chunk_elems = chunk_bytes // dtype_bytes
    return -(-num_elements // chunk_elems) * chunk_elems


def pad_vector(values: np.ndarray, chunk_bytes: int = 256) -> np.ndarray:
    """Pad an FP16 vector with dummy zeros to the PIM chunk multiple."""
    values = np.asarray(values, dtype=np.float16).reshape(-1)
    total = aligned_size(values.size, chunk_bytes)
    if total == values.size:
        return values.copy()
    out = np.zeros(total, dtype=np.float16)
    out[: values.size] = values
    return out


@dataclass(frozen=True)
class PimLayout:
    """Physical placement of one operand vector under an address map.

    ``base`` must be aligned to the PIM chunk (128-byte boundaries in the
    paper's Fig. 15(b) example with 4-column chunks; 256 bytes with our
    8-column GRF window) so that every chunk occupies whole columns of a
    single bank row.
    """

    amap: AddressMap
    base: int
    num_elements: int
    dtype_bytes: int = 2

    def __post_init__(self) -> None:
        if self.base % self.chunk_bytes:
            raise ValueError(
                f"operand base {self.base:#x} is not {self.chunk_bytes}-byte aligned"
            )

    @property
    def chunk_bytes(self) -> int:
        return self.amap.pim_chunk_bytes

    @property
    def padded_elements(self) -> int:
        return aligned_size(self.num_elements, self.chunk_bytes, self.dtype_bytes)

    @property
    def num_chunks(self) -> int:
        return self.padded_elements * self.dtype_bytes // self.chunk_bytes

    def chunk_address(self, index: int) -> DramAddress:
        """DRAM coordinates of chunk ``index`` (its first column)."""
        if not 0 <= index < self.num_chunks:
            raise IndexError(f"chunk {index} out of range")
        return self.amap.decode(self.base + index * self.chunk_bytes)

    def element_address(self, index: int) -> DramAddress:
        """DRAM coordinates of one element."""
        if not 0 <= index < self.num_elements:
            raise IndexError(f"element {index} out of range")
        return self.amap.decode(self.base + index * self.dtype_bytes)

    def chunks_are_bank_local(self) -> bool:
        """True iff every chunk's 8 columns share one (pch, bank, row) —
        the property the Fig. 15(a) mapping guarantees and PIM requires."""
        for chunk in range(self.num_chunks):
            first = self.chunk_address(chunk)
            for col in range(1, self.chunk_bytes // 32):
                addr = self.amap.decode(self.base + chunk * self.chunk_bytes + col * 32)
                if (addr.pch, addr.bg, addr.ba, addr.row) != (
                    first.pch, first.bg, first.ba, first.row,
                ):
                    return False
        return True


def chunk_locations(layout: PimLayout) -> List[Tuple[int, int, int, int]]:
    """(pch, bank_index, row, col_base) of each chunk — what a kernel needs
    to build its lock-step command stream for this operand."""
    out = []
    for chunk in range(layout.num_chunks):
        addr = layout.chunk_address(chunk)
        out.append((addr.pch, addr.bank_index, addr.row, addr.col))
    return out
