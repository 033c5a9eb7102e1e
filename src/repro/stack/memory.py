"""The PIM memory manager (Section V-A): the microkernel cache.

Three responsibilities from the paper:

* govern the memory the driver reserved (delegated to
  :class:`repro.stack.driver.PimDeviceDriver`);
* cache generated **microkernel code** so repeated invocations skip the CRF
  reprogramming commands ("stores not only generated PIM microkernel code
  ... in cache area for later use") — :class:`MicrokernelCache`;
* place operand data **PIM-friendly** (Fig. 15(b)): done by the kernels
  that stage it.  Row sets come from ``driver.alloc_rows``; a GEMV weight
  tile goes to the units' banks as ``kernels._tile_block`` lays it, unit
  ``u`` holding output rows ``16 u .. 16 u + 15``, one per lane, one input
  per column; an elementwise operand is padded with dummy
  zeros to whole 16-lane blocks (``ElementwiseKernel._padded``) and
  scattered to the same columns of every even (or odd) bank, so one
  lock-step command stream serves every operand.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..pim.assembler import assemble_words

__all__ = ["MicrokernelCache"]


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

