"""The device's arithmetic contract, stated once.

PIM-HBM results are *deterministic, bit-exact FP16* (Section V-A over the
Fig. 7 microkernel), and every tier of the stack — the kernels' functional
shortcut, the PIM BLAS references, the server's and the fabric's host
golden paths, the chaos invariants and the end-to-end gates — must agree
on them to the last bit.  This module is the one place that arithmetic is written:

* **GEMV** — within one input slice (one pCH's share of the input
  dimension) every output accumulates in 8 FP16 sub-accumulators, one per
  ``GRF_B`` register, fed round-robin by input position: chunk ``k``
  performs ``acc[j] = fp16(acc[j] + fp16(w[8k + j] * x[8k + j]))`` — a
  two-stage MULT/ADD pipeline, not a fused MAC (:func:`mac_partials`).
  The host then reduces the partial sums in FP32 in one fixed order: the
  sub-accumulators of a slice in register order ``GRF_B[0..7]``, then the
  slice sums in ascending slice order (:func:`reduce_partials`).
* **Elementwise** — ADD / MUL round once to FP16, ReLU is the sign-bit
  mux of ``MOV(RELU)``, BN is the MAD ``fp16(fp16(a * gamma) + beta)``.
* **NaN** — a lane that is NaN stays NaN; its payload (and sign) is not
  part of the contract.  The MAC recurrence computes in float32 rounded
  by :func:`~repro.common.fp16.round16`, the execution units and the
  elementwise references in NumPy float16; the two round every finite
  and infinite result identically but may pick different NaN encodings,
  so a comparison of results compares NaN lanes by NaN-ness.

It imports neither ``kernels`` nor ``runtime``, so every tier above can
call it; :func:`golden_reference` is the single ``op -> reference``
dispatch.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..common.fp16 import round16, vec_relu
from ..errors import PimProgramError
from ..pim.isa import GRF_REGS

__all__ = [
    "mac_partials",
    "reduce_partials",
    "gemv_reference",
    "add_reference",
    "mul_reference",
    "relu_reference",
    "bn_reference",
    "elementwise_reference",
    "golden_reference",
]


def mac_partials(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """FP16 sub-accumulators of input slices: ``(..., rows, n) x (..., n)
    -> (..., 8, rows)``, leading axes broadcast (slices, batch inputs).

    ``n`` is a multiple of 8 (slices are padded); row ``j`` of a slice's
    result is what ``GRF_B[j]`` holds, for every output, after the
    slice's last chunk.  ``w`` holds binary16 values (float16 or float32)
    in any strides; stored input-major — ``w.swapaxes(-1, -2)``
    C-contiguous, as a resident kernel keeps it — the multiply reads it in
    order.
    """
    # Both stages run in float32: a product of two binary16 values is exact
    # there, and round16 after each stage is the FP16 MULT / ADD rounding.
    # The MULT stage depends on its operands only, so every chunk's product
    # is one multiply ahead of the ADD chain (as the device replays it),
    # laid out chunk-major so that each ADD step reads one contiguous block.
    x = np.asarray(x, dtype=np.float32)
    prod = np.multiply(np.swapaxes(w, -1, -2), x[..., np.newaxis], order="C")
    round16(prod)
    *lead, n, rows = prod.shape
    chunks = prod.reshape(*lead, n // GRF_REGS, GRF_REGS, rows)
    # GRF_B starts at +0, and +0 + p is p exactly, except that -0 becomes +0.
    acc = chunks[..., 0, :, :] + np.float32(0.0)
    for k in range(1, n // GRF_REGS):
        acc += chunks[..., k, :, :]
        round16(acc)
    return acc.astype(np.float16)


def reduce_partials(partials: np.ndarray) -> np.ndarray:
    """The host's FP32 reduction of ``(slices, 8, outputs)`` FP16 partial sums.

    Written as explicit sequential adds — registers ``0..7`` within each
    slice, then slices ascending — because ``ndarray.sum`` blocks its
    additions pairwise, in an order that depends on shape and strides.
    """
    p = partials.astype(np.float32)
    slice_sums = p[:, 0].copy()
    for reg in range(1, p.shape[1]):
        slice_sums += p[:, reg]
    total = slice_sums[0]
    for slice_sum in slice_sums[1:]:
        total += slice_sum
    return total


def gemv_reference(
    w: np.ndarray, x: np.ndarray, num_pchs: int, n_slice: Optional[int] = None
) -> np.ndarray:
    """The device's exact GEMV result for an input sliced over ``num_pchs``."""
    w = np.asarray(w, dtype=np.float16)
    x = np.asarray(x, dtype=np.float16)
    m, n = w.shape
    if n_slice is None:
        n_slice = -(-n // num_pchs)
        n_slice = -(-n_slice // GRF_REGS) * GRF_REGS
    n_padded = num_pchs * n_slice
    wp = np.zeros((m, n_padded), dtype=np.float16)
    wp[:, :n] = w
    xp = np.zeros(n_padded, dtype=np.float16)
    xp[:n] = x
    return reduce_partials(
        mac_partials(
            wp.reshape(m, num_pchs, n_slice).swapaxes(0, 1),
            xp.reshape(num_pchs, n_slice),
        )
    )


def add_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-exact reference of the PIM elementwise ADD."""
    return (np.asarray(a, np.float16) + np.asarray(b, np.float16)).astype(np.float16)


def mul_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bit-exact reference of the PIM elementwise MUL."""
    return (np.asarray(a, np.float16) * np.asarray(b, np.float16)).astype(np.float16)


def relu_reference(a: np.ndarray) -> np.ndarray:
    """Bit-exact reference of the PIM MOV(ReLU) (sign-bit mux)."""
    return vec_relu(np.asarray(a, np.float16))


def bn_reference(a: np.ndarray, gamma: float, beta: float) -> np.ndarray:
    """Bit-exact reference of the PIM MAD-based batch norm."""
    a = np.asarray(a, np.float16)
    scaled = (a * np.float16(gamma)).astype(np.float16)
    return (scaled + np.float16(beta)).astype(np.float16)


def elementwise_reference(
    op: str,
    a: np.ndarray,
    b: Optional[np.ndarray] = None,
    scalars: Optional[Tuple[float, float]] = None,
) -> np.ndarray:
    """The device's exact result of elementwise ``op`` (BN defaults to identity)."""
    if op == "add":
        return add_reference(a, b)
    if op == "mul":
        return mul_reference(a, b)
    if op == "relu":
        return relu_reference(a)
    if op == "bn":
        gamma, beta = scalars or (1.0, 0.0)
        return bn_reference(a, gamma, beta)
    raise PimProgramError(f"unknown op {op!r}")


def golden_reference(request, num_pchs: int) -> np.ndarray:
    """The host golden result of one request (the bit-exactness oracle).

    ``request`` is anything with ``op`` / ``a`` / ``b`` / ``weights`` /
    ``scalars`` (a ``Request`` or the server's ``PimRequest``).
    ``num_pchs`` must be the executing device's channel count: it fixes
    the GEMV slicing and so the FP16 MAC grouping.
    """
    if request.op == "gemv":
        return gemv_reference(request.weights, request.a, num_pchs)
    return elementwise_reference(
        request.op, request.a, request.b, request.scalars
    )
