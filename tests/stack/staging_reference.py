"""Column-at-a-time references for the block data movers (test-side only).

Every untimed host<->bank transfer in production is a block
(``repro.dram.peek_block`` / ``poke_block``).  The loops each one replaced
live on here, as the oracle the staging differential suite compares bank
images, check arrays and SEC-DED counters against:

* the block primitive itself as ``for bank: for col: peek/poke``;
* ``ElementwiseKernel._scatter`` / ``_gather_result`` as one poke/peek per
  16-element block, placed by :func:`elementwise_site` — the layout as the
  production code stated it before it became a reshaped view;
* ``GemvKernel.load_weights`` as the five-deep slice / tile / chunk /
  column / unit loop of single-column pokes.
"""

import dataclasses
from typing import Tuple

import numpy as np

from repro.pim.device import UNITS_PER_PCH
from repro.pim.isa import GRF_REGS as COL_GROUP
from repro.pim.registers import LANES


def bank_image(bank):
    """Everything a data access can change on one bank: materialised rows,
    stored bytes and — on an ECC bank — check bytes and SEC-DED counters."""
    return (
        bank.materialized_rows(),
        {row: array.tobytes() for row, array in bank._rows.items()},
        {row: array.tobytes() for row, array in getattr(bank, "_check", {}).items()},
        dataclasses.astuple(bank.ecc_stats) if hasattr(bank, "ecc_stats") else None,
    )


def peek_block_by_column(banks, row, col0, n):
    return np.array(
        [[bank.peek(row, col0 + j) for j in range(n)] for bank in banks],
        dtype=np.uint8,
    ).reshape(len(banks), n, -1)


def poke_block_by_column(banks, row, col0, data):
    for bank, slab in zip(banks, data):
        for j, column in enumerate(slab):
            bank.poke(row, col0 + j, column)


def elementwise_site(plan, block: int) -> Tuple[int, int, int, int]:
    """(channel slot, unit, row, column) of 16-element block ``block``:
    blocks interleave over channel slots first, then units, then the
    unit's column stream."""
    slot = block % plan.num_pchs
    rest = block // plan.num_pchs
    seq = rest // UNITS_PER_PCH
    return (
        slot,
        rest % UNITS_PER_PCH,
        plan.base_row + seq // plan.in_cols,
        seq % plan.in_cols,
    )


def scatter_by_site(kernel, padded, odd=False, col_offset=0, first_slot=0):
    plan = kernel.plan
    blocks = padded.reshape(plan.blocks, LANES).view(np.uint8)
    for b in range(plan.blocks):
        slot, unit, row, col = elementwise_site(plan, b)
        if slot >= first_slot:
            channel = kernel.sys.device.pch(kernel.channels[slot])
            channel.banks[2 * unit + odd].poke(row, col + col_offset, blocks[b])


def gather_by_site(kernel):
    plan = kernel.plan
    out = np.zeros(plan.blocks * LANES, dtype=np.float16)
    blocks = out.reshape(plan.blocks, LANES)
    for b in range(plan.blocks):
        slot, unit, row, col = elementwise_site(plan, b)
        channel = kernel.sys.device.pch(kernel.channels[slot])
        raw = channel.banks[2 * unit].peek(row, col + plan.in_cols)
        blocks[b] = raw.view(np.float16)
    return out[: kernel.length]


def load_weights_by_column(kernel, w):
    """Stage ``w`` into ``kernel``'s weight rows one column poke at a time."""
    plan = kernel.plan
    padded = np.zeros(
        (plan.tiles * plan.outputs_per_tile, plan.num_slices * plan.n_slice),
        dtype=np.float16,
    )
    padded[: kernel.m, : kernel.n] = np.asarray(w, dtype=np.float16)
    for s in range(plan.num_slices):
        pch, pass_ = kernel._slice_channel(s)
        channel = kernel.sys.device.pch(pch)
        for tile in range(plan.tiles):
            for chunk in range(plan.chunks):
                row, col_base = plan.weight_location(tile, chunk, pass_)
                for j in range(COL_GROUP):
                    dim = s * plan.n_slice + chunk * COL_GROUP + j
                    for unit in range(UNITS_PER_PCH):
                        out0 = tile * plan.outputs_per_tile + unit * LANES
                        column = np.ascontiguousarray(padded[out0 : out0 + LANES, dim])
                        channel.banks[2 * unit].poke(
                            row, col_base + j, column.view(np.uint8)
                        )
