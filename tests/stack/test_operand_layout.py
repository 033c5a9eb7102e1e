"""PIM-friendly operand layout on the running system (Fig. 15).

The kernels place data themselves: row sets come from
``driver.alloc_rows``, an elementwise operand is padded with zeros to whole
16-lane blocks (``ElementwiseKernel._padded``) and scattered one block per
bank column (``_scatter``), and a GEMV weight tile is laid out by
``kernels._tile_block``.  These tests state the Fig. 15 properties of that
layout directly: a 16-element block is one bank column, consecutive blocks
rotate over channel slots first, operand ``b`` sits in the odd bank at the
coordinates of operand ``a`` in the even one, and the result comes back
beside them.  That the block movers equal a column-at-a-time placement is
``tests/stack/test_staging_differential.py``'s subject.
"""

import numpy as np
import pytest

from repro.dram import peek_block
from repro.pim.device import UNITS_PER_PCH
from repro.pim.registers import LANES
from repro.stack.kernels import (
    ElementwiseKernel,
    GemvKernel,
    _tile_block,
    _tile_values,
)
from repro.stack.runtime import PimSystem, SystemConfig


def _system():
    return PimSystem(SystemConfig(num_pchs=4, num_rows=128))


def _kernel(length, channels=None, op="add"):
    return ElementwiseKernel(_system(), op, length, channels=channels)


def _codes(kernel):
    """A padded operand whose element ``i`` holds ``i`` as its 16 bits."""
    return np.arange(kernel.plan.blocks * LANES, dtype=np.uint16).view(np.float16)


def _columns(kernel, odd=False, col_offset=0):
    """``(slot, unit, row, col) -> its 16 lanes`` of every operand column of
    the kernel's even (or odd) banks, read back with ``peek_block``."""
    plan = kernel.plan
    out = {}
    for slot, channel in enumerate(kernel.channels):
        banks = kernel.sys.device.pch(channel).banks[int(odd) :: 2]
        for row, _, n in plan.row_runs():
            block = peek_block(banks, row, col_offset, n).view(np.uint16)
            for unit in range(UNITS_PER_PCH):
                for col in range(n):
                    out[slot, unit, row, col] = tuple(block[unit, col].tolist())
    return out


CHANNEL_SETS = [None, (1, 3), (2,)]
# 17: one padded group; 10000: a unit stream longer than one row's
# operand columns on every channel set.
LENGTHS = [17, 1024, 10000]


@pytest.mark.parametrize("length", [1, 16, 17, 1024, 4096, 10000])
def test_padded_operand_is_whole_lane_blocks(length):
    kernel = _kernel(length)
    plan = kernel.plan
    values = np.random.default_rng(length).standard_normal(length).astype(np.float16)
    padded = kernel._padded(values)
    # Whole 8-column groups of 16-lane blocks on every unit of every slot.
    assert padded.size == plan.blocks * LANES
    assert plan.blocks == plan.groups * 8 * UNITS_PER_PCH * plan.num_pchs
    assert padded.size - length < 8 * UNITS_PER_PCH * plan.num_pchs * LANES
    assert np.array_equal(padded[:length], values)
    assert not padded[length:].any()
    assert not np.shares_memory(padded, values)


@pytest.mark.parametrize("channels", CHANNEL_SETS, ids=["all", "lane", "one"])
@pytest.mark.parametrize("length", LENGTHS)
def test_a_block_is_one_bank_column(length, channels):
    """Fig. 15(a): each 16-element block sits whole in one column of one
    bank, lane ``l`` holding element ``16 k + l``; blocks rotate over the
    channel slots first, then the units, then the unit's columns."""
    kernel = _kernel(length, channels)
    plan = kernel.plan
    kernel._scatter(_codes(kernel))
    columns = _columns(kernel)
    assert len(columns) == plan.blocks
    for (slot, unit, row, col), lanes in columns.items():
        first = int(lanes[0])
        assert first % LANES == 0
        assert np.array_equal(lanes, np.arange(first, first + LANES))
        block = first // LANES
        seq = (row - plan.base_row) * plan.in_cols + col
        assert block == (seq * UNITS_PER_PCH + unit) * plan.num_pchs + slot


@pytest.mark.parametrize("channels", CHANNEL_SETS, ids=["all", "lane", "one"])
@pytest.mark.parametrize("length", LENGTHS)
def test_operands_meet_at_one_coordinate(length, channels):
    """Fig. 15(b): operand ``b`` lands in each unit's odd bank at exactly
    the (row, column) where operand ``a`` holds the same elements in the
    even bank, so one lock-step command stream serves both; and the
    result comes back ``in_cols`` further along the even bank's row."""
    kernel = _kernel(length, channels)
    plan = kernel.plan
    rng = np.random.default_rng(length)
    a, b = (rng.standard_normal(length).astype(np.float16) for _ in range(2))
    kernel._scatter(_codes(kernel))
    kernel._scatter(_codes(kernel), odd=True)
    coded = _columns(kernel)
    assert _columns(kernel, odd=True) == coded
    result, _ = kernel(a, b)
    assert np.array_equal(result, a + b)
    want = kernel._padded(a + b).view(np.uint16)
    for key, lanes in _columns(kernel, col_offset=plan.in_cols).items():
        first = int(coded[key][0])
        assert np.array_equal(lanes, want[first : first + LANES])


@pytest.mark.parametrize("n", [1, 8])
@pytest.mark.parametrize("tiles", [1, 2, 3])
def test_tile_block_puts_output_rows_on_unit_lanes(tiles, n):
    """A GEMV weight tile: unit ``u`` holds outputs ``16 u .. 16 u + 15``
    of each tile, one per lane, value ``j`` of tile ``t`` in column
    ``t n + j``."""
    outputs = UNITS_PER_PCH * LANES
    codes = np.arange(n * tiles * outputs, dtype=np.uint16).reshape(n, -1)
    block = _tile_block(codes.view(np.float16))
    assert block.shape == (UNITS_PER_PCH, tiles * n, 32)
    lanes = block.view(np.uint16)
    for unit in range(UNITS_PER_PCH):
        for t in range(tiles):
            for j in range(n):
                first = t * outputs + unit * LANES
                assert np.array_equal(lanes[unit, t * n + j], codes[j, first : first + LANES])


@pytest.mark.parametrize("tiles", [1, 2, 4])
def test_tile_values_inverts_tile_block(tiles):
    values = np.random.default_rng(tiles).standard_normal((8, tiles * 128)).astype(np.float16)
    assert np.array_equal(_tile_values(_tile_block(values)), values)


def test_operators_hold_disjoint_driver_row_sets():
    """Every operator's rows come from the driver: contiguous, disjoint,
    below the register rows, and given back on release."""
    system = _system()
    driver = system.driver
    gemv = GemvKernel(system, 256, 128)
    add = ElementwiseKernel(system, "add", 10000)
    relu = ElementwiseKernel(system, "relu", 17)
    blocks = [kernel._block for kernel in (gemv, add, relu)]
    rows = [set(range(block.start, block.stop)) for block in blocks]
    assert sum(map(len, rows)) == len(set().union(*rows))
    assert max(block.stop for block in blocks) <= driver.rows_total
    assert add.plan.base_row == blocks[1].start
    assert sorted(driver.allocated_rows()) == sorted(set().union(*rows))
    free = driver.rows_free
    add.release()
    assert driver.rows_free == free + blocks[1].num_rows
