"""The program is what reaches the bus, and Fig. 14 is a bound on it.

``gemv_trace`` / ``elementwise_trace`` replay a kernel's command program
(``repro.pim.stream``) with no controller, no fences and no host.  Here
the same shapes run on the device, ``trace_channel`` records the bus, and
the generated trace must equal the recorded AB-PIM stream command for
command — so the Fig. 14 upper bounds are bounds on the stream the stack
really serves, and the replayed cycles never exceed the simulated ones.
The SB-mode reads that bring a GEMV's partial sums back are likewise its
readback programs (``stream.gemv_readback``), which the replayer leaves
out.
"""

import re
from collections import Counter

import numpy as np
import pytest

from repro.dram.commands import CommandType
from repro.dram.timing import HBM2_1P2GHZ
from repro.dse.tracesim import (
    TraceReplayer,
    elementwise_trace,
    gemv_trace,
    replay_variant_elementwise,
    replay_variant_gemv,
)
from repro.dse.variants import VARIANTS
from repro.pim.stream import gemv_readback
from repro.stack.kernels import ElementwiseKernel, GemvKernel, column_commands, column_cost
from repro.stack.runtime import PimSystem, SystemConfig
from repro.tools import trace_channel


def rand(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * 0.1).astype(np.float16)


def bus_stream(trace, system, base_row):
    """``(kind, row - base_row, col)`` of the ACT / RD / WR commands seen
    on operand rows in AB-PIM mode, bursts expanded.  PREs are left out: a
    PRE carries no row, and the device's also close the register rows."""
    register_row = system.device.memory_map.is_register_row
    out = []
    for record in trace.records:
        if (
            record.mode != "all-bank-pim"
            or record.cmd_type is CommandType.PRE
            or register_row(record.row)
        ):
            continue
        out.extend(
            (record.cmd_type.value, record.row - base_row, record.col + j)
            for j in range(record.count)
        )
    return out


def generated_stream(commands):
    return [(c.kind, c.row, c.col) for c in commands if c.kind != "PRE"]


class TestProgramIsWhatReachesTheBus:
    def test_gemv(self):
        """3 tiles, 7 weight rows per tile, the last holding one chunk."""
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        kernel = GemvKernel(system, 300, 200)
        kernel.load_weights(rand((300, 200), 0))
        kernel(rand(200, 1))  # resident: the second call programs no CRF
        with trace_channel(system.device.pch(0)) as trace:
            _, report = kernel(rand(200, 2))
        generated = gemv_trace(300, 200, num_pchs=1)
        assert bus_stream(trace, system, kernel.plan.weight_base_row) == (
            generated_stream(generated)
        )
        timing = system.device.pch(0).timing
        assert TraceReplayer(timing).replay(generated) <= report.cycles

    def test_gemv_readback(self):
        """3 tiles on a lane of channels (1, 3) of 4, two slices each: the
        SB-mode RDs to the partial-sum rows are the readback programs of
        the channel's (slice, tile)s, as a multiset — FR-FCFS reorders the
        runs across banks — and ``column_cost - column_commands`` per
        slice."""
        system = PimSystem(SystemConfig(num_pchs=4, num_rows=128))
        kernel = GemvKernel(system, 300, 200, channels=(1, 3))
        kernel.load_weights(rand((300, 200), 0))
        plan = kernel.plan
        out_rows = {
            plan.out_location(tile, pass_)[0]
            for tile in range(plan.tiles) for pass_ in range(plan.passes)
        }
        with trace_channel(system.device.pch(1)) as one, trace_channel(
            system.device.pch(3)
        ) as three:
            kernel(rand(200, 1))
        reads = 0
        for pos, trace in enumerate((one, three)):
            seen = Counter(
                (4 * int(bg) + int(ba), record.row, record.col + j)
                for record in trace.records
                if record.mode == "single-bank" and record.cmd_type is CommandType.RD
                and record.row in out_rows
                for bg, ba in re.findall(r"bg=(\d+),ba=(\d+)", record.command)
                for j in range(record.count)
            )
            expected = Counter(
                (run.bank, run.row, run.col + j)
                for s in range(pos, plan.num_slices, 2)
                for tile in range(plan.tiles)
                for run in gemv_readback(*plan.out_location(tile, s // 2))
                for j in range(run.count)
            )
            assert seen == expected
            reads += sum(seen.values())
        shape = (300, 200)
        assert reads == plan.num_slices * (
            column_cost("gemv", shape, 4) - column_commands("gemv", shape, 4)
        )

    @pytest.mark.parametrize(
        "op, length", [("add", 5000), ("mul", 5000), ("relu", 3000), ("bn", 3000)]
    )
    def test_elementwise(self, op, length):
        """Several rows of groups, the last one ragged."""
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        kernel = ElementwiseKernel(system, op, length)
        b = rand(length, 4) if op in ("add", "mul") else None
        scalars = (1.5, -0.25) if op == "bn" else None
        with trace_channel(system.device.pch(0)) as trace:
            _, report = kernel(rand(length, 3), b, scalars)
        generated = elementwise_trace(length, 1, op)
        assert kernel.plan.groups % 2 == 1 and kernel.plan.groups > 2
        assert bus_stream(trace, system, kernel.plan.base_row) == (
            generated_stream(generated)
        )
        timing = system.device.pch(0).timing
        assert TraceReplayer(timing).replay(generated) <= report.cycles


class TestFig14ReplayCyclesArePinned:
    """Replayed cycles per variant, in ``VARIANTS`` order (PIM-HBM, 2x,
    2BA, SRW) — recorded before the generators read the kernels' programs;
    restating the stream must not move them."""

    @pytest.mark.parametrize(
        "shape, expected",
        [
            ((512, 512, 1), [21098, 10542, 21098, 10346]),
            ((1000, 300, 4), [7226, 3606, 7226, 3866]),
        ],
    )
    def test_gemv(self, shape, expected):
        assert [
            replay_variant_gemv(name, *shape, HBM2_1P2GHZ) for name in VARIANTS
        ] == expected

    @pytest.mark.parametrize(
        "elements, num_pchs, bn, expected",
        [
            (512 * 1024, 1, False, [63474, 31730, 47090, 63474]),
            (512 * 1024, 1, True, [47090, 23538, 47090, 47090]),
            (100000, 4, False, [3104, 1616, 2304, 3104]),
        ],
    )
    def test_elementwise(self, elements, num_pchs, bn, expected):
        assert [
            replay_variant_elementwise(name, elements, num_pchs, HBM2_1P2GHZ, bn=bn)
            for name in VARIANTS
        ] == expected
