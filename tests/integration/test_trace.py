"""Tests for the command tracer — and, through it, stream-level checks of
the drop-in-replacement property (standard commands only, in legal modes)."""

import numpy as np
import pytest

from repro.dram.commands import CommandType
from repro.stack.blas import PimBlas
from repro.stack.runtime import PimSystem, SystemConfig
from repro.tools import trace_channel


def rand(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * 0.1).astype(np.float16)


class TestTracer:
    def test_records_commands(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        with trace_channel(system.device.pch(0)) as trace:
            blas.gemv(rand((128, 64), 0), rand(64, 1))
        assert len(trace.records) > 50
        counts = trace.counts()
        assert counts[CommandType.RD] > 0
        assert counts[CommandType.WR] > 0
        assert counts[CommandType.ACT] > 0

    @pytest.mark.parametrize("op", ["gemv", "add"])
    def test_counts_are_the_bus_counts(self, op):
        """A burst is its columns, whether the device takes it as one
        state update (AB-PIM) or command by command (register rows, the
        SB-mode readback) — so the trace counts what the channel counts."""
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        channel = system.device.pch(0)
        before = dict(channel.cmd_counts)
        with trace_channel(channel) as trace:
            if op == "gemv":
                blas.gemv(rand((128, 128), 9), rand(128, 10))
            else:
                blas.add(rand(3000, 9), rand(3000, 10))
        delta = {
            kind: count - before[kind]
            for kind, count in channel.cmd_counts.items()
            if count != before[kind]
        }
        assert trace.counts() == delta
        assert any(record.count == 8 for record in trace.records)

    def test_mode_transition_sequence(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        with trace_channel(system.device.pch(0)) as trace:
            blas.gemv(rand((128, 64), 2), rand(64, 3))
        modes = trace.mode_transitions()
        assert modes[0] == "single-bank"
        assert "all-bank" in modes
        assert "all-bank-pim" in modes
        assert modes[-1] == "single-bank"

    def test_pim_columns_happen_in_pim_mode(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        with trace_channel(system.device.pch(0)) as trace:
            blas.add(rand(3000, 4), rand(3000, 5))
        assert trace.columns_in_mode("all-bank-pim") > 0

    def test_detach_restores_channel(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        channel = system.device.pch(0)
        original = channel.issue
        with trace_channel(channel):
            assert channel.issue != original
        # Bound methods compare equal when function and instance match.
        assert channel.issue == original
        assert "issue" not in vars(channel)

    def test_summary_renders(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        with trace_channel(system.device.pch(0)) as trace:
            blas.relu(rand(2000, 6))
        text = trace.summary()
        assert "commands" in text
        assert "modes" in text
        assert trace.lines()

    def test_filter_by_type(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        with trace_channel(system.device.pch(0)) as trace:
            blas.gemv(rand((128, 64), 7), rand(64, 8))
        acts = trace.filter(CommandType.ACT)
        assert all(r.cmd_type is CommandType.ACT for r in acts)
        assert len(acts) == trace.counts()[CommandType.ACT]

    def test_trace_works_on_plain_dram(self):
        from repro.dram.bank import BankConfig
        from repro.dram.controller import MemoryController
        from repro.dram.pseudochannel import PseudoChannel
        from repro.dram.timing import HBM2_1GHZ

        channel = PseudoChannel(HBM2_1GHZ, BankConfig(num_rows=16))
        mc = MemoryController(channel)
        with trace_channel(channel) as trace:
            mc.read(0, 0, 0, 0)
            mc.drain()
        assert trace.records[0].mode == "dram"
        assert [r.cmd_type for r in trace.records] == [
            CommandType.ACT, CommandType.RD,
        ]
