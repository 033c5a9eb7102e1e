"""Tests for auto-refresh, including refresh during live PIM kernels."""

from dataclasses import replace

import numpy as np
import pytest

from repro.dram.bank import BankConfig
from repro.dram.commands import CommandType
from repro.dram.controller import MemoryController
from repro.dram.pseudochannel import PseudoChannel
from repro.dram.timing import HBM2_1GHZ

FAST_REFRESH = replace(HBM2_1GHZ, trefi=200, trfc=100)


def make_controller(**kwargs):
    channel = PseudoChannel(FAST_REFRESH, BankConfig(num_rows=64))
    return MemoryController(channel, refresh=True, **kwargs), channel


class TestControllerRefresh:
    def test_refresh_issued_periodically(self):
        mc, ch = make_controller()
        for i in range(256):
            mc.read(i % 4, 0, 0, i % 32)
        mc.drain()
        assert mc.refresh_count >= 1
        assert ch.cmd_counts[CommandType.REF] == mc.refresh_count

    def test_refresh_closes_rows(self):
        mc, ch = make_controller()
        for i in range(256):
            mc.read(0, 0, 0, i % 32)
        result = mc.drain()
        # Rows were re-opened after each refresh: more than one ACT.
        assert result.command_count[CommandType.ACT] > 1

    def test_data_survives_refresh(self):
        mc, _ = make_controller()
        data = np.arange(32, dtype=np.uint8)
        mc.write(0, 0, 5, 3, data)
        for i in range(128):
            mc.read(1, 0, 0, i % 32)
        mc.read(0, 0, 5, 3, tag="check")
        result = mc.drain()
        assert np.array_equal(result.read_data["check"], data)

    def test_refresh_costs_cycles(self):
        def run(refresh):
            channel = PseudoChannel(FAST_REFRESH, BankConfig(num_rows=64))
            mc = MemoryController(channel, refresh=refresh)
            for i in range(256):
                mc.read(i % 4, 0, 0, i % 32)
            return mc.drain().cycles

        assert run(True) > run(False)

    def test_disabled_by_default(self):
        channel = PseudoChannel(FAST_REFRESH, BankConfig(num_rows=64))
        mc = MemoryController(channel)
        for i in range(256):
            mc.read(0, 0, 0, i % 32)
        mc.drain()
        assert mc.refresh_count == 0


class TestRefreshDuringPimKernels:
    def test_gemv_bit_exact_under_refresh(self):
        """A REF lands mid-kernel: the controller precharges all banks, the
        broadcast REF hits the PIM device, rows re-open, and the microkernel
        result is unchanged — JEDEC compliance in action."""
        from repro.stack.blas import gemv_reference
        from repro.stack.kernels import GemvKernel
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(
            num_pchs=1, num_rows=128, refresh=True,
            timing=replace(HBM2_1GHZ, trefi=400, trfc=120),
        ))
        rng = np.random.default_rng(0)
        w = (rng.standard_normal((128, 128)) * 0.1).astype(np.float16)
        x = (rng.standard_normal(128) * 0.1).astype(np.float16)
        kernel = GemvKernel(system, 128, 128)
        kernel.load_weights(w)
        y, report = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))
        assert system.controllers[0].refresh_count >= 5

    def test_elementwise_bit_exact_under_refresh(self):
        from repro.stack.blas import add_reference
        from repro.stack.kernels import ElementwiseKernel
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(
            num_pchs=1, num_rows=128, refresh=True,
            timing=replace(HBM2_1GHZ, trefi=300, trfc=100),
        ))
        rng = np.random.default_rng(1)
        a = rng.standard_normal(8000).astype(np.float16)
        b = rng.standard_normal(8000).astype(np.float16)
        out, _ = ElementwiseKernel(system, "add", 8000)(a, b)
        assert np.array_equal(out, add_reference(a, b))
        assert system.controllers[0].refresh_count >= 1
