"""Channel-independence / multi-tenancy (Section VIII).

"PIM-HBM can support virtualization and multi-tenancy at some degrees
since it allows a processor to independently control PIM operations of
each memory channel."  These tests run *different* workloads on different
pseudo-channels of one device concurrently — different microkernels,
different modes — and check complete isolation.
"""

import numpy as np
import pytest

from repro.dram.commands import Command, CommandType
from repro.pim.assembler import assemble_words
from repro.pim.modes import PimMode
from repro.stack.runtime import PimSystem, SystemConfig


def rand(shape, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestChannelIndependence:
    def test_different_microkernels_per_channel(self):
        """Channel 0 runs an ADD microkernel while channel 1 runs MUL —
        each tenant programs its own CRF through its own controller."""
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=128))
        mm = system.device.memory_map

        programs = {
            0: "FILL GRF_A[A], EVEN_BANK\nJUMP -1, 7\nADD GRF_B[A], GRF_A[A], ODD_BANK\nJUMP -1, 7\nMOV EVEN_BANK[A], GRF_B[A]\nJUMP -1, 7\nEXIT",
            1: "FILL GRF_A[A], EVEN_BANK\nJUMP -1, 7\nMUL GRF_B[A], GRF_A[A], ODD_BANK\nJUMP -1, 7\nMOV EVEN_BANK[A], GRF_B[A]\nJUMP -1, 7\nEXIT",
        }
        a = {p: rand(8 * 16, 10 + p) for p in range(2)}
        b = {p: rand(8 * 16, 20 + p) for p in range(2)}

        for p in range(2):
            channel = system.device.pch(p)
            blocks_a = a[p].reshape(8, 16)
            blocks_b = b[p].reshape(8, 16)
            for col in range(8):
                channel.banks[0].poke(0, col, blocks_a[col].view(np.uint8))
                channel.banks[1].poke(0, col, blocks_b[col].view(np.uint8))

        # Interleave the two tenants' setup and execution phase by phase.
        for p in range(2):
            mc = system.controller(p)
            mc.precharge_all()
            mc.closed_page_access(0, 0, mm.abmr_row)
        for p in range(2):
            mc = system.controller(p)
            image = np.array(assemble_words(programs[p]), dtype="<u4").view(np.uint8)
            for col in range(4):
                mc.write(0, 0, mm.crf_row, col, image[col * 32:(col + 1) * 32])
            on = np.zeros(32, dtype=np.uint8)
            on[0] = 1
            mc.fence()
            mc.write(0, 0, mm.conf_row, 0, on)
            mc.fence()
        for p in range(2):
            mc = system.controller(p)
            for col in range(8):
                mc.read(0, 0, 0, col)
            mc.fence()
            for col in range(8):
                mc.read(0, 0, 0, col)
            mc.fence()
            for col in range(8):
                mc.write(0, 0, 0, 16 + col, np.zeros(32, dtype=np.uint8))
            mc.fence()
            mc.drain()
        for p in range(2):
            mc = system.controller(p)
            mc.write(0, 0, mm.conf_row, 0, np.zeros(32, dtype=np.uint8))
            mc.drain()
            mc.precharge_all()
            mc.closed_page_access(0, 0, mm.sbmr_row)

        # Tenant 0 computed a+b; tenant 1 computed a*b.
        for p, op in ((0, np.add), (1, np.multiply)):
            channel = system.device.pch(p)
            expected = op(
                a[p].reshape(8, 16), b[p].reshape(8, 16)
            ).astype(np.float16)
            for col in range(8):
                got = channel.banks[0].peek(0, 16 + col).view(np.float16)
                assert np.array_equal(got, expected[col]), (p, col)

    def test_one_channel_in_pim_mode_other_in_sb(self):
        """A tenant doing ordinary DRAM traffic is unaffected by a
        neighbouring channel in AB-PIM mode."""
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=128))
        mm = system.device.memory_map

        # Channel 0 enters AB mode.
        mc0 = system.controller(0)
        mc0.precharge_all()
        mc0.closed_page_access(0, 0, mm.abmr_row)
        assert system.device.pch(0).mode is PimMode.AB
        assert system.device.pch(1).mode is PimMode.SB

        # Channel 1 does plain reads/writes meanwhile.
        mc1 = system.controller(1)
        data = np.arange(32, dtype=np.uint8)
        mc1.write(1, 2, 9, 4, data, tag="w")
        mc1.read(1, 2, 9, 4, tag="r")
        result = mc1.drain()
        assert np.array_equal(result.read_data["r"], data)
        # And channel 1's banks never saw broadcast behaviour.
        assert system.device.pch(1).ab_broadcast_columns == 0

    def test_blas_calls_isolate_by_construction(self):
        """Two tenants' operators share a device but never touch each
        other's rows (driver-allocated disjoint row sets)."""
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=256))
        wa, xa = rand((128, 64), 1), rand(64, 2)
        wb, xb = rand((128, 64), 3), rand(64, 4)
        op_a = system.executor.gemv_operator(wa)
        op_b = system.executor.gemv_operator(wb)
        assert op_a.plan.out_base_row < op_b.plan.weight_base_row
        ya1, _ = op_a(xa)
        yb, _ = op_b(xb)
        ya2, _ = op_a(xa)
        assert np.array_equal(ya1, ya2)  # tenant B did not disturb tenant A
