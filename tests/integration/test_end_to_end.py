"""End-to-end integration tests across the full stack.

Everything here goes through the public API and the complete path:
graph framework -> runtime -> BLAS -> kernels -> memory controller ->
PIM device -> execution units, with standard DRAM commands as the only
host/device interface.
"""

import numpy as np
import pytest

from repro import GraphBuilder as G
from repro import GraphExecutor, PimBlas, PimSystem, SystemConfig
from repro.dram.commands import CommandType
from repro.pim.modes import PimMode


def rand(shape, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestMlpInference:
    def test_two_layer_mlp_host_vs_pim(self):
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=256))
        w1, w2 = rand((256, 96), 0), rand((64, 256), 1)
        x = G.placeholder("x")
        logits = G.matvec(w2, G.relu(G.matvec(w1, x)))
        feed = {"x": rand(96, 2)}
        (host_y,), _ = GraphExecutor([logits]).run(feed)
        (pim_y,), report = GraphExecutor(
            [logits], backend="pim", system=system, min_elements=64
        ).run(feed)
        # Both matvecs offload; the 256-element ReLU also clears the
        # min_elements=64 threshold.
        assert len(report.offloaded_nodes) == 3
        assert np.abs(host_y - pim_y.astype(np.float32)).max() < 3e-3

    def test_residual_block(self):
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1))
        x, skip = G.placeholder("x"), G.placeholder("skip")
        out = G.relu(G.add(G.batch_norm(x, 1.1, 0.1), skip))
        feed = {"x": rand(4096, 3), "skip": rand(4096, 4)}
        (host_y,), _ = GraphExecutor([out]).run(feed)
        (pim_y,), report = GraphExecutor(
            [out], backend="pim", system=system
        ).run(feed)
        assert report.pim_launches == 3  # bn, add, relu all offloaded
        assert np.array_equal(np.asarray(host_y), np.asarray(pim_y))


class TestLstmSequence:
    def test_short_speech_like_sequence(self):
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1))
        T, D, H = 4, 40, 64
        w_ih, w_hh = rand((4 * H, D), 5), rand((4 * H, H), 6)
        bias = rand(4 * H, 7).astype(np.float32)
        xs = G.placeholder("xs")
        out = G.lstm(xs, w_ih, w_hh, bias)
        feed = {"xs": rand((T, D), 8)}
        (host_h,), _ = GraphExecutor([out]).run(feed)
        (pim_h,), report = GraphExecutor(
            [out], backend="pim", system=system, min_elements=64
        ).run(feed)
        assert report.pim_launches == 2 * T
        drift = np.abs(host_h.astype(np.float32) - pim_h.astype(np.float32)).max()
        assert drift < 1e-2


class TestDeviceStateDiscipline:
    def test_system_returns_to_sb_mode(self):
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=128))
        blas = PimBlas(system)
        blas.gemv(rand((128, 64), 9), rand(64, 10))
        for i in range(system.num_pchs):
            assert system.device.pch(i).mode is PimMode.SB

    def test_interleaved_kernels_share_device(self):
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=256))
        blas = PimBlas(system)
        w = rand((128, 64), 11)
        gemv_y1 = blas.gemv(w, rand(64, 12))
        a, b = rand(3000, 13), rand(3000, 14)
        add_out = blas.add(a, b)
        gemv_y2 = blas.gemv(w, rand(64, 12))
        assert np.array_equal(gemv_y1, gemv_y2)
        assert np.array_equal(add_out, (a + b).astype(np.float16))

    def test_only_standard_commands_cross_the_interface(self):
        """The drop-in-replacement property: every host/device interaction
        is a JEDEC command type."""
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        blas.gemv(rand((128, 64), 15), rand(64, 16))
        counts = system.device.pch(0).cmd_counts
        assert sum(counts.values()) > 0
        assert set(counts) == set(CommandType)

    def test_mode_transition_count(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        blas.gemv(rand((128, 64), 17), rand(64, 18))
        # SB -> AB, per-tile AB<->AB-PIM toggles, AB -> SB.
        assert system.device.pch(0).mode_ctrl.transition_count >= 4


class TestScalability:
    def test_four_channel_system(self):
        system = PimSystem(SystemConfig(num_pchs=4, num_rows=128))
        w, x = rand((256, 160), 19), rand(160, 20)
        y, report = system.executor.gemv(w, x)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 2e-3
        assert report.total_pchs == 4

    def test_uneven_dimensions(self):
        system = PimSystem(SystemConfig(num_pchs=3, num_rows=128))
        blas = PimBlas(system)
        w, x = rand((130, 50), 21), rand(50, 22)
        y = blas.gemv(w, x)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 2e-3

    def test_wide_vector_spans_rows(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a, b = rand(50000, 23), rand(50000, 24)
        out, report = system.executor.elementwise("add", a, b)
        assert np.array_equal(out, (a + b).astype(np.float16))
        assert report.column_commands > 100
