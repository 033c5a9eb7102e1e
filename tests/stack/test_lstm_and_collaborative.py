"""Tests for the fused LSTM operator and collaborative GEMV (Section VIII)."""

import numpy as np
import pytest

from repro.stack.collaborative import CollaborativeGemv, optimal_split
from repro.stack.lstm import LstmLayerOperator
from repro.stack.runtime import PimSystem, SystemConfig


def rand(shape, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


@pytest.fixture(scope="module")
def system():
    return PimSystem(SystemConfig(num_pchs=2, num_rows=256))


class TestLstmLayerOperator:
    def _make(self, system, d=32, h=48, seed=0):
        op = LstmLayerOperator(system, d, h, simulate_pchs=1)
        w_ih = rand((4 * h, d), seed)
        w_hh = rand((4 * h, h), seed + 1)
        bias = rand(4 * h, seed + 2).astype(np.float32)
        op.load_weights(w_ih, w_hh, bias)
        return op, w_ih, w_hh, bias

    def test_matches_fp32_reference(self, system):
        op, w_ih, w_hh, bias = self._make(system)
        xs = rand((5, 32), 10)
        out, report, steps = op(xs)
        ref = op.reference(w_ih, w_hh, bias, xs)
        assert out.shape == (5, 48)
        assert np.abs(out.astype(np.float32) - ref).max() < 1e-2
        assert len(steps) == 5
        assert report.pim_flops > 0

    def test_single_launch_accounting(self, system):
        """The fused layer charges one kernel launch, not 2T."""
        op, *_ = self._make(system, seed=20)
        xs = rand((4, 32), 21)
        _, report, _ = op(xs)
        raw_launches_ns = 2 * 4 * system.host.kernel_launch_ns
        assert report.ns < report.cycles * system.tck_ns + raw_launches_ns

    def test_initial_state(self, system):
        op, w_ih, w_hh, bias = self._make(system, seed=30)
        xs = rand((2, 32), 31)
        h0 = rand(48, 32)
        out_with, _, _ = op(xs, h0=h0)
        out_without, _, _ = op(xs)
        assert not np.array_equal(out_with, out_without)

    def test_shape_validation(self, system):
        op = LstmLayerOperator(system, 32, 48)
        with pytest.raises(RuntimeError):
            op(rand((2, 32), 0))
        with pytest.raises(ValueError):
            op.load_weights(rand((10, 10), 0), rand((10, 10), 1), rand(10, 2))

    def test_step_reports_are_uniform(self, system):
        op, *_ = self._make(system, seed=40)
        _, _, steps = op(rand((3, 32), 41))
        commands = {s.column_commands for s in steps}
        assert len(commands) == 1  # identical work per step


class TestBatchedGemv:
    def test_batched_matches_sequential(self, system):
        from repro.stack.kernels import GemvKernel

        w = rand((128, 64), 50)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        xs = rand((3, 64), 51)
        ys, merged = kernel.batched(xs, simulate_pchs=1)
        for b in range(3):
            y, _ = kernel(xs[b], simulate_pchs=1)
            assert np.array_equal(ys[b], y)
        assert merged.kernel.endswith("xB3")
        # The device has no batch dimension: at the default max_batch=1
        # the one batched path is one launch per input.
        assert merged.notes["launches"] == 3

    def test_batched_cycles_scale_linearly(self, system):
        from repro.stack.kernels import GemvKernel

        w = rand((128, 64), 52)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        _, one = kernel.batched(rand((1, 64), 53), simulate_pchs=1)
        _, three = kernel.batched(rand((3, 64), 54), simulate_pchs=1)
        assert three.cycles == pytest.approx(3 * one.cycles, rel=0.1)

    def test_batched_shape_validation(self, system):
        from repro.stack.kernels import GemvKernel

        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(rand((128, 64), 55))
        with pytest.raises(ValueError):
            kernel.batched(rand((2, 65), 56))


class TestCollaborativeGemv:
    def test_numerically_correct(self, system):
        m, n = 384, 128
        w = rand((m, n), 60)
        x = rand(n, 61)
        collab = CollaborativeGemv(system, m, n, pim_rows=128, simulate_pchs=1)
        collab.load_weights(w)
        y, report = collab(x)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 2e-3
        assert report.pim_rows == 128
        assert report.host_rows == 256

    def test_pure_pim_and_pure_host_edges(self, system):
        m, n = 256, 64
        w = rand((m, n), 62)
        x = rand(n, 63)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        for rows in (0, m):
            collab = CollaborativeGemv(system, m, n, pim_rows=rows, simulate_pchs=1)
            collab.load_weights(w)
            y, report = collab(x)
            assert np.abs(y - gold).max() < 2e-3
            if rows == 0:
                assert report.pim_ns == 0.0
            else:
                assert report.host_ns == 0.0

    def test_batch1_optimum_is_all_pim(self):
        """At batch 1 PIM dominates (11x): the best split is everything on
        PIM — collaboration pays off only near the crossover."""
        rows = optimal_split(8192, 4096, batch=1)
        # (the host may pick up a residual tile or two "for free" under
        # its fixed launch overhead)
        assert rows >= 8192 - 256

    def test_crossover_batch_optimal_split_beats_edges(self):
        """Around the Fig. 10 crossover (batch ~3) the sides are comparable
        and max(pim, host) at the optimal split beats either pure side —
        the future-work claim quantified."""
        m, n = 8192, 4096
        sweep = CollaborativeGemv.sweep_split(m, n, batch=3, points=17)
        best_rows = min(sweep, key=sweep.get)
        assert 0 < best_rows < m
        assert sweep[best_rows] < 0.95 * sweep[0]  # beats pure host
        assert sweep[best_rows] < 0.95 * sweep[max(sweep)]  # beats pure PIM

    def test_optimal_split_balances_sides_at_crossover(self):
        m, n, batch = 8192, 4096, 3
        rows = optimal_split(m, n, batch=batch)
        assert 0 < rows < m
        from repro.perf.latency import LatencyModel, PIM_HBM, PROC_HBM

        pim_ns = LatencyModel(PIM_HBM).pim_gemv(rows, n, batch).ns
        host_ns = LatencyModel(PROC_HBM).host_gemv(m - rows, n, batch).ns
        assert min(pim_ns, host_ns) / max(pim_ns, host_ns) > 0.6

    def test_snaps_to_tile_granularity(self, system):
        collab = CollaborativeGemv(system, 512, 64, pim_rows=100)
        assert collab.pim_rows % 128 == 0
