"""Tests for the LSTM step, batched GEMV and the collaborative GEMV
(Section VIII)."""

import numpy as np
import pytest

from repro.stack.blas import PimBlas
from repro.stack.collaborative import CollaborativeGemv, optimal_split
from repro.stack.lstm import lstm_reference, lstm_step
from repro.stack.runtime import PimSystem, SystemConfig


def rand(shape, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


@pytest.fixture(scope="module")
def system():
    return PimSystem(SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1))


def fp32_layer(w_ih, w_hh, bias, xs):
    """One LSTM layer in FP32, gates in the order i, f, g, o."""
    w_ih, w_hh = w_ih.astype(np.float32), w_hh.astype(np.float32)
    h = c = np.zeros(w_hh.shape[1], np.float32)
    sig = lambda v: 1 / (1 + np.exp(-v))
    out = []
    for x in xs.astype(np.float32):
        i, f, g, o = np.split(w_ih @ x + w_hh @ h + bias, 4)
        c = sig(f) * c + sig(i) * np.tanh(g)
        h = sig(o) * np.tanh(c)
        out.append(h)
    return np.stack(out)


class TestLstmSteps:
    """A layer run step by step through ``PimBlas.lstm_cell``: two PIM
    GEMVs and the host's gate math per step, state carried in FP16."""

    def _weights(self, d, h, seed):
        return (
            rand((4 * h, d), seed),
            rand((4 * h, h), seed + 1),
            rand(4 * h, seed + 2).astype(np.float32),
        )

    def _layer(self, blas, weights, xs, h0=None):
        hidden = weights[1].shape[1]
        h = np.zeros(hidden, np.float16) if h0 is None else h0
        c = np.zeros(hidden, np.float16)
        out = []
        for x in xs:
            h, c = blas.lstm_cell(*weights, x, h, c)
            out.append(h)
        return np.stack(out)

    @pytest.mark.parametrize("d, h", [(32, 48), (64, 64), (128, 32)])
    def test_layer_matches_fp32_reference(self, system, d, h):
        weights = self._weights(d, h, d + h)
        xs = rand((5, d), 10)
        out = self._layer(PimBlas(system), weights, xs)
        assert out.shape == (5, h) and out.dtype == np.float16
        ref = fp32_layer(*weights, xs)
        assert np.abs(out.astype(np.float32) - ref).max() < 1e-2
        assert np.allclose(lstm_reference(*weights, xs), ref, atol=1e-6)

    def test_each_step_is_two_gemv_launches(self, system):
        blas = PimBlas(system)
        self._layer(blas, self._weights(32, 48, 20), rand((4, 32), 21))
        kernels = blas.profiler.profile.kernels
        # W_ih (192x32) and W_hh (192x48): one launch each, every step.
        assert sorted(kernels) == ["gemv[192x32]", "gemv[192x48]"]
        for profile in kernels.values():
            assert profile.invocations == 4
            launches_ns = 4 * system.host.kernel_launch_ns
            assert profile.ns == pytest.approx(profile.cycles * system.tck_ns + launches_ns)

    def test_initial_state(self, system):
        weights = self._weights(32, 48, 30)
        xs = rand((2, 32), 31)
        blas = PimBlas(system)
        with_h0 = self._layer(blas, weights, xs, h0=rand(48, 32))
        without = self._layer(blas, weights, xs)
        assert not np.array_equal(with_h0, without)
        assert np.array_equal(without, self._layer(blas, weights, xs))

    def test_shape_validation(self, system):
        w_ih, w_hh, bias = self._weights(32, 48, 0)
        blas = PimBlas(system)
        h = c = np.zeros(48, np.float16)
        with pytest.raises(ValueError):
            blas.lstm_cell(w_ih, w_hh, bias, rand(33, 1), h, c)
        with pytest.raises(ValueError):
            blas.lstm_cell(w_ih, w_hh, bias[:-1], rand(32, 1), h, c)

    def test_step_reports_are_uniform(self, system):
        """Every step puts the same work on the device: the same two
        reports, whatever the state."""
        w_ih, w_hh, bias = self._weights(32, 48, 40)
        reports = []

        def gemv(w, x):
            y, report = system.executor.gemv(w, x)
            reports.append(report)
            return y

        h = c = np.zeros(48, np.float16)
        for x in rand((3, 32), 41):
            h, c = lstm_step(gemv, w_ih, w_hh, bias, x, h, c)
        assert len(reports) == 6
        assert len({(r.column_commands, r.fences) for r in reports[0::2]}) == 1
        assert len({(r.column_commands, r.fences) for r in reports[1::2]}) == 1


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
        collab = CollaborativeGemv(system, m, n, pim_rows=128)
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
            collab = CollaborativeGemv(system, m, n, pim_rows=rows)
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
