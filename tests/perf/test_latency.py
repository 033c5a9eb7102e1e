"""Tests for the latency model: calibration bands and mechanism checks.

The band assertions pin the model to the paper's reported results (within
a reproduction tolerance); the mechanism tests check monotonicity and the
structural behaviours that generate the shapes in Fig. 10.
"""

import pytest

from repro.apps.microbench import ADD_SIZES, GEMV_SIZES
from repro.apps.models import ALEXNET, ALL_APPS, DS2, GNMT, RESNET50, RNNT
from repro.perf.latency import PIM_HBM, PROC_HBM, Calibration, LatencyModel


@pytest.fixture(scope="module")
def host():
    return LatencyModel(PROC_HBM)


@pytest.fixture(scope="module")
def pim():
    return LatencyModel(PIM_HBM)


def speedup(host, pim, app, batch=1):
    return host.app_time(app, batch)["total"] / pim.app_time(app, batch)["total"]


class TestSystemParameters:
    def test_offchip_bandwidth(self):
        # 4 devices x 16 pCH at 2.4 Gb/s = 1.229 TB/s (Section VI).
        assert PROC_HBM.offchip_bw == pytest.approx(1.2288e12, rel=1e-3)

    def test_onchip_bandwidth_4x(self):
        assert PIM_HBM.onchip_bw / PIM_HBM.offchip_bw == pytest.approx(4.0)

    def test_llc_miss_model(self):
        cal = Calibration()
        assert cal.llc_miss_rate(1) == 1.0
        assert 0.70 <= cal.llc_miss_rate(4) <= 0.80  # Fig. 10: 70-80% at B4


class TestMicrobenchmarkBands:
    def test_gemv1_speedup_11x(self, host, pim):
        """Paper: GEMV improves by up to 11.2x at batch 1."""
        ratio = host.host_gemv(1024, 4096).ns / pim.pim_gemv(1024, 4096).ns
        assert 9.5 <= ratio <= 13.0

    def test_gemv_speedups_all_positive(self, host, pim):
        for g in GEMV_SIZES:
            ratio = host.host_gemv(g.m, g.n).ns / pim.pim_gemv(g.m, g.n).ns
            assert ratio > 3.0

    def test_add1_speedup_1p6(self, host, pim):
        """Paper: ADD improves by only 1.6x (fence-limited)."""
        ratio = host.host_stream(ADD_SIZES[0].n, 3).ns / pim.pim_add(ADD_SIZES[0].n).ns
        assert 1.3 <= ratio <= 2.0

    def test_gemv_beats_add(self, host, pim):
        g = host.host_gemv(1024, 4096).ns / pim.pim_gemv(1024, 4096).ns
        a = host.host_stream(2**21, 3).ns / pim.pim_add(2**21).ns
        assert g > 3 * a

    def test_batch2_ratio_3x(self, host, pim):
        ratio = host.host_gemv(1024, 4096, 2).ns / pim.pim_gemv(1024, 4096, 2).ns
        assert 2.3 <= ratio <= 4.0

    def test_batch4_crossover(self, host, pim):
        """Paper: at batch 4 the HBM host outperforms PIM-HBM."""
        ratio = host.host_gemv(1024, 4096, 4).ns / pim.pim_gemv(1024, 4096, 4).ns
        assert ratio < 1.0


class TestApplicationBands:
    def test_ds2_3p5(self, host, pim):
        assert 2.8 <= speedup(host, pim, DS2) <= 4.6  # paper 3.5

    def test_gnmt_1p5(self, host, pim):
        assert 1.2 <= speedup(host, pim, GNMT) <= 2.1  # paper 1.5

    def test_alexnet_1p4(self, host, pim):
        assert 1.1 <= speedup(host, pim, ALEXNET) <= 1.7  # paper 1.4

    def test_resnet_unharmed(self, host, pim):
        """Paper: PIM-HBM gives the same performance as HBM on ResNet-50
        (compute-bound) — crucially it does not hurt."""
        assert 0.95 <= speedup(host, pim, RESNET50) <= 1.15

    def test_rnnt_between_ds2_and_gnmt(self, host, pim):
        r = speedup(host, pim, RNNT)
        assert speedup(host, pim, GNMT) < r < speedup(host, pim, DS2)

    def test_ds2_batch2_1p6(self, host, pim):
        assert 1.3 <= speedup(host, pim, DS2, 2) <= 2.3  # paper 1.6

    def test_rnnt_batch2_1p9(self, host, pim):
        assert 1.4 <= speedup(host, pim, RNNT, 2) <= 2.4  # paper 1.9

    def test_most_apps_lose_at_batch4(self, host, pim):
        losing = sum(
            1 for app in ALL_APPS if speedup(host, pim, app, 4) < 1.2
        )
        assert losing >= 4

    def test_gnmt_encoder_speedup(self, host, pim):
        """Paper: the GNMT LSTM *encoder* improves 6.2x."""
        encoders = [l for l in GNMT.layers if getattr(l, "fused", False)]
        h = sum(host.layer_time(l, 1).ns for l in encoders)
        p = sum(pim.layer_time(l, 1).ns for l in encoders)
        assert 4.0 <= h / p <= 7.5


class TestMechanisms:
    def test_fence_free_pim_is_faster(self, pim):
        nf = pim.without_fences()
        fenced = pim.pim_gemv(1024, 4096).ns
        free = nf.pim_gemv(1024, 4096).ns
        assert 1.2 <= fenced / free <= 3.0

    def test_fence_free_add(self, pim):
        nf = pim.without_fences()
        assert pim.pim_add(2**21).ns > nf.pim_add(2**21).ns

    def test_pim_time_scales_linearly_with_batch(self, pim):
        t1 = pim.pim_gemv_cycles(1024, 4096)
        assert pim.pim_gemv(1024, 4096, batch=3).ns >= 3 * t1 * PIM_HBM.tck_ns

    def test_host_gemv_efficiency_saturates(self):
        cal = Calibration()
        assert cal.gemv_efficiency(1024, 64) == cal.host_gemm_eff_max

    def test_decoder_launch_overhead(self, pim):
        """Non-fused (decoder-style) LSTM pays per-step operator switches."""
        from repro.apps.layers import Lstm

        fused = Lstm("enc", 50, 1024, 1024, fused=True)
        stepped = Lstm("dec", 50, 1024, 1024, fused=False)
        assert pim.lstm_time(stepped, 1).ns > pim.lstm_time(fused, 1).ns

    def test_offload_decision_skips_slow_ops(self, pim):
        """The preprocessor leaves tiny per-step FCs on the host."""
        from repro.apps.layers import Fc

        tiny = Fc("joint", 29, 512, calls=40)
        assert not pim.offloads(tiny)

    def test_offload_decision_takes_lstms(self, pim):
        from repro.apps.layers import Lstm

        layer = Lstm("enc", 100, 1024, 1024, fused=True)
        assert pim.offloads(layer)

    def test_hbm_system_never_offloads(self, host):
        from repro.apps.layers import Lstm

        assert not host.offloads(Lstm("enc", 100, 1024, 1024))

    def test_app_breakdown_sums(self, pim):
        breakdown = pim.app_time(DS2)
        total = breakdown.pop("total")
        assert total == pytest.approx(sum(breakdown.values()))


class TestAnalyticVsSimulator:
    """The analytic PIM cycle counts must track the cycle-level simulator."""

    def test_gemv_cycles_close_to_simulated(self):
        import numpy as np
        from dataclasses import replace
        from repro.stack.kernels import GemvKernel
        from repro.stack.runtime import PimSystem, SystemConfig
        from repro.perf.latency import SystemPerf

        m, n, pchs = 256, 128, 2
        system = PimSystem(
            SystemConfig(num_pchs=pchs, num_rows=128, fence_penalty_cycles=22)
        )
        kernel = GemvKernel(system, m, n)
        rng = np.random.default_rng(0)
        kernel.load_weights((rng.standard_normal((m, n)) * 0.1).astype(np.float16))
        _, report = kernel((rng.standard_normal(n) * 0.1).astype(np.float16))

        analytic = LatencyModel(
            replace(PIM_HBM, num_pchs=pchs, tck_ns=1.0)
        ).pim_gemv_cycles(m, n)
        assert analytic == pytest.approx(report.cycles, rel=0.30)
