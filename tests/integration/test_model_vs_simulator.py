"""Cross-checks between the analytic performance model and the simulator.

The analytic `perf.latency` model is what scales results to the paper's
64-channel system; these tests pin it to the functional simulator on
matching small configurations so the scaling rests on validated structure.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.perf.latency import PIM_HBM, LatencyModel
from repro.stack.kernels import ElementwiseKernel, GemvKernel
from repro.stack.lstm import LstmLayerOperator
from repro.stack.runtime import PimSystem, SystemConfig


def _analytic(num_pchs):
    return LatencyModel(replace(PIM_HBM, num_pchs=num_pchs, tck_ns=1.0))


def rand(shape, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestGemvAgreement:
    @pytest.mark.parametrize("m,n", [(128, 64), (256, 128), (384, 96)])
    def test_cycles_within_band(self, m, n):
        system = PimSystem(
            SystemConfig(num_pchs=2, num_rows=256, fence_penalty_cycles=22)
        )
        kernel = GemvKernel(system, m, n)
        kernel.load_weights(rand((m, n), 0))
        _, report = kernel(rand(n, 1))
        analytic = _analytic(2).pim_gemv_cycles(m, n)
        assert analytic == pytest.approx(report.cycles, rel=0.30), (m, n)


class TestElementwiseAgreement:
    @pytest.mark.parametrize("elements", [16 * 1024, 64 * 1024])
    def test_add_cycles_within_band(self, elements):
        system = PimSystem(
            SystemConfig(num_pchs=2, num_rows=256, fence_penalty_cycles=22)
        )
        a, b = rand(elements, 2), rand(elements, 3)
        _, report = ElementwiseKernel(system, "add", elements)(a, b)
        analytic = _analytic(2).pim_elementwise_cycles(elements, 24, 3)
        assert analytic == pytest.approx(report.cycles, rel=0.30)

    def test_bn_cheaper_than_add_in_both(self):
        elements = 32 * 1024
        system = PimSystem(
            SystemConfig(num_pchs=2, num_rows=256, fence_penalty_cycles=22)
        )
        a, b = rand(elements, 4), rand(elements, 5)
        _, add_rep = ElementwiseKernel(system, "add", elements)(a, b)
        _, bn_rep = ElementwiseKernel(system, "bn", elements)(a, scalars=(1.0, 0.0))
        model = _analytic(2)
        assert bn_rep.cycles < add_rep.cycles
        assert model.pim_elementwise_cycles(elements, 16, 2) < \
            model.pim_elementwise_cycles(elements, 24, 3)


class TestLstmAgreement:
    def test_fused_layer_tracks_two_gemvs_per_step(self):
        system = PimSystem(
            SystemConfig(num_pchs=2, num_rows=256, fence_penalty_cycles=22)
        )
        d, h, steps = 64, 64, 3
        op = LstmLayerOperator(system, d, h)
        op.load_weights(rand((4 * h, d), 6), rand((4 * h, h), 7),
                        rand(4 * h, 8).astype(np.float32))
        _, report, _ = op(rand((steps, d), 9))
        model = _analytic(2)
        analytic = steps * (
            model.pim_gemv_cycles(4 * h, d) + model.pim_gemv_cycles(4 * h, h)
        )
        assert analytic == pytest.approx(report.cycles, rel=0.35)
