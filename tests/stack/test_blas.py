"""Tests for the PIM BLAS public API."""

import numpy as np
import pytest

from repro.stack.blas import (
    PimBlas,
    add_reference,
    bn_reference,
    gemv_reference,
    mul_reference,
    relu_reference,
)
from repro.stack.runtime import PimSystem, SystemConfig


@pytest.fixture(scope="module")
def system():
    return PimSystem(SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1))


@pytest.fixture(scope="module")
def blas(system):
    return PimBlas(system)


def rand(shape, seed, scale=0.1):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestGemv:
    def test_matches_reference(self, blas, system):
        w, x = rand((192, 80), 0), rand(80, 1)
        y = blas.gemv(w, x)
        assert np.array_equal(y, gemv_reference(w, x, system.num_pchs))
        assert "gemv[192x80]" in blas.profiler.profile.kernels

    def test_fp32_accuracy(self, blas):
        w, x = rand((128, 128), 2), rand(128, 3)
        y = blas.gemv(w, x)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 2e-3

    def test_report_has_timing(self, system):
        w, x = rand((128, 64), 4), rand(64, 5)
        _, report = system.executor.gemv(w, x)
        assert report.ns > 0
        assert report.cycles > 0
        assert report.fences > 0


class TestElementwise:
    def test_add(self, blas):
        a, b = rand(2000, 6), rand(2000, 7)
        out = blas.add(a, b)
        assert np.array_equal(out, add_reference(a, b))

    def test_mul(self, blas):
        a, b = rand(2000, 8), rand(2000, 9)
        out = blas.mul(a, b)
        assert np.array_equal(out, mul_reference(a, b))

    def test_relu(self, blas):
        a = rand(2000, 10, scale=2.0)
        out = blas.relu(a)
        assert np.array_equal(out, relu_reference(a))
        assert (out >= 0).all()

    def test_bn(self, blas):
        a = rand(2000, 11)
        out = blas.bn(a, 2.0, 0.5)
        assert np.array_equal(out, bn_reference(a, 2.0, 0.5))

    def test_shape_mismatch(self, blas):
        with pytest.raises(ValueError):
            blas.add(rand(100, 0), rand(101, 0))


class TestLstmCell:
    def test_matches_fp32_cell(self, blas):
        hidden, dim = 48, 32
        w_ih = rand((4 * hidden, dim), 12)
        w_hh = rand((4 * hidden, hidden), 13)
        bias = rand(4 * hidden, 14).astype(np.float32)
        x = rand(dim, 15)
        h = rand(hidden, 16)
        c = rand(hidden, 17)
        profile = blas.profiler.profile
        calls = sum(k.invocations for k in profile.kernels.values())
        h2, c2 = blas.lstm_cell(w_ih, w_hh, bias, x, h, c)
        assert sum(k.invocations for k in profile.kernels.values()) == calls + 2
        gates = (
            w_ih.astype(np.float32) @ x.astype(np.float32)
            + w_hh.astype(np.float32) @ h.astype(np.float32)
            + bias
        )
        i, f, g, o = np.split(gates, 4)
        sig = lambda v: 1 / (1 + np.exp(-v))
        c_ref = sig(f) * c.astype(np.float32) + sig(i) * np.tanh(g)
        h_ref = sig(o) * np.tanh(c_ref)
        assert np.abs(h2.astype(np.float32) - h_ref).max() < 5e-3
        assert np.abs(c2.astype(np.float32) - c_ref).max() < 5e-3


class TestReferences:
    def test_gemv_reference_reduces_in_8_subaccumulators(self):
        # Construct a case where FP16 sequential order matters: alternating
        # +-2048 and +1 contributions would vanish in a single-accumulator
        # FP16 sum but survive in FP32 reduction of 8 sub-accumulators.
        n = 16
        w = np.ones((1, n), dtype=np.float16)
        x = np.ones(n, dtype=np.float16)
        out = gemv_reference(w, x, num_pchs=1)
        assert out[0] == 16.0

    def test_gemv_reference_pads_ragged_dims(self):
        w = rand((5, 13), 18)
        x = rand(13, 19)
        out = gemv_reference(w, x, num_pchs=2)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(out - gold).max() < 1e-3
