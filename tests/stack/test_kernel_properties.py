"""Property-based tests over kernel shapes, lengths and scheduling seeds.

The functional simulator must be bit-exact against the reference models
for *arbitrary* problem shapes — padding boundaries, partial tiles, ragged
slices — and under arbitrary in-window reordering.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.controller import SchedulerPolicy
from repro.stack.blas import (
    add_reference,
    bn_reference,
    gemv_reference,
    mul_reference,
    relu_reference,
)
from repro.stack.kernels import ElementwiseKernel, GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig


def rand(shape, seed, scale=0.2):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestGemvShapeProperty:
    @given(
        m=st.integers(1, 150),
        n=st.integers(1, 96),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_arbitrary_shapes_bit_exact(self, m, n, seed):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        w, x = rand((m, n), seed), rand(n, seed + 1)
        kernel = GemvKernel(system, m, n)
        kernel.load_weights(w)
        y, _ = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))

    @given(
        m=st.integers(1, 140),
        n=st.integers(1, 64),
        pchs=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_channel_count_irrelevant_to_result(self, m, n, pchs, seed):
        system = PimSystem(SystemConfig(num_pchs=pchs, num_rows=128))
        w, x = rand((m, n), seed), rand(n, seed + 1)
        kernel = GemvKernel(system, m, n)
        kernel.load_weights(w)
        y, _ = kernel(x)
        # FP16 sub-accumulator structure depends on the slicing, so compare
        # against the reference with the *same* channel count...
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=pchs))
        # ...and against FP32 within summation tolerance.
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 0.05


class TestElementwiseLengthProperty:
    @given(
        length=st.integers(1, 4000),
        op=st.sampled_from(["add", "mul"]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=12, deadline=None)
    def test_binary_ops_exact(self, length, op, seed):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a, b = rand(length, seed), rand(length, seed + 1)
        out, _ = ElementwiseKernel(system, op, length)(a, b)
        ref = add_reference(a, b) if op == "add" else mul_reference(a, b)
        assert np.array_equal(out, ref)

    @given(length=st.integers(1, 4000), seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_relu_exact(self, length, seed):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a = rand(length, seed, scale=2.0)
        out, _ = ElementwiseKernel(system, "relu", length)(a)
        assert np.array_equal(out, relu_reference(a))

    @given(
        length=st.integers(1, 4000),
        gamma=st.floats(-2, 2),
        beta=st.floats(-1, 1),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=8, deadline=None)
    def test_bn_exact(self, length, gamma, beta, seed):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a = rand(length, seed)
        out, _ = ElementwiseKernel(system, "bn", length)(a, scalars=(gamma, beta))
        assert np.array_equal(out, bn_reference(a, gamma, beta))


class TestSchedulingSeedProperty:
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_aam_immune_to_any_shuffle_seed(self, seed):
        """AAM + fences: correctness holds for every scheduler permutation."""
        system = PimSystem(SystemConfig(
            num_pchs=1, num_rows=128,
            policy=SchedulerPolicy.SHUFFLE, scheduler_seed=seed,
            fence_penalty_cycles=0,
        ))
        w, x = rand((128, 64), 7), rand(64, 8)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        y, _ = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))
