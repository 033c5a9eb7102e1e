"""Tests for the bit-accurate softfloat (repro.common.fp16)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.fp16 import (
    BF16,
    FP16,
    FP32,
    FloatFormat,
    bits_to_f16,
    f16_to_bits,
    fp_add,
    fp_mac,
    fp_mul,
    fp_relu,
    round16,
    vec_add,
    vec_mac,
    vec_mul,
    vec_relu,
)

f16_bits = st.integers(min_value=0, max_value=0xFFFF)

# These tests sweep every FP16 bit pattern, infinities and NaNs included,
# and compare against NumPy — which announces each overflow/NaN it is
# asked to produce.  The values are the point; the announcements are not.
pytestmark = pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered:RuntimeWarning"
)


class TestFormatProperties:
    def test_fp16_geometry(self):
        assert FP16.width == 16
        assert FP16.bias == 15
        assert FP16.exp_max == 31

    def test_bf16_geometry(self):
        assert BF16.width == 16
        assert BF16.bias == 127

    def test_fp32_geometry(self):
        assert FP32.width == 32
        assert FP32.bias == 127

    def test_fp16_max_finite(self):
        assert FP16.max_finite == 65504.0

    def test_fp16_min_normal(self):
        assert FP16.min_normal == 2.0**-14

    def test_fp16_min_subnormal(self):
        assert FP16.min_subnormal == 2.0**-24

    def test_bf16_dynamic_range_wider_than_fp16(self):
        assert BF16.max_finite > FP16.max_finite
        assert BF16.min_normal < FP16.min_normal


class TestCodec:
    def test_zero(self):
        assert FP16.to_bits(0.0) == 0x0000
        assert FP16.to_bits(-0.0) == 0x8000
        assert FP16.from_bits(0x0000) == 0.0

    def test_one(self):
        assert FP16.to_bits(1.0) == 0x3C00
        assert FP16.from_bits(0x3C00) == 1.0

    def test_negative(self):
        assert FP16.to_bits(-2.0) == 0xC000

    def test_infinity(self):
        assert FP16.to_bits(math.inf) == 0x7C00
        assert FP16.to_bits(-math.inf) == 0xFC00
        assert math.isinf(FP16.from_bits(0x7C00))

    def test_nan(self):
        bits = FP16.to_bits(math.nan)
        assert (bits >> 10) & 0x1F == 0x1F
        assert bits & 0x3FF != 0
        assert math.isnan(FP16.from_bits(bits))

    def test_overflow_to_infinity(self):
        assert FP16.to_bits(70000.0) == 0x7C00
        assert FP16.to_bits(-70000.0) == 0xFC00

    def test_subnormal_roundtrip(self):
        value = 3 * FP16.min_subnormal
        assert FP16.from_bits(FP16.to_bits(value)) == value

    def test_underflow_to_zero(self):
        assert FP16.to_bits(FP16.min_subnormal / 4) == 0

    def test_round_to_nearest_even_tie(self):
        # Exactly halfway between 2048 and 2050 (FP16 spacing at 2^11 is 2).
        assert FP16.round(2049.0) == 2048.0
        assert FP16.round(2051.0) == 2052.0

    def test_subnormal_rounds_up_to_normal(self):
        value = FP16.min_normal * (1 - 2.0**-12)
        assert FP16.round(value) == FP16.min_normal

    @given(f16_bits)
    def test_roundtrip_matches_numpy_decode(self, bits):
        ours = FP16.from_bits(bits)
        theirs = float(np.uint16(bits).view(np.float16))
        if math.isnan(theirs):
            assert math.isnan(ours)
        else:
            assert ours == theirs

    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_encode_matches_numpy(self, value):
        ours = FP16.to_bits(value)
        theirs = int(np.float32(value).astype(np.float16).view(np.uint16))
        assert ours == theirs

    @given(f16_bits)
    def test_bf16_roundtrip_is_identity(self, bits):
        value = BF16.from_bits(bits)
        if math.isnan(value):
            return
        assert BF16.to_bits(value) == bits or value == 0.0


class TestScalarOps:
    @given(f16_bits, f16_bits)
    @settings(max_examples=300)
    def test_mul_matches_numpy(self, a, b):
        ours = fp_mul(FP16, a, b)
        theirs = int(
            (np.uint16(a).view(np.float16) * np.uint16(b).view(np.float16)).view(
                np.uint16
            )
        )
        assert _equiv(ours, theirs)

    @given(f16_bits, f16_bits)
    @settings(max_examples=300)
    def test_add_matches_numpy(self, a, b):
        ours = fp_add(FP16, a, b)
        theirs = int(
            (np.uint16(a).view(np.float16) + np.uint16(b).view(np.float16)).view(
                np.uint16
            )
        )
        assert _equiv(ours, theirs)

    def test_mac_is_two_roundings(self):
        # MAC = add(round(mul)), not a fused multiply-add (Section IV-B).
        acc = FP16.to_bits(1.0)
        a = FP16.to_bits(1.0 + 2.0**-10)
        b = FP16.to_bits(1.0 + 2.0**-10)
        expected = fp_add(FP16, acc, fp_mul(FP16, a, b))
        assert fp_mac(FP16, acc, a, b) == expected

    def test_relu_positive_passthrough(self):
        bits = FP16.to_bits(3.5)
        assert fp_relu(FP16, bits) == bits

    def test_relu_negative_is_zero(self):
        assert fp_relu(FP16, FP16.to_bits(-3.5)) == 0

    def test_relu_negative_zero_is_zero(self):
        # The sign-bit mux cannot distinguish -0.0 from a negative number.
        assert fp_relu(FP16, 0x8000) == 0

    def test_relu_negative_nan_is_zero(self):
        assert fp_relu(FP16, 0xFE00) == 0


class TestVectorOps:
    @given(st.lists(f16_bits, min_size=16, max_size=16),
           st.lists(f16_bits, min_size=16, max_size=16))
    @settings(max_examples=50)
    def test_vec_mul_matches_scalar(self, a_bits, b_bits):
        a = np.array(a_bits, dtype=np.uint16).view(np.float16)
        b = np.array(b_bits, dtype=np.uint16).view(np.float16)
        result = vec_mul(a, b).view(np.uint16)
        for i in range(16):
            assert _equiv(int(result[i]), fp_mul(FP16, a_bits[i], b_bits[i]))

    @given(st.lists(f16_bits, min_size=16, max_size=16),
           st.lists(f16_bits, min_size=16, max_size=16))
    @settings(max_examples=50)
    def test_vec_add_matches_scalar(self, a_bits, b_bits):
        a = np.array(a_bits, dtype=np.uint16).view(np.float16)
        b = np.array(b_bits, dtype=np.uint16).view(np.float16)
        result = vec_add(a, b).view(np.uint16)
        for i in range(16):
            assert _equiv(int(result[i]), fp_add(FP16, a_bits[i], b_bits[i]))

    def test_vec_mac_two_stage(self):
        acc = np.full(16, np.float16(1.0))
        a = np.full(16, np.float16(1.0009765625))
        b = np.full(16, np.float16(1.0009765625))
        out = vec_mac(acc, a, b)
        expected = bits_to_f16(
            fp_mac(FP16, f16_to_bits(1.0), f16_to_bits(1.0009765625),
                   f16_to_bits(1.0009765625))
        )
        assert float(out[0]) == expected

    def test_vec_relu_matches_scalar(self):
        values = np.array(
            [1.0, -1.0, 0.0, -0.0, 65504.0, -65504.0], dtype=np.float16
        )
        result = vec_relu(values)
        expected_bits = [fp_relu(FP16, int(v)) for v in values.view(np.uint16)]
        assert list(result.view(np.uint16)) == expected_bits

    def test_vec_relu_preserves_dtype(self):
        assert vec_relu(np.zeros(4, dtype=np.float64)).dtype == np.float16


# Bit patterns where binary16 arithmetic has edges: signed zeros, the
# smallest and largest subnormals and the smallest normal, one, the
# largest finite value (65504) and the operands that carry it to the
# overflow boundary (65520 = 65504 + 16), infinities and NaNs.
SPECIAL_BITS = [
    0x0000, 0x8000, 0x0001, 0x8001, 0x0003, 0x03FF, 0x0400, 0x8400,
    0x3800, 0x3C00, 0xBC00, 0x3C01, 0x4BFF, 0x4C00, 0x5C00, 0x7BFF,
    0xFBFF, 0x7C00, 0xFC00, 0x7E00, 0xFE00, 0x7C01,
]
operand_bits = st.one_of(st.sampled_from(SPECIAL_BITS), f16_bits)


class TestRound16:
    """``round16`` of a float32 result is the binary16 operation: the gate
    that lets the MAC recurrence run in float32."""

    @staticmethod
    def check(op, pairs):
        a = np.array([p[0] for p in pairs], dtype=np.uint16).view(np.float16)
        b = np.array([p[1] for p in pairs], dtype=np.uint16).view(np.float16)
        lanes = np.asarray(op(a.astype(np.float32), b.astype(np.float32)), np.float32)
        got = round16(lanes).astype(np.float16).view(np.uint16)
        softfloat = fp_mul if op is np.multiply else fp_add
        for (x, y), bits in zip(pairs, got):
            assert _equiv(int(bits), softfloat(FP16, x, y)), (hex(x), hex(y))

    @pytest.mark.parametrize("op", [np.multiply, np.add])
    def test_every_pair_of_special_operands(self, op):
        self.check(op, [(a, b) for a in SPECIAL_BITS for b in SPECIAL_BITS])

    @given(st.lists(st.tuples(operand_bits, operand_bits), min_size=1, max_size=64))
    @settings(max_examples=150)
    def test_mul_is_softfloat_mul(self, pairs):
        self.check(np.multiply, pairs)

    @given(st.lists(st.tuples(operand_bits, operand_bits), min_size=1, max_size=64))
    @settings(max_examples=150)
    def test_add_is_softfloat_add(self, pairs):
        self.check(np.add, pairs)

    def test_edges(self):
        lanes = np.array(
            [65519.99, 65520.0, -65520.0, 2.0**-25, -2.0**-25, 3 * 2.0**-25, -0.0,
             np.inf, np.nan, 2.0**115],
            dtype=np.float32,
        )
        got = round16(lanes)
        assert got is lanes and got.dtype == np.float32
        assert got[:8].tolist() == [65504.0, np.inf, -np.inf, 0.0, -0.0, 2.0**-23, -0.0, np.inf]
        assert np.signbit(got[[4, 6]]).all() and not np.signbit(got[3])
        assert np.isnan(got[8]) and got[9] == np.inf

    def test_no_warning_escapes(self):
        """Overflow to infinity, infinities and NaNs, a signaling one
        included, raise nothing under ``np.errstate(all="raise")``."""
        lanes = np.array(
            [65520.0, -(2.0**115), np.inf, -np.inf, np.nan], dtype=np.float32
        )
        lanes = np.append(lanes, np.uint32(0x7F800001).view(np.float32))  # signaling
        with np.errstate(all="raise"):
            got = round16(lanes)
        assert got[:4].tolist() == [np.inf, -np.inf, np.inf, -np.inf]
        assert np.isnan(got[4:]).all()

    @given(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=64))
    @settings(max_examples=100)
    def test_any_float32_rounds_once(self, words):
        """On any binary32 input — not only a binary16 operation's result —
        it is one correct rounding (NaN stays NaN)."""
        lanes = np.array(words, dtype=np.uint32).view(np.float32)
        got = round16(lanes.copy()).astype(np.float16).view(np.uint16)
        for value, bits in zip(lanes.tolist(), got):
            assert _equiv(int(bits), FP16.to_bits(value))


def _equiv(a_bits: int, b_bits: int) -> bool:
    """Bit equality, with all NaN encodings considered equal."""
    if a_bits == b_bits:
        return True
    a_nan = (a_bits & 0x7C00) == 0x7C00 and (a_bits & 0x3FF) != 0
    b_nan = (b_bits & 0x7C00) == 0x7C00 and (b_bits & 0x3FF) != 0
    return a_nan and b_nan


class TestCustomFormat:
    def test_fp8_e4m3_like_format(self):
        fp8 = FloatFormat("fp8", exp_bits=4, man_bits=3)
        assert fp8.width == 8
        assert fp8.round(1.0) == 1.0
        # Rounds to 3 significand bits.
        assert fp8.round(1.0 + 2.0**-4) == 1.0

    def test_invalid_bit_range_raises(self):
        with pytest.raises(Exception):
            from repro.common.bitfield import get_bits

            get_bits(0, 1, 2)
