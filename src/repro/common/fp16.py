"""Bit-accurate software floating point for the PIM execution unit.

The PIM-HBM execution unit computes in IEEE 754 binary16 (FP16).  The paper's
Table I also evaluates INT16/INT8/BFLOAT16/FP32 MAC units, so this module
implements a generic binary floating-point codec parameterised by exponent and
mantissa widths, with round-to-nearest-even (RNE) — the rounding mode of the
fabricated MAC units.

Two layers are provided:

* **Scalar softfloat** (`FloatFormat`, `fp_add`, `fp_mul`, `fp_mac`) operating
  on raw bit patterns.  This is the golden reference model: every operation
  converts the operands to Python floats (exact, since binary64 is a superset
  of all supported formats), performs the operation in binary64, and rounds
  once back to the target format.  For a single mul or add of two FP16/BF16
  values this is exactly equivalent to a correctly-rounded hardware unit
  (the binary64 intermediate is exact).  MAC is modelled as
  ``round(round(a*b) + c)`` because the fabricated pipeline has separate MULT
  and ADD stages (Section IV-B), i.e. it is *not* a fused MAC.
* **Vector helpers** (`vec_mul`, `vec_add`, `vec_mac`, `vec_relu`) used by the
  16-lane SIMD datapath, implemented with numpy float16 for speed.  Property
  tests assert lane-for-lane equivalence with the scalar softfloat.
* **`round16`**, the same RNE to binary16 done in place on a float32 array,
  so a long FP16 computation can stay in float32 (where NumPy is fast) and
  round after every operation instead of converting dtypes.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FloatFormat",
    "FP16",
    "BF16",
    "FP32",
    "fp_add",
    "fp_mul",
    "fp_mac",
    "fp_relu",
    "vec_add",
    "vec_mul",
    "vec_mac",
    "vec_relu",
    "round16",
    "format_vec_add",
    "format_vec_mul",
    "format_vec_mac",
    "encode_format",
    "decode_format",
    "f16_to_bits",
    "bits_to_f16",
]


@dataclass(frozen=True)
class FloatFormat:
    """An IEEE-754-style binary interchange format.

    Attributes:
        name: human-readable format name.
        exp_bits: width of the exponent field.
        man_bits: width of the trailing significand field.
    """

    name: str
    exp_bits: int
    man_bits: int

    @property
    def width(self) -> int:
        """Total storage width in bits (1 sign + exponent + mantissa)."""
        return 1 + self.exp_bits + self.man_bits

    @property
    def bias(self) -> int:
        """Exponent bias."""
        return (1 << (self.exp_bits - 1)) - 1

    @property
    def exp_max(self) -> int:
        """All-ones (reserved) biased exponent value."""
        return (1 << self.exp_bits) - 1

    @property
    def max_finite(self) -> float:
        """Largest finite representable magnitude."""
        frac = 2.0 - 2.0 ** (-self.man_bits)
        return frac * 2.0 ** (self.exp_max - 1 - self.bias)

    @property
    def min_normal(self) -> float:
        """Smallest positive normal magnitude."""
        return 2.0 ** (1 - self.bias)

    @property
    def min_subnormal(self) -> float:
        """Smallest positive subnormal magnitude."""
        return 2.0 ** (1 - self.bias - self.man_bits)

    # -- encoding ---------------------------------------------------------

    def to_bits(self, value: float) -> int:
        """Round ``value`` (binary64) to this format with RNE; return bits."""
        if math.isnan(value):
            # Canonical quiet NaN: all-ones exponent, MSB of mantissa set.
            return (self.exp_max << self.man_bits) | (1 << (self.man_bits - 1))
        sign = 1 if math.copysign(1.0, value) < 0 else 0
        mag = abs(value)
        if math.isinf(mag):
            return (sign << (self.width - 1)) | (self.exp_max << self.man_bits)
        if mag == 0.0:
            return sign << (self.width - 1)

        # Decompose |value| = frac * 2**exp with frac in [0.5, 1).
        frac, exp = math.frexp(mag)
        # Normalised form: 1.m * 2**(exp-1); unbiased exponent e = exp - 1.
        e = exp - 1
        if e < 1 - self.bias:
            # Subnormal range: significand scaled by 2**(1 - bias).
            scaled = mag / self.min_subnormal
            sig = _round_half_even(scaled)
            if sig >= (1 << self.man_bits):
                # Rounded up into the normal range.
                return (sign << (self.width - 1)) | (1 << self.man_bits)
            return (sign << (self.width - 1)) | sig
        # Normal: round the trailing significand.
        scaled = (mag / 2.0**e - 1.0) * (1 << self.man_bits)
        sig = _round_half_even(scaled)
        if sig == (1 << self.man_bits):
            sig = 0
            e += 1
        biased = e + self.bias
        if biased >= self.exp_max:
            # Overflow to infinity under RNE.
            return (sign << (self.width - 1)) | (self.exp_max << self.man_bits)
        return (sign << (self.width - 1)) | (biased << self.man_bits) | sig

    def from_bits(self, bits: int) -> float:
        """Decode a bit pattern to a Python float (exact)."""
        mask = (1 << self.width) - 1
        bits &= mask
        sign = -1.0 if bits >> (self.width - 1) else 1.0
        biased = (bits >> self.man_bits) & self.exp_max
        sig = bits & ((1 << self.man_bits) - 1)
        if biased == self.exp_max:
            if sig:
                return math.nan
            return sign * math.inf
        if biased == 0:
            return sign * sig * self.min_subnormal
        return sign * (1.0 + sig / (1 << self.man_bits)) * 2.0 ** (biased - self.bias)

    def round(self, value: float) -> float:
        """Round a binary64 value to the nearest value in this format."""
        return self.from_bits(self.to_bits(value))


def _round_half_even(x: float) -> int:
    """Round a non-negative float to the nearest integer, ties to even.

    ``x`` is always exactly representable here because callers scale by powers
    of two, so this implements the final RNE of the significand.
    """
    floor = math.floor(x)
    rem = x - floor
    if rem > 0.5 or (rem == 0.5 and floor % 2 == 1):
        return floor + 1
    return floor


FP16 = FloatFormat("fp16", exp_bits=5, man_bits=10)
BF16 = FloatFormat("bfloat16", exp_bits=8, man_bits=7)
FP32 = FloatFormat("fp32", exp_bits=8, man_bits=23)


# -- scalar softfloat operations (bits in, bits out) ----------------------


def fp_mul(fmt: FloatFormat, a_bits: int, b_bits: int) -> int:
    """Correctly rounded multiply in ``fmt``."""
    product = fmt.from_bits(a_bits) * fmt.from_bits(b_bits)
    return fmt.to_bits(product)


def fp_add(fmt: FloatFormat, a_bits: int, b_bits: int) -> int:
    """Correctly rounded add in ``fmt``.

    The binary64 sum of two values from any supported format is exact, so a
    single final rounding yields the correctly rounded result.
    """
    total = fmt.from_bits(a_bits) + fmt.from_bits(b_bits)
    return fmt.to_bits(total)


def fp_mac(fmt: FloatFormat, acc_bits: int, a_bits: int, b_bits: int) -> int:
    """Non-fused multiply-accumulate ``acc + a*b`` (round after each stage).

    Models the fabricated pipeline where the FP multiplier (stage 3) and FP
    adder (stage 4) each round their own result.
    """
    return fp_add(fmt, acc_bits, fp_mul(fmt, a_bits, b_bits))


def fp_relu(fmt: FloatFormat, a_bits: int) -> int:
    """ReLU on a bit pattern: a 2-to-1 mux controlled by the sign bit.

    Matches the hardware description in Section III-C: negative inputs
    (including -0.0 and negative NaNs, which the mux cannot distinguish)
    are replaced by +0.0.
    """
    if a_bits >> (fmt.width - 1):
        return 0
    return a_bits


# -- vectorised FP16 helpers for the SIMD datapath -------------------------


def vec_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lane-wise FP16 multiply (numpy float16 semantics == IEEE RNE)."""
    return (a.astype(np.float16) * b.astype(np.float16)).astype(np.float16)


def vec_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lane-wise FP16 add."""
    return (a.astype(np.float16) + b.astype(np.float16)).astype(np.float16)


def vec_mac(acc: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lane-wise non-fused FP16 multiply-accumulate ``acc + a*b``."""
    return vec_add(acc, vec_mul(a, b))


def vec_relu(a: np.ndarray) -> np.ndarray:
    """Lane-wise ReLU via the sign bit, matching :func:`fp_relu`."""
    a = a.astype(np.float16)
    bits = a.view(np.uint16)
    return np.where(bits >> 15 != 0, np.float16(0.0), a).astype(np.float16)


_SIGN = np.uint32(0x80000000)
_EXPONENT = np.uint32(0x7F800000)
_TO_QUANTUM = np.uint32(13 << 23)  # 2**13: binary32 keeps 13 more fraction bits
_LOWEST_EXPONENT = np.float32(2.0**-14)  # binary16's normal exponent range
_HIGHEST_EXPONENT = np.float32(2.0**15)
_PAST_FP16 = np.float32(2.0**112)  # 2**16 * 2**112 overflows binary32
_BACK = np.float32(2.0**-112)


def round16(x: np.ndarray) -> np.ndarray:
    """Round every lane of the float32 array ``x`` to binary16, in place,
    and return ``x`` — still float32, now holding binary16 values.

    The same rounding as NumPy's float16 ``*`` / ``+`` / ``-`` and as
    :func:`fp_mul` / :func:`fp_add`: ``round16(f32(a) * f32(b))`` is the
    binary16 product (exact in binary32) rounded once, and a sum or
    difference rounded first to binary32 then here is still correctly
    rounded, because 24 >= 2 * 11 + 2 (Figueroa, "When is double rounding
    innocuous?", 1995).  Subnormals, signed zeros and overflow to +-inf
    follow IEEE 754; a NaN stays a NaN (its payload is not kept).  No
    floating-point warning escapes.

    How: with the sign set aside, ``M = 2**(e + 13)`` for the lane's
    exponent ``e`` clamped to binary16's normal range ``[-14, 15]``.  Then
    ``|x| + M`` lands in ``M``'s binade, whose binary32 spacing is
    binary16's spacing at ``|x|`` (``2**-24`` for every subnormal), so
    binary32's own round-to-nearest-even does the rounding and ``- M`` is
    exact.  Scaling by ``2**112`` and back sends exactly the lanes that
    rounded to ``2**16`` or beyond to infinity.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _round16(x)


def _round16(x: np.ndarray) -> np.ndarray:
    """:func:`round16`'s body, for a caller that already ignores overflow
    and invalid operations (``np.errstate``) around a loop of rounding
    steps."""
    bits = x.view(np.uint32)
    sign = bits & _SIGN
    bits ^= sign
    magic_bits = bits & _EXPONENT
    magic = magic_bits.view(np.float32)
    # Two bare ufuncs: ``np.clip``'s Python wrapper costs as much again.
    np.maximum(magic, _LOWEST_EXPONENT, out=magic)
    np.minimum(magic, _HIGHEST_EXPONENT, out=magic)
    magic_bits += _TO_QUANTUM
    x += magic
    x -= magic
    x *= _PAST_FP16
    x *= _BACK
    bits |= sign
    return x


# -- format-generic vector ops (for non-FP16 execution-unit variants) -------
#
# Lanes are 16-bit storage whatever the format; arrays travel as numpy
# float16 *containers* whose raw bits are interpreted per ``fmt``.  The FP16
# instance takes the fast numpy path; other formats (e.g. BF16, the Table I
# alternative) go through the scalar softfloat lane by lane.


def _lanewise(fmt: FloatFormat, op, *arrays: np.ndarray) -> np.ndarray:
    bits = [np.ascontiguousarray(a, dtype=np.float16).view(np.uint16) for a in arrays]
    out = np.empty_like(bits[0])
    for i in range(out.size):
        out[i] = op(fmt, *(int(b[i]) for b in bits))
    return out.view(np.float16)


def format_vec_mul(fmt: FloatFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lane-wise multiply in ``fmt`` (FP16 fast path, softfloat otherwise)."""
    if fmt is FP16:
        return vec_mul(a, b)
    return _lanewise(fmt, fp_mul, a, b)


def format_vec_add(fmt: FloatFormat, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lane-wise add in ``fmt``."""
    if fmt is FP16:
        return vec_add(a, b)
    return _lanewise(fmt, fp_add, a, b)


def format_vec_mac(
    fmt: FloatFormat, acc: np.ndarray, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Lane-wise non-fused MAC in ``fmt``."""
    if fmt is FP16:
        return vec_mac(acc, a, b)
    return _lanewise(fmt, fp_mac, acc, a, b)


def encode_format(fmt: FloatFormat, values: np.ndarray) -> np.ndarray:
    """Encode real values into 16-bit lanes of ``fmt`` (float16 container)."""
    bits = np.array([fmt.to_bits(float(v)) for v in np.asarray(values).reshape(-1)],
                    dtype=np.uint16)
    return bits.view(np.float16)


def decode_format(fmt: FloatFormat, lanes: np.ndarray) -> np.ndarray:
    """Decode 16-bit lanes of ``fmt`` back to float64 values."""
    bits = np.ascontiguousarray(lanes, dtype=np.float16).view(np.uint16)
    return np.array([fmt.from_bits(int(b)) for b in bits])


def f16_to_bits(value: float) -> int:
    """Round a Python float to FP16 and return the 16 raw bits."""
    return FP16.to_bits(value)


def bits_to_f16(bits: int) -> float:
    """Decode 16 raw FP16 bits to a Python float."""
    return FP16.from_bits(bits)


def _f64_bits(value: float) -> int:
    """Raw binary64 bits of a Python float (debugging aid)."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]
