"""Bit-field packing helpers for instruction encodings.

The PIM ISA (Table III) packs opcode, operand-space selectors and register
indices into 32-bit words, expressed as :class:`BitField` layouts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Tuple

__all__ = ["BitField", "Layout", "mask", "get_bits", "set_bits"]


def mask(width: int) -> int:
    """An all-ones mask of ``width`` bits."""
    return (1 << width) - 1


def get_bits(word: int, hi: int, lo: int) -> int:
    """Extract bits ``hi..lo`` (inclusive, hi >= lo) from ``word``."""
    if hi < lo:
        raise ValueError(f"invalid bit range [{hi}:{lo}]")
    return (word >> lo) & mask(hi - lo + 1)


def set_bits(word: int, hi: int, lo: int, value: int) -> int:
    """Return ``word`` with bits ``hi..lo`` replaced by ``value``."""
    if hi < lo:
        raise ValueError(f"invalid bit range [{hi}:{lo}]")
    width = hi - lo + 1
    if value < 0 or value > mask(width):
        raise ValueError(f"value {value} does not fit in {width} bits")
    cleared = word & ~(mask(width) << lo)
    return cleared | (value << lo)


@dataclass(frozen=True)
class BitField:
    """A named contiguous bit range ``[hi:lo]`` inside a word."""

    name: str
    hi: int
    lo: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1

    def extract(self, word: int) -> int:
        """Read this field's value out of ``word``."""
        return get_bits(word, self.hi, self.lo)

    def insert(self, word: int, value: int) -> int:
        """Return ``word`` with this field set to ``value``."""
        return set_bits(word, self.hi, self.lo, value)


class Layout:
    """An ordered collection of non-overlapping bit fields in a word.

    Fields are declared as ``(name, hi, lo)`` tuples.  ``pack`` builds a word
    from keyword values (unnamed bits are zero); ``unpack`` returns a dict.
    """

    def __init__(self, word_width: int, fields: Iterable[Tuple[str, int, int]]):
        self.word_width = word_width
        self.fields: Dict[str, BitField] = {}
        used = 0
        for name, hi, lo in fields:
            if hi >= word_width:
                raise ValueError(f"field {name} [{hi}:{lo}] exceeds {word_width} bits")
            field = BitField(name, hi, lo)
            overlap = used & (mask(field.width) << lo)
            if overlap:
                raise ValueError(f"field {name} overlaps an earlier field")
            used |= mask(field.width) << lo
            self.fields[name] = field

    def pack(self, **values: int) -> int:
        """Build a word from named field values (unnamed bits zero)."""
        word = 0
        for name, value in values.items():
            if name not in self.fields:
                raise KeyError(f"unknown field {name!r}")
            word = self.fields[name].insert(word, value)
        return word

    def unpack(self, word: int) -> Mapping[str, int]:
        """Split ``word`` into a name -> value mapping."""
        return {name: field.extract(word) for name, field in self.fields.items()}

    def __contains__(self, name: str) -> bool:
        return name in self.fields
