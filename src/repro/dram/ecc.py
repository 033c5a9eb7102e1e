"""An ECC-protected DRAM bank (the Section VIII extension).

:class:`EccBank` is a drop-in :class:`~repro.dram.bank.Bank` with an
on-die (72,64) SEC-DED engine: every 8-byte word of a column burst carries
a check byte in a separate ECC array.  Because both the host *and* the PIM
execution units move data through the same ``peek``/``poke`` column
accessors, PIM-mode accesses are protected identically to host accesses —
the property the paper highlights as what makes its PIM ECC-ready.

``inject_error`` flips stored bits without updating the check bits, so
tests can exercise correction and detection on live kernels.

This module also owns the **block**: :func:`peek_block` /
:func:`poke_block` move ``(banks, n, col_bytes)`` bytes — ``n`` consecutive
columns of one row across a list of banks — in one call, with one array
SEC-DED pass across all of the banks.  Every untimed host<->bank transfer
(operand staging, result gather, weight load, the fused executor's bank
operands) is a block; it lives here because it is the one place that
knows both bank classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.ecc import DecodeStatus, check_words, decode, encode, encode_words
from ..errors import PimDataError
from .bank import Bank, BankConfig
from .timing import TimingParams

__all__ = ["EccBank", "EccStats", "UncorrectableError", "peek_block", "poke_block"]

_WORD_BYTES = 8


class UncorrectableError(PimDataError):
    """A double-bit error was detected in a column read."""


@dataclass
class EccStats:
    words_encoded: int = 0
    words_checked: int = 0
    corrected: int = 0
    detected_uncorrectable: int = 0


class EccBank(Bank):
    """A bank whose column path runs through an on-die SEC-DED engine.

    The column path is vectorized: a whole column (or row, for
    :meth:`scrub_row`) is syndrome-checked in one array SEC-DED call and
    only words flagged dirty fall back to the per-word scalar decoder.
    Setting ``use_vectorized = False`` forces the historical per-word
    loops everywhere — the differential oracle the vectorized paths are
    tested against (``SystemConfig(exec_mode="scalar")`` arms it
    device-wide).
    """

    # Class-level default; flip per instance to force the scalar path.
    use_vectorized = True

    def __init__(self, config: BankConfig, timing: TimingParams,
                 raise_on_uncorrectable: bool = True):
        super().__init__(config, timing)
        # One check byte per 8-byte word: row -> array[words_per_row].
        self._check: Dict[int, np.ndarray] = {}
        self.ecc_stats = EccStats()
        self.raise_on_uncorrectable = raise_on_uncorrectable

    def _check_array(self, row: int) -> np.ndarray:
        array = self._check.get(row)
        if array is None:
            words = self.config.row_bytes // _WORD_BYTES
            array = np.zeros(words, dtype=np.uint8)
            # Unwritten words are all-zero data, whose check byte is 0 too
            # (encode(0) == 0), so a fresh array is consistent.
            self._check[row] = array
        return array

    def _check_run(self, row: int, col0: int, n: int) -> np.ndarray:
        """The check bytes of columns ``col0 .. col0 + n`` of ``row``, as a
        writable view (the ECC-array counterpart of ``Bank._run``)."""
        words_per_col = self.config.col_bytes // _WORD_BYTES
        return self._check_array(row)[col0 * words_per_col : (col0 + n) * words_per_col]

    # -- the protected column path --------------------------------------------

    def poke(self, row: int, col: int, data: np.ndarray) -> None:
        """Write a column and update its check bytes (the encode path).

        The stored bytes equal the written bytes, so the check bytes are
        encoded straight from the incoming burst — no read-back of the
        column just written.
        """
        data = np.ascontiguousarray(data, dtype=np.uint8)
        super().poke(row, col, data)
        words = data.view("<u8")
        checks = self._check_array(row)
        base = col * self.config.col_bytes // _WORD_BYTES
        if self.use_vectorized:
            checks[base : base + words.size] = encode_words(words)
        else:
            for i, word in enumerate(words):
                checks[base + i] = encode(int(word))
        self.ecc_stats.words_encoded += int(words.size)

    def peek(self, row: int, col: int) -> np.ndarray:
        """Read a column through the SEC-DED engine (correct + scrub)."""
        raw = super().peek(row, col)
        words = raw.view("<u8")
        checks = self._check_array(row)
        base = col * self.config.col_bytes // _WORD_BYTES
        if self.use_vectorized:
            if check_words(words, checks[base : base + words.size]).all():
                self.ecc_stats.words_checked += int(words.size)
                return raw
            # At least one dirty word: the scalar loop below classifies,
            # corrects, and counts exactly as the historical path did.
        for i in range(words.size):
            result = decode(int(words[i]), int(checks[base + i]))
            self.ecc_stats.words_checked += 1
            if result.status is DecodeStatus.CORRECTED:
                self.ecc_stats.corrected += 1
                words[i] = result.data
                # Scrub: write the corrected word back to the cells.
                row_array = self._row_array(row)
                start = col * self.config.col_bytes + i * _WORD_BYTES
                row_array[start : start + _WORD_BYTES] = (
                    np.array([result.data], dtype="<u8").view(np.uint8)
                )
            elif result.status is DecodeStatus.UNCORRECTABLE:
                self.ecc_stats.detected_uncorrectable += 1
                if self.raise_on_uncorrectable:
                    raise UncorrectableError(
                        f"double-bit error at row {row} col {col} word {i}"
                    )
        return raw

    def _clean_run(self, row: int, col0: int, n: int) -> Optional[np.ndarray]:
        """The run's block only when one array SEC-DED pass finds every
        word of it clean.  A dirty word sends every column through
        :meth:`peek` at its own command, which classifies, corrects,
        scrubs, counts and raises there; so does the per-word oracle.
        ``words_checked`` advances as the columns issue — this one's words
        here, the rest in :meth:`read_fetched`."""
        if type(self) is not EccBank or not self.use_vectorized:
            return None
        raw = self._run(row, col0, n).copy()
        if not check_words(raw.view("<u8"), self._check_run(row, col0, n)).all():
            return None
        self.ecc_stats.words_checked += self.config.col_bytes // _WORD_BYTES
        return raw.reshape(n, -1)

    def read_fetched(self, row: int, cycle: int) -> None:
        """A fetched read still counts its column's words as checked."""
        super().read_fetched(row, cycle)
        self.ecc_stats.words_checked += self.config.col_bytes // _WORD_BYTES

    def poke_columns(self, row: int, cols: np.ndarray, data: np.ndarray) -> None:
        """Index-array column write: one encode pass covers every written word."""
        data = np.ascontiguousarray(self._column_block(len(cols), data))
        if not self.use_vectorized:
            for i, col in enumerate(cols):
                self.poke(row, int(col), data[i])
            return
        Bank.poke_columns(self, row, cols, data)
        words = data.view("<u8")  # (len(cols), words_per_col)
        checks = self._check_array(row)
        words_per_col = self.config.col_bytes // _WORD_BYTES
        idx = np.asarray(cols)[:, None] * words_per_col + np.arange(words_per_col)
        checks[idx.ravel()] = encode_words(words.ravel())
        self.ecc_stats.words_encoded += int(words.size)

    def peek_columns(self, row: int, cols: np.ndarray) -> np.ndarray:
        """Index-array column read: one syndrome pass; dirty columns fall back.

        The fast path checks every gathered word in a single array SEC-DED
        call.  If any word is dirty, the affected *columns* are re-read
        through the scalar :meth:`peek`, in column order — reproducing the
        historical per-word classification, correction, inline scrub, and
        raise behaviour (and stats) exactly.
        """
        if not self.use_vectorized:
            return np.stack([self.peek(row, int(col)) for col in cols])
        raw = Bank.peek_columns(self, row, cols)
        words = raw.view("<u8")  # (len(cols), words_per_col)
        checks = self._check_array(row)
        words_per_col = self.config.col_bytes // _WORD_BYTES
        idx = np.asarray(cols)[:, None] * words_per_col + np.arange(words_per_col)
        clean = check_words(words.ravel(), checks[idx].ravel())
        if clean.all():
            self.ecc_stats.words_checked += int(words.size)
            return raw
        dirty_cols = np.unique(np.asarray(cols)[np.nonzero(~clean)[0] // words_per_col])
        self.ecc_stats.words_checked += int(words.size) - int(
            np.isin(np.asarray(cols), dirty_cols).sum()
        ) * words_per_col
        out = raw
        for i, col in enumerate(cols):
            if col in dirty_cols:
                out[i] = self.peek(row, int(col))
        return out

    # -- scrubbing ---------------------------------------------------------------

    def scrub_row(self, row: int) -> Tuple[int, int, int]:
        """Decode every word of ``row``; fix correctable errors in place.

        Unlike the inline scrub of :meth:`peek` (which repairs the data
        word only), scrubbing re-encodes the check byte too, so a
        corrected error cannot later pair with a second flip into an
        uncorrectable word.  Uncorrectable words are *reported*, never
        raised — the scrubber's caller decides what to retire.

        Returns ``(words_checked, corrected, uncorrectable)``.
        """
        if row not in self._rows and row not in self._check:
            return (0, 0, 0)
        row_array = self._row_array(row)
        words = row_array.view("<u8")
        checks = self._check_array(row)
        corrected = 0
        uncorrectable = 0
        if self.use_vectorized:
            # One syndrome pass over the whole row; only dirty words (rare)
            # visit the scalar decoder for classification and repair.
            clean = check_words(words, checks)
            self.ecc_stats.words_checked += int(words.size)
            for i in np.nonzero(~clean)[0]:
                result = decode(int(words[i]), int(checks[i]))
                if result.status is DecodeStatus.CORRECTED:
                    words[i] = result.data
                    checks[i] = encode(result.data)
                    self.ecc_stats.corrected += 1
                    corrected += 1
                else:
                    self.ecc_stats.detected_uncorrectable += 1
                    uncorrectable += 1
            return (int(words.size), corrected, uncorrectable)
        for i in range(words.size):
            result = decode(int(words[i]), int(checks[i]))
            self.ecc_stats.words_checked += 1
            if result.status is DecodeStatus.CORRECTED:
                words[i] = result.data
                checks[i] = encode(result.data)
                self.ecc_stats.corrected += 1
                corrected += 1
            elif result.status is DecodeStatus.UNCORRECTABLE:
                self.ecc_stats.detected_uncorrectable += 1
                uncorrectable += 1
        return (int(words.size), corrected, uncorrectable)

    def materialized_rows(self) -> List[int]:
        """Rows live in the data *or* the check array, sorted.

        A row whose only writes so far are injected check-bit flips still
        needs scrubbing, so the union with the base store matters.
        """
        return sorted(set(self._rows) | set(self._check))

    # -- fault injection ---------------------------------------------------------

    def flip_check_bit(self, row: int, bit: int) -> None:
        """Flip one stored check bit of ``row`` (fault injection).

        ``bit`` indexes the row's whole check array (one byte per 8-byte
        data word, i.e. ``row_bytes`` check bits per row).
        """
        checks = self._check_array(row)
        if not 0 <= bit < checks.size * 8:
            raise ValueError("check-bit index out of row range")
        checks[bit // 8] ^= 1 << (bit % 8)

    def inject_error(self, row: int, col: int, bit: int) -> None:
        """Flip one stored data bit without touching the check bits."""
        if not 0 <= bit < self.config.col_bytes * 8:
            raise ValueError("bit index out of column range")
        row_array = self._row_array(row)
        byte_index = col * self.config.col_bytes + bit // 8
        row_array[byte_index] ^= 1 << (bit % 8)

    def inject_check_error(self, row: int, col: int, word: int, bit: int) -> None:
        """Flip one stored check bit (errors in the ECC array itself)."""
        checks = self._check_array(row)
        base = col * self.config.col_bytes // _WORD_BYTES
        checks[base + word] ^= 1 << bit


# -- the block: n consecutive columns of one row across a list of banks ----------


def _block_kind(banks: Sequence[Bank]) -> Optional[type]:
    """:class:`Bank` or :class:`EccBank` when every bank is exactly that
    class (and, for ECC, on the array SEC-DED path); None — a mix, a
    subclass, the ``use_vectorized = False`` oracle — sends the block down
    the per-bank column path."""
    kind = type(banks[0])
    if kind is Bank:
        if all(type(bank) is Bank for bank in banks):
            return Bank
    elif kind is EccBank:
        if all(type(bank) is EccBank and bank.use_vectorized for bank in banks):
            return EccBank
    return None


def peek_block(
    banks: Sequence[Bank], row: int, col0: int, n: int, group: int = 0
) -> np.ndarray:
    """Read columns ``col0 .. col0 + n`` of ``row`` from every bank of
    ``banks``: a fresh ``(len(banks), n, col_bytes)`` uint8 array.

    The one untimed bank -> host mover.  Each bank's run is a slice *copy*
    — the result never aliases the row store, so a caller may keep or
    overwrite it — and for :class:`EccBank` lists the SEC-DED syndrome
    check of the whole block is one array pass across the banks (each
    bank's ``words_checked`` advances by ``n * words_per_col``, as
    column-at-a-time reads would).  A dirty block, or an irregular bank
    list (see :func:`_block_kind`), is re-read bank by bank in list order
    through ``peek_columns`` — columns ascending, through the scalar
    ``peek`` where dirty — which classifies, corrects, scrubs, counts and
    raises exactly as the per-column path always has.  ``group`` walks that
    re-read ``group`` columns at a time (all banks, then the next columns):
    a caller that merged several of its reads into this block names the
    width they had, so the first uncorrectable word met — the exception —
    is the one the separate reads would have met.

    It materialises exactly the (bank, row) pairs the column loop would,
    has no state or timing effect, and raises — :class:`IndexError` for a
    row or column out of range, :class:`~repro.errors.PimChannelError`
    for a failed bank — before any bank is read.
    """
    runs = [bank._run(row, col0, n) for bank in banks]
    kind = _block_kind(banks)
    if kind is not None:
        out = np.empty((len(banks), n, banks[0].config.col_bytes), dtype=np.uint8)
        flat = out.reshape(len(banks), -1)
        for i, run in enumerate(runs):
            flat[i] = run
        if kind is Bank:
            return out
        words = out.view("<u8").reshape(len(banks), -1)
        checks = np.empty(words.shape, dtype=np.uint8)
        for i, bank in enumerate(banks):
            checks[i] = bank._check_run(row, col0, n)
        if check_words(words.ravel(), checks.ravel()).all():
            for bank in banks:
                bank.ecc_stats.words_checked += words.shape[1]
            return out
    cols = np.arange(col0, col0 + n)
    if not 0 < group < n:
        return np.array([bank.peek_columns(row, cols) for bank in banks])
    return np.concatenate(
        [
            np.array([bank.peek_columns(row, cols[g : g + group]) for bank in banks])
            for g in range(0, n, group)
        ],
        axis=1,
    )


def poke_block(banks: Sequence[Bank], row: int, col0: int, data: np.ndarray) -> None:
    """Write ``data`` — ``(len(banks), n, col_bytes)`` uint8, any strides —
    to columns ``col0 .. col0 + n`` of ``row``, one ``(n, col_bytes)`` slab
    per bank.

    The one untimed host -> bank mover, the mirror of :func:`peek_block`:
    slice assignment per bank and, for :class:`EccBank` lists, one array
    encode pass for the whole block (``words_encoded`` advances by ``n *
    words_per_col`` per bank); an irregular bank list goes bank by bank
    through ``poke_columns``.  Shape, row and column range and failed
    banks are all checked *before* any byte of the block lands.
    """
    data = np.asarray(data, dtype=np.uint8)
    col_bytes = banks[0].config.col_bytes
    if data.ndim != 3 or data.shape[0] != len(banks) or data.shape[2] != col_bytes:
        raise ValueError(
            f"expected ({len(banks)}, n, {col_bytes}) block bytes, got {data.shape}"
        )
    n = data.shape[1]
    runs = [bank._run(row, col0, n) for bank in banks]
    kind = _block_kind(banks)
    if kind is None:
        cols = np.arange(col0, col0 + n)
        for bank, slab in zip(banks, data):
            bank.poke_columns(row, cols, slab)
        return
    flat = data.reshape(len(banks), -1)  # copies once, and only a strided block
    for run, slab in zip(runs, flat):
        run[:] = slab
    if kind is EccBank:
        codes = encode_words(np.ascontiguousarray(flat).view("<u8")).reshape(
            len(banks), -1
        )
        for bank, code in zip(banks, codes):
            bank._check_run(row, col0, n)[:] = code
            bank.ecc_stats.words_encoded += code.size
