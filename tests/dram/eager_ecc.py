"""The eager SEC-DED bank: the oracle :class:`repro.dram.ecc.EccBank` is
held equal to (test-side only).

This is the ECC bank as it was before the check bytes became lazy: a
dense check array per touched row, re-encoded on every write and
syndrome-checked on every read, with the per-word scalar decoder behind
any dirty word.  Production keeps a check byte only for words an
injection touched and skips SEC-DED where none is dirty; the differential
suite (``tests/dram/test_lazy_ecc.py``), the exhaustive sweep
(``tests/dram/sweep_ecc_oracle.py``), the block suite
(``tests/dram/test_block.py``) and the serving gate
(``tests/gates/test_serving.py``) compare the two byte for byte, count
for count and exception for exception.

It has no block fast path: a block of these banks goes bank by bank
through ``peek_columns`` / ``poke_columns``, the column path the
production block is defined as.  Its injection methods keep their old
unchecked indices; drive it with in-range ones only.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.ecc import DecodeStatus, check_words, decode, encode, encode_words
from repro.dram.bank import Bank, BankConfig
from repro.dram.ecc import EccStats, UncorrectableError
from repro.dram.timing import TimingParams

_WORD_BYTES = 8


class EagerEccBank(Bank):
    """A bank whose every word carries a stored check byte."""

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
        words_per_col = self.config.col_bytes // _WORD_BYTES
        return self._check_array(row)[col0 * words_per_col : (col0 + n) * words_per_col]

    # -- the protected column path --------------------------------------------

    def poke(self, row: int, col: int, data: np.ndarray) -> None:
        data = np.ascontiguousarray(data, dtype=np.uint8)
        super().poke(row, col, data)
        words = data.view("<u8")
        checks = self._check_array(row)
        base = col * self.config.col_bytes // _WORD_BYTES
        checks[base : base + words.size] = encode_words(words)
        self.ecc_stats.words_encoded += int(words.size)

    def peek(self, row: int, col: int) -> np.ndarray:
        raw = super().peek(row, col)
        words = raw.view("<u8")
        checks = self._check_array(row)
        base = col * self.config.col_bytes // _WORD_BYTES
        if check_words(words, checks[base : base + words.size]).all():
            self.ecc_stats.words_checked += int(words.size)
            return raw
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
        if type(self) is not EagerEccBank:
            return None
        raw = self._run(row, col0, n).copy()
        if not check_words(raw.view("<u8"), self._check_run(row, col0, n)).all():
            return None
        self.ecc_stats.words_checked += self.config.col_bytes // _WORD_BYTES
        return raw.reshape(n, -1)

    def read_fetched(self, row: int, cycle: int) -> None:
        super().read_fetched(row, cycle)
        self.ecc_stats.words_checked += self.config.col_bytes // _WORD_BYTES

    def poke_columns(self, row: int, cols: np.ndarray, data: np.ndarray) -> None:
        data = np.ascontiguousarray(self._column_block(len(cols), data))
        Bank.poke_columns(self, row, cols, data)
        words = data.view("<u8")  # (len(cols), words_per_col)
        checks = self._check_array(row)
        words_per_col = self.config.col_bytes // _WORD_BYTES
        idx = np.asarray(cols)[:, None] * words_per_col + np.arange(words_per_col)
        checks[idx.ravel()] = encode_words(words.ravel())
        self.ecc_stats.words_encoded += int(words.size)

    def peek_columns(self, row: int, cols: np.ndarray) -> np.ndarray:
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
        if row not in self._rows and row not in self._check:
            return (0, 0, 0)
        row_array = self._row_array(row)
        words = row_array.view("<u8")
        checks = self._check_array(row)
        corrected = 0
        uncorrectable = 0
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

    def materialized_rows(self) -> List[int]:
        return sorted(set(self._rows) | set(self._check))

    # -- fault injection ---------------------------------------------------------

    def flip_check_bit(self, row: int, bit: int) -> None:
        checks = self._check_array(row)
        if not 0 <= bit < checks.size * 8:
            raise ValueError("check-bit index out of row range")
        checks[bit // 8] ^= 1 << (bit % 8)

    def inject_error(self, row: int, col: int, bit: int) -> None:
        if not 0 <= bit < self.config.col_bytes * 8:
            raise ValueError("bit index out of column range")
        row_array = self._row_array(row)
        byte_index = col * self.config.col_bytes + bit // 8
        row_array[byte_index] ^= 1 << (bit % 8)

    def inject_check_error(self, row: int, col: int, word: int, bit: int) -> None:
        checks = self._check_array(row)
        base = col * self.config.col_bytes // _WORD_BYTES
        checks[base + word] ^= 1 << bit
