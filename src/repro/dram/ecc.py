"""An ECC-protected DRAM bank (the Section VIII extension).

:class:`EccBank` is a drop-in :class:`~repro.dram.bank.Bank` with an
on-die (72,64) SEC-DED engine: every 8-byte word of a column burst carries
a check byte in a separate ECC array.  Because both the host *and* the PIM
execution units move data through the same ``peek``/``poke`` column
accessors, PIM-mode accesses are protected identically to host accesses —
the property the paper highlights as what makes its PIM ECC-ready.

The model rests on one invariant: **a word's check byte is
``encode(data)`` unless an injection touched it.**  Every write encodes
the word it stores, and only fault injection (``flip_bit``,
``inject_error``, ``flip_check_bit``, ``inject_check_error``) can make a
stored word and its check byte disagree.  So the bank stores a check
byte only for the words an injection touched, and a read runs the
decoder only where one of those disagrees with its data; everywhere else
the SEC-DED check is the identity and is counted, not computed.

This module also owns the **block**: :func:`peek_block` /
:func:`poke_block` move ``(banks, n, col_bytes)`` bytes — ``n`` consecutive
columns of one row across a list of banks — in one call.  Every untimed
host<->bank transfer (operand staging, result gather, weight load, the
fused executor's bank operands) is a block; it lives here because it is
the one place that knows both bank classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..common.ecc import DecodeStatus, decode, encode, encode_words
from ..errors import PimDataError
from .bank import Bank, BankConfig
from .timing import TimingParams

__all__ = ["EccBank", "EccStats", "UncorrectableError", "peek_block", "poke_block"]

_WORD_BYTES = 8
_WORD_BITS = 64


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

    A word's check byte is ``encode(data)`` unless an injection touched
    it.  The bank keeps, per row, ``{word: stored check byte}`` for the
    touched words only (an injection records the check byte it left
    behind); a write drops the entries it covers, since the write encodes
    its words.  A read decodes only where an entry is *dirty* — its check
    byte is not ``encode(data)`` — and then decodes the whole column word
    by word: classification, correction, the inline scrub, the counts and
    the :class:`UncorrectableError` are per word, in word order.
    ``words_encoded`` and ``words_checked`` count every word a write or a
    read passed through the engine.
    """

    def __init__(self, config: BankConfig, timing: TimingParams,
                 raise_on_uncorrectable: bool = True):
        super().__init__(config, timing)
        # row -> {word: stored check byte}, for words an injection touched.
        self._injected: Dict[int, Dict[int, int]] = {}
        self._words_per_col = config.col_bytes // _WORD_BYTES
        self.ecc_stats = EccStats()
        self.raise_on_uncorrectable = raise_on_uncorrectable

    def _dirty(self, row: int, start: int, stop: int) -> bool:
        """Whether a word ``start .. stop`` of materialised ``row`` has a
        check byte other than ``encode(data)``.  An entry found clean is
        dropped: it says nothing the invariant does not."""
        entries = self._injected.get(row)
        if not entries:
            return False
        words = self._rows[row].view("<u8")
        dirty = False
        for word in [w for w in entries if start <= w < stop]:
            if entries[word] == encode(int(words[word])):
                del entries[word]
                self._verdict.value = None
            else:
                dirty = True
        return dirty

    def _rewritten(self, row: int, cols: Sequence[int]) -> None:
        """Columns ``cols`` of ``row`` were just written: their words'
        check bytes are ``encode(data)`` again (the encode path)."""
        wpc = self._words_per_col
        entries = self._injected.get(row)
        if entries:
            written = set(np.asarray(cols).tolist())
            for word in [w for w in entries if w // wpc in written]:
                del entries[word]
                self._verdict.value = None
        self.ecc_stats.words_encoded += len(cols) * wpc

    # -- read-only views of the ECC array (tests, snapshots) --------------------

    def _check_array(self, row: int) -> np.ndarray:
        """The stored check bytes of ``row``, one per word (read-only)."""
        data = self._rows.get(row)
        if data is None:
            checks = np.zeros(self.config.row_bytes // _WORD_BYTES, dtype=np.uint8)
        else:
            checks = encode_words(data.view("<u8"))
        for word, check in self._injected.get(row, {}).items():
            checks[word] = check
        checks.flags.writeable = False
        return checks

    def _check_run(self, row: int, col0: int, n: int) -> np.ndarray:
        """The stored check bytes of columns ``col0 .. col0 + n`` of ``row``."""
        wpc = self._words_per_col
        return self._check_array(row)[col0 * wpc : (col0 + n) * wpc]

    @property
    def _check(self) -> Dict[int, np.ndarray]:
        """Every materialised row's stored check bytes."""
        return {row: self._check_array(row) for row in self.materialized_rows()}

    # -- the protected column path --------------------------------------------

    def poke(self, row: int, col: int, data: np.ndarray) -> None:
        """Write a column; its words' check bytes are encoded from it."""
        super().poke(row, col, data)
        self._rewritten(row, (col,))

    def peek(self, row: int, col: int) -> np.ndarray:
        """Read a column through the SEC-DED engine (correct + scrub)."""
        raw = super().peek(row, col)
        wpc = self._words_per_col
        base = col * wpc
        if not self._dirty(row, base, base + wpc):
            self.ecc_stats.words_checked += wpc
            return raw
        words = raw.view("<u8")
        checks = self._check_run(row, col, 1)
        for i in range(wpc):
            result = decode(int(words[i]), int(checks[i]))
            self.ecc_stats.words_checked += 1
            if result.status is DecodeStatus.CORRECTED:
                self.ecc_stats.corrected += 1
                words[i] = result.data
                # Scrub: write the corrected word back to the cells (the
                # check byte stays as stored).
                self._rows[row].view("<u8")[base + i] = result.data
            elif result.status is DecodeStatus.UNCORRECTABLE:
                self.ecc_stats.detected_uncorrectable += 1
                if self.raise_on_uncorrectable:
                    raise UncorrectableError(
                        f"double-bit error at row {row} col {col} word {i}"
                    )
        return raw

    def framed(self, row: int) -> bool:
        """A live bank of this exact class with no injection entry on
        ``row``: every word there is clean, so its reads decode nothing."""
        return (
            type(self) is EccBank
            and self._failed_channel is None
            and not self._injected.get(row)
        )

    def framed_everywhere(self) -> bool:
        """A live bank of this exact class with no injection entry at all."""
        return (
            type(self) is EccBank
            and self._failed_channel is None
            and not any(self._injected.values())
        )

    def read_block(self, row: int, col0: int, n: int) -> np.ndarray:
        """The block, and the ``words_checked`` of its ``n`` reads."""
        self.ecc_stats.words_checked += n * self._words_per_col
        return super().read_block(row, col0, n)

    def poke_columns(self, row: int, cols: np.ndarray, data: np.ndarray) -> None:
        """Index-array column write: every written word is encoded."""
        super().poke_columns(row, cols, data)
        self._rewritten(row, cols)

    def peek_columns(self, row: int, cols: np.ndarray) -> np.ndarray:
        """Index-array column read; columns holding a dirty word are
        re-read through :meth:`peek`, in column order, which classifies,
        corrects, scrubs, counts and raises word by word."""
        raw = super().peek_columns(row, cols)
        wpc = self._words_per_col
        if not self._injected.get(row):
            self.ecc_stats.words_checked += len(raw) * wpc
            return raw
        cols = np.asarray(cols).tolist()
        dirty_cols = {
            col for col in set(cols) if self._dirty(row, col * wpc, (col + 1) * wpc)
        }
        self.ecc_stats.words_checked += (
            len(cols) - sum(col in dirty_cols for col in cols)
        ) * wpc
        for i, col in enumerate(cols):
            if col in dirty_cols:
                raw[i] = self.peek(row, col)
        return raw

    # -- scrubbing ---------------------------------------------------------------

    def scrub_row(self, row: int) -> Tuple[int, int, int]:
        """Decode every word of ``row``; fix correctable errors in place.

        Unlike the inline scrub of :meth:`peek` (which repairs the data
        word only), scrubbing re-encodes the check byte too — the entry is
        dropped — so a corrected error cannot later pair with a second
        flip into an uncorrectable word.  Uncorrectable words are
        *reported*, never raised — the scrubber's caller decides what to
        retire.

        Returns ``(words_checked, corrected, uncorrectable)``.
        """
        if row not in self._rows and row not in self._injected:
            return (0, 0, 0)
        words = self._row_array(row).view("<u8")
        self.ecc_stats.words_checked += int(words.size)
        entries = self._injected.get(row, {})
        corrected = 0
        uncorrectable = 0
        for word, check in list(entries.items()):
            result = decode(int(words[word]), check)
            if result.status is DecodeStatus.UNCORRECTABLE:
                self.ecc_stats.detected_uncorrectable += 1
                uncorrectable += 1
                continue
            if result.status is DecodeStatus.CORRECTED:
                words[word] = result.data
                self.ecc_stats.corrected += 1
                corrected += 1
            del entries[word]
            self._verdict.value = None
        return (int(words.size), corrected, uncorrectable)

    def materialized_rows(self) -> List[int]:
        """Rows holding data *or* an injected check byte, sorted.

        A row whose only writes so far are injected check-bit flips still
        needs scrubbing, so the union with the base store matters.
        """
        return sorted(set(self._rows) | set(self._injected))

    # -- fault injection ---------------------------------------------------------

    def flip_bit(self, row: int, bit: int) -> None:
        """Flip one stored data bit of ``row`` (fault injection).

        ``bit`` indexes the whole row (``row_bytes * 8`` bits).
        """
        if not 0 <= bit < self.config.row_bytes * 8:
            raise ValueError("bit index out of row range")
        col_bits = self.config.col_bytes * 8
        self.inject_error(row, bit // col_bits, bit % col_bits)

    def flip_check_bit(self, row: int, bit: int) -> None:
        """Flip one stored check bit of ``row`` (fault injection).

        ``bit`` indexes the row's whole check array (one byte per 8-byte
        data word, i.e. ``row_bytes`` check bits per row).
        """
        if not 0 <= bit < self.config.row_bytes:
            raise ValueError("check-bit index out of row range")
        word, bit = divmod(bit, 8)
        wpc = self._words_per_col
        self.inject_check_error(row, word // wpc, word % wpc, bit)

    def _valid_column(self, col: int) -> None:
        if not 0 <= col < self.config.cols_per_row:
            raise ValueError("column index out of row range")

    def inject_error(self, row: int, col: int, bit: int) -> None:
        """Flip one stored data bit of column ``col``; the word's check
        byte is recorded as it was, which makes the flip an error."""
        if not 0 <= bit < self.config.col_bytes * 8:
            raise ValueError("bit index out of column range")
        self._valid_column(col)
        words = self._row_array(row).view("<u8")
        word = col * self._words_per_col + bit // _WORD_BITS
        entries = self._injected.setdefault(row, {})
        if word not in entries:
            entries[word] = encode(int(words[word]))
        words[word] ^= np.uint64(1 << bit % _WORD_BITS)
        self._verdict.value = None

    def inject_check_error(self, row: int, col: int, word: int, bit: int) -> None:
        """Flip check bit ``bit`` of word ``word`` of column ``col`` (errors
        in the ECC array itself).  It materialises no data row and asks
        no failed bank: the ECC array is not on the data path."""
        self._valid_column(col)
        if not 0 <= word < self._words_per_col:
            raise ValueError("word index out of column range")
        if not 0 <= bit < 8:
            raise ValueError("check-bit index out of byte range")
        word += col * self._words_per_col
        entries = self._injected.setdefault(row, {})
        check = entries.get(word)
        if check is None:
            data = self._rows.get(row)
            check = 0 if data is None else encode(int(data.view("<u8")[word]))
        entries[word] = check ^ (1 << bit)
        self._verdict.value = None


# -- the block: n consecutive columns of one row across a list of banks ----------


def _half_slice(banks: Sequence[Bank], row: int, col0: int, n: int) -> Optional[np.ndarray]:
    """Check a block — the list, the row and column range, then each bank's
    failure — and materialise each bank's row.  Returns the block as a
    writable ``(len(banks), n, col_bytes)`` view of a row store when every
    bank is exactly :class:`Bank` or exactly :class:`EccBank` and ``banks``
    are consecutive lanes of it in order (see :mod:`repro.dram.bank`); else
    None, and the block goes bank by bank."""
    if not banks:
        raise ValueError("empty bank list")
    first = banks[0]
    config, size = first.config, first.config.col_bytes
    if col0 < 0 or n < 0 or (col0 + n) * size > config.row_bytes:
        raise IndexError(f"columns {col0}..{col0 + n - 1} out of range")
    if not 0 <= row < config.num_rows:
        raise IndexError(f"row {row} out of range")
    kind, store, lane = type(first), first._cells, first._lane
    whole = kind is Bank or kind is EccBank
    for i, bank in enumerate(banks):
        if bank._failed_channel is not None:
            bank._row_array(row)  # raises PimChannelError
        whole = whole and type(bank) is kind and bank._cells is store and bank._lane == lane + i
    for bank in banks:
        if row not in bank._rows:
            bank._row_array(row)
    if not whole:
        return None
    block = store[row][lane : lane + len(banks), col0 * size : (col0 + n) * size]
    return block.reshape(len(banks), n, size)


def peek_block(
    banks: Sequence[Bank], row: int, col0: int, n: int, group: int = 0
) -> np.ndarray:
    """Read columns ``col0 .. col0 + n`` of ``row`` from every bank of
    ``banks``: a fresh ``(len(banks), n, col_bytes)`` uint8 array.

    The one untimed bank -> host mover, with no state or timing effect.
    A run of one row store (:func:`_half_slice`) is one slice *copy* — the
    result never aliases the store — and for :class:`EccBank` runs with no
    dirty word in the block each bank's ``words_checked`` advances by ``n *
    words_per_col``, as column-at-a-time reads would.  A block holding a
    dirty word, or any other bank list, is read bank by bank in list order
    through ``peek_columns`` — columns ascending, through the scalar
    ``peek`` where dirty — which classifies, corrects, scrubs, counts and
    raises exactly as the per-column path always has.  ``group`` walks
    that re-read ``group`` columns at a time (all banks, then the next
    columns): a caller that merged several of its reads into this block
    names the width they had, so the first uncorrectable word met — the
    exception — is the one the separate reads would have met.
    """
    block = _half_slice(banks, row, col0, n)
    if block is not None and type(banks[0]) is EccBank:
        wpc = banks[0]._words_per_col
        if any(bank._dirty(row, col0 * wpc, (col0 + n) * wpc) for bank in banks):
            block = None
        else:
            for bank in banks:
                bank.ecc_stats.words_checked += n * wpc
    if block is not None:
        return block.copy()
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
    a run of one row store is one slice assignment (for :class:`EccBank`
    runs, every written word is encoded: ``words_encoded`` advances by ``n
    * words_per_col`` per bank); any other bank list goes bank by bank
    through ``poke_columns``.  The list, shape, row and column range and
    failed banks are all checked *before* any byte of the block lands.
    """
    if not banks:
        raise ValueError("empty bank list")
    data = np.asarray(data, dtype=np.uint8)
    col_bytes = banks[0].config.col_bytes
    if data.ndim != 3 or data.shape[0] != len(banks) or data.shape[2] != col_bytes:
        raise ValueError(
            f"expected ({len(banks)}, n, {col_bytes}) block bytes, got {data.shape}"
        )
    n = data.shape[1]
    block = _half_slice(banks, row, col0, n)
    if block is None:
        cols = np.arange(col0, col0 + n)
        for bank, slab in zip(banks, data):
            bank.poke_columns(row, cols, slab)
        return
    block[:] = data
    if type(banks[0]) is EccBank:
        cols = range(col0, col0 + n)
        for bank in banks:
            bank._rewritten(row, cols)
