"""Exhaustive SEC-DED sweep of the lazy ECC bank against the eager oracle.

For a handful of 64-bit data words — 0, all-ones and seeded random ones —
every 1- and 2-bit error pattern over the word's 72 stored bits (64 data,
8 check: 72 + 2,556 = 2,628 patterns) is injected through
``inject_error`` / ``inject_check_error`` into a fresh
:class:`repro.dram.ecc.EccBank` and a fresh eager oracle
(``tests/dram/eager_ecc.py``), and the word is then read five ways:
``peek``, ``peek_block`` of the one bank, a timed read burst through the
channel (``PseudoChannel.issue`` of one ``Command(RD, count=3)``, served
column by column by the bank's timed read), ``scrub_row``, and
``peek_block`` of the channel's whole even half with the pattern in bank
2 (the lazy bank's slice path falls back bank by bank from a dirty
word).  Both banks must return the same bytes or raise the same
exception, and end with the same cells, check bytes and ``EccStats``;
every even bank with the same ``EccStats`` and materialised rows.
The tier-1 differential (``tests/dram/test_lazy_ecc.py``) samples the
same property over whole access streams; this covers every pattern.

Run it from the repository root (about 40 s on a 2-core runner):

    PYTHONPATH=src python tests/dram/sweep_ecc_oracle.py

It prints one line per data word and exits non-zero on the first word
with a mismatch, naming up to five of the patterns.
"""

from __future__ import annotations

import dataclasses
import itertools
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2]))

from repro.dram.bank import BankConfig  # noqa: E402
from repro.dram.commands import Command, CommandType  # noqa: E402
from repro.dram.ecc import EccBank, peek_block  # noqa: E402
from repro.dram.pseudochannel import PseudoChannel  # noqa: E402
from repro.dram.timing import HBM2_1GHZ  # noqa: E402
from repro.errors import PimError  # noqa: E402
from tests.dram.eager_ecc import EagerEccBank  # noqa: E402

CONFIG = BankConfig(num_rows=2, row_bytes=256, col_bytes=32)
ROW, COL = 1, 3  # the column holding the word under test; a run is COL-1 .. COL+1
STORED_BITS = 72  # 0..63 data, 64..71 check
PATTERNS = [(b,) for b in range(STORED_BITS)] + list(
    itertools.combinations(range(STORED_BITS), 2)
)
WORDS = [0, (1 << 64) - 1] + [
    int(w) for w in np.random.default_rng(2021).integers(0, 1 << 64, 3, dtype=np.uint64)
]


def _timed_run(channel):
    """Columns COL-1 .. COL+1 of bank 0 as one timed read burst."""
    channel.issue(Command(CommandType.ACT, row=ROW), 0)
    return channel.issue(Command(CommandType.RD, row=ROW, col=COL - 1, count=3), 100)


# name -> (the bank the pattern goes into, the read)
READS = {
    "peek": (0, lambda channel: channel.banks[0].peek(ROW, COL)),
    "peek_block": (0, lambda channel: peek_block(channel.banks[:1], ROW, COL - 1, 3)),
    "timed": (0, _timed_run),
    "scrub_row": (0, lambda channel: channel.banks[0].scrub_row(ROW)),
    "peek_block_half": (
        2, lambda channel: peek_block(channel.banks[0::2], ROW, COL - 1, 3)
    ),
}


def _outcome(cls, row_bytes, slot, pattern, read):
    channel = PseudoChannel(HBM2_1GHZ, CONFIG, bank_cls=cls)
    index, read = read
    bank = channel.banks[index]
    for col in range(CONFIG.cols_per_row):
        bank.poke(ROW, col, row_bytes[col])
    for bit in pattern:
        if bit < 64:
            bank.inject_error(ROW, COL, slot * 64 + bit)
        else:
            bank.inject_check_error(ROW, COL, slot, bit - 64)
    try:
        result = read(channel)
        result = result.tobytes() if isinstance(result, np.ndarray) else result
    except PimError as exc:
        result = (type(exc).__name__, str(exc))
    return (
        result,
        bank._rows[ROW].tobytes(),
        bytes(bank._check_array(ROW)),
        dataclasses.astuple(bank.ecc_stats),
        bank.materialized_rows(),
        [(vars(b.ecc_stats).copy(), b.materialized_rows()) for b in channel.banks[0::2]],
    )


def sweep(word: int, index: int) -> list:
    """The ``(read, pattern)`` pairs where lazy and eager disagree."""
    rng = np.random.default_rng(index)
    row_bytes = rng.integers(0, 256, (CONFIG.cols_per_row, CONFIG.col_bytes), dtype=np.uint8)
    slot = index % (CONFIG.col_bytes // 8)
    row_bytes[COL].view("<u8")[slot] = word
    bad = []
    for pattern in PATTERNS:
        for name, read in READS.items():
            lazy = _outcome(EccBank, row_bytes, slot, pattern, read)
            if lazy != _outcome(EagerEccBank, row_bytes, slot, pattern, read):
                bad.append((name, pattern))
    return bad


def main() -> int:
    for index, word in enumerate(WORDS):
        start = time.perf_counter()
        bad = sweep(word, index)
        print(
            f"word {word:#018x}: {len(PATTERNS)} patterns x {len(READS)} reads, "
            f"{len(bad)} mismatches ({time.perf_counter() - start:.1f} s)",
            flush=True,
        )
        if bad:
            print(f"  first mismatches: {bad[:5]}")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
