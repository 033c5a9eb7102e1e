"""The lazy ECC array against the eager one it replaced.

:class:`repro.dram.ecc.EccBank` stores a check byte only for words an
injection touched; every other word's check byte is ``encode(data)`` by
construction.  That holds only while every writer of bank storage either
encodes what it writes (and drops the entries it covers) or is an
injection (and records the check byte it leaves behind), so
:class:`TestStorageWriters` audits the writers, and
:class:`TestLazyEqualsEager` drives the lazy bank and the eager oracle
(``tests/dram/eager_ecc.py``) through the same streams of accesses,
injections, scrubs and failures and holds bytes, check bytes, counters,
exceptions and materialised rows equal after every step.
"""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.ecc import encode_words
from repro.dram.bank import Bank, BankConfig
from repro.dram.ecc import EccBank, peek_block, poke_block
from repro.dram.timing import HBM2_1GHZ
from repro.errors import PimError
from repro.pim.fused import _peek_run

from tests.dram.eager_ecc import EagerEccBank

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"
STORAGE = frozenset({"_rows", "_row_array", "_run", "_column_grid"})

# Every function in src/repro that reaches bank storage, and what it does
# there.  "encodes": a write whose words' check bytes are encode(data)
# again (EccBank drops the entries it covers).  "injects": a fault that
# records the check byte it leaves behind.  "repairs": the SEC-DED engine
# writing a decoded word back.  "reads": no byte of storage changes.
WRITERS = {
    "repro.dram.bank:Bank.poke": "encodes",
    "repro.dram.bank:Bank.poke_columns": "encodes",
    "repro.dram.ecc:poke_block": "encodes",
    "repro.dram.bank:Bank.flip_bit": "injects",
    "repro.dram.ecc:EccBank.inject_error": "injects",
    "repro.dram.ecc:EccBank.peek": "repairs",
    "repro.dram.ecc:EccBank.scrub_row": "repairs",
}
READERS = {
    "repro.dram.bank:Bank.__init__",
    "repro.dram.bank:Bank._row_array",
    "repro.dram.bank:Bank._run",
    "repro.dram.bank:Bank._column_grid",
    "repro.dram.bank:Bank.peek",
    "repro.dram.bank:Bank.peek_columns",
    "repro.dram.bank:Bank.materialized_rows",
    "repro.dram.bank:Bank._clean_run",
    "repro.dram.bank:Bank.read_block",
    "repro.dram.ecc:EccBank._dirty",
    "repro.dram.ecc:EccBank._check_array",
    "repro.dram.ecc:EccBank._clean_run",
    "repro.dram.ecc:EccBank.materialized_rows",
    "repro.dram.ecc:EccBank.inject_check_error",
    "repro.dram.ecc:peek_block",
}


def storage_users(root: pathlib.Path, package: str = "repro"):
    """``{"module:qualname"}`` of every function under ``root / package``
    that names one of the bank storage members."""
    users = set()
    for path in sorted((root / package).rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef) and any(
                        isinstance(n, ast.Attribute) and n.attr in STORAGE
                        for n in ast.walk(child)
                    ):
                        users.add(f"{module}:{name}")
                    walk(child, name + ".")

        walk(ast.parse(path.read_text()), "")
    return users


CONFIG = BankConfig(num_rows=4, row_bytes=256, col_bytes=32)  # 8 columns, 32 words
COLS = CONFIG.cols_per_row
WPC = CONFIG.col_bytes // 8


def _column(seed):
    return np.random.default_rng(seed).integers(0, 256, CONFIG.col_bytes, dtype=np.uint8)


class TestStorageWriters:
    def test_every_storage_user_is_classified(self):
        """A new function touching ``_rows`` / ``_row_array`` / ``_run`` /
        ``_column_grid`` anywhere in the package fails here until it is
        listed — and, if it writes, shown to encode or inject below."""
        assert storage_users(SRC) == set(WRITERS) | READERS

    def test_a_planted_writer_is_caught(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "sneak.py").write_text(
            "def scribble(bank):\n    bank._row_array(0)[0] ^= 1\n"
        )
        assert storage_users(tmp_path, "pkg") == {"pkg.sneak:scribble"}

    def test_the_ecc_bank_wraps_every_base_writer(self):
        for qualname in WRITERS:
            cls, _, method = qualname.split(":")[1].partition(".")
            if cls == "Bank":
                assert getattr(EccBank, method) is not getattr(Bank, method), qualname

    @pytest.mark.parametrize(
        "write",
        [
            lambda bank: bank.poke(1, 2, _column(1)),
            lambda bank: bank.poke_columns(1, np.array([5, 2]), np.stack([_column(2), _column(3)])),
            lambda bank: poke_block([bank], 1, 1, _column(4).reshape(1, 1, -1).repeat(3, axis=1)),
        ],
        ids=["poke", "poke_columns", "poke_block"],
    )
    def test_encoding_writers_drop_the_entries_they_cover(self, write):
        bank = EccBank(CONFIG, HBM2_1GHZ)
        bank.poke(1, 2, _column(0))
        bank.inject_error(1, 2, bit=5)
        bank.inject_check_error(1, 2, word=3, bit=1)
        bank.inject_error(1, 7, bit=9)  # not covered by any of the writes
        before = bank.ecc_stats.words_encoded
        write(bank)
        assert set(bank._injected[1]) == {7 * WPC}
        assert bank.ecc_stats.words_encoded > before
        data = bank._rows[1][2 * CONFIG.col_bytes : 3 * CONFIG.col_bytes].view("<u8")
        assert bank._check_run(1, 2, 1).tobytes() == encode_words(data).tobytes()

    @pytest.mark.parametrize(
        "inject, word",
        [
            (lambda bank: bank.flip_bit(2, 3 * 64 + 7), 3),
            (lambda bank: bank.inject_error(2, 1, bit=64 + 2), WPC + 1),
            (lambda bank: bank.flip_check_bit(2, 8 * 9 + 4), 9),
            (lambda bank: bank.inject_check_error(2, 2, word=3, bit=6), 2 * WPC + 3),
        ],
        ids=["flip_bit", "inject_error", "flip_check_bit", "inject_check_error"],
    )
    def test_injections_record_the_check_byte_they_leave(self, inject, word):
        bank = EccBank(CONFIG, HBM2_1GHZ)
        eager = EagerEccBank(CONFIG, HBM2_1GHZ)
        for b in (bank, eager):
            b.poke(2, word // WPC, _column(word))
            inject(b)
        assert set(bank._injected[2]) == {word}
        assert bank._injected[2][word] == int(eager._check_array(2)[word])
        assert bank._rows[2].tobytes() == eager._rows[2].tobytes()


# -- the differential ------------------------------------------------------------

BANKS = 3
rows = st.integers(0, CONFIG.num_rows - 1)
cols = st.integers(0, COLS - 1)
banks = st.integers(0, BANKS - 1)
seeds = st.integers(0, 2**16)
runs = st.integers(1, COLS).flatmap(lambda n: st.tuples(st.integers(0, COLS - n), st.just(n)))
col_sets = st.lists(cols, min_size=1, max_size=4, unique=True)
op = st.one_of(
    st.tuples(st.just("poke"), banks, rows, cols, seeds),
    st.tuples(st.just("poke_columns"), banks, rows, col_sets, seeds),
    st.tuples(st.just("peek"), banks, rows, cols),
    st.tuples(st.just("peek_columns"), banks, rows, st.lists(cols, min_size=1, max_size=4)),
    st.tuples(st.just("timed_read"), banks, rows, runs),
    st.tuples(st.just("poke_block"), rows, runs, seeds),
    st.tuples(st.just("peek_block"), rows, runs, st.integers(0, COLS)),
    st.tuples(st.just("gather"), rows, runs, col_sets, st.integers(0, 4)),
    # Two flips of one word, the second optional: single and double errors.
    st.tuples(
        st.just("inject_error"), banks, rows, cols, st.integers(0, WPC - 1),
        st.lists(st.integers(0, 63), min_size=1, max_size=2),
    ),
    st.tuples(st.just("flip_bit"), banks, rows, st.integers(0, CONFIG.row_bytes * 8 - 1)),
    st.tuples(
        st.just("inject_check_error"), banks, rows, cols, st.integers(0, WPC - 1),
        st.integers(0, 7),
    ),
    st.tuples(st.just("flip_check_bit"), banks, rows, st.integers(0, CONFIG.row_bytes - 1)),
    st.tuples(st.just("scrub_row"), banks, rows),
    st.tuples(st.just("fail"), banks),
)


class Side:
    """A few banks of one class and a clock for their timed reads."""

    def __init__(self, cls, raise_on_uncorrectable):
        self.banks = [cls(CONFIG, HBM2_1GHZ, raise_on_uncorrectable) for _ in range(BANKS)]
        self.cycle = 0

    def timed_read(self, bank, row, col0, n):
        """A tagged read run as the controller issues it: the first RD
        asks for the rest; answered with the block, the others are
        ``fetched``; answered with one column, each reads for itself."""
        self.cycle += 1000
        bank.precharge(self.cycle)
        self.cycle += 100
        bank.activate(row, self.cycle)
        self.cycle += 100
        first = bank.read(row, col0, self.cycle, ahead=n - 1)
        if first.ndim == 2:
            for _ in range(n - 1):
                self.cycle += 10
                bank.read_fetched(row, self.cycle)
            return first
        out = [first]
        for col in range(col0 + 1, col0 + n):
            self.cycle += 10
            out.append(bank.read(row, col, self.cycle))
        return np.stack(out)

    def apply(self, op):
        kind, *args = op
        banks = self.banks
        if kind == "poke":
            b, row, col, seed = args
            return banks[b].poke(row, col, _column(seed))
        if kind == "poke_columns":
            b, row, cs, seed = args
            data = np.random.default_rng(seed).integers(0, 256, (len(cs), 32), dtype=np.uint8)
            return banks[b].poke_columns(row, np.array(cs), data)
        if kind == "peek":
            b, row, col = args
            return banks[b].peek(row, col)
        if kind == "peek_columns":
            b, row, cs = args
            return banks[b].peek_columns(row, np.array(cs))
        if kind == "timed_read":
            b, row, (col0, n) = args
            return self.timed_read(banks[b], row, col0, n)
        if kind == "poke_block":
            row, (col0, n), seed = args
            data = np.random.default_rng(seed).integers(0, 256, (BANKS, n, 32), dtype=np.uint8)
            return poke_block(banks, row, col0, data)
        if kind == "peek_block":
            row, (col0, n), group = args
            return peek_block(banks, row, col0, n, group)
        if kind == "gather":
            # The fused executor's bank operand: a run from col0, or
            # (unordered columns) the per-bank index-array path.
            row, (col0, n), cs, width = args
            if width == 0:
                return _peek_run({0: banks}, (0, row, cs, None, 0))
            return _peek_run({0: banks}, (0, row, list(range(col0, col0 + n)), col0, width))
        if kind == "inject_error":
            b, row, col, word, bits = args
            for bit in bits:
                banks[b].inject_error(row, col, word * 64 + bit)
            return None
        if kind == "flip_bit":
            b, row, bit = args
            return banks[b].flip_bit(row, bit)
        if kind == "inject_check_error":
            b, row, col, word, bit = args
            return banks[b].inject_check_error(row, col, word, bit)
        if kind == "flip_check_bit":
            b, row, bit = args
            return banks[b].flip_check_bit(row, bit)
        if kind == "scrub_row":
            b, row = args
            return banks[b].scrub_row(row)
        b, = args
        return banks[b].fail(7)

    def outcome(self, op):
        try:
            result = self.apply(op)
        except PimError as exc:
            return (type(exc).__name__, str(exc))
        return result.tobytes() if isinstance(result, np.ndarray) else result

    def snapshot(self):
        state = []
        for bank in self.banks:
            materialized = bank.materialized_rows()
            if isinstance(bank, EagerEccBank):
                blank = np.zeros(CONFIG.row_bytes // 8, dtype=np.uint8)
                checks = {r: bank._check.get(r, blank).tobytes() for r in materialized}
            else:
                checks = {r: bank._check_array(r).tobytes() for r in materialized}
            state.append(
                (
                    materialized,
                    {r: a.tobytes() for r, a in sorted(bank._rows.items())},
                    checks,
                    dataclasses.astuple(bank.ecc_stats),
                    bank.state, bank.open_row, bank.rd_count, bank.next_pre,
                )
            )
        return state


class TestLazyEqualsEager:
    @settings(max_examples=300, deadline=None)
    @given(ops=st.lists(op, min_size=1, max_size=30), raising=st.booleans())
    def test_any_stream(self, ops, raising):
        lazy, eager = Side(EccBank, raising), Side(EagerEccBank, raising)
        for step in ops:
            assert lazy.outcome(step) == eager.outcome(step), step
            assert lazy.snapshot() == eager.snapshot(), step

    def test_a_check_injection_touches_no_data_row_and_no_failed_bank(self):
        lazy, eager = Side(EccBank, True), Side(EagerEccBank, True)
        for side in (lazy, eager):
            side.banks[0].fail(3)
            side.banks[0].inject_check_error(2, 1, word=0, bit=0)
            side.banks[0].flip_check_bit(3, 5)
        assert lazy.banks[0]._rows == {}
        assert lazy.snapshot() == eager.snapshot()
        assert lazy.banks[0].materialized_rows() == [2, 3]
