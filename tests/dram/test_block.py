"""The block — ``(banks, n, col_bytes)`` bytes of one row run — against the
column-at-a-time loop it replaced, and the column checks that ride with it.

``peek_block`` / ``poke_block`` (:mod:`repro.dram.ecc`) are the only
untimed movers between host arrays and bank storage.  The property here
drives them and a ``for bank: for col: peek/poke`` reference over twin bank
lists — plain, ECC, the eager ECC oracle (``tests/dram/eager_ecc.py``,
which has no block fast path of its own), and mixes — and
requires equal bank bytes, check arrays, SEC-DED counters,
``materialized_rows()`` and returned data; with injected errors, equal
corrections, inline scrubs and raised ``UncorrectableError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank, BankConfig
from repro.dram.controller import MemoryController
from repro.dram.ecc import EccBank, UncorrectableError, peek_block, poke_block
from repro.dram.pseudochannel import PseudoChannel
from repro.dram.timing import HBM2_1GHZ
from repro.errors import PimChannelError

from tests.dram.eager_ecc import EagerEccBank
from tests.stack.staging_reference import (
    bank_image,
    peek_block_by_column,
    poke_block_by_column,
)

CONFIG = BankConfig(num_rows=4, row_bytes=256, col_bytes=32)  # 8 columns per row
COLS = CONFIG.cols_per_row
KINDS = ("plain", "ecc", "eager")


def _bank(kind):
    cls = {"plain": Bank, "ecc": EccBank, "eager": EagerEccBank}[kind]
    return cls(CONFIG, HBM2_1GHZ)


# Uniform lists take the array path; a mix, or the eager oracle, must fall
# bank by bank to the column path.
bank_kinds = st.one_of(
    st.sampled_from(KINDS).flatmap(
        lambda kind: st.integers(1, 5).map(lambda count: [kind] * count)
    ),
    st.lists(st.sampled_from(KINDS), min_size=2, max_size=5),
)
runs = st.integers(1, COLS).flatmap(
    lambda n: st.tuples(st.integers(0, COLS - n), st.just(n))
)
ops = st.lists(
    st.tuples(st.booleans(), st.integers(0, CONFIG.num_rows - 1), runs, st.integers(0, 2**31)),
    min_size=1,
    max_size=6,
)


class TestBlockEqualsColumnLoop:
    @settings(max_examples=120, deadline=None)
    @given(kinds=bank_kinds, ops=ops)
    def test_any_sequence_of_moves(self, kinds, ops):
        block_side = [_bank(kind) for kind in kinds]
        loop_side = [_bank(kind) for kind in kinds]
        for is_write, row, (col0, n), seed in ops:
            if is_write:
                data = np.random.default_rng(seed).integers(
                    0, 256, (len(kinds), n, CONFIG.col_bytes), dtype=np.uint8
                )
                poke_block(block_side, row, col0, data)
                poke_block_by_column(loop_side, row, col0, data)
            else:
                got = peek_block(block_side, row, col0, n)
                assert got.dtype == np.uint8
                assert got.shape == (len(kinds), n, CONFIG.col_bytes)
                assert np.array_equal(got, peek_block_by_column(loop_side, row, col0, n))
            assert [bank_image(b) for b in block_side] == [bank_image(b) for b in loop_side]

    @settings(max_examples=120, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(("ecc", "eager")), min_size=1, max_size=4),
        run=runs,
        seed=st.integers(0, 2**31),
        flips=st.lists(
            # (bank, column of the run, word, two distinct bits, double?)
            st.tuples(
                st.integers(0, 3), st.integers(0, COLS - 1), st.integers(0, 3),
                st.lists(st.integers(0, 63), min_size=2, max_size=2, unique=True),
                st.booleans(),
            ),
            min_size=1,
            max_size=2,
        ),
        # The width a dirty block is re-read at (0: the whole block): what a
        # caller that merged ``group``-column reads into one block passes.
        group=st.integers(0, COLS),
    )
    def test_dirty_blocks_correct_scrub_and_raise_alike(self, kinds, run, seed, flips, group):
        col0, n = run
        step = group if 0 < group < n else n
        sides = [[_bank(kind) for kind in kinds] for _ in range(2)]
        data = np.random.default_rng(seed).integers(
            0, 256, (len(kinds), n, CONFIG.col_bytes), dtype=np.uint8
        )
        for banks in sides:
            poke_block(banks, 1, col0, data)
            for index, col, word, bits, double in flips:
                for bit in bits[: 1 + double]:
                    banks[index % len(kinds)].inject_error(
                        1, col0 + col % n, word * 64 + bit
                    )

        def read(mover, banks):
            try:
                return mover(banks).tobytes()
            except UncorrectableError as exc:
                return str(exc)

        outcome = read(lambda banks: peek_block(banks, 1, col0, n, group), sides[0])
        assert outcome == read(
            lambda banks: np.concatenate(
                [
                    peek_block_by_column(banks, 1, col0 + g, min(step, n - g))
                    for g in range(0, n, step)
                ],
                axis=1,
            ),
            sides[1],
        )
        raised = isinstance(outcome, str)
        for block_bank, loop_bank in zip(*sides):
            # The inline scrub repaired the same cells on both sides.
            assert block_bank._rows[1].tobytes() == loop_bank._rows[1].tobytes()
            assert block_bank._check[1].tobytes() == loop_bank._check[1].tobytes()
            a, b = block_bank.ecc_stats, loop_bank.ecc_stats
            assert (a.corrected, a.detected_uncorrectable) == (
                b.corrected, b.detected_uncorrectable,
            )
            if not raised:
                # A raise stops the column loop mid-bank; the array pass had
                # already counted that bank's clean columns.
                assert a == b

    @pytest.mark.parametrize("kinds", [("plain",) * 3, ("ecc",) * 3, ("ecc", "plain", "eager")])
    def test_failed_bank_raises_before_any_byte_lands(self, kinds):
        banks = [_bank(kind) for kind in kinds]
        old = np.full((3, 2, CONFIG.col_bytes), 7, dtype=np.uint8)
        poke_block(banks, 2, 1, old)
        banks[1].fail(5)
        before = [bank_image(bank) for bank in banks]
        with pytest.raises(PimChannelError) as info:
            poke_block(banks, 2, 1, np.zeros_like(old))
        assert info.value.channels == (5,)
        with pytest.raises(PimChannelError):
            peek_block(banks, 2, 1, 2)
        assert [bank_image(bank) for bank in banks] == before

    @pytest.mark.parametrize("kind", KINDS)
    def test_reads_copy_and_never_alias_the_row_store(self, kind):
        banks = [_bank(kind), _bank(kind)]
        data = np.arange(2 * 3 * 32, dtype=np.uint8).reshape(2, 3, 32)
        poke_block(banks, 0, 2, data)
        got = peek_block(banks, 0, 2, 3)
        assert not any(np.shares_memory(got, bank._rows[0]) for bank in banks)
        got[:] = 0xFF
        assert np.array_equal(peek_block(banks, 0, 2, 3), data)

    def test_strided_data_lands_like_its_contiguous_copy(self):
        # Kernels hand poke_block transposed views of the host vector.
        source = np.random.default_rng(3).integers(0, 256, (4, 2, 32), dtype=np.uint8)
        view = source.transpose(1, 0, 2)  # (banks, n, 32), not contiguous
        for kind in KINDS:
            strided, copied = [_bank(kind), _bank(kind)], [_bank(kind), _bank(kind)]
            poke_block(strided, 3, 4, view)
            poke_block(copied, 3, 4, np.ascontiguousarray(view))
            assert [bank_image(b) for b in strided] == [bank_image(b) for b in copied]


# -- the column index is checked, identically on both bank classes -----------------


@pytest.mark.parametrize("kind", KINDS)
class TestColumnChecks:
    @pytest.mark.parametrize("col", [-1, COLS, COLS + 5])
    def test_single_column_out_of_range(self, kind, col):
        bank = _bank(kind)
        with pytest.raises(IndexError):
            bank.peek(0, col)
        with pytest.raises(IndexError):
            bank.poke(0, col, np.zeros(32, dtype=np.uint8))
        assert bank.materialized_rows() == []  # checked before the row exists

    @pytest.mark.parametrize("cols", [[-1], [0, COLS], [3, -2, 1]])
    def test_index_array_out_of_range(self, kind, cols):
        bank = _bank(kind)
        with pytest.raises(IndexError):
            bank.peek_columns(0, np.array(cols))
        with pytest.raises(IndexError):
            bank.peek_columns(0, cols)
        with pytest.raises(IndexError):
            bank.poke_columns(0, np.array(cols), np.zeros((len(cols), 32), dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(32,), (1, 32), (4, 32), (3, 16), (3, 1, 32)])
    def test_index_array_write_needs_one_column_each(self, kind, shape):
        bank = _bank(kind)
        with pytest.raises(ValueError):
            bank.poke_columns(0, np.array([1, 2, 3]), np.zeros(shape, dtype=np.uint8))
        assert bank.materialized_rows() == []

    @pytest.mark.parametrize("col0, n", [(-1, 2), (COLS - 1, 2), (COLS, 1), (0, COLS + 1)])
    def test_block_out_of_range(self, kind, col0, n):
        banks = [_bank(kind), _bank(kind)]
        with pytest.raises(IndexError):
            peek_block(banks, 0, col0, n)
        with pytest.raises(IndexError):
            poke_block(banks, 0, col0, np.zeros((2, n, 32), dtype=np.uint8))
        assert all(bank.materialized_rows() == [] for bank in banks)

    @pytest.mark.parametrize("shape", [(2, 32), (1, 2, 32), (3, 2, 32), (2, 2, 16), (2, 2, 2, 32)])
    def test_block_write_needs_banks_by_n_by_col_bytes(self, kind, shape):
        banks = [_bank(kind), _bank(kind)]
        with pytest.raises(ValueError):
            poke_block(banks, 0, 0, np.zeros(shape, dtype=np.uint8))

    def test_last_column_is_in_range(self, kind):
        bank = _bank(kind)
        data = np.arange(32, dtype=np.uint8)
        bank.poke(0, COLS - 1, data)
        assert np.array_equal(bank.peek(0, COLS - 1), data)
        assert np.array_equal(bank.peek_columns(0, [COLS - 1, 0])[0], data)


@pytest.mark.parametrize("bank_cls", [Bank, EccBank])
def test_controller_column_out_of_range_fails_instead_of_reading_nothing(bank_cls):
    """``MemoryController.read`` of a column past the row used to hand back
    an empty burst; it now fails where the bank resolves the column."""
    channel = PseudoChannel(HBM2_1GHZ, CONFIG, bank_cls=bank_cls)
    mc = MemoryController(channel)
    mc.read(0, 0, 1, COLS, tag="r")
    with pytest.raises(IndexError):
        mc.drain()
    mc = MemoryController(PseudoChannel(HBM2_1GHZ, CONFIG, bank_cls=bank_cls))
    mc.write(0, 0, 1, -1, np.zeros(32, dtype=np.uint8))
    with pytest.raises(IndexError):
        mc.drain()
    mc = MemoryController(PseudoChannel(HBM2_1GHZ, CONFIG, bank_cls=bank_cls))
    mc.write(0, 0, 1, COLS - 1, np.full(32, 9, dtype=np.uint8))
    mc.read(0, 0, 1, COLS - 1, tag="r")
    assert np.array_equal(mc.drain().read_data["r"], np.full(32, 9, dtype=np.uint8))
