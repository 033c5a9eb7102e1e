"""Tests for the DRAM bank state machine (repro.dram.bank)."""

import numpy as np
import pytest

from repro.dram.bank import Bank, BankConfig, BankState, TimingViolation
from repro.dram.timing import HBM2_1GHZ


@pytest.fixture
def bank():
    return Bank(BankConfig(num_rows=32), HBM2_1GHZ)


def _col(value=0):
    return np.full(32, value, dtype=np.uint8)


class TestGeometry:
    def test_default_geometry(self):
        cfg = BankConfig()
        assert cfg.cols_per_row == 32
        assert cfg.row_bytes == 1024
        assert cfg.col_bytes == 32

    def test_peek_out_of_range_row(self, bank):
        with pytest.raises(IndexError):
            bank.peek(100, 0)

    def test_poke_wrong_size(self, bank):
        with pytest.raises(ValueError):
            bank.poke(0, 0, np.zeros(16, dtype=np.uint8))

    def test_rows_materialise_lazily(self, bank):
        assert len(bank._rows) == 0
        bank.peek(3, 0)
        assert 3 in bank._rows

    @pytest.mark.parametrize(
        "fields",
        [
            dict(num_rows=0),
            dict(num_rows=-1),
            # 1.5 ECC words per column: a flip in column 0 read back wrong.
            dict(row_bytes=96, col_bytes=12),
            dict(row_bytes=96, col_bytes=0),
            dict(row_bytes=96, col_bytes=-8),
            dict(row_bytes=100, col_bytes=32),  # 4 bytes no column reads
            dict(row_bytes=16, col_bytes=32),  # no whole column
            dict(row_bytes=0, col_bytes=32),
        ],
        ids=str,
    )
    def test_a_geometry_the_bank_cannot_serve_is_refused(self, fields):
        with pytest.raises(ValueError):
            BankConfig(**fields)

    @pytest.mark.parametrize(
        "fields", [dict(num_rows=1), dict(row_bytes=8, col_bytes=8), dict(row_bytes=96, col_bytes=24)],
        ids=str,
    )
    def test_whole_words_and_whole_columns_are_accepted(self, fields):
        BankConfig(**fields)


class TestStateMachine:
    def test_initially_idle(self, bank):
        assert bank.state is BankState.IDLE
        assert bank.open_row is None

    def test_activate_opens_row(self, bank):
        bank.activate(5, 0)
        assert bank.state is BankState.ACTIVE
        assert bank.open_row == 5

    def test_double_activate_raises(self, bank):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.activate(6, 100)

    def test_column_without_open_row_raises(self, bank):
        with pytest.raises(TimingViolation):
            bank.read(0, 0, 100)

    def test_column_to_wrong_row_raises(self, bank):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.read(6, 0, 100)

    def test_precharge_closes(self, bank):
        t = HBM2_1GHZ
        bank.activate(5, 0)
        bank.precharge(t.tras)
        assert bank.state is BankState.IDLE
        assert bank.open_row is None

    def test_precharge_idle_is_noop(self, bank):
        bank.precharge(0)
        assert bank.state is BankState.IDLE


class TestTiming:
    def test_read_before_trcd_raises(self, bank):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.read(5, 0, HBM2_1GHZ.trcd - 1)

    def test_read_at_trcd_ok(self, bank):
        bank.activate(5, 0)
        bank.read(5, 0, HBM2_1GHZ.trcd)

    def test_precharge_before_tras_raises(self, bank):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.precharge(HBM2_1GHZ.tras - 1)

    def test_activate_after_precharge_waits_trp(self, bank):
        t = HBM2_1GHZ
        bank.activate(5, 0)
        bank.precharge(t.tras)
        with pytest.raises(TimingViolation):
            bank.activate(6, t.tras + t.trp - 1)
        bank.activate(6, max(t.tras + t.trp, t.trc))

    def test_trc_enforced(self, bank):
        t = HBM2_1GHZ
        bank.activate(5, 0)
        bank.precharge(t.tras)
        assert bank.next_act >= t.trc

    def test_write_recovery_delays_precharge(self, bank):
        t = HBM2_1GHZ
        bank.activate(5, 0)
        bank.write(5, 0, _col(), t.trcd)
        assert bank.next_pre >= t.trcd + t.cwl + t.burst_cycles + t.twr

    def test_read_to_precharge(self, bank):
        t = HBM2_1GHZ
        bank.activate(5, 0)
        bank.read(5, 0, t.trcd)
        assert bank.next_pre >= t.trcd + t.trtp

    def test_touch_column_applies_timing(self, bank):
        t = HBM2_1GHZ
        bank.activate(5, 0)
        bank.touch_column(5, t.trcd, is_write=True)
        assert bank.next_pre >= t.trcd + t.cwl + t.burst_cycles + t.twr

    def test_touch_column_checks_row(self, bank):
        bank.activate(5, 0)
        with pytest.raises(TimingViolation):
            bank.touch_column(6, HBM2_1GHZ.trcd, is_write=False)


class TestData:
    def test_write_then_read(self, bank):
        t = HBM2_1GHZ
        data = np.arange(32, dtype=np.uint8)
        bank.activate(5, 0)
        bank.write(5, 3, data, t.trcd)
        out = bank.read(5, 3, t.trcd + t.tccd_l)
        assert np.array_equal(out, data)

    def test_data_persists_across_precharge(self, bank):
        t = HBM2_1GHZ
        data = np.arange(32, dtype=np.uint8)
        bank.activate(5, 0)
        bank.write(5, 3, data, t.trcd)
        bank.precharge(bank.next_pre)
        bank.activate(5, bank.next_act)
        out = bank.read(5, 3, bank.next_act + t.trcd)
        assert np.array_equal(out, data)

    def test_unwritten_columns_read_zero(self, bank):
        bank.activate(5, 0)
        assert bank.read(5, 7, HBM2_1GHZ.trcd).sum() == 0

    def test_counters(self, bank):
        t = HBM2_1GHZ
        bank.activate(5, 0)
        bank.write(5, 0, _col(), t.trcd)
        bank.read(5, 0, t.trcd + t.tccd_l)
        assert bank.act_count == 1
        assert bank.wr_count == 1
        assert bank.rd_count == 1

    def test_peek_does_not_count(self, bank):
        bank.peek(0, 0)
        assert bank.rd_count == 0
