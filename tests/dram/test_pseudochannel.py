"""Tests for shared-resource timing in the pseudo-channel."""

import numpy as np
import pytest

from repro.dram.commands import Command, CommandType
from repro.dram.bank import BankConfig, TimingViolation
from repro.dram.pseudochannel import BANKS_PER_PCH, PseudoChannel
from repro.dram.timing import HBM2_1GHZ, TimingParams


@pytest.fixture
def ch():
    return PseudoChannel(HBM2_1GHZ, BankConfig(num_rows=32))


def act(bg, ba, row=0):
    return Command(CommandType.ACT, bg, ba, row=row)


def rd(bg, ba, row=0, col=0):
    return Command(CommandType.RD, bg, ba, row=row, col=col)


def wr(bg, ba, row=0, col=0):
    data = np.zeros(32, dtype=np.uint8)
    return Command(CommandType.WR, bg, ba, row=row, col=col, data=data)


def _open_rows(ch, banks, row=0):
    """Activate a row in several banks, spacing ACTs legally."""
    cycle = 0
    for bg, ba in banks:
        cmd = act(bg, ba, row)
        cycle = max(cycle, ch.earliest_issue(cmd))
        ch.issue(cmd, cycle)
        cycle += 1
    return cycle


class TestGeometry:
    def test_sixteen_banks(self, ch):
        assert len(ch.banks) == BANKS_PER_PCH == 16

    def test_bank_lookup(self, ch):
        assert ch.bank(2, 3) is ch.banks[11]


class TestColumnCadence:
    def test_tccd_s_different_bank_group(self, ch):
        t = HBM2_1GHZ
        _open_rows(ch, [(0, 0), (1, 0)])
        # Wait until both banks are column-ready so only the bus constrains.
        c0 = max(ch.earliest_issue(rd(0, 0)), ch.earliest_issue(rd(1, 0)))
        ch.issue(rd(0, 0), c0)
        assert ch.earliest_issue(rd(1, 0)) == c0 + t.tccd_s

    def test_tccd_l_same_bank_group(self, ch):
        t = HBM2_1GHZ
        _open_rows(ch, [(0, 0), (0, 1)])
        c0 = max(ch.earliest_issue(rd(0, 0)), ch.earliest_issue(rd(0, 1)))
        ch.issue(rd(0, 0), c0)
        assert ch.earliest_issue(rd(0, 1)) == c0 + t.tccd_l

    def test_early_column_raises(self, ch):
        _open_rows(ch, [(0, 0)])
        c0 = ch.earliest_issue(rd(0, 0))
        ch.issue(rd(0, 0), c0)
        with pytest.raises(TimingViolation):
            ch.issue(rd(0, 0), c0 + 1)

    def test_write_to_read_turnaround(self, ch):
        t = HBM2_1GHZ
        _open_rows(ch, [(0, 0), (1, 0)])
        c0 = max(ch.earliest_issue(wr(0, 0)), ch.earliest_issue(rd(1, 0)))
        ch.issue(wr(0, 0), c0)
        # WR -> RD pays CWL + burst + tWTR, more than tCCD_S.
        bound = ch.earliest_issue(rd(1, 0))
        assert bound == c0 + t.cwl + t.burst_cycles + t.twtr
        assert bound > c0 + t.tccd_s

    def test_read_to_write_turnaround(self, ch):
        t = HBM2_1GHZ
        _open_rows(ch, [(0, 0), (1, 0)])
        c0 = max(ch.earliest_issue(rd(0, 0)), ch.earliest_issue(wr(1, 0)))
        ch.issue(rd(0, 0), c0)
        assert ch.earliest_issue(wr(1, 0)) == c0 + max(t.trtw, t.tccd_s)


class TestActivateSpacing:
    def test_trrd_s(self, ch):
        t = HBM2_1GHZ
        ch.issue(act(0, 0), 0)
        assert ch.earliest_issue(act(1, 0)) == t.trrd_s

    def test_trrd_l(self, ch):
        t = HBM2_1GHZ
        ch.issue(act(0, 0), 0)
        assert ch.earliest_issue(act(0, 1)) == t.trrd_l

    def test_tfaw(self, ch):
        t = HBM2_1GHZ
        cycle = 0
        # Four activates to different bank groups at tRRD_S spacing.
        for i, (bg, ba) in enumerate([(0, 0), (1, 0), (2, 0), (3, 0)]):
            cycle = max(cycle, ch.earliest_issue(act(bg, ba)))
            ch.issue(act(bg, ba), cycle)
        first = cycle - 3 * t.trrd_s
        # The fifth ACT must wait for the four-activate window.
        assert ch.earliest_issue(act(0, 1)) >= first + t.tfaw


class TestBroadcastCommands:
    def test_prea_closes_all(self, ch):
        _open_rows(ch, [(0, 0), (1, 1)])
        cycle = max(bank.earliest_pre() for bank in ch.banks)
        ch.issue(Command(CommandType.PREA), cycle)
        assert ch.all_banks_idle

    def test_refresh_blocks_activates(self, ch):
        t = HBM2_1GHZ
        ch.issue(Command(CommandType.REF), 0)
        assert ch.earliest_issue(act(0, 0)) >= t.trfc


class TestDataPath:
    def test_write_read_roundtrip(self, ch):
        t = HBM2_1GHZ
        _open_rows(ch, [(2, 3)])
        data = np.arange(32, dtype=np.uint8)
        cmd = Command(CommandType.WR, 2, 3, row=0, col=5, data=data)
        c = ch.earliest_issue(cmd)
        ch.issue(cmd, c)
        out = ch.issue(rd(2, 3, 0, 5), ch.earliest_issue(rd(2, 3, 0, 5)))
        assert np.array_equal(out, data)

    def test_wr_without_data_raises(self, ch):
        _open_rows(ch, [(0, 0)])
        cmd = Command(CommandType.WR, 0, 0, row=0, col=0)
        with pytest.raises(ValueError):
            ch.issue(cmd, ch.earliest_issue(cmd))

    def test_command_counters(self, ch):
        _open_rows(ch, [(0, 0)])
        ch.issue(rd(0, 0), ch.earliest_issue(rd(0, 0)))
        assert ch.cmd_counts[CommandType.ACT] == 1
        assert ch.cmd_counts[CommandType.RD] == 1


class TestTimingParams:
    def test_scaled_to(self):
        fast = HBM2_1GHZ.scaled_to(1.2)
        assert fast.tck_ns == pytest.approx(1 / 1.2)
        assert fast.trcd == HBM2_1GHZ.trcd  # cycle counts unchanged

    def test_ab_bandwidth_factor(self):
        # 8 operating banks at tCCD_L vs 1 at tCCD_S -> x4 (Table V).
        assert HBM2_1GHZ.ab_bandwidth_factor == 4.0

    def test_custom_tccd_changes_factor(self):
        slow = TimingParams(tccd_s=2, tccd_l=8)
        assert slow.ab_bandwidth_factor == 2.0
