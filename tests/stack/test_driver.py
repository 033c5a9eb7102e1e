"""Tests for the PIM device driver allocator."""

import pytest

from repro.dram.bank import BankConfig
from repro.dram.device import DeviceConfig
from repro.pim.device import PimHbmDevice
from repro.stack.driver import PimAllocationError, PimDeviceDriver


@pytest.fixture
def driver():
    device = PimHbmDevice(
        DeviceConfig(num_pchs=2, bank_config=BankConfig(num_rows=64))
    )
    return PimDeviceDriver(device)


class TestReservation:
    def test_register_rows_excluded(self, driver):
        # 6 reserved rows at the top (ABMR/SBMR/CONF/CRF/GRF/SRF).
        assert driver.rows_total == 64 - 6

    def test_region_is_uncacheable(self, driver):
        assert driver.uncacheable

    def test_every_store_in_the_region_is_a_bus_command(self):
        """Uncacheable and not write-combined: two stores to one column are
        two WRs, and a load after them is a RD that returns the last."""
        import numpy as np

        from repro.dram.commands import CommandType
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(num_pchs=1, num_rows=64))
        row = system.driver.alloc_rows(1).start
        controller = system.controllers[0]
        counts = system.device.pch(0).cmd_counts
        before = dict(counts)
        for value in (1, 2):
            controller.write(0, 0, row, 5, np.full(32, value, np.uint8))
        controller.read(0, 0, row, 5, tag="load")
        result = controller.drain()
        assert counts[CommandType.WR] - before[CommandType.WR] == 2
        assert counts[CommandType.RD] - before[CommandType.RD] == 1
        assert (result.read_data["load"] == 2).all()

    def test_check_row(self, driver):
        driver.check_row(0)
        driver.check_row(57)
        with pytest.raises(PimAllocationError):
            driver.check_row(58)


class TestAllocation:
    def test_contiguous_blocks(self, driver):
        a = driver.alloc_rows(10)
        b = driver.alloc_rows(5)
        assert (a.start, a.stop) == (0, 10)
        assert (b.start, b.stop) == (10, 15)
        assert a.num_rows == 10

    def test_row_indexing(self, driver):
        block = driver.alloc_rows(4)
        assert block.row(3) == 3
        with pytest.raises(IndexError):
            block.row(4)

    def test_exhaustion(self, driver):
        driver.alloc_rows(58)
        with pytest.raises(PimAllocationError):
            driver.alloc_rows(1)

    def test_zero_alloc_rejected(self, driver):
        with pytest.raises(PimAllocationError):
            driver.alloc_rows(0)

    def test_reset_frees_everything(self, driver):
        driver.alloc_rows(50)
        driver.reset()
        assert driver.rows_free == driver.rows_total
        driver.alloc_rows(50)

    def test_alloc_bytes(self, driver):
        per_row = driver.bytes_per_row_set()
        # 1 KiB x 16 banks x 2 pCHs = 32 KiB per row set.
        assert per_row == 32 * 1024
        block = driver.alloc_bytes(per_row + 1)
        assert block.num_rows == 2

    def test_allocated_rows_tracks_live_blocks(self, driver):
        a = driver.alloc_rows(3)
        driver.alloc_rows(2)
        assert sorted(driver.allocated_rows()) == [0, 1, 2, 3, 4]
        driver.free(a)
        assert sorted(driver.allocated_rows()) == [3, 4]


class TestFreeList:
    """Rows an evicted operator gives back (``free``) are reused first-fit
    before the bump cursor moves."""

    def test_free_coalesces_neighbours(self, driver):
        a, b = driver.alloc_rows(3), driver.alloc_rows(2)
        driver.alloc_rows(4)
        driver.free(a)
        driver.free(b)
        block = driver.alloc_rows(5)
        assert (block.start, block.stop) == (0, 5)

    def test_a_block_at_the_cursor_returns_to_it(self, driver):
        a, b = driver.alloc_rows(3), driver.alloc_rows(2)
        driver.free(b)
        assert driver.rows_free == driver.rows_total - 3
        driver.free(a)
        assert driver.rows_free == driver.rows_total
        block = driver.alloc_rows(driver.rows_total)
        assert (block.start, block.stop) == (0, driver.rows_total)

    def test_first_fit_splits_a_larger_block(self, driver):
        a = driver.alloc_rows(6)
        driver.alloc_rows(1)
        driver.free(a)
        assert (driver.alloc_rows(2).start, driver.alloc_rows(4).start) == (0, 2)
        assert driver.alloc_rows(1).start == 7

    def test_double_free_rejected(self, driver):
        a = driver.alloc_rows(2)
        driver.alloc_rows(1)
        driver.free(a)
        with pytest.raises(PimAllocationError):
            driver.free(a)

    def test_reclaimed_rows_count_toward_capacity(self, driver):
        driver.alloc_rows(20)
        middle = driver.alloc_rows(8)
        driver.alloc_rows(driver.rows_free)
        driver.free(middle)
        assert driver.rows_free == 8
        with pytest.raises(PimAllocationError):
            driver.alloc_rows(9)
        assert driver.alloc_rows(8) == middle


class TestQuarantine:
    def test_quarantined_channel_leaves_every_pool(self, driver):
        lease = driver.alloc_channels(2)
        bad = lease.channels[0]
        driver.quarantine_channels([bad])
        assert bad not in driver.channels_free
        assert bad not in driver.channels_leased
        assert driver.channels_quarantined == (bad,)

    def test_only_leased_channels_can_be_quarantined(self, driver):
        with pytest.raises(PimAllocationError):
            driver.quarantine_channels([0])

    def test_restore_returns_channel_to_free_pool(self, driver):
        lease = driver.alloc_channels(1)
        bad = lease.channels[0]
        driver.quarantine_channels([bad])
        driver.restore_channels([bad])
        assert bad in driver.channels_free
        with pytest.raises(PimAllocationError):
            driver.restore_channels([bad])

    def test_quarantine_shrinks_the_leasable_pool(self, driver):
        lease = driver.alloc_channels(2)
        driver.quarantine_channels(list(lease.channels))
        with pytest.raises(PimAllocationError):
            driver.alloc_channels(1)

    def test_reset_clears_quarantine(self, driver):
        lease = driver.alloc_channels(1)
        driver.quarantine_channels(list(lease.channels))
        driver.reset()
        assert driver.channels_quarantined == ()
        assert len(driver.channels_free) == driver.num_channels


class TestScrub:
    def test_plain_banks_make_scrub_a_noop(self, driver):
        driver.alloc_rows(4)
        result = driver.scrub()
        assert result.words_checked == 0
        assert result.corrected == 0
        assert not result.uncorrectable

    def test_nothing_allocated_nothing_scanned(self, driver):
        result = driver.scrub()
        assert result.rows_scanned == 0
