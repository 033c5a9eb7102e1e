"""Tests for device assembly."""

import pytest

from repro.dram import BankConfig, DeviceConfig, HbmDevice
from repro.dram.timing import HBM2_1GHZ, HBM2_1P2GHZ


class TestDeviceConfig:
    def test_default_capacity(self):
        cfg = DeviceConfig()
        # 8192 rows x 1 KiB x 16 banks x 16 pCHs = 2 GiB per rank.
        assert cfg.capacity_bytes == 2 * 1024**3

    def test_rank_scaling(self):
        assert DeviceConfig(ranks=2).capacity_bytes == 4 * 1024**3

    def test_io_bandwidth_1ghz(self):
        # 32 B per 2 cycles per pCH at 1 GHz x 16 pCH = 256 GB/s.
        assert DeviceConfig(timing=HBM2_1GHZ).io_bandwidth_bytes_per_sec == pytest.approx(256e9)

    def test_io_bandwidth_1p2ghz(self):
        # Table V: 307.2 GB/s at 1.2 GHz.
        assert DeviceConfig(timing=HBM2_1P2GHZ).io_bandwidth_bytes_per_sec == pytest.approx(307.2e9)


class TestDevice:
    def test_sixteen_pchs_by_default(self):
        assert len(HbmDevice()) == 16

    def test_small_device_for_tests(self):
        device = HbmDevice(DeviceConfig(num_pchs=2, bank_config=BankConfig(num_rows=16)))
        assert len(device) == 2
        assert device.pch(0) is not device.pch(1)

