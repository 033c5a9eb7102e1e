"""Tests for the ECC-protected bank and ECC-enabled PIM devices."""

import numpy as np
import pytest

from repro.common.ecc import encode_words
from repro.dram.bank import BankConfig
from repro.dram.device import DeviceConfig
from repro.dram.ecc import EccBank, UncorrectableError
from repro.dram.timing import HBM2_1GHZ
from repro.pim.device import PimHbmDevice


@pytest.fixture
def bank():
    return EccBank(BankConfig(num_rows=16), HBM2_1GHZ)


def _col(seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 256, 32, dtype=np.uint8)


class TestEccBank:
    def test_clean_roundtrip(self, bank):
        data = _col(1)
        bank.poke(2, 3, data)
        assert np.array_equal(bank.peek(2, 3), data)
        assert bank.ecc_stats.corrected == 0

    def test_single_bit_error_corrected(self, bank):
        data = _col(2)
        bank.poke(0, 0, data)
        bank.inject_error(0, 0, bit=37)
        out = bank.peek(0, 0)
        assert np.array_equal(out, data)
        assert bank.ecc_stats.corrected == 1

    def test_scrubbing_repairs_the_cells(self, bank):
        data = _col(3)
        bank.poke(0, 0, data)
        bank.inject_error(0, 0, bit=100)
        bank.peek(0, 0)  # corrects and scrubs
        # A second read sees clean cells: no further correction needed.
        before = bank.ecc_stats.corrected
        bank.peek(0, 0)
        assert bank.ecc_stats.corrected == before

    def test_one_error_per_word_all_corrected(self, bank):
        data = _col(4)
        bank.poke(0, 0, data)
        for word in range(4):
            bank.inject_error(0, 0, bit=word * 64 + word)
        assert np.array_equal(bank.peek(0, 0), data)
        assert bank.ecc_stats.corrected == 4

    def test_double_bit_error_detected(self, bank):
        bank.poke(0, 0, _col(5))
        bank.inject_error(0, 0, bit=0)
        bank.inject_error(0, 0, bit=1)
        with pytest.raises(UncorrectableError):
            bank.peek(0, 0)
        assert bank.ecc_stats.detected_uncorrectable == 1

    def test_double_bit_error_nonfatal_mode(self):
        bank = EccBank(BankConfig(num_rows=16), HBM2_1GHZ,
                       raise_on_uncorrectable=False)
        bank.poke(0, 0, _col(6))
        bank.inject_error(0, 0, bit=10)
        bank.inject_error(0, 0, bit=11)
        bank.peek(0, 0)  # detected, reported, not raised
        assert bank.ecc_stats.detected_uncorrectable == 1

    def test_check_array_error_corrected(self, bank):
        data = _col(7)
        bank.poke(1, 1, data)
        bank.inject_check_error(1, 1, word=2, bit=3)
        assert np.array_equal(bank.peek(1, 1), data)
        assert bank.ecc_stats.corrected == 1

    def test_unwritten_column_is_consistent(self, bank):
        # All-zero data has an all-zero check byte: fresh rows decode clean.
        assert bank.peek(5, 5).sum() == 0
        assert bank.ecc_stats.detected_uncorrectable == 0

    def test_command_path_is_protected(self, bank):
        """read()/write() route through the protected peek/poke."""
        t = HBM2_1GHZ
        data = _col(8)
        bank.activate(3, 0)
        bank.write(3, 0, data, t.trcd)
        bank.inject_error(3, 0, bit=77)
        out = bank.read(3, 0, t.trcd + t.tccd_l)
        assert np.array_equal(out, data)
        assert bank.ecc_stats.corrected == 1


class TestInjectionRanges:
    """Injection indices are checked, never wrapped into a neighbour."""

    @pytest.mark.parametrize(
        "col, word, bit",
        [(0, 4, 0), (0, -1, 0), (-1, 0, 0), (32, 0, 0), (0, 0, 8), (0, 0, 9), (0, 0, -1)],
        ids=["word-past-column", "negative-word", "negative-col", "col-past-row",
             "bit-8", "bit-9", "negative-bit"],
    )
    def test_inject_check_error(self, bank, col, word, bit):
        bank.poke(1, 0, _col(9))
        with pytest.raises(ValueError):
            bank.inject_check_error(1, col, word=word, bit=bit)
        # No check byte of the row moved, this column's or a neighbour's.
        assert np.array_equal(bank._check_array(1), encode_words(bank._rows[1].view("<u8")))

    @pytest.mark.parametrize(
        "col, bit", [(-1, 0), (32, 0), (0, 256), (0, -1)],
        ids=["negative-col", "col-past-row", "bit-past-column", "negative-bit"],
    )
    def test_inject_error(self, bank, col, bit):
        bank.poke(1, 31, _col(10))
        with pytest.raises(ValueError):
            bank.inject_error(1, col, bit=bit)
        assert bank.ecc_stats.corrected == 0
        assert np.array_equal(bank.peek(1, 31), _col(10))

    @pytest.mark.parametrize("bit", [-1, 1024])
    def test_flip_check_bit(self, bank, bit):
        with pytest.raises(ValueError):
            bank.flip_check_bit(1, bit)
        assert bank.materialized_rows() == []

    @pytest.mark.parametrize("bit", [-1, 1024 * 8])
    def test_flip_bit(self, bank, bit):
        with pytest.raises(ValueError):
            bank.flip_bit(1, bit)
        assert bank.materialized_rows() == []


class TestEccPimDevice:
    def test_device_config_flag(self):
        device = PimHbmDevice(
            DeviceConfig(num_pchs=1, bank_config=BankConfig(num_rows=64), ecc=True)
        )
        assert isinstance(device.pch(0).banks[0], EccBank)

    def test_gemv_survives_injected_faults(self):
        """Section VIII: PIM accesses go through the same granularity as
        host accesses, so on-die ECC protects a live PIM kernel."""
        from repro.stack.blas import gemv_reference
        from repro.stack.kernels import GemvKernel
        from repro.stack.runtime import PimSystem
        from repro.dram.bank import BankConfig as BC
        from repro.dram.device import DeviceConfig as DC
        from repro.host.processor import HostSystem

        class EccPimSystem(PimSystem):
            def __init__(self):
                from repro.stack.driver import PimDeviceDriver
                from repro.stack.runtime import PimExecutor

                device = PimHbmDevice(
                    DC(num_pchs=1, bank_config=BC(num_rows=128), ecc=True)
                )
                HostSystem.__init__(self, device)
                self.driver = PimDeviceDriver(device)
                self.executor = PimExecutor(self)

        system = EccPimSystem()
        rng = np.random.default_rng(0)
        w = (rng.standard_normal((128, 64)) * 0.2).astype(np.float16)
        x = (rng.standard_normal(64) * 0.2).astype(np.float16)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        # Flip one stored weight bit in each of three banks.
        for bank_index in (0, 2, 4):
            system.device.pch(0).banks[bank_index].inject_error(
                kernel.plan.weight_base_row, 0, bit=11 + bank_index
            )
        y, _ = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))
        corrected = sum(
            b.ecc_stats.corrected for b in system.device.pch(0).banks
            if isinstance(b, EccBank)
        )
        assert corrected >= 3
