"""Tests for the PIM pseudo-channel / device (broadcast, registers, modes)."""

import numpy as np
import pytest

from repro.dram.bank import BankConfig
from repro.dram.commands import Command, CommandType
from repro.dram.device import DeviceConfig
from repro.dram.timing import HBM2_1GHZ
from repro.pim.assembler import assemble_words
from repro.pim.device import UNITS_PER_PCH, PimHbmDevice, PimPseudoChannel
from repro.pim.modes import PimMode


@pytest.fixture
def ch():
    return PimPseudoChannel(HBM2_1GHZ, BankConfig(num_rows=64))


class Driver:
    """A minimal in-order command driver for device-level tests."""

    def __init__(self, ch):
        self.ch = ch
        self.cycle = 0

    def issue(self, cmd):
        self.cycle = max(self.cycle, self.ch.earliest_issue(cmd))
        result = self.ch.issue(cmd, self.cycle)
        self.cycle += 1
        return result

    def enter_ab(self):
        self.issue(Command(CommandType.ACT, 0, 0, row=self.ch.memory_map.abmr_row))
        self.issue(Command(CommandType.PRE, 0, 0))

    def enter_ab_pim(self):
        data = np.zeros(32, dtype=np.uint8)
        data[0] = 1
        self.issue(
            Command(CommandType.WR, 0, 0, row=self.ch.memory_map.conf_row,
                    col=0, data=data)
        )

    def exit_ab_pim(self):
        self.issue(
            Command(CommandType.WR, 0, 0, row=self.ch.memory_map.conf_row,
                    col=0, data=np.zeros(32, dtype=np.uint8))
        )


def wr(bg, ba, row, col, value=0):
    return Command(
        CommandType.WR, bg, ba, row=row, col=col,
        data=np.full(32, value, dtype=np.uint8),
    )


class TestStructure:
    def test_eight_units_per_pch(self, ch):
        assert len(ch.units) == UNITS_PER_PCH == 8

    def test_unit_bank_pairing(self, ch):
        for u, unit in enumerate(ch.units):
            assert unit.even_bank is ch.banks[2 * u]
            assert unit.odd_bank is ch.banks[2 * u + 1]

    def test_device_compute_bandwidth(self):
        device = PimHbmDevice(DeviceConfig(timing=HBM2_1GHZ.scaled_to(1.2)))
        # Table V: 1.229 TB/s on-chip compute bandwidth.
        assert device.compute_bandwidth_bytes_per_sec == pytest.approx(1.2288e12)


class TestModeTransitionsOverCommands:
    def test_enter_ab(self, ch):
        d = Driver(ch)
        d.enter_ab()
        assert ch.mode is PimMode.AB

    def test_ab_entry_with_open_row_raises(self, ch):
        d = Driver(ch)
        d.issue(Command(CommandType.ACT, 1, 1, row=3))  # leave a row open
        d.issue(Command(CommandType.ACT, 0, 0, row=ch.memory_map.abmr_row))
        with pytest.raises(RuntimeError):
            d.issue(Command(CommandType.PRE, 0, 0))

    def test_full_round_trip(self, ch):
        d = Driver(ch)
        d.enter_ab()
        d.enter_ab_pim()
        assert ch.mode is PimMode.AB_PIM
        d.exit_ab_pim()
        assert ch.mode is PimMode.AB
        d.issue(Command(CommandType.ACT, 0, 0, row=ch.memory_map.sbmr_row))
        d.issue(Command(CommandType.PRE, 0, 0))
        assert ch.mode is PimMode.SB

    def test_units_started_on_ab_pim_entry(self, ch):
        d = Driver(ch)
        for unit in ch.units:
            unit.regs.crf[0] = assemble_words("EXIT")[0]
        d.enter_ab()
        d.enter_ab_pim()
        for unit in ch.units:
            assert unit.exited  # EXIT resolved immediately at start


class TestAllBankBroadcast:
    def test_act_opens_all_banks(self, ch):
        d = Driver(ch)
        d.enter_ab()
        d.issue(Command(CommandType.ACT, 0, 0, row=7))
        assert all(bank.open_row == 7 for bank in ch.banks)

    def test_column_write_broadcasts(self, ch):
        d = Driver(ch)
        d.enter_ab()
        d.issue(Command(CommandType.ACT, 0, 0, row=7))
        d.issue(wr(0, 0, 7, 3, value=0xAB))
        for bank in ch.banks:
            assert (bank.peek(7, 3) == 0xAB).all()

    def test_read_returns_addressed_bank(self, ch):
        d = Driver(ch)
        ch.banks[6].poke(7, 0, np.full(32, 0x55, dtype=np.uint8))
        d.enter_ab()
        d.issue(Command(CommandType.ACT, 0, 0, row=7))
        out = d.issue(Command(CommandType.RD, 1, 2, row=7, col=0))  # bank 6
        assert (out == 0x55).all()

    def test_ab_column_cadence_is_tccd_l(self, ch):
        d = Driver(ch)
        d.enter_ab()
        d.issue(Command(CommandType.ACT, 0, 0, row=7))
        c0 = ch.earliest_issue(Command(CommandType.RD, 0, 0, row=7, col=0))
        ch.issue(Command(CommandType.RD, 0, 0, row=7, col=0), c0)
        # Even a different bank group waits tCCD_L in all-bank mode.
        bound = ch.earliest_issue(Command(CommandType.RD, 3, 0, row=7, col=1))
        assert bound == c0 + HBM2_1GHZ.tccd_l

    def test_prea_in_ab_closes_everything(self, ch):
        d = Driver(ch)
        d.enter_ab()
        d.issue(Command(CommandType.ACT, 0, 0, row=7))
        self_cycle = max(b.earliest_pre() for b in ch.banks)
        ch.issue(Command(CommandType.PREA), self_cycle)
        assert ch.all_banks_idle


class TestRegisterAccess:
    def test_crf_broadcast_write(self, ch):
        d = Driver(ch)
        d.enter_ab()
        words = np.array(assemble_words("NOP\nEXIT")[:8], dtype="<u4")
        d.issue(
            Command(CommandType.WR, 0, 0, row=ch.memory_map.crf_row, col=0,
                    data=words.view(np.uint8))
        )
        for unit in ch.units:
            assert unit.regs.crf[:8] == list(words)

    def test_grf_broadcast_write_and_sb_read(self, ch):
        d = Driver(ch)
        d.enter_ab()
        payload = np.arange(32, dtype=np.uint8)
        d.issue(
            Command(CommandType.WR, 0, 0, row=ch.memory_map.grf_row, col=9,
                    data=payload)
        )
        for unit in ch.units:
            assert np.array_equal(unit.regs.read_grf_column(9), payload)
        # Back in SB mode, a register read targets one unit's copy.
        d.issue(Command(CommandType.ACT, 0, 0, row=ch.memory_map.sbmr_row))
        d.issue(Command(CommandType.PRE, 0, 0))
        ch.units[3].regs.grf_b[1][:] = np.float16(9.0)  # unit of bank 6/7
        d.issue(Command(CommandType.ACT, 1, 2, row=ch.memory_map.grf_row))
        out = d.issue(Command(CommandType.RD, 1, 2, row=ch.memory_map.grf_row, col=9))
        assert (out.view(np.float16) == np.float16(9.0)).all()

    def test_srf_write(self, ch):
        d = Driver(ch)
        d.enter_ab()
        scalars = np.arange(8, dtype=np.float16)
        payload = np.zeros(32, dtype=np.uint8)
        payload[:16] = scalars.view(np.uint8)
        d.issue(
            Command(CommandType.WR, 0, 0, row=ch.memory_map.srf_row, col=0,
                    data=payload)
        )
        for unit in ch.units:
            assert np.array_equal(unit.regs.srf_m, scalars)

    @pytest.mark.parametrize("register, col, count", [
        ("crf", 0, 4), ("crf", 3, 1), ("crf", -1, 1), ("crf", 3, 2),
        ("grf", 8, 8), ("grf", 0, 8), ("grf", 6, 4), ("grf", 15, 2), ("grf", -2, 2),
        ("grf", -1, 2),
        ("srf", 0, 2), ("srf", 1, 1), ("srf", -1, 1), ("srf", 1, 2),
    ])
    def test_a_register_run_lands_as_its_columns_do(self, register, col, count):
        """``_write_registers`` (a frame's register-row write run) leaves
        every unit's CRF, GRF and SRF as the run's columns through
        ``_register_access`` do — one CRF span, one GRF half or the SRF
        halves in one assignment per unit, wrapped and negative columns
        included, and a column out of range raises where it does."""
        sides = [PimPseudoChannel(HBM2_1GHZ, BankConfig(num_rows=64)) for _ in range(2)]
        row = getattr(sides[0].memory_map, f"{register}_row")
        rng = np.random.default_rng(col + 17 * count)
        block = rng.integers(0, 256, size=(count, 32), dtype=np.uint8)
        if register != "crf":  # finite FP16 lanes compare by value
            block = rng.standard_normal((count, 16)).astype(np.float16).view(np.uint8)

        def columns(side):
            for i, column in enumerate(block):
                side._register_access(
                    Command(CommandType.WR, row=row, col=col + i, data=column), side.units
                )

        raised = []
        for write in (lambda: sides[0]._write_registers(row, col, block),
                      lambda: columns(sides[1])):
            try:
                write()
                raised.append(None)
            except IndexError as error:
                raised.append(str(error))
        assert raised[0] == raised[1]
        for got, want in zip(*(side.units for side in sides)):
            assert got.regs.crf == want.regs.crf
            for name in ("grf_a", "grf_b", "srf_m", "srf_a"):
                assert getattr(got.regs, name).tobytes() == getattr(want.regs, name).tobytes()

    def test_pim_op_mode_readback(self, ch):
        d = Driver(ch)
        d.enter_ab()
        d.enter_ab_pim()
        out = d.issue(
            Command(CommandType.RD, 0, 0, row=ch.memory_map.conf_row, col=0)
        )
        assert out[0] == 1


class TestPimTriggering:
    def _setup_fill_kernel(self, ch, d):
        for unit in ch.units:
            unit.even_bank.poke(7, 0, np.full(16, unit.unit_id, dtype=np.float16).view(np.uint8))
        d.enter_ab()
        words = np.array(assemble_words("FILL GRF_A[0], EVEN_BANK\nEXIT")[:8], dtype="<u4")
        d.issue(Command(CommandType.WR, 0, 0, row=ch.memory_map.crf_row, col=0,
                        data=words.view(np.uint8)))
        d.enter_ab_pim()

    def test_column_read_triggers_all_units(self, ch):
        d = Driver(ch)
        self._setup_fill_kernel(ch, d)
        d.issue(Command(CommandType.ACT, 0, 0, row=7))
        out = d.issue(Command(CommandType.RD, 0, 0, row=7, col=0))
        # AB-PIM column reads do not drive the external I/O.
        assert out is None
        for unit in ch.units:
            assert (unit.regs.grf_a[0] == np.float16(unit.unit_id)).all()
        assert ch.pim_triggered_columns == 1

    def test_pim_write_trigger_does_not_clobber_banks(self, ch):
        d = Driver(ch)
        for unit in ch.units:
            unit.even_bank.poke(7, 0, np.full(32, 0x77, dtype=np.uint8))
        d.enter_ab()
        words = np.array(assemble_words("MOV GRF_A[0], HOST\nEXIT")[:8], dtype="<u4")
        d.issue(Command(CommandType.WR, 0, 0, row=ch.memory_map.crf_row, col=0,
                        data=words.view(np.uint8)))
        d.enter_ab_pim()
        d.issue(Command(CommandType.ACT, 0, 0, row=7))
        d.issue(wr(0, 0, 7, 0, value=0x11))
        # The instruction routed the burst to GRF, not to the cells.
        for unit in ch.units:
            assert (unit.even_bank.peek(7, 0) == 0x77).all()
            assert (unit.regs.grf_a[0].view(np.uint8) == 0x11).all()

    def test_register_rows_never_trigger(self, ch):
        d = Driver(ch)
        self._setup_fill_kernel(ch, d)
        before = ch.units[0].stats.triggers
        d.issue(Command(CommandType.RD, 0, 0, row=ch.memory_map.grf_row, col=0))
        assert ch.units[0].stats.triggers == before
