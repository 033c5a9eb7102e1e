"""Cross-validation: activity-counted energy vs the analytic Fig. 11 model.

The energy-per-bit advantage must *emerge* from simulator event counts on
live kernels, landing near the analytic model's 3.8x / the paper's 3.5x.
"""

import numpy as np
import pytest

from repro.dram.bank import BankConfig
from repro.dram.device import DeviceConfig, HbmDevice
from repro.host.kernels import HostKernels
from repro.host.processor import HostSystem
from repro.perf.activity import ActivityEnergyModel, ActivityEnergyParams
from repro.perf.energy import DevicePowerModel
from repro.stack.kernels import ElementwiseKernel
from repro.stack.runtime import PimSystem, SystemConfig


def _host_channels_with_stream(nbytes):
    system = HostSystem(
        HbmDevice(DeviceConfig(num_pchs=1, bank_config=BankConfig(num_rows=256))),
        fence_penalty_cycles=0,
    )
    HostKernels(system).stream_read(nbytes)
    return system.device.pchs


def _pim_channels_with_add(elements):
    system = PimSystem(SystemConfig(num_pchs=1, num_rows=256))
    rng = np.random.default_rng(0)
    a = rng.standard_normal(elements).astype(np.float16)
    b = rng.standard_normal(elements).astype(np.float16)
    ElementwiseKernel(system, "add", elements)(a, b)
    return system.device.pchs


class TestParams:
    def test_derived_from_power_model(self):
        params = ActivityEnergyParams.from_power_model(DevicePowerModel())
        assert params.cell_per_access == pytest.approx(0.08)
        assert params.bus_per_burst == pytest.approx(0.45)

    def test_streaming_read_costs_one_unit(self):
        p = ActivityEnergyParams()
        total = (
            p.cell_per_access + p.iosa_per_access + p.bus_per_burst + p.phy_per_burst
        )
        assert total == pytest.approx(1.0)


class TestHostBreakdown:
    def test_streaming_read_breakdown(self):
        channels = _host_channels_with_stream(64 * 1024)
        model = ActivityEnergyModel()
        breakdown = model.host_breakdown(channels)
        columns = 64 * 1024 // 32
        assert breakdown.bits_processed == columns * 32 * 8
        # Per-column split matches the Fig. 11 fractions.
        assert breakdown.global_bus / columns == pytest.approx(0.45)
        assert breakdown.io_phy / columns == pytest.approx(0.35)

    def test_activation_energy_counted(self):
        channels = _host_channels_with_stream(64 * 1024)
        breakdown = ActivityEnergyModel().host_breakdown(channels)
        assert breakdown.activation > 0


class TestPimBreakdown:
    def test_bus_and_phy_nearly_eliminated(self):
        channels = _pim_channels_with_add(32 * 1024)
        breakdown = ActivityEnergyModel().pim_breakdown(channels)
        # Bank-side energy dominates; bus/PHY shrink to residuals.
        assert breakdown.cell + breakdown.iosa_decoders > breakdown.global_bus
        assert breakdown.global_bus < 0.15 * breakdown.cell / 0.08 * 0.45

    def test_pim_unit_energy_counted(self):
        channels = _pim_channels_with_add(32 * 1024)
        breakdown = ActivityEnergyModel().pim_breakdown(channels)
        assert breakdown.pim_units > 0

    def test_bits_counted_from_bank_accesses(self):
        channels = _pim_channels_with_add(32 * 1024)
        breakdown = ActivityEnergyModel().pim_breakdown(channels)
        assert breakdown.bits_processed > 32 * 1024 * 16  # > one pass


class TestEnergyPerBitAdvantage:
    def test_emerges_from_event_counts(self):
        """The headline Fig. 11 result, re-derived from counted events on
        live kernels: PIM moves bits at ~3-4x lower energy."""
        pim_channels = _pim_channels_with_add(64 * 1024)
        host_channels = _host_channels_with_stream(3 * 128 * 1024)
        advantage = ActivityEnergyModel().energy_per_bit_advantage(
            pim_channels, host_channels
        )
        analytic = DevicePowerModel().energy_per_bit_reduction
        assert 2.5 <= advantage <= 5.0  # paper: 3.5x
        assert advantage == pytest.approx(analytic, rel=0.45)

    def test_requires_pim_activity(self):
        host_channels = _host_channels_with_stream(1024)
        with pytest.raises(ValueError):
            ActivityEnergyModel().energy_per_bit_advantage(
                host_channels, host_channels
            )
