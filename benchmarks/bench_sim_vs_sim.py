"""Mechanism decomposition of the GEMV speedup, simulator vs simulator.

The paper's 11.2x over the HBM host is the product of two factors:

1. the **architecture factor** — AB-PIM command streams vs an *ideal* host
   read stream on the same DRAM (bounded by ~2x for GEMV: half the PIM
   commands stage the input vector, and fences eat into the rest);
2. the **software factor** — the vendor GEMV "not optimized to fully
   utilize the off-chip memory bandwidth" (Section VII-B), which we model
   as the calibrated efficiency in `Calibration.host_gemv_eff_base`.

This bench measures factor 1 cycle-accurately (both sides on the
functional simulator) and prints the implied software factor that closes
the gap to the paper's 11.2x.
"""

import numpy as np
import pytest

from repro.dram.bank import BankConfig
from repro.dram.device import DeviceConfig, HbmDevice
from repro.host.kernels import HostKernels
from repro.host.processor import HostSystem
from repro.perf.latency import Calibration
from repro.stack.kernels import GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig


def _measure(m, n):
    pim_sys = PimSystem(SystemConfig(num_pchs=1, num_rows=256, fence_penalty_cycles=22))
    kernel = GemvKernel(pim_sys, m, n)
    rng = np.random.default_rng(0)
    kernel.load_weights((rng.standard_normal((m, n)) * 0.1).astype(np.float16))
    _, pim_report = kernel((rng.standard_normal(n) * 0.1).astype(np.float16))

    host_sys = HostSystem(
        HbmDevice(DeviceConfig(num_pchs=1, bank_config=BankConfig(num_rows=256))),
        fence_penalty_cycles=0,
    )
    host = HostKernels(host_sys).gemv(m, n)
    return pim_report, host


def test_gemv_mechanism_decomposition(benchmark):
    pim_report, host = benchmark.pedantic(
        lambda: _measure(256, 256), rounds=1, iterations=1
    )
    arch_factor = host.cycles / pim_report.cycles
    software_factor = 11.2 / arch_factor
    implied_efficiency = 1.0 / software_factor
    print("\nGEMV speedup decomposition (256x256, one channel, simulated):")
    print(f"  ideal host        : {host.cycles} cycles "
          f"({host.bandwidth_fraction():.0%} of peak)")
    print(f"  PIM (fenced)      : {pim_report.cycles} cycles")
    print(f"  architecture factor: x{arch_factor:.2f}")
    print(f"  -> software factor needed for the paper's 11.2x: "
          f"x{software_factor:.1f} (host library at {implied_efficiency:.0%} "
          f"of ideal; calibration uses "
          f"{Calibration().host_gemv_eff_base:.1%} at M=1024)")
    benchmark.extra_info["arch_factor"] = round(arch_factor, 2)
    benchmark.extra_info["implied_host_efficiency"] = round(implied_efficiency, 3)
    # The architecture alone cannot give 11.2x — that is the whole point.
    assert arch_factor < 3.0
    assert implied_efficiency < 0.25


def test_add_mechanism_decomposition(benchmark):
    def measure():
        pim_sys = PimSystem(
            SystemConfig(num_pchs=1, num_rows=256, fence_penalty_cycles=22)
        )
        from repro.stack.kernels import ElementwiseKernel

        n = 64 * 1024
        rng = np.random.default_rng(1)
        a = rng.standard_normal(n).astype(np.float16)
        b = rng.standard_normal(n).astype(np.float16)
        _, pim_report = ElementwiseKernel(pim_sys, "add", n)(a, b)

        host_sys = HostSystem(
            HbmDevice(DeviceConfig(num_pchs=1, bank_config=BankConfig(num_rows=256))),
            fence_penalty_cycles=0,
        )
        host = HostKernels(host_sys).elementwise_add(n)
        return pim_report, host

    pim_report, host = benchmark.pedantic(measure, rounds=1, iterations=1)
    arch_factor = host.cycles / pim_report.cycles
    print(f"\nADD architecture factor (simulated, one channel): x{arch_factor:.2f}"
          f"  (upper bound x4; fences and turnarounds take their share;"
          f" paper end-to-end: 1.6x)")
    benchmark.extra_info["arch_factor"] = round(arch_factor, 2)
    assert 1.0 <= arch_factor <= 4.0
