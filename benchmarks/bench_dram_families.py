"""Cross-family study: bank-level PIM on DDR4 / LPDDR4 / GDDR6 / HBM2.

Section III claims the architecture "is applicable to any standard DRAM
such as DDR, LPDDR, and GDDR DRAM with a few changes."  This bench runs the
same GEMV microkernel stream on the functional simulator configured with
each family's timing and reports the AB-mode compute-bandwidth factor and
the measured per-channel kernel cycles — quantifying what the claim is
worth on each substrate (LPDDR4's single tCCD makes AB mode relatively the
most profitable; DDR4's long tCCD_L the least per-channel).
"""

import numpy as np
import pytest

from repro.dram.timing import DRAM_FAMILIES
from repro.stack.blas import gemv_reference
from repro.stack.kernels import GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig


def _run_family(timing):
    system = PimSystem(SystemConfig(num_pchs=1, num_rows=128, timing=timing))
    rng = np.random.default_rng(0)
    w = (rng.standard_normal((128, 128)) * 0.1).astype(np.float16)
    x = (rng.standard_normal(128) * 0.1).astype(np.float16)
    kernel = GemvKernel(system, 128, 128)
    kernel.load_weights(w)
    y, report = kernel(x)
    assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))
    return report


def test_dram_family_study(benchmark):
    def sweep():
        return {name: _run_family(t) for name, t in DRAM_FAMILIES.items()}

    reports = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\nBank-level PIM across DRAM families (128x128 GEMV, 1 channel)")
    print(f"  {'family':14s} {'AB factor':>9s} {'cycles':>8s} {'time us':>8s}")
    for name, report in reports.items():
        timing = DRAM_FAMILIES[name]
        us = report.cycles * timing.tck_ns / 1000
        print(f"  {name:14s} {timing.ab_bandwidth_factor:9.1f} "
              f"{report.cycles:8d} {us:8.1f}")
        benchmark.extra_info[name] = report.cycles
    # Every family executes the identical microkernel bit-exactly; the
    # AB-mode gain ranges x4 (bank groups) to x8 (LPDDR4, single tCCD).
    assert DRAM_FAMILIES["LPDDR4X-4266"].ab_bandwidth_factor == 8.0
    assert DRAM_FAMILIES["HBM2"].ab_bandwidth_factor == 4.0


def test_family_timing_sanity(benchmark):
    def check():
        rows = {}
        for name, t in DRAM_FAMILIES.items():
            rows[name] = (t.trcd * t.tck_ns, t.trc * t.tck_ns)
        return rows

    rows = benchmark(check)
    for name, (trcd_ns, trc_ns) in rows.items():
        # Core DRAM timings are technology-bound: ~12-20 ns tRCD, ~40-65 tRC.
        assert 10 <= trcd_ns <= 20, name
        assert 38 <= trc_ns <= 66, name
