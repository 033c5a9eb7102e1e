"""Table VI microbenchmarks on the cycle-level functional simulator.

Runs GEMV1 (1k x 4k, full size) and a scaled ADD through the complete
device simulation — standard DRAM commands, FR-FCFS controller, PIM
triggering — with one cycle-accurately simulated pseudo-channel (all
channels execute identical streams).  Verifies bit-exact numerics against
the reference model and reports the achieved command cadence.

The larger Table VI points (GEMV4, ADD4) are covered by the analytic model
benches (Fig. 10); this bench is the ground truth that model is validated
against in tests/perf/test_latency.py.
"""

import numpy as np
import pytest

from repro.stack.blas import PimBlas, add_reference, gemv_reference
from repro.stack.runtime import PimSystem, SystemConfig


@pytest.fixture(scope="module")
def system():
    return PimSystem(SystemConfig(num_pchs=16, num_rows=256))


def test_gemv1_simulated(benchmark, system):
    """GEMV1: 1024 x 4096, the paper's headline 11.2x point."""
    rng = np.random.default_rng(0)
    w = (rng.standard_normal((1024, 4096)) * 0.05).astype(np.float16)
    x = (rng.standard_normal(4096) * 0.05).astype(np.float16)
    blas = PimBlas(system, simulate_pchs=1)
    operator = system.executor.gemv_operator(w)

    def run():
        return operator(x, simulate_pchs=1)

    y, report = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert np.array_equal(y, gemv_reference(w, x, num_pchs=16))
    cadence = report.cycles / (report.column_commands / report.simulated_pchs)
    print(f"\nGEMV1 simulated: {report.cycles} cycles/pCH, "
          f"{report.column_commands // report.simulated_pchs} columns/pCH, "
          f"{cadence:.1f} cycles/column")
    benchmark.extra_info["cycles_per_pch"] = report.cycles
    benchmark.extra_info["cycles_per_column"] = round(cadence, 2)
    # Fenced AB-PIM streams run well above the tCCD_L floor of 4.
    assert 4.0 <= cadence <= 16.0


def test_add_scaled_simulated(benchmark, system):
    """ADD at 1/4 of ADD1 (the stream is homogeneous, so cadence holds)."""
    n = 512 * 1024
    rng = np.random.default_rng(1)
    a = (rng.standard_normal(n)).astype(np.float16)
    b = (rng.standard_normal(n)).astype(np.float16)
    kernel = system.executor.elementwise_operator("add", n)

    def run():
        return kernel(a, b, simulate_pchs=1)

    out, report = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    assert np.array_equal(out, add_reference(a, b))
    cadence = report.cycles / (report.column_commands / report.simulated_pchs)
    print(f"\nADD simulated: {report.cycles} cycles/pCH, "
          f"{cadence:.1f} cycles/column")
    benchmark.extra_info["cycles_per_column"] = round(cadence, 2)


def test_bn_scaled_simulated(benchmark, system):
    n = 256 * 1024
    rng = np.random.default_rng(2)
    a = (rng.standard_normal(n)).astype(np.float16)
    kernel = system.executor.elementwise_operator("bn", n)

    def run():
        return kernel(a, scalars=(1.5, -0.5), simulate_pchs=1)

    out, report = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    expected = ((a * np.float16(1.5)).astype(np.float16) + np.float16(-0.5)).astype(np.float16)
    assert np.array_equal(out, expected)
    # BN has no FILL phase: fewer commands per element than ADD.
    benchmark.extra_info["columns"] = report.column_commands
