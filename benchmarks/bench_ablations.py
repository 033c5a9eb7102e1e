"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper, but sweeps over the decisions the paper makes
implicitly: fence interval (the AAM window), the tCCD_L lock-step cadence,
the number of PIM units per pseudo-channel, and the MRS-free mode switch.
"""

from dataclasses import replace

import numpy as np

from repro.perf.latency import PIM_HBM, Calibration, LatencyModel
from repro.stack.runtime import PimSystem, SystemConfig
from repro.stack.kernels import GemvKernel


def test_ablation_fence_cost_sweep(benchmark):
    """GEMV1 time vs fence cost: the mechanism behind the fence study."""

    def sweep():
        times = {}
        for fence in (0, 11, 22, 44, 88):
            model = LatencyModel(
                replace(PIM_HBM, cal=replace(Calibration(), fence_cycles=fence))
            )
            times[fence] = model.pim_gemv(1024, 4096).ns
        return times

    times = benchmark(sweep)
    print("\nAblation: GEMV1 PIM time vs fence cost (cycles -> us)")
    for fence, ns in times.items():
        print(f"  fence={fence:3d}: {ns / 1000:8.1f} us")
    values = list(times.values())
    assert values == sorted(values)  # monotonic in fence cost
    assert values[-1] > 1.5 * values[0]


def test_ablation_tccd_lockstep_cadence(benchmark):
    """AB-mode compute bandwidth scales with tCCD_S/tCCD_L (Section III-B):
    halving the lock-step cadence halves the x8 bank factor to x4."""

    def sweep():
        out = {}
        for tccd_l in (2, 4, 8):
            model = LatencyModel(replace(PIM_HBM, tccd_l=tccd_l))
            out[tccd_l] = (
                model.sys.onchip_bw / model.sys.offchip_bw,
                model.pim_gemv(1024, 4096).ns,
            )
        return out

    table = benchmark(sweep)
    print("\nAblation: tCCD_L vs on-chip/off-chip bandwidth ratio")
    for tccd_l, (ratio, ns) in table.items():
        print(f"  tCCD_L={tccd_l}: ratio x{ratio:.0f}, GEMV1 {ns / 1000:.1f} us")
    assert table[2][0] == 8.0
    assert table[4][0] == 4.0  # the product configuration (Table V)
    assert table[8][0] == 2.0


def test_ablation_fp16_vs_int8_device(benchmark):
    """Table I ablation: what an INT8 device would have saved."""
    from repro.perf.macunits import MacUnitModel, MacUnitSpec, TABLE1_SPECS

    def compare():
        model = MacUnitModel()
        by_name = {s.name: s for s in TABLE1_SPECS}
        fp16 = model.area(by_name["FP16"])
        int8 = model.area(by_name["INT8 (w/ 32-bit Acc.)"])
        return fp16 / int8

    ratio = benchmark(compare)
    print(f"\nFP16 unit is {ratio:.1f}x the area of INT8/32 "
          "(the cost of dynamic range + legacy FP16 software)")
    assert ratio > 2.5


def test_ablation_mode_switch_overhead(benchmark):
    """The MRS-free transition costs only an ACT+PRE pair per channel —
    the paper's argument against privileged mode-register writes."""

    def measure():
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=64))
        mc = system.controller(0)
        mm = system.device.pch(0).memory_map
        start = mc.current_cycle
        mc.precharge_all()
        mc.closed_page_access(0, 0, mm.abmr_row)
        entered = mc.current_cycle - start
        return entered

    cycles = benchmark.pedantic(measure, rounds=3, iterations=1)
    print(f"\nSB->AB transition: {cycles} cycles (~{cycles:.0f} ns at 1 GHz); "
          "an MRS via a kernel call would cost microseconds")
    assert cycles < 200


def test_ablation_aam_window_equals_grf_depth(benchmark):
    """Functional check that the fence interval is tied to the 8-entry GRF:
    fencing every 8 commands is sufficient for correctness under FR-FCFS."""

    def run():
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        rng = np.random.default_rng(0)
        w = (rng.standard_normal((128, 64)) * 0.2).astype(np.float16)
        x = (rng.standard_normal(64) * 0.2).astype(np.float16)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        y, _ = kernel(x)
        return y, w, x

    y, w, x = benchmark.pedantic(run, rounds=1, iterations=1)
    from repro.stack.blas import gemv_reference

    assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))
