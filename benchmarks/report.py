"""Render the full paper-vs-model comparison for every table and figure.

Run:  python benchmarks/report.py

EXPERIMENTS.md records a snapshot of this output; the pytest benches in
this directory assert the same numbers stay inside their bands.
"""

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from asciichart import bar_chart, time_series  # noqa: E402

from repro.apps.microbench import ADD_SIZES, GEMV_SIZES
from repro.apps.models import ALEXNET, ALL_APPS, DS2, GNMT
from repro.dse.variants import dse_speedups
from repro.perf.energy import DevicePowerModel, EnergyModel
from repro.perf.latency import PIM_HBM, PROC_HBM, Calibration, LatencyModel
from repro.perf.macunits import PAPER_TABLE1, TABLE1_SPECS, MacUnitModel
from repro.perf.specs import PimDeviceSpec, PimUnitSpec


def table1_values():
    """Table I's model columns: each format's (area, energy), normalised
    to INT16 with a 48-bit accumulator."""
    table = MacUnitModel().normalised_table()
    return {
        spec.name: (table[spec.name]["area"], table[spec.name]["energy"])
        for spec in TABLE1_SPECS
    }


def table1():
    print("## Table I — MAC units (20nm DRAM, normalised to INT16/48)")
    print(f"{'format':28s}{'area':>7s}{'paper':>7s}{'energy':>8s}{'paper':>7s}")
    for name, (area, energy) in table1_values().items():
        paper = PAPER_TABLE1[name]
        print(f"{name:28s}{area:7.2f}{paper['area']:7.2f}"
              f"{energy:8.2f}{paper['energy']:7.2f}")


def tables45():
    print("\n## Tables IV & V — derived specifications")
    for key, value in PimUnitSpec().as_table().items():
        print(f"  [IV] {key}: {value}")
    for key, value in PimDeviceSpec().as_table().items():
        print(f"  [V]  {key}: {value}")


def fig10_values():
    """Fig. 10: PIM-HBM's speedup over HBM at batch 1, 2 and 4, per
    microbenchmark and application."""
    host, pim = LatencyModel(PROC_HBM), LatencyModel(PIM_HBM)
    values = {}
    for g in GEMV_SIZES:
        values[g.name] = tuple(
            host.host_gemv(g.m, g.n, b).ns / pim.pim_gemv(g.m, g.n, b).ns for b in (1, 2, 4)
        )
    for a in ADD_SIZES:
        values[a.name] = tuple(
            host.host_stream(a.n, 3, b).ns / pim.pim_add(a.n, b).ns for b in (1, 2, 4)
        )
    for app in ALL_APPS:
        values[app.name] = tuple(
            host.app_time(app, b)["total"] / pim.app_time(app, b)["total"] for b in (1, 2, 4)
        )
    return values


def fig10():
    host, pim = LatencyModel(PROC_HBM), LatencyModel(PIM_HBM)
    print("\n## Fig. 10 — relative performance (PIM-HBM over HBM), B1/B2/B4")
    paper = {"GEMV1": "11.2/3.2/<1", "ADD1": "1.6/-/-", "DS2": "3.5/1.6/<1",
             "RNN-T": "-/1.9/-", "GNMT": "1.5/<1/<1", "AlexNet": "1.4/<1/<1",
             "ResNet-50": "1.0/1.0/1.0"}
    for name, r in fig10_values().items():
        print(f"  {name:10s} {r[0]:5.2f} {r[1]:5.2f} {r[2]:5.2f}"
              f"   (paper {paper.get(name, '-')})")
    print("\n  Fig. 10 batch-1 bars (| marks parity with HBM):")
    bars = {}
    for g in GEMV_SIZES[:1]:
        bars[g.name] = host.host_gemv(g.m, g.n).ns / pim.pim_gemv(g.m, g.n).ns
    for a in ADD_SIZES[:1]:
        bars[a.name] = host.host_stream(a.n, 3).ns / pim.pim_add(a.n).ns
    for app in ALL_APPS:
        bars[app.name] = (
            host.app_time(app)["total"] / pim.app_time(app)["total"]
        )
    for line in bar_chart(bars):
        print(line)
    cal = Calibration()
    print("  LLC miss rates:",
          {b: f"{cal.llc_miss_rate(b):.0%}" for b in (1, 2, 4)},
          "(paper ~100% -> 70-80%)")
    encoders = [l for l in GNMT.layers if getattr(l, "fused", False)]
    h = sum(host.layer_time(l, 1).ns for l in encoders)
    p = sum(pim.layer_time(l, 1).ns for l in encoders)
    print(f"  GNMT LSTM encoder speedup: {h / p:.2f} (paper 6.2)")
    free = pim.without_fences()
    print(f"  fence-free gain: GEMV1 x{pim.pim_gemv(1024, 4096).ns / free.pim_gemv(1024, 4096).ns:.2f},"
          f" ADD1 x{pim.pim_add(2**21).ns / free.pim_add(2**21).ns:.2f}"
          " over fenced PIM")


def fig11():
    dev = DevicePowerModel()
    print("\n## Fig. 11 — device power breakdown (HBM streaming == 1.0)")
    hbm, pim = dev.hbm_breakdown(), dev.pim_breakdown()
    for key in hbm:
        print(f"  {key:16s} HBM {hbm[key]:5.3f}   PIM-HBM {pim[key]:5.3f}")
    print(f"  total: PIM-HBM x{dev.pim_total:.3f} (paper x1.054); "
          f"energy/bit reduction {dev.energy_per_bit_reduction:.2f}x (paper 3.5x); "
          f"buffer-die gating saves {dev.gated_buffer_saving:.0%} (paper ~10%)")


def fig12_values():
    """Fig. 12: PIM-HBM's energy efficiency over PROC-HBM and over
    PROC-HBMx4, per workload."""
    hbm, pim = EnergyModel(PROC_HBM), EnergyModel(PIM_HBM)
    x4 = EnergyModel(PROC_HBM, bandwidth_scale=4.0)
    energies = {
        "GEMV1": [m.kernel_energy_j(m.gemv_phase(1024, 4096)) for m in (hbm, pim, x4)],
        "ADD1": [m.kernel_energy_j(m.add_phase(2**21)) for m in (hbm, pim, x4)],
    }
    for app in (DS2, GNMT, ALEXNET):
        energies[app.name] = [m.app_energy_j(app)[0] for m in (hbm, pim, x4)]
    return {name: (eh / ep, e4 / ep) for name, (eh, ep, e4) in energies.items()}


def fig12():
    print("\n## Fig. 12 — energy efficiency of PIM-HBM")
    paper = {"GEMV1": "8.25 / ~1x-of-HBM", "ADD1": "1.4 / -", "DS2": "3.2 / 2.8",
             "GNMT": "1.38 / 1.1", "AlexNet": "1.5 / 1.3"}
    for name, (vs_hbm, vs_x4) in fig12_values().items():
        print(f"  {name:8s} vs PROC-HBM {vs_hbm:5.2f}, vs PROC-HBMx4 {vs_x4:5.2f}"
              f"   (paper {paper[name]})")


def fig13():
    hbm, pim = EnergyModel(PROC_HBM), EnergyModel(PIM_HBM)
    eh, th = hbm.app_energy_j(DS2)
    ep, tp = pim.app_energy_j(DS2)
    print("\n## Fig. 13 — DS2 power over time")
    print(f"  PROC-HBM: {th / 1e6:6.1f} ms at avg {eh / (th * 1e-9):5.1f} W")
    print(f"  PIM-HBM : {tp / 1e6:6.1f} ms at avg {ep / (tp * 1e-9):5.1f} W")
    print("  (paper: shorter execution AND lower average power)")
    for label, model in (("PROC-HBM", hbm), ("PIM-HBM", pim)):
        print(f"\n  {label} trace:")
        samples = [(t / 1000.0, p) for t, p in model.power_trace(DS2, points=64)]
        for line in time_series(samples, x_label="ms"):
            print(line)


def fig14():
    results = dse_speedups()
    base = results["PIM-HBM"]
    print("\n## Fig. 14 — design-space exploration (gain over baseline PIM)")
    paper = {"PIM-HBM-2x": "+40%", "PIM-HBM-2BA": "+20%", "PIM-HBM-SRW": "+10%"}
    for name, row in results.items():
        if name == "PIM-HBM":
            continue
        gain = row["geomean"] / base["geomean"]
        gemv = row["GEMV1"] / base["GEMV1"]
        add = row["ADD1"] / base["ADD1"]
        print(f"  {name:14s} geomean x{gain:.2f} (paper ~{paper[name]}), "
              f"GEMV1 x{gemv:.2f}, ADD1 x{add:.2f}")


def observability():
    from repro.obs import render_timeline
    from repro.stack import PimContext, Request, ServerConfig, SystemConfig

    print("\n## Observability — traced serving session (span timeline)")
    config = SystemConfig(
        num_pchs=4, num_rows=256, simulate_pchs=1, trace=True
    )
    rng = np.random.default_rng(7)
    m, n, length = 64, 96, 256
    weights = (rng.standard_normal((m, n)) * 0.25).astype(np.float16)
    arrivals = np.cumsum(rng.exponential(2000.0, size=12))
    with PimContext(config) as ctx:
        with ctx.server(ServerConfig(lanes=2, max_batch=8, seed=7)) as srv:
            for i, arrival in enumerate(arrivals):
                if i % 3 == 2:
                    srv.submit(Request(
                        "add",
                        a=(rng.standard_normal(length) * 0.25).astype(np.float16),
                        b=(rng.standard_normal(length) * 0.25).astype(np.float16),
                        arrival_ns=float(arrival),
                    ))
                else:
                    srv.submit(Request(
                        "gemv", weights=weights,
                        a=(rng.standard_normal(n) * 0.25).astype(np.float16),
                        arrival_ns=float(arrival),
                    ))
            srv.run()
        for line in render_timeline(ctx.tracer, max_spans=24):
            print(line)
        serving = ctx.profiler.serving
        print(f"  requests {serving.num_requests}, "
              f"makespan {serving.makespan_ns / 1000.0:.1f}us, "
              f"retries {serving.retries}, fallbacks {serving.fallbacks}")


def main():
    table1()
    tables45()
    fig10()
    fig11()
    fig12()
    fig13()
    fig14()
    observability()


if __name__ == "__main__":
    main()
