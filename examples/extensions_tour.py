"""A tour of the Section VIII extensions, live on the simulator.

1. ECC: a GEMV survives injected bit flips (on-die SEC-DED);
2. refresh: JEDEC auto-refresh interleaves with a running PIM kernel;
3. multi-tenancy: two channels run different microkernels concurrently;
4. BFLOAT16 execution units: the Table I alternative, dynamic range live;
5. collaborative host+PIM GEMV at the batch crossover;
6. DRAM families: the same kernel on DDR4 / LPDDR4X / GDDR6 timing.

Run:  python examples/extensions_tour.py
"""

from dataclasses import replace

import numpy as np

from repro.common.fp16 import BF16, FP16, decode_format, encode_format
from repro.dram.bank import BankConfig
from repro.dram.ecc import EccBank
from repro.dram.timing import DRAM_FAMILIES, HBM2_1GHZ
from repro.stack import (
    CollaborativeGemv,
    GemvKernel,
    PimSystem,
    SystemConfig,
    gemv_reference,
)


def rand(shape, seed, scale=0.15):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def ecc_demo():
    print("== 1. On-die ECC protecting a live GEMV ==")
    system = PimSystem(SystemConfig(num_pchs=1, num_rows=128, ecc=True))
    w, x = rand((128, 64), 0), rand(64, 1)
    kernel = GemvKernel(system, 128, 64)
    kernel.load_weights(w)
    for bank_index in (0, 2, 4):
        system.device.pch(0).banks[bank_index].inject_error(
            kernel.plan.weight_base_row, 0, bit=7 + bank_index
        )
    y, _ = kernel(x)
    corrected = sum(
        b.ecc_stats.corrected
        for b in system.device.pch(0).banks
        if isinstance(b, EccBank)
    )
    ok = np.array_equal(y, gemv_reference(w, x, num_pchs=1))
    print(f"   injected 3 single-bit faults -> corrected {corrected}, "
          f"result bit-exact: {ok}\n")


def refresh_demo():
    print("== 2. Auto-refresh during a PIM kernel ==")
    timing = replace(HBM2_1GHZ, trefi=400, trfc=120)
    system = PimSystem(
        SystemConfig(num_pchs=1, num_rows=128, refresh=True, timing=timing)
    )
    w, x = rand((128, 128), 2), rand(128, 3)
    kernel = GemvKernel(system, 128, 128)
    kernel.load_weights(w)
    y, report = kernel(x)
    ok = np.array_equal(y, gemv_reference(w, x, num_pchs=1))
    print(f"   {system.controllers[0].refresh_count} refreshes interleaved, "
          f"{report.cycles} cycles, bit-exact: {ok}\n")


def bf16_demo():
    print("== 3. BFLOAT16 execution units (Table I alternative) ==")
    from repro.dram.bank import Bank
    from repro.pim.assembler import assemble_words
    from repro.pim.exec_unit import ColumnTrigger, PimExecutionUnit

    big = 100000.0  # beyond FP16's 65504
    for fmt in (FP16, BF16):
        cfg = BankConfig(num_rows=8)
        unit = PimExecutionUnit(0, Bank(cfg, HBM2_1GHZ), Bank(cfg, HBM2_1GHZ),
                                lane_format=fmt)
        unit.regs.grf_a[0] = encode_format(fmt, np.full(16, big))
        unit.regs.grf_b[0] = encode_format(fmt, np.full(16, 1.0))
        for i, word in enumerate(assemble_words("MUL GRF_A[1], GRF_A[0], GRF_B[0]\nEXIT")):
            unit.regs.crf[i] = word
        unit.start()
        unit.trigger(ColumnTrigger(is_write=False, row=0, col=0))
        out = decode_format(fmt, unit.regs.grf_a[1])[0]
        print(f"   {fmt.name:9s}: {big} * 1.0 = {out}")
    print("   (FP16 overflows to inf; BF16's FP32-sized exponent survives)\n")


def collaborative_demo():
    print("== 4. Collaborative host+PIM GEMV at the batch crossover ==")
    sweep = CollaborativeGemv.sweep_split(8192, 4096, batch=3, points=9)
    best = min(sweep, key=sweep.get)
    print(f"   batch 3, 8192x4096: pure host {sweep[0] / 1000:.0f} us, "
          f"pure PIM {sweep[8192] / 1000:.0f} us, "
          f"optimal split ({best} rows on PIM) {sweep[best] / 1000:.0f} us\n")


def families_demo():
    print("== 5. The same microkernel on every JEDEC DRAM family ==")
    for name, timing in DRAM_FAMILIES.items():
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128, timing=timing))
        w, x = rand((128, 64), 4), rand(64, 5)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        y, report = kernel(x)
        ok = np.array_equal(y, gemv_reference(w, x, num_pchs=1))
        print(f"   {name:14s}: AB-factor x{timing.ab_bandwidth_factor:.0f}, "
              f"{report.cycles} cycles, bit-exact: {ok}")


def main():
    ecc_demo()
    refresh_demo()
    bf16_demo()
    collaborative_demo()
    families_demo()


if __name__ == "__main__":
    main()
