"""Design-space exploration: PIM-HBM-2x, -2BA and -SRW (Fig. 14).

The paper evaluates three enhanced PIM microarchitectures that could not be
built in silicon, using a modified DRAMSim2; it stresses the results are
*theoretical upper bounds* that are close to reality only for very
memory-bound kernels.  Each variant is stated as what it does to a kernel's
command program (:mod:`repro.pim.stream`); the trace generators
(``tracesim``) and the analytic model below read the rewritten program:

* **2x** — twice the PIM resources: one execution unit per bank (16/pCH)
  and doubled register files.  Every data command feeds twice the lanes, so
  a GEMV has half the tiles and a group twice the elements (fences halve
  with them: the AAM window covers twice the work).  Cost: +24% die area.
* **2BA** — one instruction reads EVEN_BANK and ODD_BANK together.  ADD/MUL
  lose their FILL run (24 -> 16 commands per group); GEMV and BN are
  unchanged.  Cost: +60% device power (paper).
* **SRW** — a simultaneous column RD + WR: the MAC can take one operand
  from the write datapath and one from the bank, removing GEMV's staging
  WR run and its fence (16 -> 8 commands per chunk, one fence); elementwise
  kernels can overlap the MOV write-out with the next group's reads.

Fixed costs (setup, mode transitions, row switches, readback, launches) do
not scale, which is what keeps measured gains below the raw 2x bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict

from ..apps.microbench import ADD_SIZES, BN_SIZES, GEMV_SIZES
from ..common.units import geomean
from ..perf.latency import PIM_HBM, PROC_HBM, LatencyModel, SystemPerf
from ..pim.stream import Program

__all__ = ["PimVariant", "VARIANTS", "VariantLatencyModel", "dse_speedups"]


def _drop_staging(program: Program) -> Program:
    """SRW: the x chunk rides on the MAC's own column command, so the WR
    runs that staged it (and their fences) are gone."""
    return tuple(run for run in program if not (run.write and run.operand >= 0))


def _drop_fill(program: Program) -> Program:
    """2BA: an RD run followed by an RD run of the same columns is the
    FILL ahead of a two-operand op; reading both banks at once needs only
    the second."""
    return tuple(
        run
        for run, after in zip(program, program[1:] + (None,))
        if run.write or after is None or after[:3] != run[:3]  # (write, row, col)
    )


@dataclass(frozen=True)
class PimVariant:
    """What one PIM microarchitecture variant does to a command program."""

    name: str
    # The program a kernel's baseline program becomes on this device
    # (``tuple``: the same one).
    rewrite: Callable[[Program], Program] = tuple
    # Work per data command relative to the baseline (2x doubles it).
    lanes_scale: int = 1
    # Elementwise bus-turnaround padding (2BA's single read phase halves it).
    turnaround_cycles: int = 20
    # Reported implementation costs (paper, Section VII-D).
    die_area_increase: float = 0.0
    power_increase: float = 0.0


VARIANTS: Dict[str, PimVariant] = {
    "PIM-HBM": PimVariant("PIM-HBM"),
    "PIM-HBM-2x": PimVariant(
        "PIM-HBM-2x",
        lanes_scale=2,
        die_area_increase=0.24,
    ),
    "PIM-HBM-2BA": PimVariant(
        "PIM-HBM-2BA",
        rewrite=_drop_fill,
        turnaround_cycles=10,
        power_increase=0.60,
    ),
    "PIM-HBM-SRW": PimVariant(
        "PIM-HBM-SRW",
        rewrite=_drop_staging,
        # AAM ordering still forces the fence cadence in the elementwise
        # kernels, so SRW's benefit is confined to GEMV's staging writes.
    ),
}


class VariantLatencyModel(LatencyModel):
    """The PIM latency model pricing a variant's rewritten programs."""

    def __init__(self, system: SystemPerf, variant: PimVariant):
        cal = replace(system.cal, turnaround_cycles=variant.turnaround_cycles)
        super().__init__(replace(system, cal=cal), variant.lanes_scale, variant.rewrite)


def dse_speedups(
    host_system: SystemPerf = PROC_HBM, pim_system: SystemPerf = PIM_HBM
) -> Dict[str, Dict[str, float]]:
    """Speedup of every variant over the HBM host, per microbenchmark.

    Returns ``{variant: {benchmark: speedup, ..., "geomean": g}}`` — the
    Fig. 14 data.
    """
    host = LatencyModel(host_system)
    results: Dict[str, Dict[str, float]] = {}
    for name, variant in VARIANTS.items():
        model = VariantLatencyModel(pim_system, variant)
        row: Dict[str, float] = {}
        for g in GEMV_SIZES:
            row[g.name] = host.host_gemv(g.m, g.n).ns / model.pim_gemv(g.m, g.n).ns
        for a in ADD_SIZES:
            row[a.name] = host.host_stream(a.n, 3).ns / model.pim_add(a.n).ns
        for b in BN_SIZES:
            row[b.name] = host.host_stream(b.n, 2).ns / model.pim_bn(b.n).ns
        row["geomean"] = geomean(v for k, v in row.items())
        results[name] = row
    return results
