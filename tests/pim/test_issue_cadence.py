"""Hazard-free issue at tCCD_L on the running system (Section IV-B).

The execution units apply each trigger atomically, so the 5-stage
pipeline is not modelled stage by stage; what the architecture rests on
is that the memory controller may treat PIM execution as ordinary column
commands: every all-bank PIM trigger issues at the same-bank-group
cadence tCCD_L and never sooner, with deterministic latency.  Here two
GEMV shapes and every elementwise operator run through the production
stack three times — cold, then warm, when each launch is a remembered
frame — and ``trace_channel`` records the bus.  With ``exec_mode="scalar"`` the
device serves every column burst command by command, so the bus shows
each trigger at its own cycle: consecutive triggers are never closer
than tCCD_L, and a burst's are exactly tCCD_L apart.  The default
executor takes a burst, and a frame, as one record; expanded at tCCD_L,
its triggers fall on exactly the cycles the scalar run issued them at.

With no fence penalty the bursts of a launch follow one another as
closely as the all-bank column bound lets them.  The test fails when the
device spaces a burst's columns at tCCD_S (``PseudoChannel._issue_each``,
``PimPseudoChannel._issue_burst``), when a frame records them so
(``PseudoChannel._singles``), or when
``PimPseudoChannel._all_bank_col_bound`` lets the next all-bank column
follow at tCCD_S.  Every kernel addresses its all-bank programs to bank
group 0, so the bus rule for one bank group binds as well: the bound's
own tCCD_L term alone is checked across bank groups, by
``tests/pim/test_device.py::TestAllBankBroadcast::test_ab_column_cadence_is_tccd_l``.

The same launches check two claims the bus trace settles as well: an
invocation's ``column_commands`` are the AB-PIM columns its bus carried to
data rows, and latency is deterministic — a fresh system repeats every
launch cycle for cycle, and a warm launch takes the cycles of the last.
"""

import numpy as np
import pytest

from repro.dram.commands import CommandType
from repro.dram.timing import HBM2_1GHZ
from repro.pim.modes import PimMemoryMap, PimMode
from repro.stack.kernels import ElementwiseKernel, GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig
from repro.tools import trace_channel


def rand(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * 0.1).astype(np.float16)


def bus(trace, tccd_l, mode=None):
    """``(cycle, kind, row, col)`` of each command on the bus (in ``mode``
    only, if given), bursts expanded to their commands ``tccd_l`` apart."""
    return [
        (record.cycle + i * tccd_l, record.cmd_type, record.row, record.col + i)
        for record in trace.records
        if mode is None or record.mode == mode
        for i in range(record.count)
    ]


def ab_pim_columns(trace, tccd_l):
    """The AB-PIM triggers of :func:`bus`: its RD / WR in AB-PIM mode."""
    return [
        command for command in bus(trace, tccd_l, PimMode.AB_PIM.value)
        if command[1] in (CommandType.RD, CommandType.WR)
    ]


def gemv(m, n):
    def launch(system):
        kernel = GemvKernel(system, m, n)
        kernel.load_weights(rand((m, n), 0))
        return lambda seed: kernel(rand(n, seed))
    return launch


def elementwise(op, length=4096):
    def launch(system):
        kernel = ElementwiseKernel(system, op, length)
        if op in ("add", "mul"):
            return lambda seed: kernel(rand(length, seed), rand(length, seed + 1))
        return lambda seed: kernel(rand(length, seed), scalars=(1.5, 0.25))
    return launch


# A GEMV of one weight row per tile and one of four (n = 512), and every
# elementwise operator: its own program of RD, WR and fence groups.
LAUNCHES = {
    "gemv-256x128": gemv(256, 128),
    "gemv-128x512": gemv(128, 512),
    **{op: elementwise(op) for op in ("add", "mul", "relu", "bn")},
}


def traced_launches(launch, exec_mode, fence_penalty=None):
    """Three launches on a fresh one-channel system: each one's bus
    trace, its report and whether it took a remembered frame."""
    system = PimSystem(SystemConfig(
        num_pchs=1, num_rows=256, exec_mode=exec_mode,
        fence_penalty_cycles=fence_penalty,
    ))
    run = LAUNCHES[launch](system)
    out = []
    for seed in range(1, 4):
        taken = system.frames.stats.taken
        with trace_channel(system.device.pch(0)) as trace:
            _, report = run(seed)
        out.append((trace, report, system.frames.stats.taken > taken))
    return out


@pytest.mark.parametrize("fence_penalty", [None, 0])
@pytest.mark.parametrize("launch", LAUNCHES)
def test_cold_and_warm_launches_issue_at_tccd_l(launch, fence_penalty):
    tccd_l = HBM2_1GHZ.tccd_l  # SystemConfig's timing
    assert HBM2_1GHZ.tccd_s < tccd_l
    oracle = traced_launches(launch, "scalar", fence_penalty)
    production = traced_launches(launch, None, fence_penalty)
    assert [warm for *_, warm in production] == [False, True, True]
    for (singles, *_), (trace, _, warm) in zip(oracle, production):
        assert all(record.count == 1 for record in singles.records)
        issued = ab_pim_columns(singles, tccd_l)
        assert len(issued) >= 64
        gaps = np.diff([cycle for cycle, *_ in issued])
        assert gaps.min() == tccd_l
        # Each fenced 8-column group goes back to back: 7 gaps in 8.
        assert (gaps == tccd_l).sum() >= 7 * len(issued) // 8 - 1
        assert bus(trace, tccd_l) == bus(singles, tccd_l), warm


@pytest.mark.parametrize("launch", LAUNCHES)
def test_a_report_counts_the_triggers_its_bus_carried(launch):
    """An invocation's ``column_commands`` are the AB-PIM columns the
    channel was sent to data rows — cold, and warm when a frame stands for
    them; the rest go to the register rows (the mode exit's
    ``PIM_OP_MODE`` write)."""
    registers = PimMemoryMap(num_rows=256)
    mode_write = (CommandType.WR, registers.conf_row, registers.PIM_OP_MODE_COL)
    for trace, report, warm in traced_launches(launch, None):
        columns = ab_pim_columns(trace, HBM2_1GHZ.tccd_l)
        triggers = [c for c in columns if not registers.is_reserved(c[2])]
        assert report.column_commands == len(triggers), warm
        assert report.pim_instructions == 8 * len(triggers)
        rest = {tuple(c[1:]) for c in columns if registers.is_reserved(c[2])}
        assert rest == {mode_write}


@pytest.mark.parametrize("launch", LAUNCHES)
def test_a_launch_takes_the_same_cycles_every_time(launch):
    """Deterministic latency: a fresh system runs the same launches in the
    same cycles on the same bus, and a warm launch repeats the last."""
    first = traced_launches(launch, None)
    again = traced_launches(launch, None)
    assert [r.cycles for _, r, _ in first] == [r.cycles for _, r, _ in again]
    assert [t.records for t, *_ in first] == [t.records for t, *_ in again]
    (_, cold, _), (_, warm, _), (_, warmer, _) = first
    assert warm.cycles == warmer.cycles
    assert cold.cycles >= warm.cycles
