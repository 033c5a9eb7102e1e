"""A GEMV launch is one program per simulated channel.

``GemvKernel.batched`` hands each simulated channel's controller one
program per launch (``GemvPlan.launch``): between its mode transitions
and after its CRF load, the tile program of every (batch slot, slice on
that channel, tile) in the order a drain per tile program took them,
joined at *seams*.  A seam is a fence epoch boundary the controller
crosses as it crosses from one drain to the next — with no fence
penalty, and with the busy cycles of the program before it counted — so
the launch must simulate exactly as those drains did.  Here the
reference is kept: :func:`per_tile_launches` puts the drain per (slot,
slice, tile) back, in its channel-interleaved order, between transitions
issued command by command and behind queued CRF loads
(:mod:`tests.stack.sb_to_sb_reference`), and every case runs on twin
systems, one per path.

Equal here: results, report cycles, and each controller's busy cycles,
fence count, row hits and misses, command counts, clocks, epochs and
open-row shadow, every bank's state and bounds, and every unit's
registers, sequencer state and stats — cold (the command path) and warm
(a launch taken as a channel frame) alike.  A channel that fails mid-launch
is retried as the tile drains retried it.  A launch of more than 16
windows is still taken down as one frame: the exec group logs every
window key since the recording drain began.
"""

import numpy as np
import pytest

from repro.dram.controller import CheckedProgram, MemoryController, SchedulerPolicy
from repro.pim.device import PimPseudoChannel
from repro.stack import PimSystem, Request, ServerConfig, SystemConfig
from repro.stack.blas import gemv_reference
from repro.stack.kernels import GemvKernel
from repro.stack.server import PimServer, RequestOutcome

from .sb_to_sb_reference import session_launches, tile_stream


def rand(shape, seed):
    return (np.random.default_rng(seed).standard_normal(shape) * 0.25).astype(np.float16)


def per_tile_launches(monkeypatch):
    """Make every GEMV launch drain per tile program (the reference)."""
    session_launches(monkeypatch, tile_stream)


def state(system):
    """Everything of each channel a launch moves."""
    out = []
    for mc in system.controllers:
        channel = mc.channel
        out.append((
            mc.busy_cycles, mc.fence_count, mc.row_hits, mc.row_misses, mc.refresh_count,
            mc._cycle, mc._next_ca, mc._epoch, tuple(mc._open_rows),
            dict(channel.cmd_counts), channel.pim_triggered_columns,
            [(b.state, b.open_row, b.next_act, b.next_pre, b.next_rd, b.next_wr)
             for b in channel.banks],
            [(u.regs.grf_a.tobytes(), u.regs.grf_b.tobytes(), u.sequencer_state(),
              vars(u.stats)) for u in channel.units],
        ))
    return out


def launches(config, shape, batch, max_batch, channels=None, simulate_pchs=None, calls=3):
    """Results, report counters and channel state after each of ``calls``
    launches of one resident GEMV on a fresh system."""
    system = PimSystem(config)
    m, n = shape
    kernel = GemvKernel(system, m, n, channels=channels, max_batch=max_batch)
    kernel.load_weights(rand(shape, 1))
    seen = []
    for call in range(calls):
        ys, report = kernel.batched(rand((batch, n), 10 + call), simulate_pchs)
        seen.append((
            ys.tobytes(), report.cycles, report.ns, report.fences,
            report.column_commands, state(system),
        ))
    return seen


BASE = SystemConfig(num_pchs=4, num_rows=256)
CONFIGS = {
    "frfcfs": BASE,
    "frfcfs-no-penalty": BASE.replace(fence_penalty_cycles=0),
    "fcfs": BASE.replace(policy=SchedulerPolicy.FCFS),
    "fcfs-no-penalty": BASE.replace(policy=SchedulerPolicy.FCFS, fence_penalty_cycles=0),
    "shuffle": BASE.replace(policy=SchedulerPolicy.SHUFFLE, scheduler_seed=5),
    "shuffle-no-penalty": BASE.replace(
        policy=SchedulerPolicy.SHUFFLE, scheduler_seed=5, fence_penalty_cycles=0
    ),
    "refresh": BASE.replace(refresh=True),
    "scalar": BASE.replace(exec_mode="scalar"),
}
LAYOUTS = {
    # (shape, batch, max_batch, channels, simulate_pchs)
    "all-channels": ((200, 96), 5, 3, None, None),
    "lane-1,3": ((256, 200), 4, 2, (1, 3), None),
    "one-simulated": ((256, 200), 4, 4, None, 1),
}


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("config", CONFIGS)
def test_a_launch_simulates_as_its_tile_programs_drained_one_by_one(
    config, layout, monkeypatch
):
    shape, batch, max_batch, channels, simulate_pchs = LAYOUTS[layout]
    args = (CONFIGS[config], shape, batch, max_batch, channels, simulate_pchs)
    launched = launches(*args)
    with monkeypatch.context() as patch:
        per_tile_launches(patch)
        assert launches(*args) == launched


@pytest.mark.parametrize("batch", range(1, 9))
def test_every_group_size_simulates_as_its_tile_programs(batch, monkeypatch):
    """Group sizes 1 to 8 of one launch on a two-channel lane, refresh on."""
    args = (BASE.replace(refresh=True), (300, 256), batch, 8, (0, 2), None, 2)
    launched = launches(*args)
    with monkeypatch.context() as patch:
        per_tile_launches(patch)
        assert launches(*args) == launched


def test_a_launch_is_one_drain_per_simulated_channel(monkeypatch):
    """No GEMV tile program is drained on its own: a launch of 3 inputs
    over 2 passes and 2 tiles is one fenced program per channel, with its
    two mode transitions and its CRF load."""
    drained = []
    drain = MemoryController.drain

    def counted_drain(self, program=(), blocks=()):
        if any(run.fence for run in program):
            drained.append((self, len(program)))
        return drain(self, program, blocks)

    monkeypatch.setattr(MemoryController, "drain", counted_drain)
    system = PimSystem(BASE)
    kernel = GemvKernel(system, 200, 96, channels=(1, 2), max_batch=3)
    kernel.load_weights(rand((200, 96), 1))
    kernel.batched(rand((3, 96), 2))
    plan = kernel.plan
    assert (plan.passes, plan.tiles) == (2, 2)
    tile = len(plan.program(0))
    assert sorted(runs for _, runs in drained) == [3 * 2 * 2 * tile + 3] * 2
    assert {mc for mc, _ in drained} == {system.controller(1), system.controller(2)}


def test_a_seam_costs_no_fence_penalty():
    """The launch program with its seams taken out pays the fence penalty
    at each of them, where the drains it stands for paid none: the seam
    rule is what keeps the cycles."""
    busy = []
    for seams in (True, False):
        system = PimSystem(BASE)
        kernel = GemvKernel(system, 200, 96, channels=(0,), max_batch=2)
        kernel.load_weights(rand((200, 96), 1))
        plan = kernel.plan
        if not seams:
            program = plan.launch(plan.passes, 2, 4)
            plan._programs[("launch", plan.passes, 2, 4)] = CheckedProgram(
                (run._replace(seam=False) for run in program),
                keyed_rows=(plan.registers.crf_row,),
            )
        kernel.batched(rand((2, 96), 2))
        busy.append(system.controller(0).busy_cycles)
    assert system.controller(0).fence_penalty > 0
    assert busy[1] > busy[0]


# -- a channel failing mid-launch -------------------------------------------------


def serve_with_a_failure(after, simulate_pchs=1):
    """Six GEMV requests through a two-lane server; the first lane's first
    channel fails at its ``after``-th column command.  Returns results,
    per-request (retries, turnaround), every controller's busy cycles and
    the quarantined channels."""
    system = PimSystem(BASE.replace(simulate_pchs=simulate_pchs))
    failing = system.device.pch(0)
    issue = PimPseudoChannel.issue
    columns = [0]

    def failing_issue(self, cmd, cycle):
        if self is failing and cmd.cmd.is_column:
            columns[0] += cmd.count
            if columns[0] >= after and not self.banks[0].is_failed:
                for bank in self.banks:
                    bank.fail(0)
        return issue(self, cmd, cycle)

    w = rand((300, 200), 1)
    server = PimServer(system, ServerConfig(lanes=2, max_batch=4))
    try:
        PimPseudoChannel.issue = failing_issue
        handles = [server.submit(Request("gemv", weights=w, a=rand(200, 10 + i))) for i in range(6)]
        profile = server.run()
    finally:
        PimPseudoChannel.issue = issue
        server.close()
    assert all(h.outcome is RequestOutcome.COMPLETED for h in handles)
    return (
        [h.result.tobytes() for h in handles],
        [(r.retries, r.finish_ns - r.arrival_ns) for r in profile.requests],
        [mc.busy_cycles for mc in system.controllers],
        profile.quarantined_channels,
    )


@pytest.mark.parametrize("after", [700, 2500])
def test_a_channel_failing_mid_launch_retries_as_the_tile_drains_did(after, monkeypatch):
    """The first launch (four inputs) fails part way through its program;
    the lane is healed and the batch retried.  ``drain`` adds busy cycles
    when it returns, so what the failed launch's finished tile programs
    took is counted at their seams, as their own drains counted it."""
    launched = serve_with_a_failure(after)
    assert launched[3] == [0] and max(retries for retries, _ in launched[1]) == 1
    with monkeypatch.context() as patch:
        per_tile_launches(patch)
        assert serve_with_a_failure(after) == launched


# -- a frame of many windows --------------------------------------------------------


def test_a_launch_of_more_than_sixteen_windows_is_one_frame(monkeypatch):
    """512 x 1024 weights on a two-channel lane, eight inputs a launch:
    each channel's launch closes 64 windows, and after a warm-up launch
    it is one channel frame."""
    frames = []
    apply_frame = MemoryController._apply_frame

    def counted_apply_frame(self, schedule, out, blocks=()):
        program = schedule.frame.program
        windows = 0 if program is None else sum(e[0] == "window" for e in program.events)
        frames.append((apply_frame(self, schedule, out, blocks), windows))
        return frames[-1][0]

    system = PimSystem(BASE)
    kernel = GemvKernel(system, 512, 1024, channels=(0, 1), max_batch=8)
    kernel.load_weights(rand((512, 1024), 1))
    plan = kernel.plan
    assert 8 * plan.passes * plan.tiles > 16
    xs = rand((8, 1024), 2)
    want = kernel.batched(xs)[0]
    kernel.batched(xs)
    monkeypatch.setattr(MemoryController, "_apply_frame", counted_apply_frame)
    got = kernel.batched(xs)[0]
    assert np.array_equal(got, want)
    assert [windows for _, windows in frames if windows] == [8 * plan.passes * plan.tiles] * 2
    assert all(applied for applied, _ in frames)


def test_a_retry_loads_the_microkernel_of_a_launch_that_never_started():
    """With both channels of the lane simulated, the first one fails before
    the second's launch has begun: its CRF still holds what it held, so
    the retry must load it, not trust the microkernel record (a CRF left
    as it was raised ``PimProgramError`` out of the server)."""
    results, stats, _, quarantined = serve_with_a_failure(300, simulate_pchs=None)
    assert quarantined == [0] and max(retries for retries, _ in stats) == 1
    w, xs = rand((300, 200), 1), [rand(200, 10 + i) for i in range(6)]
    want = [gemv_reference(w, x, BASE.num_pchs).tobytes() for x in xs]
    assert results == want
