"""A kernel launch is one program from SB mode back to SB mode.

``GemvKernel.batched`` hands each simulated channel one program per
launch: the transition into AB mode (PREA, then ACT + PRE to the ABMR
row), the CRF load where the channel does not hold the microkernel, the
kernel programs joined at seams, and the transition back (to the SBMR
row).  An elementwise batch's first item enters and loads, batch-norm's
items load their scalars into the SRF, and the last item leaves.  The
controller crosses either side of a transition as the boundary between
two drains, so this must simulate exactly as the host did when it issued
the transitions command by command and queued the loads ahead of the
kernel's drain — :mod:`tests.stack.sb_to_sb_reference` puts that back,
and every case runs on twin systems, one per path.

Equal after every call: results; report cycles, ns, fences and columns;
per channel the busy cycles, fence count, epoch, row hits and misses,
refreshes, clocks, open-row shadow, queued columns, ``cmd_counts``, the mode FSM (mode,
armed row, ``transition_count``), ``pim_op_mode``, the column counters
and every bank (state, bounds, counts, stored rows); the exec units'
registers, sequencers and stats; the tracer's spans and, channel by
channel, its mode events — cold (the command path) and warm (a launch
taken as a channel frame) alike.  A channel that fails mid-launch is
retried as the reference retried it.  And warm waves of the GEMV,
elementwise and LSTM traffic issue no command at all: every launch is a
frame.
"""

import numpy as np
import pytest

from repro.dram.commands import CommandType
from repro.dram.controller import MemoryController, SchedulerPolicy
from repro.errors import PimChannelError
from repro.pim.device import PimPseudoChannel
from repro.stack import (
    PimContext, PimSystem, Request, ServerConfig, SystemConfig,
)
from repro.stack.kernels import ELEMENTWISE_OPS, ElementwiseKernel, GemvKernel
from repro.stack.server import PimServer, RequestOutcome

from .sb_to_sb_reference import session_launches


def rand(shape, seed):
    return (np.random.default_rng(seed).standard_normal(shape) * 0.25).astype(np.float16)


def state(system):
    """Everything of each channel a launch moves, and the trace."""
    channels = []
    for mc in system.controllers:
        channel = mc.channel
        fsm = channel.mode_ctrl
        channels.append((
            mc.busy_cycles, mc.fence_count, mc._epoch, mc.row_hits, mc.row_misses,
            mc.refresh_count, mc._cycle, mc._next_ca, tuple(mc._open_rows), mc.pending,
            dict(channel.cmd_counts), (fsm.mode, fsm._armed_row, fsm.transition_count),
            channel.pim_op_mode, channel.pim_triggered_columns, channel.ab_broadcast_columns,
            [(b.state, b.open_row, b.next_act, b.next_pre, b.next_rd, b.next_wr,
              b.act_count, b.rd_count, b.wr_count,
              {row: array.tobytes() for row, array in b._rows.items()})
             for b in channel.banks],
            [(u.regs.grf_a.tobytes(), u.regs.grf_b.tobytes(), u.regs.srf_m.tobytes(),
              u.regs.srf_a.tobytes(), list(u.regs.crf), u.sequencer_state(), vars(u.stats))
             for u in channel.units],
        ))
    tracer = system.tracer
    if tracer is None:
        return channels, None
    spans = [
        (s.span_id, s.parent_id, s.name, s.category, s.start_ns, s.end_ns, s.channel,
         dict(s.attrs))
        for s in tracer.spans
    ]
    events = sorted(
        ((e.channel, e.name, e.at_ns, dict(e.attrs)) for e in tracer.events if e.category == "mode"),
        key=lambda event: event[0],
    )
    return channels, spans, events


def calls(config, gemv, eltwise):
    """On a fresh system: three calls of a resident GEMV — ``gemv`` is its
    (shape, batch, max_batch, channels, simulate_pchs) — then a batch of
    each elementwise operator in turn on the same channels — ``eltwise``
    is its (length, items) — batch-norm with fresh scalars per item, and
    the GEMV once more: each operator reloads the CRF.  What each call
    returned and left."""
    system = PimSystem(config)
    shape, batch, max_batch, channels, simulate_pchs = gemv
    m, n = shape
    kernel = GemvKernel(system, m, n, channels=channels, max_batch=max_batch)
    kernel.load_weights(rand(shape, 1))
    seen = []

    def note(results, report):
        seen.append((
            [np.asarray(r).tobytes() for r in results], report.cycles, report.ns,
            report.fences, report.column_commands, state(system),
        ))

    for call in range(3):
        note(*kernel.batched(rand((batch, n), 10 + call), simulate_pchs))
    length, items = eltwise
    for i, op in enumerate(sorted(ELEMENTWISE_OPS)):
        operator = ElementwiseKernel(system, op, length, channels=channels)
        batch_items = [
            (rand(length, 40 + 7 * i + j), rand(length, 41 + 7 * i + j),
             (0.5 + j, -0.25 * j))
            for j in range(items)
        ]
        note(*operator.batched(
            [item if op in ("add", "mul", "bn") else item[:1] for item in batch_items],
            simulate_pchs,
        ))
        operator.release()
    note(*kernel.batched(rand((batch, n), 20), simulate_pchs))
    return seen


def both_paths(monkeypatch, *args):
    launched = calls(*args)
    with monkeypatch.context() as patch:
        session_launches(patch)
        reference = calls(*args)
    assert len(launched) == len(reference)
    for i, (got, want) in enumerate(zip(launched, reference)):
        assert got == want, f"call {i}"


BASE = SystemConfig(num_pchs=4, num_rows=256, refresh=True, trace=True)
POLICIES = {
    "frfcfs": SchedulerPolicy.FRFCFS,
    "fcfs": SchedulerPolicy.FCFS,
    "shuffle": SchedulerPolicy.SHUFFLE,
}


@pytest.mark.parametrize("penalty", [0, 7])
@pytest.mark.parametrize("policy", POLICIES)
def test_every_policy_and_fence_penalty(policy, penalty, monkeypatch):
    config = BASE.replace(
        policy=POLICIES[policy], fence_penalty_cycles=penalty, scheduler_seed=5
    )
    both_paths(monkeypatch, config, ((200, 96), 5, 3, None, None), (1000, 3))


@pytest.mark.parametrize("config", ["scalar", "ecc"])
def test_the_eager_exec_group_and_ecc(config, monkeypatch):
    change = {"scalar": {"exec_mode": "scalar"}, "ecc": {"ecc": True}}[config]
    both_paths(monkeypatch, BASE.replace(**change), ((200, 96), 4, 2, None, None), (700, 2))


@pytest.mark.parametrize("layout", ["lane-1,3", "one-simulated", "no-slice"])
def test_a_lane_and_sampled_channels(layout, monkeypatch):
    """On channels 1 and 3, with one channel of four simulated, and with
    a layout of two slices over four channels (two hold no slice: they
    enter, load and leave)."""
    gemv = {
        "lane-1,3": ((256, 200), 4, 2, (1, 3), None),
        "one-simulated": ((256, 200), 4, 4, None, 1),
        "no-slice": ((256, 200), 3, 2, None, None),
    }[layout]
    config = BASE
    if layout == "no-slice":
        monkeypatch.setattr(GemvKernel, "__init__", _two_slices(GemvKernel.__init__))
    both_paths(monkeypatch, config, gemv, (1500, 2))


def _two_slices(init):
    def two_slice_init(self, system, m, n, channels=None, layout_pchs=None, max_batch=1):
        init(self, system, m, n, channels, 2, max_batch)

    return two_slice_init


@pytest.mark.parametrize("group", range(1, 9))
def test_every_gemv_group_size(group, monkeypatch):
    both_paths(monkeypatch, BASE, ((300, 256), group, 8, (0, 2), None), (600, 1))


@pytest.mark.parametrize("items", range(1, 6))
def test_every_elementwise_batch_size(items, monkeypatch):
    both_paths(monkeypatch, BASE.replace(refresh=False), ((128, 64), 1, 1, (0, 1), None),
               (2000, items))


# -- a channel failing mid-launch -------------------------------------------------


def serve_with_a_failure(after, simulate_pchs, op):
    """Six requests of ``op`` through a two-lane server; the first lane's
    first channel fails at its ``after``-th column command — or, with
    ``after`` None, raises at the ACT to the ABMR row of its first launch,
    before that launch has loaded its CRF.  Returns results, per-request
    (retries, turnaround), every channel's state and the quarantined
    channels."""
    system = PimSystem(BASE.replace(simulate_pchs=simulate_pchs, refresh=False))
    failing = system.device.pch(0)
    abmr_row = failing.memory_map.abmr_row
    issue = PimPseudoChannel.issue
    columns = [0]

    def failing_issue(self, cmd, cycle):
        if self is failing and not self.banks[0].is_failed:
            if after is None and cmd.cmd is CommandType.ACT and cmd.row == abmr_row:
                for bank in self.banks:
                    bank.fail(0)
                raise PimChannelError("channel 0 failed", channels=(0,))
            if after is not None and cmd.cmd.is_column:
                columns[0] += cmd.count
                if columns[0] >= after:
                    for bank in self.banks:
                        bank.fail(0)
        return issue(self, cmd, cycle)

    w = rand((300, 200), 1)
    server = PimServer(system, ServerConfig(lanes=2, max_batch=4))
    try:
        PimPseudoChannel.issue = failing_issue
        if op == "gemv":
            requests = [Request("gemv", weights=w, a=rand(200, 10 + i)) for i in range(6)]
        else:
            requests = [
                Request(op, a=rand(3000, 10 + i), b=rand(3000, 20 + i),
                        scalars=(1.5, -0.25 * i) if op == "bn" else None)
                for i in range(6)
            ]
        handles = [server.submit(request) for request in requests]
        profile = server.run()
    finally:
        PimPseudoChannel.issue = issue
        server.close()
    assert all(h.outcome is RequestOutcome.COMPLETED for h in handles)
    return (
        [h.result.tobytes() for h in handles],
        [(r.retries, r.finish_ns - r.arrival_ns) for r in profile.requests],
        state(system)[0],
        profile.quarantined_channels,
    )


@pytest.mark.parametrize("case", [
    ("gemv", 700, 1), ("gemv", 2500, 1), ("add", 40, 1), ("bn", 100, 1),
    ("gemv", None, None), ("relu", None, None),
])
def test_a_channel_failing_mid_launch_retries_as_the_reference_did(case, monkeypatch):
    """The first launch fails part way through its program; the lane is
    healed and the batch retried.  Failing at its entry transition, the
    channel's CRF-load run is abandoned with the rest of its program: the
    heal drops the channel from the microkernel record and the retry
    loads the CRF, as the reference — which raised before it queued the
    load — does.  The failed channel is quarantined, never reset: there it
    keeps its program queued with the program's fences counted (the
    reference queued nothing) and the operands staged into its banks
    before the launch (the reference raised before staging them)."""
    op, after, simulate_pchs = case
    launched = serve_with_a_failure(after, simulate_pchs, op)
    assert launched[3] == [0] and max(retries for retries, _ in launched[1]) == 1
    with monkeypatch.context() as patch:
        session_launches(patch)
        reference = serve_with_a_failure(after, simulate_pchs, op)
    if after is None:
        launched, reference = (
            (*run[:2], [quarantined(run[2][0])] + run[2][1:], run[3])
            for run in (launched, reference)
        )
    assert reference == launched


def quarantined(channel):
    """A channel's state without its fences, epoch, queued columns and
    stored rows."""
    banks = [bank[:-1] for bank in channel[15]]
    return channel[:1] + channel[3:9] + channel[10:15] + (banks,) + channel[16:]


@pytest.mark.parametrize("op", ["gemv", "bn"])
def test_a_failure_before_the_next_channel_launched(op, monkeypatch):
    """Every channel of the lane simulated: the first fails mid-launch
    before the second has begun.  In the reference the second had entered
    AB mode and queued its CRF load; here its launch never started.  The
    results, the turnarounds and every other channel are the reference's;
    the second differs by the entry transition alone (its three commands,
    the two mode changes the heal's reset counts, the fence after the
    queued load and the clock the reset waits out past them)."""
    after = {"gemv": 300, "bn": 100}[op]
    got = serve_with_a_failure(after, None, op)
    with monkeypatch.context() as patch:
        session_launches(patch)
        want = serve_with_a_failure(after, None, op)
    assert got[0] == want[0] and got[1] == want[1] and got[3] == want[3] == [0]
    assert [c for i, c in enumerate(got[2]) if i != 1] == [
        c for i, c in enumerate(want[2]) if i != 1
    ]
    counts, reference = got[2][1][10], want[2][1][10]
    assert {kind: reference[kind] - n for kind, n in counts.items() if reference[kind] != n} == {
        CommandType.PREA: 1, CommandType.ACT: 1, CommandType.PRE: 1,
    }
    assert want[2][1][11][2] - got[2][1][11][2] == 2
    assert want[2][1][1] - got[2][1][1] == 1


# -- warm launches leave the command path -------------------------------------------


def traffic(server, blas, lstm, wave):
    """One wave: GEMV requests over two operators and elementwise requests
    of every operator through ``server``, and an LSTM cell step of
    ``lstm`` — its weights, bias and state — on ``blas``."""
    rng = np.random.default_rng((3, wave))
    weights, bias, state = lstm
    requests = [
        Request("gemv", weights=weights[i % 2], a=rng.standard_normal(256).astype(np.float16))
        for i in range(4)
    ] + [
        Request(op, a=rng.standard_normal(1024).astype(np.float16),
                b=rng.standard_normal(1024).astype(np.float16),
                scalars=(1.5, -0.25) if op == "bn" else None)
        for op in ("add", "mul", "relu", "bn")
    ]
    handles = [server.submit(request) for request in requests]
    server.run()
    assert all(h.outcome is RequestOutcome.COMPLETED for h in handles)
    x = (rng.standard_normal(weights[2].shape[1]) * 0.1).astype(np.float16)
    blas.lstm_cell(weights[2], weights[3], bias, x, *state)


def test_warm_waves_issue_no_command(monkeypatch):
    """After two waves of warm-up, 20 waves of the GEMV, elementwise and
    LSTM traffic call ``MemoryController._issue`` not once: every launch,
    readback and register load is a channel frame."""
    rng = np.random.default_rng(3)
    hidden = 64
    weights = [(rng.standard_normal((128, 256)) * 0.1).astype(np.float16) for _ in range(2)]
    weights += [
        (rng.standard_normal((4 * hidden, hidden)) * 0.1).astype(np.float16) for _ in range(2)
    ]
    bias = rng.standard_normal(4 * hidden).astype(np.float32)
    state = [(rng.standard_normal(hidden) * 0.1).astype(np.float16) for _ in range(2)]
    served, blas = (PimContext(SystemConfig(simulate_pchs=1)) for _ in range(2))
    server = served.server(ServerConfig())
    issued = []
    issue = MemoryController._issue

    def counted_issue(self, *args, **kwargs):
        issued[-1] += 1
        return issue(self, *args, **kwargs)

    monkeypatch.setattr(MemoryController, "_issue", counted_issue)
    try:
        for wave in range(22):
            issued.append(0)
            traffic(server, blas.blas, (weights, bias, state), wave)
    finally:
        served.close()
        blas.close()
    assert issued[0] > 0 and issued[2:] == [0] * 20
