"""A kernel launch is one program per simulated channel, from SB mode back
to SB mode.

``GemvKernel.batched`` hands each simulated channel one program per
launch: the transition into AB mode, the CRF load where the channel does
not hold the microkernel, the tile program of every (batch slot, slice on
that channel, tile) joined at *seams*, and the transition back.  An
elementwise batch's first item enters and loads, batch-norm's items load
their scalars, and the last item leaves.  The controller crosses a seam
and either side of a transition as the boundary between two drains.

So a launch must simulate exactly as the per-tile, per-command SB session
of :mod:`tests.reference.launch` does.  Each scenario of its corpus runs
here once, through production, and every field it records — results,
report counters, each channel's controller, mode FSM, banks and units,
the tracer's spans and mode events — must hash to the digest
``tests/golden/launch_scenarios.json`` holds for it: one test per
(scenario, field), so a failure names both.  The CI job
``launch-corpus`` re-derives that file from the reference.  The rest are
properties no reference is needed for.
"""

import functools
import json

import numpy as np
import pytest

from repro.dram.controller import MemoryController
from repro.dram.frames import CheckedProgram
from repro.stack import PimContext, PimSystem, Request, ServerConfig, SystemConfig
from repro.stack.blas import gemv_reference
from repro.stack.kernels import GemvKernel
from repro.stack.server import RequestOutcome

from ..dram.frame_seam import frames_taken
from ..reference.launch import (
    BASE, GOLDEN, SCENARIOS, digests, first_difference, rand, reference_launches,
    serve_with_a_failure,
)

@functools.lru_cache(maxsize=None)
def recorded():
    return json.loads(GOLDEN.read_text())


@functools.lru_cache(maxsize=None)
def simulated(name):
    """Each field's digest of scenario ``name``, run once through production."""
    return digests(SCENARIOS[name]())


@functools.lru_cache(maxsize=1)
def both_runs(name):
    """Scenario ``name``'s records through production and the reference."""
    production = SCENARIOS[name]()
    with reference_launches():
        return production, SCENARIOS[name]()


def test_the_corpus_records_every_scenario():
    """Every scenario, and each field a production run of it records."""
    assert list(recorded()) == list(SCENARIOS)
    for name in SCENARIOS:
        assert sorted(simulated(name)) == sorted(recorded()[name]), name


@pytest.mark.parametrize(
    "name, field",
    [(name, field) for name, fields in recorded().items() for field in fields],
    ids=lambda value: value,
)
def test_a_launch_simulates_as_the_recorded_sb_session(name, field):
    """On a mismatch, the reference runs too, to name the first call and
    channel where production parts from it."""
    if simulated(name).get(field) != recorded()[name][field]:
        pytest.fail(
            f"{name}: {field} differs from {GOLDEN.name}; "
            f"{first_difference(*both_runs(name), field)}"
        )


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
    system = PimSystem(SystemConfig(num_pchs=4, num_rows=256))
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
        system = PimSystem(SystemConfig(num_pchs=4, num_rows=256))
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


def test_a_launch_of_more_than_sixteen_windows_is_one_frame(monkeypatch):
    """256 x 256 weights on a two-channel lane, eight inputs a launch:
    each channel's launch closes 32 windows, and after a warm-up launch
    it is one channel frame."""
    system = PimSystem(SystemConfig(num_pchs=4, num_rows=256))
    kernel = GemvKernel(system, 256, 256, channels=(0, 1), max_batch=8)
    kernel.load_weights(rand((256, 256), 1))
    plan = kernel.plan
    assert 8 * plan.passes * plan.tiles > 16
    xs = rand((8, 256), 2)
    want = kernel.batched(xs)[0]
    kernel.batched(xs)
    frames = frames_taken(monkeypatch)
    got = kernel.batched(xs)[0]
    assert np.array_equal(got, want)
    windows = [
        sum(event[0] == "window" for event in frame.program.events)
        for frame in frames if frame.program is not None
    ]
    assert [count for count in windows if count] == [8 * plan.passes * plan.tiles] * 2


def test_a_retry_loads_the_microkernel_of_a_launch_that_never_started():
    """With both channels of the lane simulated, the first one fails before
    the second's launch has begun: its CRF still holds what it held, so
    the retry must load it, not trust the microkernel record (a CRF left
    as it was raised ``PimProgramError`` out of the server)."""
    results = serve_with_a_failure("gemv", 300, None)[0]["results"]
    w, xs = rand((300, 200), 1), [rand(200, 10 + i) for i in range(6)]
    assert results == [gemv_reference(w, x, BASE.num_pchs).tobytes() for x in xs]


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
