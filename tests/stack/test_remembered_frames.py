"""A serving workload's programs fit the controller's remembered frames.

The memory controller remembers what it did with a program from one
timing state — behind the CRF / SRF writes queued ahead of it, if any —
least recently used out first, and takes that as one channel frame the
next time the program drains from an equal state
(``repro.dram.controller``).  A GEMV tile's fenced AB-PIM program, an
elementwise slot's and a GEMV readback repeat under a few dozen timing
states wave after wave, so the remembered set must hold a workload's
programs, not one launch's.  Here the ``gemv_serve`` shape — four
resident 128 x 512 GEMV operators served round robin — with an
elementwise mix, and the ``eltwise_serve`` shape — add, mul, relu and
batch-norm round robin over two lengths, each kernel's first program
behind its CRF load and every batch-norm program behind its SRF load —
run on one simulated channel.  In the GEMV shape, after the first wave
every program drained on an empty queue is a frame, the fenced kernel
programs and the readbacks alike, and after the second every program
behind a CRF load is one too: the second wave's first load starts from
the entry CRF the first wave left, a new key.  The elementwise shape
meets such new pairings of program and loaded CRF through its second
wave and is all frames from its third.  At the old bound of eight
schedules the same traffic misses.  The bound is a module constant, not
a knob.
"""

import dataclasses

import numpy as np
import pytest

from repro.dram import controller as controller_module
from repro.dram.controller import MemoryController
from repro.stack import PimContext, Request, ServerConfig, SystemConfig
from repro.stack.arithmetic import golden_reference
from repro.stack.server import RequestOutcome

WAVES = 4


def grid(rng, *shape):
    return (rng.integers(-16, 17, size=shape) / 8).astype(np.float16)


def gemv_mix(rng):
    """Eight GEMV requests over four operators, round robin, then an add
    and a ReLU, a wave starting at ``start``."""
    weights = [grid(rng, 128, 512) for _ in range(4)]

    def wave(start):
        requests = [
            Request("gemv", weights=weights[i % 4], a=grid(rng, 512), arrival_ns=start + 500 * i)
            for i in range(8)
        ]
        a, b = grid(rng, 1024), grid(rng, 1024)
        requests.append(Request("add", a=a, b=b, arrival_ns=start + 4500))
        requests.append(Request("relu", a=a, arrival_ns=start + 5000))
        return requests

    return wave


def eltwise_mix(rng):
    """Add, mul, relu and batch-norm with its scalars, round robin, each
    at 1024 then 2048 elements, a wave starting at ``start``."""

    def wave(start):
        requests = []
        for i in range(16):
            op, n = ("add", "mul", "relu", "bn")[i % 4], (1024, 2048)[(i // 4) % 2]
            requests.append(Request(
                op, a=grid(rng, n), b=grid(rng, n) if op in ("add", "mul") else None,
                scalars=(1.5, -0.25) if op == "bn" else None, arrival_ns=start + 500 * i,
            ))
        return requests

    return wave


def serve(monkeypatch, mix=gemv_mix, waves=WAVES):
    """Serve ``waves`` waves of ``mix`` through one ``PimServer``; returns,
    per wave, each program drain on an empty queue or behind queued writes
    as (fenced, behind writes, frame)."""
    drains = [[] for _ in range(waves)]
    wave_no = [0]
    drain = MemoryController.drain
    apply_frame = MemoryController._apply_frame

    def counted_apply_frame(self, *args):
        applied = apply_frame(self, *args)
        self._took_frame = applied
        return applied

    def counted_drain(self, program=(), blocks=()):
        behind = bool(self._queue)
        keyed = bool(program) and all(
            request.op is controller_module.MemOp.WRITE for request in self._queue
        )
        self._took_frame = False
        result = drain(self, program, blocks)
        if keyed:
            fenced = any(run.fence or run.barrier for run in program)
            drains[wave_no[0]].append((fenced, behind, self._took_frame))
        return result

    monkeypatch.setattr(MemoryController, "drain", counted_drain)
    monkeypatch.setattr(MemoryController, "_apply_frame", counted_apply_frame)
    ctx = PimContext(SystemConfig(simulate_pchs=1))
    server = ctx.server(ServerConfig())
    wave = mix(np.random.default_rng(11))
    try:
        for wave_no[0] in range(waves):
            requests = wave(wave_no[0] * 1e6)
            handles = [server.submit(request) for request in requests]
            server.run()
            for request, handle in zip(requests, handles):
                assert handle.outcome is RequestOutcome.COMPLETED
                want = golden_reference(request, ctx.system.num_pchs)
                assert np.array_equal(handle.result, want, equal_nan=True)
    finally:
        ctx.close()
    return drains


def test_every_program_after_the_first_wave_is_a_frame(monkeypatch):
    first, *later = serve(monkeypatch)
    assert not all(frame for _, _, frame in first)  # new timing states
    for wave in later:
        fenced = [frame for is_fenced, behind, frame in wave if is_fenced and not behind]
        readbacks = [frame for is_fenced, behind, frame in wave if not is_fenced and not behind]
        assert fenced and readbacks
        assert all(fenced) and all(readbacks)
    for wave in later[1:]:
        behind = [frame for _, is_behind, frame in wave if is_behind]
        assert behind and all(behind)


def test_every_eltwise_program_after_two_waves_is_a_frame(monkeypatch):
    """Behind the CRF load of each new operator and behind batch-norm's
    SRF load, as on an empty queue."""
    first, _, *later = serve(monkeypatch, eltwise_mix)
    assert not all(frame for _, _, frame in first)
    for wave in later:
        behind = [frame for _, is_behind, frame in wave if is_behind]
        assert len(behind) > len(wave) // 2
        assert all(frame for _, _, frame in wave)


def test_eight_schedules_do_not_hold_the_traffic(monkeypatch):
    """Counted, as at 64 schedules, on the drains of an empty queue after
    the first wave, which that bound takes as frames every time."""
    monkeypatch.setattr(controller_module, "_SCHEDULES", 8)
    later = [
        frame for wave in serve(monkeypatch)[1:] for _, behind, frame in wave if not behind
    ]
    assert later and not all(later)


@pytest.mark.parametrize("config", [SystemConfig, ServerConfig])
def test_the_bound_is_a_module_constant_not_a_knob(config):
    assert controller_module._SCHEDULES == 64
    names = [field.name for field in dataclasses.fields(config)]
    assert not [
        name for name in names if any(word in name for word in ("schedules", "frame", "remember"))
    ]
