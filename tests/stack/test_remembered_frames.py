"""A serving workload's programs fit the controller's remembered frames.

The memory controller remembers what it did with a program from one
timing state, least recently used out first, and takes that as one channel
frame the next time the program drains from an equal state
(``repro.dram.controller``).  A GEMV tile's fenced AB-PIM program, an
elementwise slot's and a GEMV readback repeat under a few dozen timing
states wave after wave, so the remembered set must hold a workload's
programs, not one launch's.  Here the ``gemv_serve`` shape — four
resident 128 x 512 GEMV operators served round robin — with an
elementwise mix runs on one simulated channel.  After the first wave,
every program drained on an empty queue is a frame, the fenced kernel
programs and the readbacks alike.  (A kernel's first program behind a
CRF load drains off the queue, as it always has.)  At the old bound of
eight schedules the same traffic misses.  The bound is a module
constant, not a knob.
"""

import dataclasses

import numpy as np
import pytest

from repro.dram import controller as controller_module
from repro.dram.controller import MemoryController
from repro.stack import PimContext, Request, ServerConfig, SystemConfig
from repro.stack.server import RequestOutcome

WAVES = 3


def serve(monkeypatch, waves=WAVES):
    """Serve ``waves`` waves — eight GEMV requests over the four operators,
    round robin, then an add and a ReLU — through one ``PimServer``;
    returns, per wave, each program drain on an empty queue as (fenced,
    frame)."""
    drains = [[] for _ in range(waves)]
    wave_no = [0]
    drain = MemoryController.drain
    apply_frame = MemoryController._apply_frame

    def counted_apply_frame(self, *args):
        applied = apply_frame(self, *args)
        self._took_frame = applied
        return applied

    def counted_drain(self, program=(), blocks=()):
        keyed = bool(program) and not self._queue
        self._took_frame = False
        result = drain(self, program, blocks)
        if keyed:
            fenced = any(run.fence or run.barrier for run in program)
            drains[wave_no[0]].append((fenced, self._took_frame))
        return result

    monkeypatch.setattr(MemoryController, "drain", counted_drain)
    monkeypatch.setattr(MemoryController, "_apply_frame", counted_apply_frame)
    ctx = PimContext(SystemConfig(simulate_pchs=1))
    server = ctx.server(ServerConfig())
    rng = np.random.default_rng(11)

    def grid(*shape):
        return (rng.integers(-16, 17, size=shape) / 8).astype(np.float16)

    weights = [grid(128, 512) for _ in range(4)]
    try:
        for wave_no[0] in range(waves):
            start = wave_no[0] * 1e6
            handles = [
                server.submit(Request(
                    "gemv", weights=weights[i % 4], a=grid(512), arrival_ns=start + 500 * i,
                ))
                for i in range(8)
            ]
            a, b = grid(1024), grid(1024)
            handles.append(server.submit(Request("add", a=a, b=b, arrival_ns=start + 4500)))
            handles.append(server.submit(Request("relu", a=a, arrival_ns=start + 5000)))
            server.run()
            assert all(h.outcome is RequestOutcome.COMPLETED for h in handles)
    finally:
        ctx.close()
    return drains


def test_every_program_after_the_first_wave_is_a_frame(monkeypatch):
    first, *later = serve(monkeypatch)
    assert not all(frame for _, frame in first)  # new timing states
    for wave in later:
        fenced = [frame for is_fenced, frame in wave if is_fenced]
        readbacks = [frame for is_fenced, frame in wave if not is_fenced]
        assert fenced and readbacks
        assert all(fenced) and all(readbacks)


def test_eight_schedules_do_not_hold_the_traffic(monkeypatch):
    monkeypatch.setattr(controller_module, "_SCHEDULES", 8)
    later = [frame for wave in serve(monkeypatch)[1:] for _, frame in wave]
    assert not all(later)


@pytest.mark.parametrize("config", [SystemConfig, ServerConfig])
def test_the_bound_is_a_module_constant_not_a_knob(config):
    assert controller_module._SCHEDULES == 64
    names = [field.name for field in dataclasses.fields(config)]
    assert not [
        name for name in names if any(word in name for word in ("schedules", "frame", "remember"))
    ]
