"""A serving workload's programs fit the controller's remembered frames.

The memory controller remembers what it did with a program from one
timing state, least recently used out first, and takes that as one
channel frame the next time the program drains from an equal state
(``repro.dram.frames``).  A GEMV launch's program from SB mode back
to SB mode, an elementwise item's, the transition that ends an
elementwise batch and a GEMV readback repeat under a few dozen timing
states wave after wave, so the remembered set must hold a workload's
programs, not one launch's.  Here the ``gemv_serve`` shape — four
resident 128 x 512 GEMV operators served round robin — with an
elementwise mix, and the ``eltwise_serve`` shape — add, mul, relu and
batch-norm round robin over two lengths, each kernel's first item
loading its CRF and every batch-norm item its SRF — run on one simulated
channel.  In the GEMV shape, after the first wave every program that
loads no register is a frame, the launches, the readbacks and the
transitions alike, and after the second every program that loads the
CRF is one too: the second wave's first load starts from the entry CRF
the first wave left, a new key.  The elementwise shape meets such new
pairings of program and loaded CRF through its second wave and is all
frames from its third.  A GEMV launch is one program per simulated
channel, so the GEMV shape alone fits in the old bound of eight
schedules; the two shapes served together do not, and 64 hold them.
The bound is a module constant, not a knob.  A warm frame — of either shape, and of ``PimBlas.lstm_cell``'s
GEMVs — replays each window by the trace key it recorded: it packs no
key and builds no trigger, and it computes in place on a ``(slots,
units, 16)`` value pool, calling no ``vec_add`` / ``vec_mul``.
"""

import dataclasses

import numpy as np
import pytest

from repro.common import fp16
from repro.dram import frames as frames_module
from repro.dram.controller import MemoryController
from repro.pim import fused
from repro.pim.device import PimPseudoChannel
from repro.pim.exec_unit import ColumnTrigger
from repro.pim.registers import LANES
from repro.stack import PimContext, Request, ServerConfig, SystemConfig
from repro.stack.arithmetic import golden_reference
from repro.stack.server import RequestOutcome

from ..dram.frame_seam import frames_taken

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


def gemv_and_eltwise_mix(rng):
    """A wave of :func:`gemv_mix`, then one of :func:`eltwise_mix`."""
    gemv, eltwise = gemv_mix(rng), eltwise_mix(rng)
    return lambda start: gemv(start) + eltwise(start + 6000)


def serve(monkeypatch, mix=gemv_mix, waves=WAVES, before_wave=lambda wave_no: None):
    """Serve ``waves`` waves of ``mix`` through one ``PimServer``, calling
    ``before_wave`` with each wave's number; returns, per wave, each
    program drain as (kind, loads a register, frame): kind ``"kernel"``
    for a fenced program, ``"readback"`` for an unfenced one,
    ``"transition"`` for a transition alone."""
    drains = [[] for _ in range(waves)]
    wave_no = [0]
    drain = MemoryController.drain
    frames = frames_taken(monkeypatch)

    def counted_drain(self, program=(), blocks=()):
        taken = len(frames)
        result = drain(self, program, blocks)
        if program:
            registers = self.channel.memory_map
            loads = any(
                run.write and run.row in (registers.crf_row, registers.srf_row)
                for run in program
            )
            kind = (
                "transition" if all(run.transition for run in program)
                else "kernel" if any(run.fence or run.barrier for run in program)
                else "readback"
            )
            drains[wave_no[0]].append((kind, loads, len(frames) > taken))
        return result

    monkeypatch.setattr(MemoryController, "drain", counted_drain)
    ctx = PimContext(SystemConfig(simulate_pchs=1))
    server = ctx.server(ServerConfig())
    wave = mix(np.random.default_rng(11))
    try:
        for wave_no[0] in range(waves):
            before_wave(wave_no[0])
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
        for kind in ("kernel", "readback", "transition"):
            frames = [frame for is_kind, loads, frame in wave if is_kind == kind and not loads]
            assert frames and all(frames), kind
    for wave in later[1:]:
        loading = [frame for _, loads, frame in wave if loads]
        assert loading and all(loading)


def test_every_eltwise_program_after_two_waves_is_a_frame(monkeypatch):
    """The items that load the CRF of each new operator or batch-norm's
    SRF, as the rest."""
    first, _, *later = serve(monkeypatch, eltwise_mix)
    assert not all(frame for _, _, frame in first)
    for wave in later:
        loading = [frame for _, loads, frame in wave if loads]
        assert len(loading) > len(wave) // 4
        assert all(frame for _, _, frame in wave)


def frames_after_the_first_wave(monkeypatch, schedules):
    """Whether each drain that loads no register after the first wave of
    the two shapes served together was a frame, at a bound of
    ``schedules``."""
    monkeypatch.setattr(frames_module, "_SCHEDULES", schedules)
    waves = serve(monkeypatch, gemv_and_eltwise_mix)[1:]
    return [frame for wave in waves for _, loads, frame in wave if not loads]


def test_sixty_four_schedules_hold_the_traffic(monkeypatch):
    later = frames_after_the_first_wave(monkeypatch, 64)
    assert later and all(later)


def test_eight_schedules_do_not_hold_the_traffic(monkeypatch):
    """Counted, as at 64 schedules, on the drains that load no register
    after the first wave, which that bound takes as frames every time."""
    later = frames_after_the_first_wave(monkeypatch, 8)
    assert later and not all(later)


class _Numpy:
    """``numpy`` as :mod:`repro.pim.fused` sees it, noting the shape of
    every array ``empty`` makes inside a frame — the replay's value pool."""

    def __init__(self, costs, inside):
        self._costs, self._inside = costs, inside

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        if self._inside[0]:
            self._costs["pools"].append(tuple(shape))
        return np.empty(shape, *args, **kwargs)


def frame_costs(monkeypatch):
    """Count the kernel-program frames taken and, inside them, the
    ``_pack_signature`` calls, the ``ColumnTrigger`` objects built and the
    ``fp16.vec_add`` / ``vec_mul`` calls; list, inside them, each replayed
    trace's ``(slots, units, 16)`` and each value pool's shape."""
    costs = {
        "frames": 0, "signatures": 0, "triggers": 0, "vec ops": 0, "pools": [], "traces": [],
    }
    inside = [False]
    pack, init = fused._pack_signature, ColumnTrigger.__init__
    apply_program = PimPseudoChannel._apply_program
    replay = fused.FusedLockstepGroup._replay

    def counted_pack(*args):
        costs["signatures"] += inside[0]
        return pack(*args)

    def counted_init(self, *args, **kwargs):
        costs["triggers"] += inside[0]
        init(self, *args, **kwargs)

    def counted_replay(self, entry, hosts, rows):
        if inside[0]:
            costs["traces"].append((entry.slots, len(self.units), LANES))
        return replay(self, entry, hosts, rows)

    for name in ("vec_add", "vec_mul"):
        def counted_op(*args, op=getattr(fp16, name)):
            costs["vec ops"] += inside[0]
            return op(*args)

        monkeypatch.setattr(fp16, name, counted_op)
        monkeypatch.setattr(fused, name, counted_op, raising=False)
    monkeypatch.setattr(fused, "np", _Numpy(costs, inside))
    monkeypatch.setattr(fused.FusedLockstepGroup, "_replay", counted_replay)

    def counted_apply_program(self, *args):
        inside[0] = True
        try:
            applied = apply_program(self, *args)
        finally:
            inside[0] = False
        costs["frames"] += applied
        return applied

    monkeypatch.setattr(fused, "_pack_signature", counted_pack)
    monkeypatch.setattr(ColumnTrigger, "__init__", counted_init)
    monkeypatch.setattr(PimPseudoChannel, "_apply_program", counted_apply_program)
    return costs


def uncounted(costs):
    """Zero every count and list of :func:`frame_costs` (after warm-up)."""
    for key, value in costs.items():
        if isinstance(value, list):
            value.clear()
        else:
            costs[key] = 0


def assert_in_place_on_a_slot_major_pool(costs):
    """Every replay inside a frame made one value pool, ``(slots, units,
    16)``, and no ``vec_add`` / ``vec_mul`` ran."""
    assert costs["traces"] and costs["pools"] == costs["traces"]
    assert costs["vec ops"] == 0


@pytest.mark.parametrize("mix", [gemv_mix, eltwise_mix])
def test_a_warm_frame_replays_its_windows_by_their_recorded_keys(monkeypatch, mix):
    """After two warm-up waves a kernel program's frame looks each window's
    compiled trace up by the key it recorded: no tape, no key packing.  It
    replays in place on a slot-major value pool, with no ``vec_add`` /
    ``vec_mul`` call."""
    costs = frame_costs(monkeypatch)

    def warm(wave_no):
        if wave_no == 2:
            uncounted(costs)

    serve(monkeypatch, mix, waves=3, before_wave=warm)
    assert costs["frames"] > 0
    assert (costs["signatures"], costs["triggers"]) == (0, 0)
    assert_in_place_on_a_slot_major_pool(costs)


def test_a_warm_lstm_step_replays_its_windows_by_their_recorded_keys(monkeypatch):
    """The same for ``PimBlas.lstm_cell`` steps, h and c fed forward."""
    rng = np.random.default_rng(5)
    hidden = 32
    w_ih, w_hh = (grid(rng, 4 * hidden, hidden) / 8 for _ in range(2))
    bias = rng.standard_normal(4 * hidden).astype(np.float32)
    h = c = np.zeros(hidden, dtype=np.float16)
    costs = frame_costs(monkeypatch)
    ctx = PimContext(SystemConfig(simulate_pchs=1))
    try:
        for step in range(4):
            if step == 2:
                uncounted(costs)
            h, c = ctx.blas.lstm_cell(w_ih, w_hh, bias, grid(rng, hidden), h, c)
    finally:
        ctx.close()
    assert costs["frames"] > 0
    assert (costs["signatures"], costs["triggers"]) == (0, 0)
    assert_in_place_on_a_slot_major_pool(costs)


@pytest.mark.parametrize("config", [SystemConfig, ServerConfig])
def test_the_bound_is_a_module_constant_not_a_knob(config):
    assert frames_module._SCHEDULES == 64
    names = [field.name for field in dataclasses.fields(config)]
    assert not [
        name for name in names if any(word in name for word in ("schedules", "frame", "remember"))
    ]
