"""A remembered program taken as one channel frame vs the command path.

The controller remembers the pick path's schedule of a read-only program
that is one fence epoch of several runs (the GEMV readback), keyed by the
timing state it started from; the next drain from an equal state hands
the channel the recorded end state (``PseudoChannel.apply_frame``) and
moves each read run's bytes as one block.  The oracle is the pick path
itself: a twin controller whose schedules are ``Forgetful`` drains every
program command by command.

Both are driven through the same drawn streams — queued requests,
fences, PREA, write runs to every bank, an all-bank write excursion, a
read of the SBMR row that leaves the mode FSM armed — then the same
drawn readback program, wave after wave, with ECC on or off, data and
check-byte injections and failed banks between drains, a refresh placed
near the schedule's last refresh check, and ``tools.trace_channel`` on or
off.  After every drain the two must agree on the read bytes (or the
exception, type and text), the trace, the controller's clocks, tallies,
open-row shadow and queue, every bank's bounds, state and counts, the
channel's maxima, column and ACT history and tFAW window, ``cmd_counts``,
the mode FSM, ``EccStats``, the stored bytes, the injection entries and
``materialized_rows``.

Tier-1 runs a small example budget; ``tests/dram/sweep_frame_oracle.py``
(CI job ``frame-oracle``) runs the same property with a large one.  Each
component of the frame has a one-line mutant the tier-1 budget kills: a
bank bound, the open row, the per-bank counts, the last column, the last
ACT, the tFAW window, the channel maxima, ``cmd_counts``, the armed row,
``words_checked`` and the controller's mark, each left as it was.  A
frame applied over a failed bank or an injection entry is killed by
``test_the_strategy_reaches_frames_and_declines``.

The second half does the same for a kernel's fenced program — a GEMV
tile's, an elementwise slot's, an AB write program's — remembered from
its lone runs, or from the queue path behind the CRF / SRF writes queued
ahead of it, and taken as one frame: drawn kernel waves (CRF and SRF
loads queued ahead, each wave's microkernels loaded afresh or kept from
the wave before, fresh operand blocks and scalars every drain, ECC on
or off, injections on weight and out rows, failed banks, register upsets
through the fault injector, the fused or the eager exec group, a refresh
at the frame's horizon, ``tools.trace_channel`` and a ``repro.obs``
tracer on or off), compared after every drain on all of the above plus
each queued request's cycles in ``issue_order``, the stacked GRF / SRF,
the CRF, the sequencers, per-unit stats, the exec group's tape, its
``TraceCache`` stats and key order and replay / fallback counts, the
shared all-bank state, ``pim_op_mode``, the column counters and the mode
events.  One mutant per new component fails the fixed draws of
``test_the_program_strategy_reaches_frames_and_declines`` and
``test_a_traced_program_frame_shows_what_its_lone_runs_show`` (CHANGES.md
lists them): ``_ab_row``, an ``_ab_*`` bound, an ``_ab_*`` count,
``pim_triggered_columns``, ``ab_broadcast_columns``, the FSM's mode, its
``transition_count``, ``pim_op_mode``, a dropped or a reordered data
event, the recorded drain's blocks for this one's, the refresh horizon
off by one either way, and the controller's mark without its fence
penalties or its fences; behind a register load, the recorded drain's
SRF bytes for this one's, the queued requests' ``issue_order`` dropped or
a cycle off, the load-to-program fence penalty dropped and the queue left
full.  ``test_a_frame_is_keyed_on_the_crf_bytes_its_load_writes`` kills a
key without the loaded CRF bytes, ``test_only_untagged_register_writes_are_a_prefix``
a queued bank-row write or a tagged read taken as a prefix.
"""

from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dram.controller import MemOp, MemoryController, Request, SchedulerPolicy
from repro.dram.ecc import EccBank
from repro.dram.timing import HBM2_1GHZ
from repro.errors import PimProgramError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.obs import Tracer
from repro.pim import stream
from repro.pim.assembler import assemble_words
from repro.pim.device import PimPseudoChannel
from repro.pim.fused import FusedLockstepGroup
from repro.pim.lockstep import LockstepGroup
from repro.pim.stream import Run, gemv_readback
from repro.stack.kernels import ELEMENTWISE_OPS, GemvKernel
from repro.tools import trace_channel

from .test_controller_differential import Forgetful, Side, write_data

ROUNDS = 4
TIER1_EXAMPLES = 40

# Row indices 0..2 name rows 0..2 of the pool (filled by ``make_channel``);
# index 3 the SBMR row of a PIM channel — an ACT there arms the mode FSM
# without changing the mode — or row 3 of a plain one.
ROW = st.integers(0, 3)
QUEUED = st.tuples(
    st.sampled_from([MemOp.READ, MemOp.WRITE]), st.integers(0, 15), ROW,
    st.sampled_from([0, 3, 8]), st.integers(0, 255), st.sampled_from([1, 1, 2, 8]),
)
ELEMENT = st.one_of(
    QUEUED.map(lambda request: ("queue",) + request),
    st.just(("fence",)),
    st.just(("drain",)),
    st.just(("prea",)),
    st.integers(0, 2).map(lambda row: ("bank writes", row)),
    st.integers(0, 2).map(lambda row: ("all-bank writes", row)),
)
# A wave renews the banks' bounds the way a kernel does — PREA, then
# writes — before whatever else it draws; half the time it ends on a read
# of the SBMR row (index 3), which leaves a PIM channel's FSM armed.
WAVE = st.tuples(
    st.sampled_from(["bank writes", "all-bank writes"]), st.integers(0, 2),
    st.lists(ELEMENT, max_size=4), st.one_of(st.none(), st.integers(0, 15)),
).map(lambda wave: [("prea",), (wave[0], wave[1])] + wave[2] + (
    [] if wave[3] is None else [("queue", MemOp.READ, wave[3], 3, 0, 0, 1), ("drain",)]
))
# One epoch of reads of bank rows: one or two GEMV readback tiles, or
# drawn runs (bank, row, first column, count).
READS = st.lists(
    st.tuples(st.integers(0, 15), st.integers(0, 2), st.sampled_from([0, 2, 8]),
              st.integers(1, 8)),
    min_size=2, max_size=6,
).map(lambda runs: tuple(
    Run(False, row, col, count, False, 0, False, bank) for bank, row, col, count in runs
))
READBACK = st.one_of(
    st.tuples(st.integers(0, 2), st.sampled_from([(0,), (8,), (0, 8)])).map(
        lambda where: sum((gemv_readback(where[0], col) for col in where[1]), ())
    ),
    READS,
)
# Damage between drains, aimed at the rows and banks the readback reads:
# ("data", bank, row, col, bit), ("check", bank, row, col, word, bit),
# ("dead", bank).
FAULT = st.one_of(
    st.tuples(st.just("data"), st.integers(0, 15), st.integers(0, 2), st.integers(0, 15),
              st.integers(0, 255)),
    st.tuples(st.just("check"), st.integers(0, 15), st.integers(0, 2), st.integers(0, 15),
              st.integers(0, 3), st.integers(0, 7)),
    st.tuples(st.just("dead"), st.integers(0, 15)),
)
ROUND_FAULTS = st.lists(
    st.one_of(st.just([]), st.just([]), st.lists(FAULT, min_size=1, max_size=2)),
    min_size=ROUNDS, max_size=ROUNDS,
)

STRATEGIES = dict(
    mode=st.sampled_from(["plain", "sb"]),
    ecc=st.booleans(),
    policy=st.sampled_from([SchedulerPolicy.FRFCFS, SchedulerPolicy.FCFS]),
    window=st.sampled_from([1, 4, 16]),
    prefix=st.lists(ELEMENT, max_size=6),
    wave=WAVE,
    readback=READBACK,
    faults=ROUND_FAULTS,
    refresh=st.one_of(st.none(), st.integers(-6, 6)),
    traced=st.lists(st.booleans(), min_size=ROUNDS, max_size=ROUNDS),
)


def row_of(side, index):
    channel = side.mc.channel
    if index == 3 and isinstance(channel, PimPseudoChannel):
        return channel.memory_map.sbmr_row
    return index


def snapshot(side):
    """Everything a drain leaves behind, controller and channel."""
    mc, channel = side.mc, side.mc.channel
    banks = []
    for bank in channel.banks:
        ecc = isinstance(bank, EccBank)
        banks.append((
            bank.state, bank.open_row,
            (bank.next_act, bank.next_pre, bank.next_rd, bank.next_wr),
            (bank.act_count, bank.rd_count, bank.wr_count),
            {row: array.tobytes() for row, array in bank._rows.items()},
            tuple(bank.materialized_rows()),
            vars(bank.ecc_stats).copy() if ecc else None,
            {row: dict(words) for row, words in bank._injected.items()} if ecc else None,
        ))
    fsm = getattr(channel, "mode_ctrl", None)
    return (
        (mc.row_hits, mc.row_misses, mc.busy_cycles, mc.refresh_count, mc._next_refresh,
         mc.fence_count, mc._epoch),
        (mc.current_cycle, mc._next_ca, tuple(mc._open_rows)),
        [(r.op, r.bg, r.ba, r.row, r.col, r.count, r.epoch, r.tag) for r in mc._queue],
        dict(channel.cmd_counts),
        (channel._max_act, channel._max_pre, channel._max_rd, channel._max_wr),
        (channel._last_col_cycle, channel._last_col_bg, channel._last_col_was_write),
        (channel._last_act_cycle, channel._last_act_bg, tuple(channel._act_window)),
        None if fsm is None else (fsm.state, fsm.transition_count),
        banks,
    )


def drained(side, program=(), blocks=(), traced=False, snap=snapshot):
    """Drain ``program`` on ``side``: the outcome, the trace (when
    ``traced``) and the snapshot (``snap``).  A raise resets the channel,
    as the server's recovery does, after the snapshot is taken."""
    queued = list(side.mc._queue)
    with trace_channel(side.mc.channel) if traced else nullcontext() as trace:
        try:
            result = side.mc.drain(program, blocks)
            data = result.read_data
            got = (
                "ok", result.cycles, {t: (d.shape, d.tobytes()) for t, d in data.items()},
                [(cycle, queued.index(request)) for cycle, request in result.issue_order],
            )
        except Exception as exc:  # compared, not swallowed
            got = ("raised", type(exc), str(exc))
    records = trace.records if traced else None
    state = snap(side)
    if got[0] == "raised":
        side.mc.reset_channel()
    return got, records, state


def step(side, element):
    """Apply one stream element; the outcome of a drain, else None."""
    mc = side.mc
    kind = element[0]
    if kind == "queue":
        _, op, bank, row, col, value, count = element
        data = write_data(value, count) if op is MemOp.WRITE else None
        mc.enqueue(Request(op, bank // 4, bank % 4, row_of(side, row), col, data=data,
                           tag=len(mc._queue), count=count))
        return None
    if kind == "fence":
        mc.fence()
        return None
    if kind == "drain":
        return drained(side)
    if kind == "prea":
        mc.precharge_all()
        return None
    row = element[1]
    if kind == "bank writes" or not isinstance(mc.channel, PimPseudoChannel):
        writes = tuple(Run(True, row, 0, 8, True, 0, False, bank) for bank in range(16))
        return drained(side, writes, [write_data(31 * row + 5, 8)])
    # An all-bank write excursion: enter AB (behind what is queued), one
    # broadcast write, leave.
    memory_map = mc.channel.memory_map
    before = drained(side)
    mc.precharge_all()
    mc.closed_page_access(0, 0, memory_map.abmr_row)
    mc.write(0, 0, row, 4, write_data(row + 90, 2), count=2)
    during = drained(side)
    mc.precharge_all()
    mc.closed_page_access(0, 0, memory_map.sbmr_row)
    return before, during


def damage(side, faults):
    for fault in faults:
        bank = side.mc.channel.banks[fault[1]]
        if fault[0] == "dead":
            bank.fail(0)
        elif bank.is_failed:
            continue  # its cells are out of reach
        elif not isinstance(bank, EccBank):
            bank.flip_bit(fault[2], fault[3] * 256 + fault[4])
        elif fault[0] == "data":
            bank.inject_error(*fault[2:])
        else:
            bank.inject_check_error(*fault[2:])


def frame_vs_pick_path(
    mode, ecc, policy, window, prefix, wave, readback, faults, refresh, traced
):
    """The property: a controller that takes remembered frames and one
    that never remembers agree after every drain.  Returns how many frames
    the first one took."""
    sides = [
        Side(MemoryController, mode, ecc=ecc, timing=HBM2_1GHZ, policy=policy,
             window=window, refresh=refresh is not None)
        for _ in range(2)
    ]
    sides[1].mc._schedules = Forgetful()
    frames = []
    take = sides[0].mc._apply_frame
    sides[0].mc._apply_frame = lambda *args: frames.append(take(*args)) or frames[-1]
    for element in prefix:
        got, want = (step(side, element) for side in sides)
        assert got == want, element
    for wave_no in range(ROUNDS):
        for element in wave:
            got, want = (step(side, element) for side in sides)
            assert got == want, element
        for side in sides:
            damage(side, faults[wave_no])
        remembered = list(sides[0].mc._schedules.values())
        if refresh is not None and remembered:
            # The next refresh ``refresh`` cycles past the remembered
            # schedule's last refresh check: a frame only when it is after.
            due = remembered[-1].horizon + refresh
            for side in sides:
                side.mc._next_refresh = side.mc.current_cycle + due
        got, want = (drained(side, readback, traced=traced[wave_no]) for side in sides)
        assert got == want, f"readback of wave {wave_no}"
    return frames.count(True)


def differential(examples):
    """The property as a hypothesis test of ``examples`` drawn cases."""

    @settings(
        max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(**STRATEGIES)
    def check(**draws):
        frame_vs_pick_path(**draws)

    return check


test_a_frame_leaves_what_the_pick_path_leaves = differential(TIER1_EXAMPLES)


def test_the_strategy_reaches_frames_and_declines():
    """Fixed draws: the readback repeats its key from the second wave on
    (from the third behind an all-bank excursion, whose first wave starts
    from a fresh channel) and is a frame, traced or not, also over an
    armed mode FSM; a failed bank, an injected data word or check byte and
    a refresh due at the last refresh check each take the pick path; a
    flipped cell of a plain bank does not."""
    base = dict(
        mode="sb", ecc=True, policy=SchedulerPolicy.FRFCFS, window=16, prefix=[],
        wave=[("prea",), ("bank writes", 2)], readback=gemv_readback(1, 0),
        faults=[[]] * ROUNDS, refresh=None, traced=[False, True, False, True],
    )
    armed = base["wave"] + [("queue", MemOp.READ, 1, 3, 0, 0, 1), ("drain",)]
    cases = [
        ({}, 3),
        ({"wave": [("prea",), ("all-bank writes", 0)]}, 2),
        ({"wave": armed}, 3),
        ({"faults": [[], [("dead", 6)], [], []]}, 0),
        ({"ecc": False, "faults": [[], [("dead", 6)], [], []]}, 0),
        # A check bit stays flipped until its row is written or scrubbed.
        ({"faults": [[], [("check", 4, 1, 2, 1, 3)], [], []]}, 0),
        # A corrected data word's entry is dropped once a read finds it clean.
        ({"faults": [[], [("data", 4, 1, 0, 3)], [], []]}, 1),
        ({"ecc": False, "faults": [[], [("data", 4, 1, 0, 3)], [], []]}, 3),
        ({"refresh": 0}, 0),
        ({"refresh": 1}, 3),
    ]
    for change, frames in cases:
        assert frame_vs_pick_path(**dict(base, **change)) == frames, change


# -- fenced kernel programs: a GEMV tile's or an elementwise slot's AB-PIM
# program taken as one frame -------------------------------------------------
#
# A wave is what a kernel launch puts on one channel: enter AB, load the
# CRF of each drawn kernel whose microkernel the CRF does not hold —
# every wave starts with none, as a launch after another kernel's does
# (queued, as ``PimSession.program_crf`` does, so the first program
# behind it drains behind the load) — and batch-norm's SRF before each of
# its drains, with fresh scalars (``PimSession.write_srf``), then each
# drawn kernel's program drained once or twice, each time with fresh
# operand blocks, an AB-mode write program among them, then leave AB and
# read every GEMV tile back.  Between waves: data and check-byte injections on
# the weight and out rows, a failed bank, register upsets through the
# fault injector (a struck CRF word makes the units disagree); in the
# exec group the fused executor or (``exec_mode="scalar"``) the eager one.

KERNEL = st.one_of(
    # ("gemv", chunks, weight row, out row, out column, without PIM_OP_MODE=0)
    st.tuples(st.just("gemv"), st.integers(1, 6), st.integers(0, 1), st.integers(2, 3),
              st.sampled_from([0, 8]), st.sampled_from([False, False, False, True])),
    # (operator, 8-column groups, base row)
    st.tuples(
        st.sampled_from(sorted(ELEMENTWISE_OPS)), st.integers(1, 4), st.integers(0, 2)
    ),
    # ("ab writes", row, column, count): a fenced AB-mode write run, twice
    st.tuples(st.just("ab writes"), st.integers(0, 3), st.sampled_from([0, 8]),
              st.sampled_from([1, 8])),
)
# A register upset hits each unit with this probability.
UPSET = st.tuples(st.just("upset"), st.integers(0, 2**16), st.sampled_from([0.2, 1.0]))
PROGRAM_FAULT = st.one_of(
    st.tuples(st.just("data"), st.integers(0, 15), st.integers(0, 3), st.integers(0, 15),
              st.integers(0, 255)),
    st.tuples(st.just("check"), st.integers(0, 15), st.integers(0, 3), st.integers(0, 15),
              st.integers(0, 3), st.integers(0, 7)),
    st.tuples(st.just("dead"), st.integers(0, 15)),
    UPSET,
)
PROGRAM_STRATEGIES = dict(
    ecc=st.booleans(),
    exec_mode=st.sampled_from(["fused", "fused", "fused", "scalar"]),
    kernels=st.lists(st.tuples(KERNEL, st.integers(1, 2)), min_size=1, max_size=3),
    faults=st.lists(
        st.one_of(
            st.just([]), st.just([]), st.lists(PROGRAM_FAULT, min_size=1, max_size=2)
        ),
        min_size=ROUNDS, max_size=ROUNDS,
    ),
    fence_penalty=st.sampled_from([0, 7]),
    refresh=st.one_of(st.none(), st.integers(-2, 2)),
    traced=st.lists(st.booleans(), min_size=ROUNDS, max_size=ROUNDS),
    reload=st.booleans(),
    seed=st.integers(0, 2**16),
)


def kernel_program(channel, kernel):
    """``kernel``'s program on ``channel``, its microkernel (None: runs in
    AB mode, no CRF) and the number of operand blocks it takes."""
    memory_map = channel.memory_map
    if kernel[0] == "gemv":
        _, chunks, weight_row, out_row, out_col, open_ended = kernel
        body = stream.gemv_tile(chunks, 4, weight_row, out_row, out_col)
        program = stream.kernel_program(body, memory_map, clear_grf_b=True)
        source = GemvKernel.MICROKERNEL.format(reps=chunks - 1)
        return program[:-1] if open_ended else program, source, chunks
    if kernel[0] == "ab writes":
        _, row, col, count = kernel
        writes = tuple(Run(True, row, col, count, True, operand) for operand in (0, 1))
        return writes, None, 2
    op, groups, base_row = kernel
    program = stream.kernel_program(
        stream.elementwise_stream(op, groups, 16, base_row), memory_map
    )
    return program, ELEMENTWISE_OPS[op].microkernel.format(reps=groups - 1), 0


def load_crf(mc, source):
    """Queue the CRF writes of microkernel ``source``, then a fence, as
    ``PimSession.program_crf`` does."""
    words = np.array(assemble_words(source), dtype="<u4").view(np.uint8)
    for col in range(len(words) // 32):
        mc.write(0, 0, mc.channel.memory_map.crf_row, col, words[32 * col:32 * col + 32])
    mc.fence()


def load_srf(mc, scalars):
    """Queue SRF_M and SRF_A — the two rows of ``scalars`` — then a fence,
    as ``PimSession.write_srf`` does."""
    for col in (0, 1):
        mc.write(0, 0, mc.channel.memory_map.srf_row, col, scalars[col])
    mc.fence()


def operand_blocks(rng, operands):
    """Fresh operand blocks, then the constants every launch keeps at the
    end of its list (``stream.MODE_ON``, ``MODE_OFF``, ``ZEROS``)."""
    on = np.zeros(32, dtype=np.uint8)
    on[0] = 1
    blocks = [
        rng.standard_normal((8, 16)).astype(np.float16).view(np.uint8)
        for _ in range(operands)
    ]
    return blocks + [on, np.zeros(32, dtype=np.uint8), np.zeros((8, 32), dtype=np.uint8)]


def exec_snapshot(side):
    """Everything an exec group and the all-bank state hold: the stacked
    registers, CRF, sequencers and per-unit stats, the tape, the trace
    cache's stats and key order, the replay and fallback counts, and the
    shared all-bank state as the drain left it (before ``snapshot``
    folds it into the banks)."""
    channel = side.mc.channel
    group = channel.lockstep
    units = [
        (unit.regs.grf_a.tobytes(), unit.regs.grf_b.tobytes(), unit.regs.srf_m.tobytes(),
         unit.regs.srf_a.tobytes(), list(unit.regs.crf), unit.sequencer_state(),
         vars(unit.stats).copy())
        for unit in channel.units
    ]
    fused = None
    if isinstance(group, FusedLockstepGroup):
        fused = (
            [(t.is_write, t.row, t.col, t.count,
              None if t.host_data is None else t.host_data.tobytes()) for t in group._tape],
            vars(group.cache.stats).copy(), group.cache.keys(),
            group.fused_replays, group.fused_fallbacks,
        )
    shared = (
        channel._ab_row, channel._ab_act, channel._ab_pre, channel._ab_rd, channel._ab_wr,
        channel._ab_acts, channel._ab_rds, channel._ab_wrs, channel._ab_stale,
        channel.pim_op_mode, channel.pim_triggered_columns, channel.ab_broadcast_columns,
    )
    return units, fused, shared


def program_drained(side, program=(), blocks=(), traced=False):
    """``drained``, with the exec group's state and the channel tracer's
    mode events."""
    got, records, state = drained(
        side, program, blocks, traced, lambda side: (exec_snapshot(side), snapshot(side))
    )
    tracer = side.mc.channel.tracer
    return got, records, state, None if tracer is None else list(tracer.events)


def program_damage(side, faults):
    """``damage``, and register upsets through the fault injector."""
    for fault in faults:
        if fault[0] != "upset":
            damage(side, [fault])
            continue
        _, seed, rate = fault
        system = SimpleNamespace(
            num_pchs=1, device=SimpleNamespace(pch=lambda _: side.mc.channel),
            _trace_cache=getattr(side.mc.channel.lockstep, "cache", None),
        )
        config = FaultConfig(register_fault_rate=rate, seed=seed)
        FaultInjector(system, config).corrupt_registers()


def program_side(ecc, exec_mode, fence_penalty, refresh):
    side = Side(MemoryController, "sb", fused=exec_mode == "fused", ecc=ecc,
                timing=HBM2_1GHZ, fence_penalty=fence_penalty, refresh=refresh)
    if exec_mode == "scalar":
        side.mc.channel.lockstep = LockstepGroup(side.mc.channel.units)
    return side


def program_frames_vs_lone_path(
    ecc, exec_mode, kernels, faults, fence_penalty, refresh, traced, reload, seed
):
    """The property: a controller that takes remembered frames of fenced
    kernel programs and one that never remembers agree after every drain
    — on everything ``snapshot`` compares, the exec groups, the trace and
    the mode events.  Returns how many frames of a fenced program the
    first one took, and how many of those were behind a queued register
    load.  With ``reload`` every wave starts with no microkernel loaded,
    as a launch after another kernel's does; without it a load carries
    over to later waves, as a microkernel cache hit does, and a CRF struck
    by an upset stays struck.  (Drawn bank bytes as FP16 overflow: both
    sides compute the same infinities and NaNs.)"""
    with np.errstate(over="ignore", invalid="ignore"):
        return _program_waves(
            ecc, exec_mode, kernels, faults, fence_penalty, refresh, traced, reload, seed
        )


def _program_waves(
    ecc, exec_mode, kernels, faults, fence_penalty, refresh, traced, reload, seed
):
    sides = [
        program_side(ecc, exec_mode, fence_penalty, refresh is not None) for _ in range(2)
    ]
    sides[1].mc._schedules = Forgetful()
    taken = []
    take = sides[0].mc._apply_frame

    def counted(schedule, *args):
        prefixed = bool(sides[0].mc._queue)
        applied = take(schedule, *args)
        if applied and schedule.frame.program is not None:
            taken.append(prefixed)
        return applied

    sides[0].mc._apply_frame = counted
    loaded = [None, None]
    for wave_no in range(ROUNDS):
        rng = np.random.default_rng((seed, wave_no))
        if reload:
            loaded = [None, None]
        for side in sides:
            side.mc.channel.tracer = Tracer() if traced[wave_no] else None

        def both(action):
            got, want = (action(i, side) for i, side in enumerate(sides))
            assert got == want, f"wave {wave_no}"

        def enter(i, side):
            mc = side.mc
            out = program_drained(side)
            mc.precharge_all()
            mc.closed_page_access(0, 0, mc.channel.memory_map.abmr_row)
            return out

        both(enter)
        timed = refresh is not None
        for kernel, times in kernels:
            program, source, operands = kernel_program(sides[0].mc.channel, kernel)

            def load(i, side):
                if source is not None and loaded[i] != source:
                    loaded[i] = source
                    load_crf(side.mc, source)

            both(load)
            for _ in range(times):
                if kernel[0] == "bn":
                    scalars = rng.standard_normal((2, 16)).astype(np.float16).view(np.uint8)
                    for side in sides:
                        load_srf(side.mc, scalars)
                blocks = operand_blocks(rng, operands)
                if timed:
                    # The next refresh ``refresh`` cycles past the frame's
                    # refresh horizon: a frame only when it is after it.
                    key = [
                        side.mc._schedule_key(program, side.mc._prefix() if side.mc._queue else ())
                        for side in sides
                    ][0]
                    schedule = sides[0].mc._schedules.get(key)
                    if schedule is not None:
                        timed = False
                        for side in sides:
                            side.mc._next_refresh = (
                                side.mc.current_cycle + schedule.horizon + refresh
                            )
                both(lambda i, side: program_drained(
                    side, program, blocks, traced[wave_no]
                ))

        def leave(i, side):
            mc = side.mc
            out = program_drained(side)
            mc.precharge_all()
            mc.closed_page_access(0, 0, mc.channel.memory_map.sbmr_row)
            return out

        both(leave)
        for kernel, _ in kernels:
            if kernel[0] == "gemv":
                readback = gemv_readback(kernel[3], kernel[4])
                both(lambda i, side: program_drained(side, readback, (), traced[wave_no]))
        for side in sides:
            program_damage(side, faults[wave_no])
    return len(taken), taken.count(True)


def program_differential(examples):
    """The program property as a hypothesis test of ``examples`` cases."""

    @settings(
        max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(**PROGRAM_STRATEGIES)
    def check(**draws):
        program_frames_vs_lone_path(**draws)

    return check


PROGRAM_TIER1_EXAMPLES = 12

test_a_program_frame_leaves_what_the_lone_runs_leave = program_differential(
    PROGRAM_TIER1_EXAMPLES
)


def test_the_program_strategy_reaches_frames_and_declines():
    """Fixed draws: a GEMV tile and an AB write program, each drained
    twice a wave on an ECC channel, as (frames, frames behind a queued
    register load).  From the second wave on they are frames — 11 in all:
    in the first wave every program's key is new, in the second the
    tile's first drain, behind the CRF load, starts from a new entry CRF;
    in the third and fourth that drain is a frame with its load.  A check
    byte flipped on the weight row stays and declines every later tile
    frame; a flipped data word there is corrected and dropped by the
    first read of it; a failed bank raises; a register upset that strikes
    the CRF makes the units disagree — the next wave's load finds no
    frame entry, and repairs the CRF; with the load carried over from the
    first wave instead (no ``reload``: no tile is behind a load after it),
    the units disagree for good and no later drain is a frame — and the
    eager exec group never defers; a refresh due at a frame's horizon
    takes the queue path, one due a cycle after it does not; a tile that
    leaves PIM_OP_MODE on flushes its triggers at the next tile's GRF_B
    clear, before any ``start_all``, so that next tile is never a frame —
    but one that follows a closed tile is.  Batch-norm behind its SRF loads, fresh
    scalars every drain, is a frame behind the CRF and SRF loads and
    behind the SRF load alone."""
    base = dict(
        ecc=True, exec_mode="fused",
        kernels=[(("gemv", 4, 0, 2, 8, False), 2), (("ab writes", 3, 8, 8), 2)],
        faults=[[]] * ROUNDS, fence_penalty=7, refresh=None,
        traced=[False, True, False, True], reload=True, seed=5,
    )
    cases = [
        ({}, (11, 2)),
        ({"faults": [[("check", 4, 0, 3, 1, 2)], [], [], []]}, (11 - 5, 0)),
        ({"faults": [[("data", 4, 0, 3, 17)], [], [], []]}, (11 - 1, 2)),
        ({"faults": [[], [("dead", 9)], [], []]}, (3, 0)),
        ({"faults": [[("upset", 3, 1.0)], [], [], []]}, (10, 1)),
        ({"reload": False}, (11, 0)),
        ({"faults": [[("upset", 3, 1.0)], [], [], []], "reload": False}, (0, 0)),
        ({"exec_mode": "scalar"}, (0, 0)),
        ({"refresh": 0}, (5, 0)),
        ({"refresh": 1}, (7, 2)),
        ({"kernels": [(("gemv", 4, 0, 2, 8, True), 2)]}, (0, 0)),
        # Behind a closed tile the open one starts in AB with no tape: a
        # frame, left in AB-PIM with PIM_OP_MODE on and its tape pending.
        ({"kernels": [
            (("gemv", 4, 0, 2, 8, False), 2), (("gemv", 4, 1, 3, 0, True), 1),
        ]}, (6, 0)),
        ({"kernels": [(("gemv", 4, 0, 2, 8, False), 2), (("bn", 2, 1), 2)]}, (11, 8)),
    ]
    for change, frames in cases:
        assert program_frames_vs_lone_path(**dict(base, **change)) == frames, change


def test_a_traced_program_frame_shows_what_its_lone_runs_show():
    """A GEMV tile drained three times under ``tools.trace_channel`` and a
    ``repro.obs`` tracer: the third drain starts from the state the second
    did and is a frame, and both tracers see what they see of the lone runs — the
    trigger bursts one record each, the GRF_B clear's eight register
    columns, every ACT and PRE and the mode at each command; a
    ``mode:all-bank-pim`` and a ``mode:all-bank`` event at the
    PIM_OP_MODE writes' cycles."""
    sides = [program_side(False, "fused", 7, False) for _ in range(2)]
    sides[1].mc._schedules = Forgetful()
    program, source, operands = kernel_program(
        sides[0].mc.channel, ("gemv", 4, 0, 2, 8, False)
    )
    for side in sides:
        mc = side.mc
        mc.precharge_all()
        mc.closed_page_access(0, 0, mc.channel.memory_map.abmr_row)
        load_crf(mc, source)
        mc.drain()
        mc.channel.tracer = Tracer()
    rng = np.random.default_rng(3)
    taken = []
    take = sides[0].mc._apply_frame
    sides[0].mc._apply_frame = lambda *args: taken.append(take(*args)) or taken[-1]
    for _ in range(3):
        blocks = operand_blocks(rng, operands)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = (
                program_drained(side, program, blocks, traced=True) for side in sides
            )
        assert got == want
    assert taken == [True]
    records, events = got[1], got[3]
    assert [(r.count, r.mode) for r in records if r.cmd_type.is_column and r.count > 1] == [
        (8, "all-bank-pim")
    ] * (2 * 4 + 1)
    grf_row = sides[0].mc.channel.memory_map.grf_row
    grf_columns = [
        (r.col, r.count) for r in records if r.row == grf_row and r.cmd_type.is_column
    ]
    assert grf_columns == [(col, 1) for col in range(8, 16)]
    conf_row = sides[0].mc.channel.memory_map.conf_row
    writes = [r.cycle for r in records if r.row == conf_row and r.cmd_type.is_column]
    assert [(e.name, e.attrs["cycle"]) for e in events[-2:]] == [
        ("mode:all-bank-pim", writes[0]), ("mode:all-bank", writes[1]),
    ]


def test_a_frame_is_keyed_on_the_crf_bytes_its_load_writes():
    """One relu program drained behind the CRF load of its own microkernel
    three waves running, then behind the load of GEMV's, from the same
    entry CRF (add's, loaded and run first each wave) and timing state.
    The loaded bytes decide the program the windows run on: add is a
    frame from the second wave on and relu in the third; behind GEMV's
    bytes relu is a new key — GEMV's first instruction takes a host
    operand, relu's first trigger reads a bank — and raises at the
    window's flush on the queue path, as it does on the forgetful side."""
    sides = [program_side(False, "fused", 7, False) for _ in range(2)]
    sides[1].mc._schedules = Forgetful()
    frames = []
    take = sides[0].mc._apply_frame
    sides[0].mc._apply_frame = lambda *args: frames.append(take(*args)) or frames[-1]
    channel = sides[0].mc.channel
    add, add_source, _ = kernel_program(channel, ("add", 1, 0))
    relu, relu_source, _ = kernel_program(channel, ("relu", 1, 1))
    gemv_source = GemvKernel.MICROKERNEL.format(reps=0)
    rng = np.random.default_rng(7)
    for source in (relu_source, relu_source, relu_source, gemv_source):
        blocks = operand_blocks(rng, 0)
        outcomes = []
        for side in sides:
            mc = side.mc
            drained(side)
            mc.precharge_all()
            mc.closed_page_access(0, 0, mc.channel.memory_map.abmr_row)
            load_crf(mc, add_source)
            with np.errstate(over="ignore", invalid="ignore"):
                outcome = [program_drained(side, add, blocks)]
                load_crf(mc, source)
                outcome.append(program_drained(side, relu, blocks))
            mc.precharge_all()
            mc.closed_page_access(0, 0, mc.channel.memory_map.sbmr_row)
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1], source
    assert outcomes[0][1][0][:2] == ("raised", PimProgramError)
    assert frames == [True] * 4  # add's in waves 2-4, relu's in wave 3


def test_only_untagged_register_writes_are_a_prefix():
    """Queued ahead of an elementwise program, wave after wave: an SRF
    write is its frame's prefix; a bank-row write, a tagged register read
    and a tagged register write are no prefix (``_prefix`` is None), so
    the program drains off the queue every time — no frame behind them —
    with the same outcome as on the forgetful side."""
    def queue(mc, kind):
        memory_map = mc.channel.memory_map
        if kind == "srf":
            mc.write(0, 0, memory_map.srf_row, 0, write_data(3, 1))
        elif kind == "bank row":
            mc.write(1, 2, 3, 0, write_data(4, 1))
        elif kind == "tagged read":
            mc.read(0, 0, memory_map.srf_row, 1, tag="srf")
        else:
            mc.write(0, 0, memory_map.grf_row, 0, write_data(5, 1), tag="grf")
        mc.fence()

    for kind, prefixed in (
        ("srf", 2), ("bank row", 0), ("tagged read", 0), ("tagged write", 0),
    ):
        sides = [program_side(True, "fused", 7, False) for _ in range(2)]
        sides[1].mc._schedules = Forgetful()
        behind = []
        take = sides[0].mc._apply_frame

        def counted(*args, mc=sides[0].mc):
            queued = bool(mc._queue)
            applied = take(*args)
            behind.append(applied and queued)
            return applied

        sides[0].mc._apply_frame = counted
        program, source, _ = kernel_program(sides[0].mc.channel, ("bn", 1, 0))
        rng = np.random.default_rng(11)
        for side in sides:
            mc = side.mc
            mc.precharge_all()
            mc.closed_page_access(0, 0, mc.channel.memory_map.abmr_row)
            load_crf(mc, source)
            drained(side)
        for _ in range(ROUNDS):
            blocks = operand_blocks(rng, 0)
            for side in sides:
                queue(side.mc, kind)
                assert (side.mc._prefix() is None) is (not prefixed), kind
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = (program_drained(side, program, blocks) for side in sides)
            assert got == want, kind
        assert behind.count(True) == prefixed, kind
