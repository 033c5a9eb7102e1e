"""A remembered program taken as one channel frame vs the command path.

The controller remembers the pick path's schedule of a read-only program
that is one fence epoch of several runs (the GEMV readback), keyed by the
timing state it started from; the next drain from an equal state hands
the channel the recorded end state (``PseudoChannel.apply_frame``) and
moves each read run's bytes as one block.  The oracle is the pick path
itself: a twin controller whose frame cache is ``Forgetful``
(``tests/dram/frame_seam.py``) drains every program command by command.

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
``words_checked`` and the controller's end snapshot, each left as it was.  A
frame applied over a failed bank or an injection entry is killed by
``test_the_strategy_reaches_frames_and_declines``.

The second half does the same for a launch's fenced program — a GEMV
tile's, an elementwise slot's, an AB write program's, carrying the CRF /
SRF loads and the mode transitions a launch carries — remembered from its
lone runs and taken as one frame: drawn kernel waves (each wave's
microkernels loaded afresh or kept from the wave before, fresh operand
blocks and scalars every drain, the transition into AB mode on the
wave's first program or drained alone and the one back on its last or
alone, ECC on or off, injections on weight and out rows, failed banks,
register upsets through the fault injector, the fused or the eager exec
group, a refresh at the frame's horizon, ``tools.trace_channel`` and a
``repro.obs`` tracer on or off), compared after every drain on all of
the above plus the stacked GRF / SRF, the CRF, the sequencers, per-unit
stats, the exec group's tape, its ``TraceCache`` stats and key order and
replay / fallback counts, ``pim_op_mode``, the column counters, the mode
events and the ``drain`` spans.  A program frame recorded with no banks
(``banks=()``) fails ``test_a_program_frame_leaves_what_the_lone_runs_leave``.
One mutant per other new component fails the fixed draws of
``test_the_program_strategy_reaches_frames_and_declines`` and
``test_a_traced_program_frame_shows_what_its_lone_runs_show`` (CHANGES.md
lists them): ``_take`` without the AB writes' ``wr_count``,
``pim_triggered_columns``, ``ab_broadcast_columns``, the FSM's mode, its
``transition_count``, ``pim_op_mode``, a dropped or a reordered data
event, the recorded drain's blocks for this one's, the refresh horizon
off by one either way, the controller's end snapshot without its fence penalties
or its fences; carrying a register load, the recorded drain's SRF bytes
for this one's; across a transition, a frame that drops the armed row,
the transitions' ``transition_count``, the single-bank ACT's own tally
or the segments' busy cycles.
``test_a_frame_crosses_its_transitions_as_drain_boundaries`` pins where
the ``drain`` span, the busy cycles and the mode events of a launch's
frame fall; ``test_a_frame_is_keyed_on_the_crf_bytes_its_load_writes``
kills a key without the loaded CRF bytes,
``test_only_a_keyed_crf_load_is_framed`` a CRF load whose bytes are in no
key taken down as a frame.  A transition charging a fence penalty or
counting busy cycles on the command path fails the recorded launch
corpus of ``tests/stack/test_launch.py``.

A program frame replays each AB-PIM window by the trace key it recorded
and writes the units' state once; the drawn faults include the channel's
compiled traces evicted, so a later frame's window misses and
rebuilds its tape, and the drawn kernels include programs of two windows
and launches: GEMV tile programs joined at seams (``stream.launch``),
which the controller crosses with no fence penalty and the frame takes
down window by window however many there are.
The fixed draws kill: the frame's closing write of stats and sequencer
state skipped, the recorded end sequencer state dropped, the open
window's triggers not put back on the tape, ``fused_replays`` not
counted, a window's HOST blocks out of order, a miss compiled without
its put, two windows' stats taken from the first alone;
``test_a_window_that_raises_in_a_frame_leaves_the_units_as_its_flush_does``
kills a raise that does not first put the units at the window's entry
state.

A frame asks its channel one verdict (``PseudoChannel.vouched``) and each
bank for each row only where that says no.  The drawn kernel waves add
banks of a class of their own and scrubbed rows, and the property counts
the programs declined for each reason in :data:`DECLINES`, which the
fixed draws pin; ``test_the_channel_verdict_is_every_bank_on_every_row``
holds the verdict equal to every bank's answer for every row.  Together
they kill the verdict not reset by a failure, by either injection or by
an entry dropped by a read, a write or a scrub, a verdict that ignores
the bank class or the injection entries, and one not shared by the
channel's banks.
"""

from contextlib import nullcontext
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank
from repro.dram.commands import CommandType
from repro.dram.controller import MemOp, MemoryController, Request, SchedulerPolicy
from repro.dram.frames import CheckedProgram
from repro.dram.ecc import EccBank, UncorrectableError
from repro.dram.timing import HBM2_1GHZ
from repro.errors import PimDataError, PimProgramError
from repro.faults.injector import FaultConfig, FaultInjector
from repro.obs import Tracer
from repro.pim import fused, stream
from repro.pim.assembler import assemble_words
from repro.pim.device import PimPseudoChannel
from repro.pim.fused import FusedLockstepGroup
from repro.pim.lockstep import LockstepGroup
from repro.pim.stream import Run, gemv_readback
from repro.stack.kernels import ELEMENTWISE_OPS, GemvKernel
from repro.tools import trace_channel

from .frame_seam import Forgetful, frames_taken, remembered, remembered_for
from .test_controller_differential import Side, make_channel, write_data

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
    with pytest.MonkeyPatch.context() as patch:
        return _readback_waves(
            patch, mode, ecc, policy, window, prefix, wave, readback, faults, refresh, traced
        )


def _readback_waves(
    patch, mode, ecc, policy, window, prefix, wave, readback, faults, refresh, traced
):
    sides = [
        Side(MemoryController, mode, ecc=ecc, timing=HBM2_1GHZ, policy=policy,
             window=window, refresh=refresh is not None)
        for _ in range(2)
    ]
    sides[1].mc.frames = Forgetful()
    frames = frames_taken(patch, sides[0].mc.frames)
    for element in prefix:
        got, want = (step(side, element) for side in sides)
        assert got == want, element
    for wave_no in range(ROUNDS):
        for element in wave:
            got, want = (step(side, element) for side in sides)
            assert got == want, element
        for side in sides:
            damage(side, faults[wave_no])
        kept = remembered(sides[0].mc)
        if refresh is not None and kept:
            # The next refresh ``refresh`` cycles past the remembered
            # schedule's last refresh check: a frame only when it is after.
            due = kept[-1].horizon + refresh
            for side in sides:
                side.mc._next_refresh = side.mc.current_cycle + due
        got, want = (drained(side, readback, traced=traced[wave_no]) for side in sides)
        assert got == want, f"readback of wave {wave_no}"
    return len(frames)


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


# -- fenced kernel programs: a launch's program from SB mode back to SB mode,
# a GEMV tile's or an elementwise slot's AB-PIM program among them, taken as
# one frame ---------------------------------------------------------------
#
# A wave is what kernel launches put on one channel: each drawn kernel's
# program drained once or twice, each time with fresh operand blocks, an
# AB-mode write program among them — each carrying, as a launch does, the
# CRF load of its microkernel where the CRF does not hold it (every wave
# starts with none, as a launch after another kernel's does) and
# batch-norm's SRF load with fresh scalars — the wave's first program the
# transition into AB mode and its last the transition back, or each
# transition drawn as a program of its own; then every GEMV tile read
# back.  Between waves: data and check-byte injections on the weight and
# out rows, a failed bank, register upsets through the fault injector (a
# struck CRF word makes the units disagree); in the exec group the fused
# executor or (``exec_mode="scalar"``) the eager one.

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
    # ("two windows", chunks, weight row, out row, out column, split): a
    # GEMV tile's program with the GRF_B clear also after its first chunk
    # (a flush inside the AB-PIM window), or followed by the tile's program
    # to the other 8 out columns
    st.tuples(st.just("two windows"), st.integers(2, 4), st.integers(0, 1),
              st.integers(2, 3), st.sampled_from([0, 8]), st.booleans()),
    # ("launch", chunks, weight row, out row, tiles): the programs of that
    # many GEMV tiles, to out columns 0, 8, ..., joined at seams
    # (``stream.launch``), each staging its own chunks
    st.tuples(st.just("launch"), st.integers(1, 3), st.integers(0, 1), st.integers(2, 3),
              st.integers(2, 3)),
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
    # The channel's compiled traces evicted, as a full cache evicts them.
    st.just(("evict",)),
    # ("scrub", bank, row): an ECC bank's row scrubbed, its entries dropped.
    st.tuples(st.just("scrub"), st.integers(0, 15), st.integers(0, 3)),
)
PROGRAM_STRATEGIES = dict(
    ecc=st.booleans(),
    own_class=st.sampled_from([False] * 7 + [True]),
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
    # Whether the transition into AB mode rides on the wave's first
    # program (or is drained alone), and the one back on its last.
    entry=st.booleans(),
    leave=st.booleans(),
    # Whether each wave starts with a read of the SBMR row, which leaves
    # the mode FSM armed at the entry.
    armed=st.sampled_from([False, False, False, True]),
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
    if kernel[0] == "two windows":
        _, chunks, weight_row, out_row, out_col, split = kernel
        source = GemvKernel.MICROKERNEL.format(reps=chunks - 1)
        tile = stream.gemv_tile(chunks, 4, weight_row, out_row, out_col)
        if split:
            clear = Run(True, memory_map.grf_row, 8, 8, True)
            body = tile[:2] + (clear,) + tile[2:]
            return stream.kernel_program(body, memory_map), source, chunks
        other = stream.gemv_tile(chunks, 4, weight_row, out_row, out_col ^ 8)
        program = sum(
            (stream.kernel_program(body, memory_map, clear_grf_b=True) for body in (tile, other)),
            (),
        )
        return program, source, chunks
    if kernel[0] == "launch":
        _, chunks, weight_row, out_row, tiles = kernel
        program = stream.launch(
            (stream.kernel_program(
                stream.gemv_tile(chunks, 4, weight_row, out_row, 8 * tile), memory_map,
                clear_grf_b=True,
            ), tile * chunks)
            for tile in range(tiles)
        )
        return program, GemvKernel.MICROKERNEL.format(reps=chunks - 1), tiles * chunks
    if kernel[0] == "ab writes":
        _, row, col, count = kernel
        writes = tuple(Run(True, row, col, count, True, operand) for operand in (0, 1))
        return writes, None, 2
    op, groups, base_row = kernel
    program = stream.kernel_program(
        stream.elementwise_stream(op, groups, 16, base_row), memory_map
    )
    return program, ELEMENTWISE_OPS[op].microkernel.format(reps=groups - 1), 0


def crf_image(source):
    """The CRF bytes of microkernel ``source``, a ``(4, 32)`` block."""
    return np.array(assemble_words(source), dtype="<u4").view(np.uint8).reshape(-1, 32)


def launched(channel, body, enter=False, leave=False, source=None, srf=False, keyed=True):
    """``body`` as a launch drains it (``stream.sb_to_sb``): entering and
    leaving AB mode as drawn, loading the CRF with ``source``'s image
    (its bytes keyed as production keys them, or not) and the SRF with
    ``srf``."""
    memory_map = channel.memory_map
    program = stream.sb_to_sb(body, memory_map, enter, leave, 0 if source is None else 4, srf)
    return CheckedProgram(program, keyed_rows=(memory_map.crf_row,) if keyed else ())


def operand_blocks(rng, operands, source=None, scalars=None):
    """Fresh operand blocks, then the blocks every launch keeps at the end
    of its list (``stream.SRF``, ``CRF``, ``MODE_ON``, ``MODE_OFF``,
    ``ZEROS``): ``scalars`` (two SRF columns), ``source``'s CRF image."""
    on = np.zeros(32, dtype=np.uint8)
    on[0] = 1
    blocks = [
        rng.standard_normal((8, 16)).astype(np.float16).view(np.uint8)
        for _ in range(operands)
    ]
    srf = np.zeros((2, 32), dtype=np.uint8) if scalars is None else scalars
    crf = np.zeros((4, 32), dtype=np.uint8) if source is None else crf_image(source)
    return blocks + [srf, crf, on, np.zeros(32, dtype=np.uint8), np.zeros((8, 32), dtype=np.uint8)]


def fresh_scalars(rng):
    """Batch-norm's SRF columns: 16 fresh FP16 values each."""
    return rng.standard_normal((2, 16)).astype(np.float16).view(np.uint8)


def exec_snapshot(side):
    """Everything an exec group holds — the stacked registers, CRF,
    sequencers and per-unit stats, the tape, the trace cache's stats and
    key order, the replay and fallback counts — and the PIM channel's
    ``pim_op_mode`` and column counters (``snapshot`` compares the
    banks)."""
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
    counters = (
        channel.pim_op_mode, channel.pim_triggered_columns, channel.ab_broadcast_columns,
    )
    return units, fused, counters


def program_drained(side, program=(), blocks=(), traced=False):
    """``drained``, with the exec group's state and the channel tracer's
    mode events and the controller's drain spans."""
    got, records, state = drained(
        side, program, blocks, traced, lambda side: (exec_snapshot(side), snapshot(side))
    )
    tracer = side.mc.channel.tracer
    if tracer is None:
        return got, records, state, None, None
    spans = [(s.name, s.start_ns, s.end_ns, dict(s.attrs)) for s in tracer.spans]
    return got, records, state, list(tracer.events), spans


def program_damage(side, faults):
    """``damage``, register upsets through the fault injector, the
    channel's compiled traces evicted and a live ECC bank's row
    scrubbed."""
    for fault in faults:
        if fault[0] == "evict":
            group = side.mc.channel.lockstep
            if isinstance(group, FusedLockstepGroup):
                group.cache._entries.clear()
            continue
        if fault[0] == "scrub":
            bank = side.mc.channel.banks[fault[1]]
            if isinstance(bank, EccBank) and not bank.is_failed:
                bank.scrub_row(fault[2])
            continue
        if fault[0] != "upset":
            damage(side, [fault])
            continue
        _, seed, rate = fault
        system = SimpleNamespace(
            num_pchs=1, device=SimpleNamespace(pch=lambda _: side.mc.channel),
        )
        config = FaultConfig(register_fault_rate=rate, seed=seed)
        FaultInjector(system, config).corrupt_registers()


class OwnBank(Bank):
    """A bank class of its own: no frame is taken over its rows."""


class OwnEccBank(EccBank):
    """An ECC bank class of its own."""


#: Why a channel declined a program's frame, checked in this order: a
#: failed bank, a bank of a class of its own, an injection entry on a row
#: the program reaches.
DECLINES = ("a failed bank", "a bank class of its own", "an injected row")


def decline(channel, frame):
    """The index in :data:`DECLINES` of why ``channel`` declined a
    program's ``frame``, or None (a block of another shape or value)."""
    banks = channel.banks
    if any(bank.is_failed for bank in banks):
        return 0
    if any(type(bank) not in (Bank, EccBank) for bank in banks):
        return 1
    if not all(bank.framed(row) for row in frame.program.rows for bank in banks):
        return 2
    return None


def program_side(ecc, exec_mode, fence_penalty, refresh, own_class=False):
    bank_cls = (OwnEccBank if ecc else OwnBank) if own_class else None
    side = Side(MemoryController, "sb", fused=exec_mode == "fused", ecc=ecc,
                timing=HBM2_1GHZ, fence_penalty=fence_penalty, refresh=refresh,
                bank_cls=bank_cls)
    side.mc.channel.tracer = None
    if exec_mode == "scalar":
        side.mc.channel.lockstep = LockstepGroup(side.mc.channel.units)
    return side


def trace_sides(sides, traced):
    """A fresh ``repro.obs`` tracer on both the channel and the controller
    of each side, or none."""
    for side in sides:
        tracer = Tracer() if traced else None
        side.mc.channel.tracer = side.mc.tracer = tracer


def program_frames_vs_lone_path(
    ecc, exec_mode, kernels, faults, fence_penalty, refresh, traced, reload, seed,
    own_class=False, entry=True, leave=True, armed=False,
):
    """The property: a controller that takes remembered frames of fenced
    kernel programs and one that never remembers agree after every drain
    — on everything ``snapshot`` compares, the exec groups, the trace,
    the mode events and the drain spans.  Returns how many frames of a
    fenced program the first one took, how many of those carried a
    register load, how many of their closed windows replayed by the
    recorded trace key and were rebuilt after a trace-cache miss, how many
    remembered programs its channel declined for each of
    :data:`DECLINES`, how many of its frames replayed more than one window
    or crossed a seam, and how many crossed a mode transition.  Its banks
    are of a class of their own with ``own_class``.  With ``reload``
    every wave starts with no microkernel loaded, as a launch after
    another kernel's does; without it a load carries over to later waves,
    as a microkernel cache hit does, and a CRF struck by an upset stays
    struck.  ``entry`` / ``leave``: the transitions ride on the wave's
    first / last program, else each is a program of its own; with
    ``armed`` a read of the SBMR row arms the FSM first.  (Drawn bank
    bytes as FP16 overflow: both sides compute the same infinities and
    NaNs.)"""
    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as patch:
        return _program_waves(
            patch, ecc, exec_mode, kernels, faults, fence_penalty, refresh, traced, reload,
            seed, own_class, entry, leave, armed,
        )


def _program_waves(
    patch, ecc, exec_mode, kernels, faults, fence_penalty, refresh, traced, reload, seed,
    own_class, entry, leave, armed,
):
    sides = [
        program_side(ecc, exec_mode, fence_penalty, refresh is not None, own_class)
        for _ in range(2)
    ]
    sides[1].mc.frames = Forgetful()
    frames = frames_taken(patch, sides[0].mc.frames)
    taken = []
    declined = [0] * len(DECLINES)
    drawn = {"seam": False, "load": False, "transition": False}  # of the program drained now
    multiple = [0]  # frames of more than one window or across a seam
    crossing = [0]  # frames across a mode transition
    channel = sides[0].mc.channel
    apply_program = channel._apply_program

    def counted_apply_program(frame, *args):
        applied = apply_program(frame, *args)
        reason = None if applied else decline(channel, frame)
        if reason is not None:
            declined[reason] += 1
        return applied

    channel._apply_program = counted_apply_program
    windows = {"by key": 0, "rebuilt": 0}
    group = sides[0].mc.channel.lockstep
    if isinstance(group, FusedLockstepGroup):
        replay_window = group.replay_window

        def counted_window(window, blocks):
            windows["by key" if window.key in group.cache._entries else "rebuilt"] += 1
            return replay_window(window, blocks)

        group.replay_window = counted_window
    loaded = None
    memory_map = channel.memory_map
    alone = {
        row: CheckedProgram((stream.transition(row),))
        for row in (memory_map.abmr_row, memory_map.sbmr_row)
    }
    for wave_no in range(ROUNDS):
        rng = np.random.default_rng((seed, wave_no))
        if reload:
            loaded = None
        trace_sides(sides, traced[wave_no])
        timed = refresh is not None

        def both(program, blocks=()):
            got, want = (
                program_drained(side, program, blocks, traced[wave_no]) for side in sides
            )
            assert got == want, f"wave {wave_no}"
            for frame in frames:
                if frame.program is not None:
                    taken.append(drawn["load"])
                    events = frame.program.events
                    multiple[0] += drawn["seam"] or sum(e[0] == "window" for e in events) > 1
                    crossing[0] += drawn["transition"]
            frames.clear()

        if armed:
            both(CheckedProgram((Run(False, memory_map.sbmr_row, 0, 1, False, bank=5),)))
        if not entry:
            drawn.update(seam=False, load=False, transition=True)
            both(alone[memory_map.abmr_row])
        drains = [
            (kernel, *kernel_program(channel, kernel))
            for kernel, times in kernels for _ in range(times)
        ]
        for index, (kernel, body, source, operands) in enumerate(drains):
            load = source is not None and loaded != source
            loaded = source if load else loaded
            scalars = fresh_scalars(rng) if kernel[0] == "bn" else None
            program = launched(
                channel, body, entry and index == 0, leave and index == len(drains) - 1,
                source if load else None, scalars is not None,
            )
            blocks = operand_blocks(rng, operands, source, scalars)
            if timed:
                # The next refresh ``refresh`` cycles past the frame's
                # refresh horizon: a frame only when it is after it.
                schedule = remembered_for(sides[0].mc, program, blocks)
                if schedule is not None:
                    timed = False
                    for side in sides:
                        side.mc._next_refresh = (
                            side.mc.current_cycle + schedule.horizon + refresh
                        )
            drawn.update(
                seam=any(run.seam for run in program), load=load or scalars is not None,
                transition=any(run.transition for run in program),
            )
            both(program, blocks)
        if not leave:
            drawn.update(seam=False, load=False, transition=True)
            both(alone[memory_map.sbmr_row])
        for kernel, _ in kernels:
            if kernel[0] == "gemv":
                both(gemv_readback(kernel[3], kernel[4]))
        for side in sides:
            program_damage(side, faults[wave_no])
    return (
        len(taken), taken.count(True), windows["by key"], windows["rebuilt"], tuple(declined),
        multiple[0], crossing[0],
    )


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
    twice a wave on an ECC channel, the wave's first program entering AB
    mode and loading the CRF and its last leaving, as (frames, frames
    carrying a register load, windows replayed by their recorded key,
    windows rebuilt after a trace-cache miss, declines, frames of more
    than one window or across a seam, frames across a transition).  From
    the second wave on they are frames — 11 in all, of which the 5 tile
    frames each replay one window: in the first wave every program's key
    is new, in the second the first program, with its entry and load,
    starts from a new entry CRF; in the third and fourth it is a frame
    with them — and each wave's first and last frame cross a transition.
    A check byte flipped on the weight row stays and declines every
    later tile frame; a flipped data word there is corrected and dropped
    by the first read of it; a failed bank raises; a register upset that
    strikes the CRF makes the units disagree — the next wave's load finds
    no frame entry, and repairs the CRF; with the load carried over from
    the first wave instead (no ``reload``: no tile carries a load after
    it), the units disagree for good and no later drain is a frame — and
    the eager exec group never defers; a refresh due at a frame's horizon
    takes the queue path, one due a cycle after it does not; a tile that
    leaves PIM_OP_MODE on flushes its triggers at the next tile's GRF_B
    clear, before any ``start_all``, so that next tile is never a frame —
    but one that follows a closed tile is, its window left open.
    Batch-norm carrying its SRF load, fresh scalars every drain, is a
    frame with the CRF and SRF loads and with the SRF load alone.  The
    channel's traces evicted between waves: the next frame of each
    window misses, rebuilds its tape and recompiles under its recorded
    key.  Two GEMV tiles at other rows with one row-equality pattern share
    a trace key, and each tile's frames replay it at the tile's own rows.
    A program of two windows is a frame that replays both, a launch
    of three tile programs joined at seams one that replays all three.
    The transitions drained as programs of their own are frames too, and
    cross nothing else.  The fifth count is the declines by
    :data:`DECLINES` — each one what the banks answer row by row, though
    the channel asks them once while none is failed, injected or of a
    class of its own (``PseudoChannel.vouched``): the failed bank
    declines the programs drained after it, the flipped check byte the
    later tile frames, until its row is scrubbed."""
    base = dict(
        ecc=True, exec_mode="fused",
        kernels=[(("gemv", 4, 0, 2, 8, False), 2), (("ab writes", 3, 8, 8), 2)],
        faults=[[]] * ROUNDS, fence_penalty=7, refresh=None,
        traced=[False, True, False, True], reload=True, seed=5,
    )
    evicted = [[("evict",)]] * (ROUNDS - 1) + [[]]
    none = (0, 0, 0)  # no decline for any reason
    bn = [(("gemv", 4, 0, 2, 8, False), 2), (("bn", 2, 1), 2)]
    cases = [
        ({}, (11, 2, 5, 0, none, 0, 5)),
        ({"faults": [[("check", 4, 0, 3, 1, 2)], [], [], []]}, (11 - 5, 0, 0, 0, (0, 0, 5), 0, 3)),
        ({"faults": [[("data", 4, 0, 3, 17)], [], [], []]}, (11 - 1, 2, 4, 0, (0, 0, 1), 0, 5)),
        ({"faults": [[], [("dead", 9)], [], []]}, (3, 0, 1, 0, (5, 0, 0), 0, 1)),
        ({"faults": [[("upset", 3, 1.0)], [], [], []]}, (10, 1, 4, 0, none, 0, 4)),
        ({"reload": False}, (11, 0, 5, 0, none, 0, 5)),
        ({"faults": [[("upset", 3, 1.0)], [], [], []], "reload": False},
         (0, 0, 0, 0, none, 0, 0)),
        ({"exec_mode": "scalar"}, (0, 0, 0, 0, none, 0, 0)),
        ({"refresh": 0}, (5, 0, 1, 0, none, 0, 2)),
        ({"refresh": 1}, (7, 2, 3, 0, none, 0, 4)),
        ({"kernels": [(("gemv", 4, 0, 2, 8, True), 2)]}, (0, 0, 0, 0, none, 0, 0)),
        # Behind a closed tile the open one starts in AB with no tape: a
        # frame, left in AB-PIM with PIM_OP_MODE on and its tape pending
        # until the exit's PREA flushes it.
        ({"kernels": [
            (("gemv", 4, 0, 2, 8, False), 2), (("gemv", 4, 1, 3, 0, True), 1),
        ]}, (6, 0, 3, 0, none, 0, 3)),
        ({"kernels": bn}, (11, 8, 11, 0, none, 0, 5)),
        # Two tiles at other rows with one row-equality pattern, each
        # weight row above its out row (first use is not row order): one
        # trace key, which each tile's frames replay at their own rows.
        ({"kernels": [(("gemv", 4, 3, 2, 8, False), 2), (("gemv", 4, 1, 0, 8, False), 2)]},
         (11, 2, 11, 0, none, 0, 5)),
        ({"faults": evicted, "reload": False}, (11, 0, 3, 2, none, 0, 5)),
        ({"faults": evicted, "kernels": bn}, (11, 8, 6, 5, none, 0, 5)),
        # Two windows a frame: split by a GRF_B clear inside the AB-PIM
        # window (the second's entry state is the first's end), or two
        # tiles' programs back to back; their stats written once.
        ({"kernels": [(("two windows", 3, 0, 2, 8, True), 2)]}, (5, 2, 10, 0, none, 5, 5)),
        ({"kernels": [(("two windows", 3, 0, 2, 0, False), 2)], "faults": evicted},
         (5, 2, 6, 4, none, 5, 5)),
        # A launch: three tiles' programs joined at seams, which cost no
        # fence penalty; a frame replays its three windows.
        ({"kernels": [(("launch", 2, 0, 2, 3), 2)]}, (5, 2, 15, 0, none, 5, 5)),
        # Declines, by reason: a row scrubbed clean takes frames again, an
        # injection on a row no program reaches declines none, and a bank
        # class of its own declines every remembered program.
        ({"faults": [[("check", 4, 0, 3, 1, 2)], [("scrub", 4, 0)], [], []]},
         (11 - 1, 2, 4, 0, (0, 0, 1), 0, 5)),
        ({"faults": [[("check", 4, 0, 3, 1, 2)], [("scrub", 4, 1)], [], []]},
         (11 - 5, 0, 0, 0, (0, 0, 5), 0, 3)),
        ({"faults": [[("check", 4, 1, 3, 1, 2)], [], [], []]}, (11, 2, 5, 0, none, 0, 5)),
        ({"ecc": False, "faults": [[], [("dead", 9)], [], []]}, (3, 0, 1, 0, (5, 0, 0), 0, 1)),
        ({"own_class": True}, (0, 0, 0, 0, (0, 11, 0), 0, 0)),
        ({"own_class": True, "ecc": False}, (0, 0, 0, 0, (0, 11, 0), 0, 0)),
        # Each transition a program of its own, and a frame: the entry from
        # the third wave (the second's starts from a new state), the exit
        # from the second; the programs between them as before.
        ({"entry": False}, (11 + 2, 2, 5, 0, none, 0, 2 + 3)),
        ({"leave": False}, (11 + 3, 2, 5, 0, none, 0, 2 + 3)),
        ({"entry": False, "leave": False}, (11 + 5, 2, 5, 0, none, 0, 2 + 3)),
        ({"entry": False, "leave": False, "kernels": bn}, (11 + 5, 8, 11, 0, none, 0, 2 + 3)),
        # Each wave entered with the FSM armed by a read of the SBMR row
        # (the entry's PREA disarms it): the same frames, from armed states.
        ({"armed": True}, (11, 2, 5, 0, none, 0, 5)),
        ({"armed": True, "entry": False}, (11 + 2, 2, 5, 0, none, 0, 2 + 3)),
    ]
    for change, frames in cases:
        assert program_frames_vs_lone_path(**dict(base, **change)) == frames, change


def test_a_traced_program_frame_shows_what_its_lone_runs_show(monkeypatch):
    """A GEMV tile drained three times under ``tools.trace_channel`` and a
    ``repro.obs`` tracer, after a program that enters AB mode and loads
    the CRF: the third drain starts from the state the second did and is a
    frame, and both tracers see what they see of the lone runs — the
    trigger bursts one record each, the GRF_B clear's eight register
    columns, every ACT and PRE and the mode at each command; a
    ``mode:all-bank-pim`` and a ``mode:all-bank`` event at the
    PIM_OP_MODE writes' cycles, a ``drain`` span per drain."""
    sides = [program_side(False, "fused", 7, False) for _ in range(2)]
    sides[1].mc.frames = Forgetful()
    channel = sides[0].mc.channel
    program, source, operands = kernel_program(channel, ("gemv", 4, 0, 2, 8, False))
    rng = np.random.default_rng(3)
    setup = launched(channel, (), enter=True, source=source)
    for side in sides:
        drained(side, setup, operand_blocks(rng, 0, source))
    trace_sides(sides, True)
    taken = frames_taken(monkeypatch, sides[0].mc.frames)
    for _ in range(3):
        blocks = operand_blocks(rng, operands)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = (
                program_drained(side, program, blocks, traced=True) for side in sides
            )
        assert got == want
    assert len(taken) == 1
    records, events, spans = got[1], got[3], got[4]
    assert [(r.count, r.mode) for r in records if r.cmd_type.is_column and r.count > 1] == [
        (8, "all-bank-pim")
    ] * (2 * 4 + 1)
    grf_row = channel.memory_map.grf_row
    grf_columns = [
        (r.col, r.count) for r in records if r.row == grf_row and r.cmd_type.is_column
    ]
    assert grf_columns == [(col, 1) for col in range(8, 16)]
    conf_row = channel.memory_map.conf_row
    writes = [r.cycle for r in records if r.row == conf_row and r.cmd_type.is_column]
    assert [(e.name, e.attrs["cycle"]) for e in events[-2:]] == [
        ("mode:all-bank-pim", writes[0]), ("mode:all-bank", writes[1]),
    ]
    assert [name for name, *_ in spans] == ["drain"] * 3


def test_a_frame_crosses_its_transitions_as_drain_boundaries(monkeypatch):
    """A tile's launch — entry, CRF load, the tile, exit — drained three
    times, the third a frame, traced: its one ``drain`` span runs from the
    entry's last command to the exit's first, counting neither transition's
    commands, its busy cycles the span's, its mode events the four mode
    changes at their commands' cycles, and the channel's FSM back in SB
    mode with two transitions more each time and no row armed."""
    sides = [program_side(False, "fused", 7, False) for _ in range(2)]
    sides[1].mc.frames = Forgetful()
    channel = sides[0].mc.channel
    body, source, operands = kernel_program(channel, ("gemv", 2, 0, 2, 8, False))
    program = launched(channel, body, enter=True, leave=True, source=source)
    taken = frames_taken(monkeypatch, sides[0].mc.frames)
    rng = np.random.default_rng(9)
    for _ in range(3):
        trace_sides(sides, True)
        blocks = operand_blocks(rng, operands, source)
        busy = sides[0].mc.busy_cycles
        fsm = channel.mode_ctrl
        transitions = fsm.transition_count
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = (
                program_drained(side, program, blocks, traced=True) for side in sides
            )
        assert got == want
        records, events, spans = got[1], got[3], got[4]
        (name, start, end, attrs), = spans
        first_pre = next(r for r in records if r.cmd_type is CommandType.PRE)
        exit_at = max(i for i, r in enumerate(records) if r.cmd_type is CommandType.PREA)
        assert (start, end) == (first_pre.cycle, records[exit_at - 1].cycle)
        assert attrs["commands"] == sum(r.count for r in records) - 6
        assert sides[0].mc.busy_cycles - busy == end - start
        assert [e.name for e in events] == [
            "mode:all-bank", "mode:all-bank-pim", "mode:all-bank", "mode:single-bank",
        ]
        assert (fsm.mode.value, fsm._armed_row) == ("single-bank", -1)
        assert fsm.transition_count - transitions == 4
    assert len(taken) == 1


def test_a_window_that_raises_in_a_frame_leaves_the_units_as_its_flush_does(monkeypatch):
    """A GEMV tile drained three times, the third a frame, with the
    window's first fetch raising on both sides (forced: a frame is taken
    only over rows with no injection entry, so no stored word can raise
    in one).  The frame has taken the channel's timing before its events;
    its units are where the lone runs' flush leaves them — at the
    window's entry state, no register or stat of the window written, the
    trace looked up once."""
    sides = [program_side(False, "fused", 7, False) for _ in range(2)]
    sides[1].mc.frames = Forgetful()
    channel = sides[0].mc.channel
    program, source, operands = kernel_program(channel, ("gemv", 4, 0, 2, 8, False))
    rng = np.random.default_rng(3)
    setup = launched(channel, (), enter=True, source=source)
    for side in sides:
        drained(side, setup, operand_blocks(rng, 0, source))
    windows = []
    group = channel.lockstep
    replay_window = group.replay_window
    group.replay_window = lambda *args: windows.append(args) or replay_window(*args)
    for drain_no in range(3):
        if drain_no == 2:
            def uncorrectable(banks, bank, rows):
                raise PimDataError("uncorrectable word")

            monkeypatch.setattr(fused, "_peek_run", uncorrectable)
        blocks = operand_blocks(rng, operands)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = (
                drained(side, program, blocks, snap=exec_snapshot) for side in sides
            )
        # The units and the exec group; the channel's counters are the
        # frame's end (its timing is taken first), the lone runs' mid-way.
        assert got[0] == want[0] and got[2][:2] == want[2][:2], drain_no
    assert got[0][:2] == ("raised", PimDataError) and len(windows) == 1
    assert got[2][2] != want[2][2]


def test_a_frame_is_keyed_on_the_crf_bytes_its_load_writes(monkeypatch):
    """Each wave: add's launch — entering AB mode and loading add's CRF —
    then a relu program carrying the load of its own microkernel three
    waves running, then of GEMV's, from the same entry CRF (add's) and
    timing state, and the exit.  The loaded bytes decide the program the
    windows run on: add is a frame from the second wave on and relu in
    the third; with GEMV's bytes relu is a new key — GEMV's first
    instruction takes a host operand, relu's first trigger reads a bank
    — and raises at the window's flush on the queue path, as it does on
    the forgetful side."""
    sides = [program_side(False, "fused", 7, False) for _ in range(2)]
    sides[1].mc.frames = Forgetful()
    frames = frames_taken(monkeypatch, sides[0].mc.frames)
    channel = sides[0].mc.channel
    add, add_source, _ = kernel_program(channel, ("add", 1, 0))
    relu, relu_source, _ = kernel_program(channel, ("relu", 1, 1))
    gemv_source = GemvKernel.MICROKERNEL.format(reps=0)
    leave = CheckedProgram((stream.transition(channel.memory_map.sbmr_row),))
    rng = np.random.default_rng(7)
    for source in (relu_source, relu_source, relu_source, gemv_source):
        outcomes = []
        for side in sides:
            with np.errstate(over="ignore", invalid="ignore"):
                outcome = [program_drained(
                    side, launched(channel, add, enter=True, source=add_source),
                    operand_blocks(rng, 0, add_source),
                )]
                outcome.append(program_drained(
                    side, launched(channel, relu, source=source),
                    operand_blocks(rng, 0, source),
                ))
            taken = len(frames)
            drained(side, leave)
            del frames[taken:]  # the exit's own frames are not counted
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1], source
    assert outcomes[0][1][0][:2] == ("raised", PimProgramError)
    assert len(frames) == 4  # add's in waves 2-4, relu's in wave 3


def test_only_a_keyed_crf_load_is_framed(monkeypatch):
    """Batch-norm programs drained four times after the entry and its CRF
    load: carrying its SRF load (fresh scalars each time), or its SRF and
    CRF loads, it is a frame from the third drain (the first two start
    from new states); carrying a CRF load whose bytes the key does not
    hold (checked with no keyed rows), never — with the same outcome as on the
    forgetful side every time."""
    for kind, framed in (("srf", ROUNDS - 2), ("crf", ROUNDS - 2), ("unkeyed crf", 0)):
        sides = [program_side(True, "fused", 7, False) for _ in range(2)]
        sides[1].mc.frames = Forgetful()
        taken = frames_taken(monkeypatch, sides[0].mc.frames)
        channel = sides[0].mc.channel
        body, source, _ = kernel_program(channel, ("bn", 1, 0))
        rng = np.random.default_rng(11)
        setup = launched(channel, (), enter=True, source=source)
        for side in sides:
            drained(side, setup, operand_blocks(rng, 0, source))
        crf = None if kind == "srf" else source
        program = launched(channel, body, source=crf, srf=True, keyed=kind != "unkeyed crf")
        for _ in range(ROUNDS):
            blocks = operand_blocks(rng, 0, source, fresh_scalars(rng))
            with np.errstate(over="ignore", invalid="ignore"):
                got, want = (program_drained(side, program, blocks) for side in sides)
            assert got == want, kind
        assert len(taken) == framed, kind




# One verdict per channel: each step of a drawn sequence changes one
# bank's fault state or reads / writes through it — (step, bank, row, col),
# over few enough places that a read, a write or a scrub often meets an
# injection.
FAULT_STEP = st.tuples(
    st.sampled_from(["data", "check", "read", "write", "scrub"] * 2 + ["dead"]),
    st.integers(0, 3), st.integers(0, 1), st.integers(0, 1),
)


@settings(max_examples=80, deadline=None)
@given(
    ecc=st.sampled_from([True, True, False]),
    own_class=st.sampled_from([False] * 7 + [True]),
    steps=st.lists(FAULT_STEP, max_size=12),
)
@example(ecc=True, own_class=False, steps=[
    ("data", 5, 1, 2), ("read", 5, 1, 2), ("read", 5, 1, 2),  # corrected, then found clean
    ("check", 5, 1, 2), ("write", 5, 1, 2),
    ("data", 5, 2, 0), ("scrub", 5, 2, 0), ("dead", 5, 0, 0),
])
def test_the_channel_verdict_is_every_bank_on_every_row(ecc, own_class, steps):
    """``PseudoChannel.vouched`` — asked once, then kept until a bank's
    fault state changes — is what every bank answers for every row
    (``Bank.framed``), after every step: an injection or a failure makes
    it False, and a read that finds a corrected word clean, a write over
    an injected word or a scrub that drops the last entry makes it True
    again."""
    bank_cls = (OwnEccBank if ecc else OwnBank) if own_class else None
    channel = make_channel("sb", ecc=ecc, timing=HBM2_1GHZ, bank_cls=bank_cls)
    rows = range(channel.bank_config.num_rows)

    def answers():
        return channel.vouched(), all(
            bank.framed(row) for bank in channel.banks for row in rows
        )

    assert answers() == (not own_class,) * 2
    for step, index, row, col in steps:
        bank = channel.banks[index]
        if step == "dead":
            bank.fail(0)
        elif bank.is_failed:
            continue
        elif step == "read":
            with np.errstate(all="ignore"):
                try:
                    bank.peek(row, col)
                except UncorrectableError:
                    pass
        elif step == "write":
            bank.poke(row, col, write_data(col, 1))
        elif not isinstance(bank, EccBank):
            continue
        elif step == "data":
            bank.inject_error(row, col, 3)
        elif step == "check":
            bank.inject_check_error(row, col, 1, 5)
        else:
            bank.scrub_row(row)
        verdict, every = answers()
        assert verdict == every, step
