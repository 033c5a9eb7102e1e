"""A remembered readback taken as one channel frame vs the pick path.

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
"""

from contextlib import nullcontext

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dram.controller import MemOp, MemoryController, Request, SchedulerPolicy
from repro.dram.ecc import EccBank
from repro.dram.timing import HBM2_1GHZ
from repro.pim.device import PimPseudoChannel
from repro.pim.stream import Run, gemv_readback
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
        (mc.row_hits, mc.row_misses, mc.busy_cycles, mc.refresh_count, mc._next_refresh),
        (mc.current_cycle, mc._next_ca, tuple(mc._open_rows)),
        [(r.op, r.bg, r.ba, r.row, r.col, r.count, r.epoch, r.tag) for r in mc._queue],
        dict(channel.cmd_counts),
        (channel._max_act, channel._max_pre, channel._max_rd, channel._max_wr),
        (channel._last_col_cycle, channel._last_col_bg, channel._last_col_was_write),
        (channel._last_act_cycle, channel._last_act_bg, tuple(channel._act_window)),
        None if fsm is None else (fsm.state, fsm.transition_count),
        banks,
    )


def drained(side, program=(), blocks=(), traced=False):
    """Drain ``program`` on ``side``: the outcome, the trace (when
    ``traced``) and the snapshot.  A raise resets the channel, as the
    server's recovery does, after the snapshot is taken."""
    with trace_channel(side.mc.channel) if traced else nullcontext() as trace:
        try:
            result = side.mc.drain(program, blocks)
            data = result.read_data
            got = ("ok", result.cycles, {t: (d.shape, d.tobytes()) for t, d in data.items()})
        except Exception as exc:  # compared, not swallowed
            got = ("raised", type(exc), str(exc))
    records = trace.records if traced else None
    state = snapshot(side)
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
