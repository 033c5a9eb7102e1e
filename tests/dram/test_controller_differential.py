"""Differential oracle: the incremental scheduler vs the per-candidate one.

``repro.dram.controller.MemoryController`` schedules incrementally (one
timing query per (bank, op) class per pick, an epoch window kept current
as requests leave and enter, O(1) channel-wide bounds).  The controller it
replaced lives on as ``reference_controller.ReferenceController``.  Both
are driven through the same random request streams on twin channels and
must agree on everything observable: issue cycles and order, read data,
command counts, row hit/miss tallies, busy cycles, refreshes, and every
bank's final timing state.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import BankConfig
from repro.dram.commands import CommandType
from repro.dram.controller import MemOp, MemoryController, Request, SchedulerPolicy
from repro.dram.pseudochannel import PseudoChannel
from repro.dram.timing import HBM2_1GHZ
from repro.pim.assembler import assemble_words
from repro.pim.device import PimPseudoChannel

from .reference_controller import ReferenceController

NUM_ROWS = 64
# A short refresh interval so random streams of a few dozen requests cross
# several refreshes.
TIMING = replace(HBM2_1GHZ, trefi=150, trfc=40)
MODES = ("plain", "sb", "ab", "ab-pim")


def make_channel(mode):
    """A fresh channel of the kind ``mode`` names (still in SB mode)."""
    config = BankConfig(num_rows=NUM_ROWS)
    if mode == "plain":
        return PseudoChannel(TIMING, config)
    return PimPseudoChannel(TIMING, config)


def enter_mode(mc, mode):
    """Drive ``mc``'s channel into ``mode`` the way the kernels do."""
    if mode in ("plain", "sb"):
        return
    memory_map = mc.channel.memory_map
    mc.precharge_all()
    mc.closed_page_access(0, 0, memory_map.abmr_row)
    if mode == "ab-pim":
        words = np.array(
            assemble_words("NOP\nJUMP -1, 5\nEXIT")[:8],
            dtype="<u4",
        )
        mc.write(0, 0, memory_map.crf_row, 0, words.view(np.uint8))
        mc.fence()
        on = np.zeros(32, dtype=np.uint8)
        on[0] = 1
        mc.write(0, 0, memory_map.conf_row, memory_map.PIM_OP_MODE_COL, on)
        mc.fence()
        mc.drain()
        # Close the register row so the stream may address any one bank.
        mc.precharge_all()


def bank_state(channel):
    """Every bank's timing bounds and row-buffer state."""
    return [
        (b.next_act, b.next_pre, b.next_rd, b.next_wr, b.open_row, b.state)
        for b in channel.banks
    ]


class Side:
    """One controller on its own channel, fed the shared op stream."""

    def __init__(self, controller_cls, mode, **kwargs):
        self.mc = controller_cls(make_channel(mode), **kwargs)
        enter_mode(self.mc, mode)
        self.index = {}  # id(request) -> position in the stream

    def enqueue(self, position, op, bg, ba, row, col, value):
        data = np.full(32, value, dtype=np.uint8) if op is MemOp.WRITE else None
        request = Request(op, bg, ba, row, col, data=data, tag=position)
        self.index[id(request)] = position
        self.mc.enqueue(request)

    def drain(self):
        """Drain and return everything the two sides must agree on."""
        try:
            result = self.mc.drain()
        except Exception as exc:  # compared, not swallowed
            return ("raised", type(exc), str(exc), bank_state(self.mc.channel))
        return (
            [(cycle, self.index[id(req)]) for cycle, req in result.issue_order],
            {tag: data.tobytes() for tag, data in result.read_data.items()},
            result.command_count,
            (result.row_hits, result.row_misses, result.cycles),
            (self.mc.busy_cycles, self.mc.refresh_count, self.mc.fence_count),
            (self.mc.current_cycle, self.mc._next_ca, self.mc.pending),
            dict(self.mc.channel.cmd_counts),
            bank_state(self.mc.channel),
        )


# One stream element: a request (op, bank, row, col, value), a fence or a
# drain.  Few rows and columns so hits, conflicts and address-equal
# requests are all common.
REQUEST = st.tuples(
    st.sampled_from([MemOp.READ, MemOp.WRITE]),
    st.integers(0, 15),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 255),
)
STREAM = st.lists(
    st.one_of(REQUEST, REQUEST, REQUEST, st.just("fence"), st.just("drain")),
    min_size=1,
    max_size=70,
)
POLICY = st.one_of(
    st.tuples(st.just(SchedulerPolicy.FRFCFS), st.none()),
    st.tuples(st.just(SchedulerPolicy.FCFS), st.none()),
    st.tuples(st.just(SchedulerPolicy.SHUFFLE), st.integers(0, 2**16)),
)


def run_both(mode, policy, seed, refresh, fence_penalty, window, stream, ab_bank):
    kwargs = dict(
        policy=policy, seed=seed, refresh=refresh,
        fence_penalty=fence_penalty, window=window,
    )
    new = Side(MemoryController, mode, **kwargs)
    ref = Side(ReferenceController, mode, **kwargs)
    # Row 3 of the pool is a register row (GRF): column accesses there take
    # the register path of the PIM channel, in every mode.
    rows = [0, 1, 2, NUM_ROWS - 5 if mode != "plain" else 3]
    outcomes = []
    for position, element in enumerate(list(stream) + ["drain"]):
        if element == "fence":
            new.mc.fence()
            ref.mc.fence()
        elif element == "drain":
            got, want = new.drain(), ref.drain()
            assert got == want
            outcomes.append(got)
        else:
            op, bank, row, col, value = element
            if mode in ("ab", "ab-pim"):
                # All-bank modes ignore bg/ba; an unmodified controller
                # still shadows rows per bank, so kernels address one bank.
                bank = ab_bank
            for side in (new, ref):
                side.enqueue(position, op, bank // 4, bank % 4, rows[row], col, value)
    return new, ref, outcomes


@settings(max_examples=250, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    policy=POLICY,
    refresh=st.booleans(),
    fence_penalty=st.sampled_from([0, 7]),
    window=st.sampled_from([1, 4, 16]),
    stream=STREAM,
    ab_bank=st.integers(0, 15),
)
def test_incremental_scheduler_matches_reference(
    mode, policy, refresh, fence_penalty, window, stream, ab_bank
):
    new, ref, outcomes = run_both(
        mode, policy[0], policy[1], refresh, fence_penalty, window, stream, ab_bank
    )
    assert not any(outcome[0] == "raised" for outcome in outcomes)
    if mode != "plain":
        assert new.mc.channel.mode is ref.mc.channel.mode
        for a, b in zip(new.mc.channel.units, ref.mc.channel.units):
            assert a.regs.grf_a.tobytes() == b.regs.grf_a.tobytes()  # NaN-safe


@settings(max_examples=60, deadline=None)
@given(
    policy=POLICY,
    window=st.sampled_from([1, 4, 16]),
    stream=st.lists(REQUEST, min_size=2, max_size=30),
)
def test_illegal_all_bank_streams_fail_identically(policy, window, stream):
    """AB-mode requests that spread over banks make the controller ACT a
    bank the broadcast already opened; both schedulers must hit the same
    TimingViolation at the same point and leave the same bank state."""
    kwargs = dict(policy=policy[0], seed=policy[1], window=window)
    sides = [
        Side(MemoryController, "ab", **kwargs),
        Side(ReferenceController, "ab", **kwargs),
    ]
    for position, (op, bank, row, col, value) in enumerate(stream):
        for side in sides:
            side.enqueue(position, op, bank // 4, bank % 4, row, col, value)
    assert sides[0].drain() == sides[1].drain()
    assert sides[0].mc.pending == sides[1].mc.pending


def test_fixed_stream_crosses_refreshes_and_reorders():
    """The strategy's building blocks reach the paths they are meant to:
    a fixed stream crosses several refreshes and reorders under FR-FCFS."""
    stream = [(MemOp.READ, b % 3, b % 2, b % 4, 0) for b in range(60)]
    new, _, outcomes = run_both(
        "sb", SchedulerPolicy.FRFCFS, None, True, 7, 16, stream, 0
    )
    assert new.mc.refresh_count >= 2
    order = [position for _, position in outcomes[-1][0]]
    assert sorted(order) == list(range(60)) and order != list(range(60))
    assert outcomes[-1][2][CommandType.REF] == new.mc.refresh_count


@pytest.mark.parametrize("seed", range(16))
def test_long_seeded_streams_match(seed):
    """Hypothesis favours short streams; these run hundreds of requests so
    full 16-deep windows, many refreshes and long epochs are compared too."""
    rng = np.random.default_rng(seed)
    policy = list(SchedulerPolicy)[seed % 3]
    stream = []
    for _ in range(400):
        draw = rng.integers(0, 20)
        if draw == 0:
            stream.append("drain")
        elif draw < 3:
            stream.append("fence")
        else:
            stream.append((
                MemOp.WRITE if rng.integers(0, 2) else MemOp.READ,
                int(rng.integers(0, 16)), int(rng.integers(0, 4)),
                int(rng.integers(0, 4)), int(rng.integers(0, 256)),
            ))
    new, _, outcomes = run_both(
        MODES[seed % 4], policy, seed, bool(seed & 4), [0, 7][seed & 1],
        [1, 4, 16][(seed // 2) % 3], stream, seed % 16,
    )
    assert not any(outcome[0] == "raised" for outcome in outcomes)
    assert sum(len(outcome[0]) for outcome in outcomes) == sum(
        element not in ("drain", "fence") for element in stream
    )
