"""The channel's running maxima of the per-bank timing bounds stay exact.

``PseudoChannel`` keeps ``_max_act/_max_pre/_max_rd/_max_wr`` so that
all-bank timing queries and the PREA/REF bounds are O(1).  The invariant:
after *any* mutation — every kind of ``issue`` in every mode, REF,
``hard_reset``, ``reset_channel``, and a ``PimChannelError`` that unwinds
half-way through a 16-bank broadcast — each maximum equals ``max`` over
the banks of the corresponding bound.
"""

import numpy as np
import pytest

from repro.dram.controller import MemOp, MemoryController, SchedulerPolicy
from repro.errors import PimChannelError
from repro.pim.modes import PimMode

from .reference_controller import ReferenceController
from .test_controller_differential import MODES, Side, bank_state


def assert_aggregates_exact(channel):
    banks = channel.banks
    assert channel._max_act == max(b.next_act for b in banks)
    assert channel._max_pre == max(b.next_pre for b in banks)
    assert channel._max_rd == max(b.next_rd for b in banks)
    assert channel._max_wr == max(b.next_wr for b in banks)


def check_after_every_issue(channel):
    """Wrap ``channel.issue`` so the invariant is asserted after each
    command, whether it returned or raised; returns the kinds seen."""
    inner, kinds = channel.issue, set()

    def issue(cmd, cycle):
        kinds.add(cmd.cmd)
        try:
            return inner(cmd, cycle)
        finally:
            assert_aggregates_exact(channel)

    channel.issue = issue
    return kinds


def random_stream(side, rng, count, bank=None):
    for position in range(count):
        target = int(rng.integers(0, 16)) if bank is None else bank
        side.enqueue(
            position,
            MemOp.WRITE if rng.integers(0, 2) else MemOp.READ,
            target // 4, target % 4,
            int(rng.integers(0, 3)), int(rng.integers(0, 4)), int(rng.integers(0, 256)),
        )
        if rng.integers(0, 6) == 0:
            side.mc.fence()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", list(SchedulerPolicy))
def test_exact_after_every_command_in_every_mode(mode, policy):
    rng = np.random.default_rng(3)
    side = Side(MemoryController, mode, policy=policy, seed=1, refresh=True)
    assert_aggregates_exact(side.mc.channel)
    kinds = check_after_every_issue(side.mc.channel)
    for _ in range(3):
        random_stream(side, rng, 120, bank=None if mode in ("plain", "sb") else 5)
        assert side.drain()[0] != "raised"
    side.mc.precharge_all()
    assert {kind.value for kind in kinds} == {"ACT", "PRE", "PREA", "RD", "WR", "REF"}


@pytest.mark.parametrize("mode", MODES)
def test_exact_after_hard_reset_and_reset_channel(mode):
    rng = np.random.default_rng(4)
    side = Side(MemoryController, mode)
    random_stream(side, rng, 40, bank=None if mode in ("plain", "sb") else 0)
    side.drain()
    random_stream(side, rng, 10, bank=0)  # left queued: reset drops them
    side.mc.reset_channel()
    assert_aggregates_exact(side.mc.channel)
    assert side.mc.pending == 0
    assert all(bank.open_row is None for bank in side.mc.channel.banks)
    side.mc.channel.hard_reset(side.mc.current_cycle + 1000)
    assert_aggregates_exact(side.mc.channel)


@pytest.mark.parametrize("failed_bank", [0, 7, 15])
@pytest.mark.parametrize("op", [MemOp.READ, MemOp.WRITE])
def test_exact_when_a_broadcast_unwinds_midway(failed_bank, op):
    """Bank k of 16 fails: the AB broadcast updated banks < k (and bank k's
    own bounds, which move before its data path raises) and then unwound.
    The maxima must already be exact, recovery must keep them exact, and
    the recovered channel must schedule exactly like the reference."""
    sides = [Side(MemoryController, "ab"), Side(ReferenceController, "ab")]
    for side in sides:
        check_after_every_issue(side.mc.channel)
        side.enqueue(0, MemOp.WRITE, 0, 0, 1, 0, 9)
        assert side.drain()[0] != "raised"
        side.mc.channel.banks[failed_bank].fail(0)
        side.enqueue(1, op, 0, 0, 1, 1, 7)
        outcome = side.drain()
        assert outcome[:2] == ("raised", PimChannelError)
        touched = [b.rd_count + b.wr_count == 2 for b in side.mc.channel.banks]
        assert touched == [i <= failed_bank for i in range(16)]
        assert side.mc.pending == 1  # the failed request is still queued
        side.mc.reset_channel()
        assert side.mc.channel.mode is PimMode.SB
    assert bank_state(sides[0].mc.channel) == bank_state(sides[1].mc.channel)
    # The next drain on the recovered channels: legal (channel.issue and
    # every bank re-validate each cycle) and identical to the reference.
    rng = [np.random.default_rng(5), np.random.default_rng(5)]
    live = [b for b in range(16) if b != failed_bank]
    for side, side_rng in zip(sides, rng):
        for position in range(60):
            target = live[int(side_rng.integers(0, 15))]
            side.enqueue(
                2 + position, MemOp.READ, target // 4, target % 4,
                int(side_rng.integers(0, 3)), int(side_rng.integers(0, 4)), 0,
            )
    got, want = sides[0].drain(), sides[1].drain()
    assert got[0] != "raised" and got == want
