"""Tests for the FR-FCFS memory controller (repro.dram.controller)."""

import numpy as np
import pytest

from repro.dram.bank import BankConfig
from repro.dram.commands import CommandType
from repro.dram.controller import MemOp, MemoryController, Request, SchedulerPolicy
from repro.dram.frames import CheckedProgram
from repro.dram.pseudochannel import PseudoChannel
from repro.dram.timing import HBM2_1GHZ

from .frame_seam import frames_taken


def make_controller(**kwargs):
    channel = PseudoChannel(HBM2_1GHZ, BankConfig(num_rows=64))
    return MemoryController(channel, **kwargs), channel


def _data(value=0):
    return np.full(32, value, dtype=np.uint8)


class TestBasicOperation:
    def test_single_read_returns_data(self):
        mc, ch = make_controller()
        ch.bank(0, 0).poke(3, 4, _data(7))
        mc.read(0, 0, 3, 4, tag="r")
        result = mc.drain()
        assert np.array_equal(result.read_data["r"], _data(7))

    def test_write_then_read(self):
        mc, _ = make_controller()
        mc.write(0, 0, 3, 4, _data(9), tag="w")
        mc.read(0, 0, 3, 4, tag="r")
        result = mc.drain()
        assert np.array_equal(result.read_data["r"], _data(9))

    def test_command_counts(self):
        mc, _ = make_controller()
        mc.read(0, 0, 0, 0)
        mc.read(0, 0, 0, 1)
        result = mc.drain()
        assert result.command_count[CommandType.ACT] == 1
        assert result.command_count[CommandType.RD] == 2
        assert result.column_commands == 2

    def test_row_hit_tracking(self):
        mc, _ = make_controller()
        mc.read(0, 0, 0, 0)
        mc.read(0, 0, 0, 1)  # hit
        mc.read(0, 0, 1, 0)  # conflict -> miss
        result = mc.drain()
        assert result.row_hits == 1
        assert result.row_misses == 2

    def test_drain_empty_queue(self):
        mc, _ = make_controller()
        result = mc.drain()
        assert result.column_commands == 0


class TestRowHitFirstScheduling:
    def test_frfcfs_prefers_row_hit(self):
        mc, _ = make_controller(policy=SchedulerPolicy.FRFCFS)
        mc.read(0, 0, 0, 0, tag=0)  # opens row 0
        mc.read(0, 0, 1, 0, tag=1)  # conflict
        mc.read(0, 0, 0, 1, tag=2)  # hit on row 0
        result = mc.drain()
        order = [req.tag for _, req in result.issue_order]
        assert order == [0, 2, 1]  # the hit jumps the conflict

    def test_fcfs_keeps_arrival_order(self):
        mc, _ = make_controller(policy=SchedulerPolicy.FCFS)
        mc.read(0, 0, 0, 0, tag=0)
        mc.read(0, 0, 1, 0, tag=1)
        mc.read(0, 0, 0, 1, tag=2)
        result = mc.drain()
        order = [req.tag for _, req in result.issue_order]
        assert order == [0, 1, 2]

    def test_frfcfs_faster_than_fcfs_on_conflict_stream(self):
        def run(policy):
            mc, _ = make_controller(policy=policy)
            for i in range(8):
                mc.read(0, 0, i % 2, i, tag=i)
            return mc.drain().cycles

        assert run(SchedulerPolicy.FRFCFS) < run(SchedulerPolicy.FCFS)

    def test_shuffle_reorders_deterministically(self):
        def order(seed):
            mc, _ = make_controller(policy=SchedulerPolicy.SHUFFLE, seed=seed)
            for i in range(8):
                mc.read(0, 0, 0, i, tag=i)
            return [req.tag for _, req in mc.drain().issue_order]

        assert order(1) == order(1)
        assert order(1) != list(range(8)) or order(2) != list(range(8))


class TestRequestIdentity:
    """Requests are transactions, not values: dequeue is by identity.

    ``Request`` used to be a field-comparing dataclass, so removing a
    picked request from the queue compared ``data`` arrays (ambiguous
    truth value) and could drop an address-equal twin instead.
    """

    def test_shuffle_with_address_equal_writes(self):
        mc, ch = make_controller(policy=SchedulerPolicy.SHUFFLE, seed=0)
        for i in range(6):
            mc.write(0, 0, 3, 5, np.full(32, i, np.uint8), tag=i)
        order = [req.tag for _, req in mc.drain().issue_order]
        assert sorted(order) == list(range(6)) and order != list(range(6))
        # The last write issued is the one the cells hold.
        assert np.array_equal(ch.bank(0, 0).peek(3, 5), _data(order[-1]))

    def test_address_equal_reads_dequeue_the_picked_object(self):
        mc, _ = make_controller(policy=SchedulerPolicy.SHUFFLE, seed=3)
        requests = [Request(MemOp.READ, 0, 0, 3, 5, tag=i) for i in range(6)]
        for request in requests:
            mc.enqueue(request)
        issued = [req for _, req in mc.drain().issue_order]
        assert [req.tag for req in issued] != list(range(6))
        assert sorted(map(id, issued)) == sorted(map(id, requests))

    def test_requests_compare_by_identity(self):
        a = Request(MemOp.WRITE, 0, 0, 3, 5, data=_data(1))
        b = Request(MemOp.WRITE, 0, 0, 3, 5, data=_data(1))
        assert a != b and a == a


class TestFences:
    def test_fence_blocks_reordering(self):
        mc, _ = make_controller(policy=SchedulerPolicy.SHUFFLE, seed=0)
        mc.read(0, 0, 0, 0, tag="a")
        mc.fence()
        mc.read(0, 0, 0, 1, tag="b")
        result = mc.drain()
        order = [req.tag for _, req in result.issue_order]
        assert order == ["a", "b"]

    def test_shuffle_confined_to_epoch(self):
        mc, _ = make_controller(policy=SchedulerPolicy.SHUFFLE, seed=3)
        for i in range(4):
            mc.read(0, 0, 0, i, tag=("e0", i))
        mc.fence()
        for i in range(4):
            mc.read(0, 0, 0, i, tag=("e1", i))
        result = mc.drain()
        epochs = [req.tag[0] for _, req in result.issue_order]
        assert epochs == ["e0"] * 4 + ["e1"] * 4

    def test_fence_penalty_stalls(self):
        def run(penalty):
            mc, _ = make_controller(fence_penalty=penalty)
            mc.read(0, 0, 0, 0)
            mc.fence()
            mc.read(0, 0, 0, 1)
            return mc.drain().cycles

        # The stall absorbs the column cadence, so the delta is the penalty
        # minus the tCCD the second read would have waited anyway.
        delta = run(50) - run(0)
        assert 50 - HBM2_1GHZ.tccd_l <= delta <= 50

    def test_fence_count(self):
        mc, _ = make_controller()
        mc.fence()
        mc.fence()
        assert mc.fence_count == 2

    def test_trailing_fence_costs_nothing(self):
        mc, _ = make_controller(fence_penalty=100)
        mc.read(0, 0, 0, 0)
        baseline = mc.drain().cycles
        mc.fence()
        assert mc.drain().cycles == baseline

    def test_a_negative_fence_penalty_is_rejected(self):
        """It used to rewind the CA bus at each fence: four fenced reads to
        four banks put their commands on the bus at cycles 0, 14, 6, 20,
        so an ACT after a fence went out before the RD ahead of it."""
        from repro.host.processor import HostConfig
        from repro.stack import PimSystem, SystemConfig

        with pytest.raises(ValueError, match="cannot rewind"):
            make_controller(fence_penalty=-1000)
        for config in (
            SystemConfig(num_pchs=1, num_rows=64, fence_penalty_cycles=-1),
            SystemConfig(num_pchs=1, num_rows=64, host=HostConfig(fence_sync_ns=-45.0)),
        ):
            with pytest.raises(ValueError, match="cannot rewind"):
                PimSystem(config)


class TestWindow:
    def test_window_limits_lookahead(self):
        # With window=1, FR-FCFS degenerates to FCFS.
        mc, _ = make_controller(policy=SchedulerPolicy.FRFCFS, window=1)
        mc.read(0, 0, 0, 0, tag=0)
        mc.read(0, 0, 1, 0, tag=1)
        mc.read(0, 0, 0, 1, tag=2)
        order = [req.tag for _, req in mc.drain().issue_order]
        assert order == [0, 1, 2]


    def test_a_window_of_no_commands_is_rejected(self):
        """``window=0`` used to die inside ``drain()`` with an IndexError,
        the request still queued."""
        with pytest.raises(ValueError, match="at least one command"):
            make_controller(window=0)


class TestHelpers:
    def test_closed_page_access(self):
        mc, ch = make_controller()
        mc.closed_page_access(0, 0, 5)
        assert ch.bank(0, 0).open_row is None
        assert ch.cmd_counts[CommandType.ACT] == 1
        assert ch.cmd_counts[CommandType.PRE] == 1

    def test_closed_page_access_requires_empty_queue(self):
        mc, _ = make_controller()
        mc.read(0, 0, 0, 0)
        with pytest.raises(RuntimeError):
            mc.closed_page_access(0, 0, 5)

    def test_precharge_all(self):
        mc, ch = make_controller()
        mc.read(0, 0, 0, 0)
        mc.drain()
        assert ch.bank(0, 0).open_row == 0
        mc.precharge_all()
        assert ch.all_banks_idle


class TestBandwidth:
    def test_streaming_reads_approach_tccd_s_cadence(self):
        """Row-hit reads across bank groups run at ~1 column per tCCD_S."""
        mc, _ = make_controller()
        n = 64
        for i in range(n):
            mc.read(i % 4, 0, 0, (i // 4) % 32)  # rotate bank groups
        cycles = mc.drain().cycles
        ideal = n * HBM2_1GHZ.tccd_s
        assert cycles <= ideal * 1.5

    def test_single_bank_stream_runs_at_tccd_l(self):
        mc, _ = make_controller()
        n = 32
        for i in range(n):
            mc.read(0, 0, 0, i % 32)
        cycles = mc.drain().cycles
        assert cycles >= n * HBM2_1GHZ.tccd_l * 0.9

    def test_bank_parallel_reads_beat_single_bank(self):
        """Four row openings overlap across banks but serialise in one."""

        def run(spread):
            mc, _ = make_controller()
            for i in range(32):
                bg = i // 8 if spread else 0
                mc.read(bg, 0, i // 8, i % 8)
            return mc.drain().cycles

        assert run(spread=True) < run(spread=False)


class TestColumnBursts:
    """A burst is shorthand for its single requests — in what the
    controller reports as much as in what it schedules (the schedule
    itself is ``test_controller_differential.py``'s)."""

    def test_schedule_result_counts_one_drain(self):
        """``row_hits``/``row_misses`` are per drain, like ``command_count``
        beside them; the lifetime tallies stay on the controller."""
        mc, _ = make_controller()
        mc.read(0, 0, 0, 0)
        mc.read(0, 0, 0, 1)
        first = mc.drain()
        assert (first.row_hits, first.row_misses) == (1, 1)
        mc.read(0, 0, 0, 2, count=8)
        mc.read(0, 0, 1, 0)
        second = mc.drain()
        assert (second.row_hits, second.row_misses) == (8, 1)
        assert second.column_commands == 9
        assert (mc.row_hits, mc.row_misses) == (9, 2)

    def test_a_read_burst_is_its_columns_tCCD_L_apart(self):
        mc, ch = make_controller()
        for col in range(8):
            ch.bank(1, 2).poke(5, 4 + col, _data(col))
        mc.fence()
        mc.read(1, 2, 5, 4, tag="burst", count=8)
        result = mc.drain()
        cycles = [cycle for cycle, _ in result.issue_order]
        assert len(cycles) == 8 and {req.tag for _, req in result.issue_order} == {"burst"}
        assert np.diff(cycles).tolist() == [HBM2_1GHZ.tccd_l] * 7
        assert result.cycles == cycles[-1]
        assert ch.bank(1, 2).rd_count == 8
        # One tag, one block: the run's columns in column order.
        assert np.array_equal(
            result.read_data["burst"], np.repeat(np.arange(8, dtype=np.uint8), 32).reshape(8, 32)
        )

    def test_a_write_burst_lands_one_row_of_its_block_per_column(self):
        mc, ch = make_controller()
        block = np.arange(8 * 32, dtype=np.uint8).reshape(8, 32)
        mc.write(0, 3, 2, 16, block, count=8)
        mc.drain()
        assert np.array_equal(ch.bank(0, 3).peek_columns(2, np.arange(16, 24)), block)

    def test_pending_counts_bus_commands(self):
        mc, _ = make_controller()
        mc.read(0, 0, 0, 0)
        mc.read(0, 0, 0, 8, count=8)
        mc.write(0, 0, 0, 16, np.zeros((4, 32), dtype=np.uint8), count=4)
        assert mc.pending == 13
        mc.drain()
        assert mc.pending == 0

    @pytest.mark.parametrize(
        "queue, error",
        [
            # Put one RD on the bus, then died in ``drain`` (IndexError).
            (lambda mc: mc.read(0, 0, 3, 4, tag="r", count=0), "at least one column"),
            # The same, ending in ``negative dimensions are not allowed``.
            (lambda mc: mc.read(0, 0, 3, 4, tag="r", count=-2), "at least one column"),
            # Landed 4 WRs, then ``Command.single(4)`` raised IndexError, and
            # the run was shrunk by 3, not 4.
            (lambda mc: mc.write(0, 0, 3, 0, np.zeros((4, 32), np.uint8), count=8),
             r"needs a \(8, 32\) block"),
            (lambda mc: mc.write(0, 0, 3, 0, None, count=2), r"needs a \(2, 32\) block"),
            # The public ``enqueue`` skipped the check: one RD went out and
            # the drain returned its bytes.
            (lambda mc: mc.enqueue(Request(MemOp.READ, 0, 0, 1, 0, tag="x", count=0)),
             "at least one column"),
            (lambda mc: mc.enqueue(
                Request(MemOp.WRITE, 0, 0, 3, 0, np.zeros((4, 32), np.uint8), count=8)
            ), r"needs a \(8, 32\) block"),
        ],
        ids=[
            "read-count-0", "read-count-negative", "short-block", "no-block",
            "enqueue-count-0", "enqueue-short-block",
        ],
    )
    def test_a_run_the_bus_cannot_carry_is_refused_where_it_is_queued(
        self, queue, error
    ):
        mc, ch = make_controller()
        with pytest.raises(ValueError, match=error):
            queue(mc)
        assert mc.pending == 0 and not any(ch.cmd_counts.values())
        assert mc.drain().column_commands == 0

    @pytest.mark.parametrize(
        "run, block",
        [((False, 3, 0, 0), None), ((True, 3, 0, 8), np.zeros((4, 32), np.uint8))],
        ids=["no-columns", "short-block"],
    )
    def test_a_program_with_such_a_run_is_refused_whole(self, run, block):
        """Checked before anything of it is queued or issued — also the
        good runs ahead of the bad one."""
        from repro.pim.stream import Run

        mc, ch = make_controller()
        good = Run(True, 2, 0, 8, True, 0)
        program = (good, Run(*run, True, 1))
        blocks = (np.zeros((8, 32), np.uint8), block)
        with pytest.raises(ValueError):
            mc.drain(program, blocks)
        assert (mc.pending, mc.fence_count) == (0, 0)
        assert not any(ch.cmd_counts.values())

    def test_a_checked_program_checks_its_blocks_on_every_drain(self):
        """A ``CheckedProgram`` is checked and hashed once, where it is
        built — a write run of no columns, or a read run of none that is
        no transition, or a block feeding bursts of two lengths, is refused
        there — and drained again and again its blocks are still checked
        each time: one of the wrong shape raises before any run is queued
        or any command issued."""
        from repro.pim.stream import Run

        good = Run(True, 2, 0, 8, True, 0)
        for bad in (
            Run(True, 3, 0, 0, True, 1), Run(False, 3, 0, 0, True),
            Run(True, 3, 0, 4, True, 0),
        ):
            with pytest.raises(ValueError):
                CheckedProgram((good, bad))
        program = CheckedProgram((good, Run(True, 3, 0, 4, True, 1)))
        assert hash(program) == hash(tuple(program)) and program == tuple(program)
        mc, ch = make_controller()
        blocks = [np.zeros((8, 32), np.uint8), np.zeros((4, 32), np.uint8)]
        mc.drain(program, blocks)
        counts, fences = dict(ch.cmd_counts), mc.fence_count
        blocks[1] = np.zeros((3, 32), np.uint8)
        with pytest.raises(ValueError, match=r"needs a \(4, 32\) block"):
            mc.drain(program, blocks)
        assert (mc.pending, mc.fence_count, dict(ch.cmd_counts)) == (0, fences, counts)

    @pytest.mark.parametrize(
        "way", ["lone runs", "picked", "replayed", "shuffled", "behind a request"]
    )
    def test_issue_order_never_lists_a_programs_runs(self, monkeypatch, way):
        """``issue_order`` lists what ``enqueue`` / ``read`` / ``write``
        queued, whichever way a program's runs went; their blocks come back
        under their indices all the same."""
        from repro.pim.stream import Run, gemv_readback

        frames = frames_taken(monkeypatch)
        policy = SchedulerPolicy.SHUFFLE if way == "shuffled" else SchedulerPolicy.FRFCFS
        mc, _ = make_controller(policy=policy, seed=1)
        # One epoch of 16 runs, one per bank; a PREA before each drain
        # renews every bank, so the third drain starts where the second did.
        program = gemv_readback(3, 0, scale=2)
        if way == "lone runs":
            program = tuple(run._replace(fence=True) for run in program)
        drains = 3 if way == "replayed" else 1
        for _ in range(drains):
            mc.precharge_all()
            if way == "behind a request":
                mc.read(0, 1, 5, 0, tag="r")
            result = mc.drain(program)
        assert len(frames) == (way == "replayed")
        listed = [req.tag for _, req in result.issue_order]
        assert listed == (["r"] if way == "behind a request" else [])
        assert set(result.read_data) - {"r"} == set(range(16))

    def test_reprs_speak_in_bus_commands(self):
        from repro.dram.commands import Command

        mc, _ = make_controller()
        mc.fence()
        mc.read(1, 2, 7, 8, count=8)
        mc.read(1, 2, 7, 3)
        burst, single = mc._queue
        assert repr(burst) == "RDx8(bg=1,ba=2,row=7,col=8..15,epoch=1)"
        assert repr(single) == "RD(bg=1,ba=2,row=7,col=3,epoch=1)"
        assert [repr(r) for r in burst.expand()][::7] == [
            "RD(bg=1,ba=2,row=7,col=8,epoch=1)", "RD(bg=1,ba=2,row=7,col=15,epoch=1)"
        ]
        cmd = Command(CommandType.WR, 0, 1, row=2, col=4, count=3)
        assert repr(cmd) == "WRx3(bg=0,ba=1,row=2,col=4..6)"
        assert repr(cmd.single(2)) == "WR(bg=0,ba=1,row=2,col=6)"
