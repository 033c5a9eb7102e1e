"""Differential oracle: the run-window scheduler vs the per-candidate one.

``repro.dram.controller.MemoryController`` schedules *runs*: the reorder
window is the queue head while a budget of bus commands lasts, a pick asks
the channel one first-ready question, the picked run issues its next column
and shrinks, and a clean read run's bytes cross at its first column.  The
controller it replaced lives on as
``reference_controller.ReferenceController``.  Both are driven through the
same random request streams on twin channels and must agree on everything
observable: issue cycles and order, read data, command counts, row hit/miss
tallies, busy cycles, refreshes, every bank's final timing state, the
stored bytes and — on ECC channels — every bank's SEC-DED counters.

The production controller is handed each run (``Request.count > 1``) as
one request, the reference its expansion into single requests tagged per
column, so the ``(cycle, request, column)`` order of every run and every
row of its ``(count, 32)`` block are compared — whether the run took the
closed-form path (alone in its fence epoch), the run window (sharing an
epoch), ``SHUFFLE``'s expansion, had a refresh fall due inside it, met a
flipped bit, or raised part way.

A kernel hands the controller a whole program (``drain(program,
blocks)``); ``TestTheProgramPassIsTheQueuePath`` holds that equal to the
program queued run by run (``reference_emitter.enqueue_program``) and to
the reference fed its single requests — runs to drawn banks, GEMV
readback-shaped epochs among them, and each read run's block, which
``drain`` files under the run's index in the program.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank, BankConfig
from repro.dram.commands import CommandType
from repro.dram.controller import MemOp, MemoryController, Request, SchedulerPolicy
from repro.dram.ecc import EccBank, UncorrectableError
from repro.dram.pseudochannel import PseudoChannel
from repro.dram.timing import HBM2_1GHZ
from repro.obs import Tracer
from repro.pim.assembler import assemble_words
from repro.errors import PimChannelError
from repro.pim.device import PimPseudoChannel
from repro.pim.fused import FusedLockstepGroup
from repro.pim.stream import ZEROS, Run, gemv_readback
from repro.tools import trace_channel

from .reference_controller import ReferenceController
from .reference_emitter import enqueue_program

NUM_ROWS = 64
# A short refresh interval so random streams of a few dozen requests cross
# several refreshes.
TIMING = replace(HBM2_1GHZ, trefi=150, trfc=40)
MODES = ("plain", "sb", "ab", "ab-pim")


def make_channel(mode, fused=False, ecc=False, timing=TIMING):
    """A fresh channel of the kind ``mode`` names (still in SB mode), its
    exec group the eager interpreter or (``fused``) the deferring one, its
    banks plain or SEC-DED protected.  Every column of the rows the streams
    address holds bytes of its own, so a read's data names its column."""
    config = BankConfig(num_rows=NUM_ROWS)
    bank_cls = EccBank if ecc else Bank
    if mode == "plain":
        channel = PseudoChannel(timing, config, bank_cls=bank_cls)
    else:
        channel = PimPseudoChannel(timing, config, bank_cls=bank_cls)
        if fused:
            channel.lockstep = FusedLockstepGroup(channel.units)
    cols = np.arange(config.cols_per_row)
    for index, bank in enumerate(channel.banks):
        for row in range(4):
            fill = (7 * index + 5 * row + 3 * cols[:, None] + np.arange(32)) % 251
            bank.poke_columns(row, cols, fill.astype(np.uint8))
    return channel


NOP_PROGRAM = "NOP\nJUMP -1, 5\nEXIT"


def enter_mode(mc, mode, program=NOP_PROGRAM):
    """Drive ``mc``'s channel into ``mode`` the way the kernels do."""
    if mode in ("plain", "sb"):
        return
    memory_map = mc.channel.memory_map
    mc.precharge_all()
    mc.closed_page_access(0, 0, memory_map.abmr_row)
    if mode == "ab-pim":
        words = np.array(assemble_words(program)[:8], dtype="<u4")
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
    """Every bank's timing bounds, row-buffer state, stored bytes and (ECC
    banks) SEC-DED counters."""
    return [
        (
            b.next_act, b.next_pre, b.next_rd, b.next_wr, b.open_row, b.state,
            (b.rd_count, b.wr_count),
            {row: array.tobytes() for row, array in b._rows.items()},
            vars(b.ecc_stats).copy() if isinstance(b, EccBank) else None,
        )
        for b in channel.banks
    ]


def write_data(value, count):
    """A write's bytes: a different value per column, so a mixed-up burst
    shows — a ``(count, 32)`` block, or one column for a single."""
    column = ((value + np.arange(count)) % 256).astype(np.uint8)
    data = np.repeat(column[:, None], 32, axis=1)
    return data[0] if count == 1 else data


def stream_rows(mode):
    """The rows a stream's row index 0..3 names.  Row 3 of the pool is a
    register row (GRF): column accesses there take the register path of
    the PIM channel, in every mode (a burst of up to 20 columns wraps
    around its 16 registers)."""
    return [0, 1, 2, NUM_ROWS - 5 if mode != "plain" else 3]


class Side:
    """One controller on its own channel, fed the shared op stream.

    Requests are tagged with their stream position.  The production
    controller takes a run as one request; the reference takes the single
    requests it stands for, each tagged ``(position, column)``.
    """

    def __init__(
        self, controller_cls, mode, fused=False, program=NOP_PROGRAM, ecc=False,
        timing=TIMING, **kwargs,
    ):
        self.reference = controller_cls is ReferenceController
        self.mc = controller_cls(make_channel(mode, fused, ecc, timing), **kwargs)
        enter_mode(self.mc, mode, program)

    def enqueue(self, position, op, bg, ba, row, col, value, count=1):
        data = write_data(value, count) if op is MemOp.WRITE else None
        if not self.reference:
            self.mc.enqueue(
                Request(op, bg, ba, row, col, data=data, tag=position, count=count)
            )
            return
        if data is not None and count == 1:
            data = data[None]
        for index in range(count):
            self.mc.enqueue(
                Request(
                    op, bg, ba, row, col + index,
                    data=None if data is None else data[index],
                    tag=(position, col + index),
                )
            )

    def state(self):
        """Controller and device state, as left by a drain or a raise."""
        mc = self.mc
        return (
            (mc.row_hits, mc.row_misses),
            (mc.busy_cycles, mc.refresh_count, mc.fence_count),
            (mc.current_cycle, mc._next_ca, mc.pending),
            dict(mc.channel.cmd_counts),
            bank_state(mc.channel),
        )

    def drain(self):
        """Drain and return everything the two sides must agree on, issue
        order and read data spelled per (position, column)."""
        # The production side's queue as the drain finds it: each run's
        # next column (advanced below as its commands are met) and shape.
        next_col = {id(req): req.col for req in self.mc._queue}
        shape = {req.tag: (req.col, req.count) for req in self.mc._queue}
        try:
            result = self.mc.drain()
        except Exception as exc:  # compared, not swallowed
            return ("raised", type(exc), str(exc), self.state())
        order, data = [], {}
        if self.reference:
            order = [(cycle, *req.tag) for cycle, req in result.issue_order]
            data = {tag: column.tobytes() for tag, column in result.read_data.items()}
        else:
            for cycle, req in result.issue_order:
                col = next_col.get(id(req))
                if col is None:
                    col = req.col  # a single SHUFFLE made of a run
                else:
                    next_col[id(req)] = col + 1
                order.append((cycle, req.tag, col))
            for tag, block in result.read_data.items():
                col0, count = shape[tag]
                # A run answers with its block, a single with its column.
                assert block.shape == ((count, 32) if count > 1 else (32,))
                for index, column in enumerate(block.reshape(-1, 32)):
                    data[(tag, col0 + index)] = column.tobytes()
        return (
            order,
            data,
            result.command_count,
            (result.row_hits, result.row_misses, result.cycles),
            self.state(),
        )


# One stream element: a request (op, bank, row, col, value), a burst (the
# same plus a count), a fence or a drain.  Few rows and columns so hits,
# conflicts and address-equal requests are all common.
REQUEST = st.tuples(
    st.sampled_from([MemOp.READ, MemOp.WRITE]),
    st.integers(0, 15),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 255),
)
# Counts from a pair to longer than the widest window; starting columns
# that overlap the single requests' (0..3).
BURST = st.tuples(
    st.sampled_from([MemOp.READ, MemOp.WRITE]),
    st.integers(0, 15),
    st.integers(0, 3),
    st.sampled_from([0, 2, 8]),
    st.integers(0, 255),
    st.sampled_from([2, 3, 8, 8, 20]),
)
# Fences on both sides of a burst are what the kernels emit, so "alone in
# its epoch" must be as common as sharing one.
FENCED_BURST = BURST.map(lambda burst: ["fence", burst, "fence"])
STREAM = st.lists(
    st.one_of(
        REQUEST, REQUEST, REQUEST, BURST, FENCED_BURST,
        st.just("fence"), st.just("drain"),
    ),
    min_size=1,
    max_size=70,
).map(
    lambda elements: [
        item
        for element in elements
        for item in (element if isinstance(element, list) else [element])
    ]
)
POLICY = st.one_of(
    st.tuples(st.just(SchedulerPolicy.FRFCFS), st.none()),
    st.tuples(st.just(SchedulerPolicy.FCFS), st.none()),
    st.tuples(st.just(SchedulerPolicy.SHUFFLE), st.integers(0, 2**16)),
)


def run_both(
    mode, policy, seed, refresh, fence_penalty, window, stream, ab_bank, fused=False,
    ecc=False, faults=(), timing=TIMING,
):
    """Feed ``stream`` to both controllers, comparing at every drain.

    ``faults`` are applied to both channels before the stream: ``("flip",
    bank, row, col, bit)`` flips one stored data bit of an ECC bank,
    ``("dead", bank)`` hard-fails a bank.  A drain that raises is an
    outcome like any other — compared, and followed by the rest of the
    stream with the unissued requests still queued on both sides.
    """
    kwargs = dict(
        policy=policy, seed=seed, refresh=refresh,
        fence_penalty=fence_penalty, window=window, fused=fused, ecc=ecc,
        timing=timing,
    )
    new = Side(MemoryController, mode, **kwargs)
    ref = Side(ReferenceController, mode, **kwargs)
    for side in (new, ref):
        # Flips first: a dead bank's cells are out of reach.
        for kind, bank, *where in sorted(faults, key=lambda fault: fault[0] == "dead"):
            if kind == "flip":
                side.mc.channel.banks[bank].inject_error(*where)
            else:
                side.mc.channel.banks[bank].fail(0)
    rows = stream_rows(mode)
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
            op, bank, row, col, value, *count = element
            if mode in ("ab", "ab-pim"):
                # All-bank modes ignore bg/ba; an unmodified controller
                # still shadows rows per bank, so kernels address one bank.
                bank = ab_bank
            for side in (new, ref):
                side.enqueue(
                    position, op, bank // 4, bank % 4, rows[row], col, value, *count
                )
    if mode != "plain":
        for side in (new, ref):
            side.mc.channel.lockstep.flush_pending()
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
    fused=st.booleans(),
)
def test_incremental_scheduler_matches_reference(
    mode, policy, refresh, fence_penalty, window, stream, ab_bank, fused
):
    new, ref, outcomes = run_both(
        mode, policy[0], policy[1], refresh, fence_penalty, window, stream,
        ab_bank, fused,
    )
    assert not any(outcome[0] == "raised" for outcome in outcomes)
    if mode != "plain":
        assert new.mc.channel.mode is ref.mc.channel.mode
        for a, b in zip(new.mc.channel.units, ref.mc.channel.units):
            assert a.regs.grf_a.tobytes() == b.regs.grf_a.tobytes()  # NaN-safe


# Damage, aimed at what the stream touches: (kind, which request, which of
# its columns, which bit).  Single-bit flips mostly; two flips in one word
# (an uncorrectable error) and a dead bank now and then.
FAULTS = st.lists(
    st.tuples(
        st.sampled_from(["flip", "flip", "flip", "double", "dead"]),
        st.integers(0, 69), st.integers(0, 19), st.integers(0, 254),
    ),
    max_size=6,
)
# Reads only (and long epochs of them): what the read-ahead serves.  The
# full STREAM, writes and all, is drawn as often.
READ_STREAM = st.lists(
    st.one_of(
        REQUEST.map(lambda r: (MemOp.READ, *r[1:])),
        BURST.map(lambda b: (MemOp.READ, *b[1:])),
        BURST.map(lambda b: (MemOp.READ, *b[1:])),
        st.just("fence"), st.just("drain"),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    mode=st.sampled_from(MODES),
    policy=st.sampled_from([SchedulerPolicy.FRFCFS, SchedulerPolicy.FCFS]),
    refresh=st.booleans(),
    window=st.sampled_from([1, 4, 16]),
    stream=st.one_of(STREAM, READ_STREAM),
    faults=FAULTS,
    ab_bank=st.integers(0, 15),
    fused=st.booleans(),
)
def test_runs_over_flipped_bits_and_dead_banks_match_reference(
    mode, policy, refresh, window, stream, faults, ab_bank, fused
):
    """ECC channels with seeded damage: a run over a single-bit error is
    corrected, scrubbed inline and counted (``corrected``,
    ``words_checked``) as its single reads are; a double-bit error or a
    dead bank inside a run raises the same error after the same commands,
    leaving the same controller, banks, bytes and SEC-DED counters — and
    the drains after it, the shrunk run still queued, agree again.
    (In-order policies: ``SHUFFLE`` turns every run into single requests
    before any of this can tell them apart.)"""
    requests = [element for element in stream if isinstance(element, tuple)]
    damage = []
    for kind, which, column, bit in faults if requests else ():
        _, bank, row, col, _, *count = requests[which % len(requests)]
        if mode in ("ab", "ab-pim"):
            bank = ab_bank
        if kind == "dead":
            damage.append(("dead", bank))
        elif row < 3:  # a bank row, not the register row
            where = (bank, row, col + column % (count[0] if count else 1))
            damage.append(("flip", *where, bit))
            if kind == "double":
                damage.append(("flip", *where, bit ^ 1))  # same 64-bit word
    run_both(
        mode, policy, None, refresh, 7, window, stream, ab_bank, fused,
        ecc=True, faults=damage,
    )


@settings(max_examples=60, deadline=None)
@given(
    policy=POLICY,
    window=st.sampled_from([1, 4, 16]),
    stream=st.lists(st.one_of(REQUEST, REQUEST, BURST), min_size=2, max_size=30),
)
def test_illegal_all_bank_streams_fail_identically(policy, window, stream):
    """AB-mode requests that spread over banks make the controller ACT a
    bank the broadcast already opened; both schedulers must hit the same
    TimingViolation at the same point and leave the same controller and
    bank state — ``pending`` counted in bus commands."""
    kwargs = dict(policy=policy[0], seed=policy[1], window=window)
    sides = [
        Side(MemoryController, "ab", **kwargs),
        Side(ReferenceController, "ab", **kwargs),
    ]
    for position, (op, bank, row, col, value, *count) in enumerate(stream):
        for side in sides:
            side.enqueue(position, op, bank // 4, bank % 4, row, col, value, *count)
    assert sides[0].drain() == sides[1].drain()


def test_fixed_stream_crosses_refreshes_and_reorders():
    """The strategy's building blocks reach the paths they are meant to:
    a fixed stream crosses several refreshes and reorders under FR-FCFS."""
    stream = [(MemOp.READ, b % 3, b % 2, b % 4, 0) for b in range(60)]
    new, _, outcomes = run_both(
        "sb", SchedulerPolicy.FRFCFS, None, True, 7, 16, stream, 0
    )
    assert new.mc.refresh_count >= 2
    order = [position for _, position, _ in outcomes[-1][0]]
    assert sorted(order) == list(range(60)) and order != list(range(60))
    assert outcomes[-1][2][CommandType.REF] == new.mc.refresh_count


@pytest.mark.parametrize("seed", range(16))
def test_long_seeded_streams_match(seed):
    """Hypothesis favours short streams; these run hundreds of requests so
    full 16-deep windows, many refreshes and long epochs are compared too."""
    rng = np.random.default_rng(seed)
    policy = list(SchedulerPolicy)[seed % 3]
    stream = []
    commands = 0
    for _ in range(400):
        draw = rng.integers(0, 22)
        if draw == 0:
            stream.append("drain")
        elif draw < 3:
            stream.append("fence")
        else:
            request = (
                MemOp.WRITE if rng.integers(0, 2) else MemOp.READ,
                int(rng.integers(0, 16)), int(rng.integers(0, 4)),
                int(rng.integers(0, 4)), int(rng.integers(0, 256)),
            )
            if draw < 20:
                commands += 1
            else:  # a burst, fenced on both sides every other time
                count = (2, 8, 20)[int(rng.integers(0, 3))]
                commands += count
                request += (count,)
                if rng.integers(0, 2):
                    stream.append("fence")
                    stream.append(request)
                    request = "fence"
            stream.append(request)
    new, _, outcomes = run_both(
        MODES[seed % 4], policy, seed, bool(seed & 4), [0, 7][seed & 1],
        [1, 4, 16][(seed // 2) % 3], stream, seed % 16, fused=bool(seed & 8),
    )
    assert not any(outcome[0] == "raised" for outcome in outcomes)
    assert sum(len(outcome[0]) for outcome in outcomes) == commands


# -- column bursts: the paths, one by one ---------------------------------------


def burst_paths(monkeypatch):
    """Count how the production controller and device serve runs:
    ``closed-form`` / ``straddle`` — ``_lone_run`` issued the whole run /
    only its first command; ``picks`` — commands that went through the
    window; ``expanded`` — runs ``Request.expand`` turned into singles;
    ``one-update`` — AB-PIM trigger runs taken as one state update."""
    taken = {"closed-form": 0, "straddle": 0, "expanded": 0, "one-update": 0, "picks": 0}
    lone_run = MemoryController._lone_run
    expand = Request.expand
    pick = MemoryController._pick
    issue_burst = PimPseudoChannel._issue_burst

    def counted_lone_run(self, *args):
        whole = lone_run(self, *args)
        taken["closed-form" if whole else "straddle"] += 1
        return whole

    def counted_expand(self):
        taken["expanded"] += self.count > 1
        return expand(self)

    def counted_pick(self, epoch):
        taken["picks"] += 1
        return pick(self, epoch)

    def counted_issue_burst(self, cmd, cycle):
        triggered = self.pim_triggered_columns
        calls = []
        trigger_all = self.lockstep.trigger_all
        self.lockstep.trigger_all = lambda trig: (calls.append(trig), trigger_all(trig))
        try:
            return issue_burst(self, cmd, cycle)
        finally:
            del self.lockstep.trigger_all
            if self.pim_triggered_columns - triggered == cmd.count and len(calls) == 1:
                taken["one-update"] += 1

    monkeypatch.setattr(MemoryController, "_lone_run", counted_lone_run)
    monkeypatch.setattr(MemoryController, "_pick", counted_pick)
    monkeypatch.setattr(PimPseudoChannel, "_issue_burst", counted_issue_burst)
    monkeypatch.setattr(Request, "expand", counted_expand)
    return taken


def entering_ab_pim(policy):
    """What ``enter_mode`` adds to ``burst_paths``' counts: the CRF and the
    PIM_OP_MODE write, each alone in its epoch — lone runs under an
    in-order policy, picks under ``SHUFFLE``."""
    return "picks" if policy is SchedulerPolicy.SHUFFLE else "closed-form"


def test_a_burst_alone_in_its_epoch_is_one_queue_entry_one_issue_and_no_pick(
    monkeypatch,
):
    """The kernels' shape — fence, 8 columns of one row, fence — on an
    AB-PIM channel with the deferring exec group: no pick, one
    ``channel.issue``, one ``trigger_all`` and one tape entry per burst,
    and a schedule equal to the reference's, command for command."""
    taken = burst_paths(monkeypatch)
    stream = []
    for group in range(6):
        op = MemOp.WRITE if group % 3 == 0 else MemOp.READ
        stream += ["fence", (op, 0, group // 4, 8 * (group % 2), group, 8)]
    new, _, outcomes = run_both(
        "ab-pim", SchedulerPolicy.FRFCFS, None, False, 7, 16, stream, 0, fused=True
    )
    assert taken == {
        "closed-form": 6 + 2,  # entering AB-PIM: the CRF and PIM_OP_MODE writes
        "straddle": 0, "expanded": 0, "one-update": 6, "picks": 0,
    }
    assert [position for _, position, _ in outcomes[-1][0]] == [
        2 * group + 1 for group in range(6) for _ in range(8)
    ]
    assert outcomes[-1][2][CommandType.ACT] == 2  # rows 0 and 1, opened once each
    assert outcomes[-1][3][:2] == (46, 2)  # this drain's hits and misses
    assert new.mc.channel.pim_triggered_columns == 48


@pytest.mark.parametrize(
    "case, kwargs, stream, expect",
    [
        # Two requests in the run's epoch: it stays one queue entry, and its
        # commands compete in the window one pick each (1 + 8 + 1).
        (
            "shares an epoch", {},
            [(MemOp.READ, 0, 0, 1, 0), (MemOp.READ, 4, 1, 0, 0, 8), (MemOp.READ, 0, 0, 2, 0)],
            {"expanded": 0, "closed-form": 0, "picks": 10},
        ),
        # The one place a run is expanded: SHUFFLE draws among single commands.
        ("shuffle", {"policy": SchedulerPolicy.SHUFFLE, "seed": 5},
         ["fence", (MemOp.READ, 0, 0, 0, 0, 8), "fence"],
         {"expanded": 1, "closed-form": 0, "picks": 8}),
        ("closed row, then a conflicting row, longer than the window", {"window": 4},
         ["fence", (MemOp.WRITE, 5, 0, 0, 3, 20), "fence", (MemOp.READ, 5, 1, 2, 0, 20)],
         {"closed-form": 2, "expanded": 0, "picks": 0}),
    ],
)
@pytest.mark.parametrize("mode", MODES)
def test_each_burst_path_matches_the_reference(
    monkeypatch, mode, case, kwargs, stream, expect
):
    taken = burst_paths(monkeypatch)
    options = dict(
        policy=SchedulerPolicy.FRFCFS, seed=None, refresh=False, fence_penalty=7,
        window=16, ab_bank=5, fused=True,
    )
    options.update(kwargs)
    run_both(mode, stream=stream, **options)  # asserts the two sides agree
    if mode == "ab-pim":
        taken[entering_ab_pim(options["policy"])] -= 2
    assert {name: taken[name] for name in expect} == expect, case


@pytest.mark.parametrize("mode", MODES)
def test_a_burst_a_refresh_falls_due_inside_goes_one_by_one(monkeypatch, mode):
    """tREFI = 150 and runs of 8 columns (28 cycles): most fit between
    two refreshes, some do not — and then only their first command is
    issued by the burst path; the run stays one shrinking queue entry and
    its other seven commands take the pick path, one refresh check each."""
    taken = burst_paths(monkeypatch)
    stream = ["fence", (MemOp.READ, 0, 0, 0, 0, 8)] * 12
    new, _, _ = run_both(
        mode, SchedulerPolicy.FRFCFS, None, True, 7, 16, stream, 0, fused=True
    )
    assert new.mc.refresh_count >= 2
    if mode == "ab-pim":
        taken[entering_ab_pim(SchedulerPolicy.FRFCFS)] -= 2
    assert taken["closed-form"] >= 1 and taken["straddle"] >= 1
    assert taken["closed-form"] + taken["straddle"] == 12
    assert taken["expanded"] == 0
    assert taken["picks"] == 7 * taken["straddle"]


@pytest.mark.parametrize("failing", [0, 3, 7])
@pytest.mark.parametrize("policy", [SchedulerPolicy.FRFCFS, SchedulerPolicy.FCFS])
def test_a_burst_whose_kth_command_raises_leaves_what_the_loop_leaves(failing, policy):
    """A dead channel under the eager (``exec_mode="scalar"``) executor:
    the microkernel idles through ``failing`` triggers, then reads the
    bank.  Controller clocks and tallies, the queue (``pending`` in bus
    commands), the device's counters and every bank must be where the
    per-command loop leaves them — and so must the retry after it."""
    program = "FILL GRF_A[A], EVEN_BANK\nJUMP -1, 7\nEXIT"
    if failing:
        program = f"NOP\nJUMP -1, {failing - 1}\n" + program
    sides = [
        Side(controller, "ab-pim", program=program, policy=policy, fence_penalty=7)
        for controller in (MemoryController, ReferenceController)
    ]
    for side in sides:
        side.mc.fence()
        side.enqueue(0, MemOp.READ, 0, 0, 1, 0, 0, count=8)
        side.mc.fence()
        side.enqueue(1, MemOp.READ, 0, 0, 1, 8, 0, count=8)
        for bank in side.mc.channel.banks:
            bank.fail(0)
    got, want = sides[0].drain(), sides[1].drain()
    assert got[:2] == ("raised", PimChannelError)
    assert got == want
    assert sides[0].mc.pending == 16 - failing
    assert sides[0].mc.channel.pim_triggered_columns == failing + 1
    assert sides[0].mc.channel.cmd_counts == sides[1].mc.channel.cmd_counts
    # Drained again, the shrunk burst raises at once, as the loop does.
    assert sides[0].drain() == sides[1].drain()
    assert sides[0].mc.pending == 16 - failing


def test_a_register_row_burst_raises_mid_run_like_its_single_commands():
    """SB mode, no exec group involved: the PIM_CONF row takes column 0
    and rejects column 1, so a burst over it stops at its second command."""
    sides = [Side(MemoryController, "sb"), Side(ReferenceController, "sb")]
    for side in sides:
        conf_row = side.mc.channel.memory_map.conf_row
        side.enqueue(0, MemOp.WRITE, 0, 0, conf_row, 0, 0, count=4)
    got, want = sides[0].drain(), sides[1].drain()
    assert got[:2] == ("raised", ValueError) and got == want
    assert sides[0].mc.pending == 3


# -- runs in the window: their data, one case at a time ---------------------------


@pytest.mark.parametrize(
    "case, kwargs, stream",
    [
        ("alone in its epoch", {}, ["fence", (MemOp.READ, 6, 1, 2, 0, 8), "fence"]),
        ("sharing an epoch", {},
         [(MemOp.READ, 6, 1, 0, 0), (MemOp.READ, 6, 1, 2, 0, 8), (MemOp.READ, 9, 1, 8, 0, 8)]),
        ("shuffle", {"policy": SchedulerPolicy.SHUFFLE, "seed": 5},
         [(MemOp.READ, 6, 1, 2, 0, 8), (MemOp.READ, 6, 1, 0, 0)]),
        ("straddling a refresh", {"refresh": True},
         ["fence", (MemOp.READ, 6, 1, 2, 0, 8)] * 12),
    ],
)
@pytest.mark.parametrize("mode", ["plain", "sb", "ab"])
def test_a_tagged_read_run_answers_with_its_block(mode, case, kwargs, stream):
    """``read(..., tag=t, count=8)`` used to leave column 7 alone under
    ``t`` — the closed form returned the last command's data, the expanded
    singles overwrote one tag.  It is the ``(8, 32)`` block, in column
    order, whichever way the run went."""
    options = dict(
        policy=SchedulerPolicy.FRFCFS, seed=None, refresh=False, fence_penalty=7,
        window=16, ab_bank=6,
    )
    options.update(kwargs)
    new, _, outcomes = run_both(mode, stream=stream, **options)
    stored = new.mc.channel.banks[6].peek_columns(1, np.arange(2, 10))
    runs = [
        position for position, element in enumerate(stream)
        if len(element) == 6 and element[1] == 6
    ]
    for position in runs:
        got = b"".join(outcomes[-1][1][(position, col)] for col in range(2, 10))
        assert got == stored.tobytes(), case


def test_a_write_slipping_into_a_runs_epoch_is_seen_by_the_columns_after_it():
    """With tRTW below tCCD_L a write to another bank group beats the
    run's next read, and the write behind it — to a column the run has yet
    to read — follows at tCCD_S: R0, W, W(col 6), R1 .. R7.  The run must
    not have taken column 6 with its first read."""
    timing = replace(TIMING, trtw=2)
    stream = [
        (MemOp.READ, 0, 0, 0, 0), (MemOp.READ, 4, 0, 0, 0), "fence",
        (MemOp.READ, 0, 0, 0, 0, 8), (MemOp.WRITE, 4, 0, 1, 200), (MemOp.WRITE, 0, 0, 6, 99),
    ]
    new, _, outcomes = run_both(
        "sb", SchedulerPolicy.FRFCFS, None, False, 0, 16, stream, 0, timing=timing
    )
    order = [(position, col) for _, position, col in outcomes[-1][0]]
    assert order[2:6] == [(3, 0), (4, 1), (5, 6), (3, 1)]
    assert outcomes[-1][1][(3, 6)] == bytes([99]) * 32


@pytest.mark.parametrize(
    "damage, error, issued",
    [
        # One flipped bit under column 3: corrected and scrubbed by that read.
        ([("flip", 2, 1, 3, 17)], None, 17),
        # Two in one word of column 5: the run raises there, five reads in.
        ([("flip", 2, 1, 3, 17), ("flip", 2, 1, 5, 64), ("flip", 2, 1, 5, 65)],
         UncorrectableError, None),
        # A dead bank raises at the run's first column.
        ([("dead", 2)], PimChannelError, None),
    ],
)
@pytest.mark.parametrize("policy", [SchedulerPolicy.FRFCFS, SchedulerPolicy.FCFS])
def test_damage_inside_a_windowed_run_is_met_at_the_same_command(
    damage, error, issued, policy
):
    """Two runs and a single share an epoch on an ECC channel, one run
    over damaged cells: same corrections, inline scrub and
    ``words_checked``; on an uncorrectable word or a dead bank the same
    exception text and the same controller, banks, bytes and counters
    after the raise (``run_both`` compares ``state()``) — and after a
    second ``drain()`` of what was left queued."""
    stream = [
        (MemOp.READ, 9, 1, 0, 0, 8), (MemOp.READ, 2, 1, 0, 0, 8), (MemOp.READ, 9, 1, 9, 0),
        "drain", "drain",
    ]
    new, _, outcomes = run_both(
        "sb", policy, None, False, 7, 16, stream, 0, ecc=True, faults=damage
    )
    stats = new.mc.channel.banks[2].ecc_stats
    if error is None:
        assert len(outcomes[0][0]) == issued and not outcomes[1][0]
        assert (stats.corrected, stats.words_checked) == (1, 8 * 4)
        assert new.mc.channel.banks[9].ecc_stats.words_checked == 9 * 4
    else:
        assert [outcome[:2] for outcome in outcomes[:2]] == [("raised", error)] * 2
        assert outcomes[0][2] == outcomes[1][2]
        assert new.mc.pending > 0


# -- a program handed to drain: the pass is the queue path --------------------------

# One run of a drawn program: direction, row (an index into ``stream_rows``),
# first column, count, the value its WR block is made of, whether a fence
# follows it (mostly: the kernels' shape), whether one precedes it too, and
# its bank (SB mode only: the all-bank modes address bank 0).
PROGRAM_RUN = st.tuples(
    st.booleans(), st.integers(0, 3), st.sampled_from([0, 2, 8]), st.integers(1, 8),
    st.integers(0, 255), st.sampled_from([True, True, True, False]),
    st.sampled_from([False, False, True]), st.integers(0, 15),
)
# An epoch shaped like a GEMV tile's readback (``stream.gemv_readback``):
# 8-column reads of one row and column in every even bank, unfenced.
READBACK_EPOCH = st.tuples(st.integers(0, 3), st.sampled_from([0, 8])).map(
    lambda where: [
        (False, where[0], where[1], 8, 0, False, False, bank)
        for bank in range(0, 16, 2)
    ]
)
PROGRAM = st.lists(
    st.one_of(PROGRAM_RUN.map(lambda run: [run]), READBACK_EPOCH),
    min_size=1, max_size=6,
).map(lambda parts: [run for part in parts for run in part])


def make_program(runs, mode):
    """Drawn runs as a program of ``repro.pim.stream`` runs and the blocks
    its WR runs index (one each, made as ``Side.enqueue`` makes data)."""
    rows = stream_rows(mode)
    program, blocks = [], []
    for write, row, col, count, value, fence, barrier, bank in runs:
        operand = ZEROS
        if write:
            operand = len(blocks)
            blocks.append(write_data(value, count))
        bank = bank if mode == "sb" else 0
        program.append(Run(write, rows[row], col, count, fence, operand, barrier, bank))
    return tuple(program), blocks


def queue_state(mc):
    """What is left queued, run by run (the reference queues singles).  Tags
    are left out: the emitter queues a program's reads untagged."""
    return [
        (r.op, r.bg, r.ba, r.row, r.col, r.count, r.epoch,
         None if r.data is None else r.data.tobytes())
        for r in mc._queue
    ]


def three_ways(
    mode, runs, before=(), fence_before=True, microkernel=NOP_PROGRAM, faults=(),
    **kwargs,
):
    """Hand the program of ``runs`` to ``drain`` (``pass``), to the run-by-run
    emitter (``queue``) and, expanded into single requests,
    to the reference controller (``reference``) — each behind the same
    ``before`` requests (and a fence, with ``fence_before``) on a twin
    channel with the same ``faults`` — then drain once more.  Returns each
    side's outcome of both drains: result or exception, every bus command
    at its cycle (bursts spelled as their columns), the ``drain`` spans,
    the controller and bank state, the queue (``None`` for the reference)
    and the read data per (run, column) — of ``before`` (tagged
    ``("before", position)``) and, apart, of the program's runs (by index
    in the program)."""
    program, blocks = make_program(runs, mode)
    rows = stream_rows(mode)
    step = TIMING.tccd_l
    outcomes = {}
    for way in ("pass", "queue", "reference"):
        controller = ReferenceController if way == "reference" else MemoryController
        side = Side(controller, mode, program=microkernel, **kwargs)
        for kind, bank, *where in faults:
            if kind == "flip":
                side.mc.channel.banks[bank].inject_error(*where)
            else:
                side.mc.channel.banks[bank].fail(0)
        for position, (op, bank, row, col, value) in enumerate(before):
            bank = bank if mode == "sb" else 0  # all-bank modes: one bank
            side.enqueue(
                ("before", position), op, bank // 4, bank % 4, rows[row], col, value
            )
        if fence_before:
            side.mc.fence()
        side.mc.tracer = tracer = Tracer()
        drains = []
        for attempt in range(2):
            # Where each of the program's queued read runs stands: its
            # block starts there.
            first_col = {r.tag: r.col for r in side.mc._queue if isinstance(r.tag, int)}
            with trace_channel(side.mc.channel) as trace:
                try:
                    if attempt:
                        result = side.mc.drain()
                    elif way == "pass":
                        result = side.mc.drain(program, blocks)
                    elif way == "queue":
                        result = enqueue_program(side.mc, program, blocks)
                    else:
                        for index, (run, drawn) in enumerate(zip(program, runs)):
                            if run.barrier:
                                side.mc.fence()
                            side.enqueue(
                                index, MemOp.WRITE if run.write else MemOp.READ,
                                run.bank // 4, run.bank % 4, run.row, run.col,
                                drawn[4], run.count,
                            )
                            if run.fence:
                                side.mc.fence()
                        result = side.mc.drain()
                    data = {}
                    for t, d in result.read_data.items():
                        if way == "reference":
                            data[t] = d.tobytes()  # a single's: (run, column)
                        elif isinstance(t, int):
                            col = first_col.get(t, program[t].col)
                            for i, column in enumerate(d.reshape(-1, 32)):
                                data[(t, col + i)] = column.tobytes()
                        else:
                            data[(t, before[t[1]][3])] = d.tobytes()
                    ran = {t: d for t, d in data.items() if isinstance(t[0], int)}
                    outcome = (
                        "ok", {t: d for t, d in data.items() if t not in ran}, ran
                    )
                except Exception as exc:  # compared, not swallowed
                    outcome = ("raised", type(exc), str(exc))
            drains.append((
                outcome,
                [
                    (r.cycle + i * step, r.cmd_type, r.row, r.col + i, r.mode)
                    for r in trace.records for i in range(r.count)
                ],
                side.state(),
                None if way == "reference" else queue_state(side.mc),
            ))
        if mode != "sb" and drains[-1][0][0] == "ok":
            side.mc.channel.lockstep.flush_pending()
            drains.append([
                (unit.regs.grf_a.tobytes(), unit.regs.grf_b.tobytes())
                for unit in side.mc.channel.units
            ])
        drains.append([
            (s.name, s.start_ns, s.end_ns, s.channel, s.attrs) for s in tracer.spans
        ])
        outcomes[way] = drains
    return outcomes


def assert_one_outcome(outcomes):
    """The three ways agree — the two production ways on the queue too,
    the pass and the reference on the program's read data too (the
    emitter queues a program's reads untagged)."""

    def emitted(drains):
        return [
            (d[0][:2] if d[0][0] == "ok" else d[0], *d[1:]) if isinstance(d, tuple) else d
            for d in drains
        ]

    def without_queue(drains):
        return [d[:3] if isinstance(d, tuple) else d for d in drains]

    assert emitted(outcomes["pass"]) == emitted(outcomes["queue"])
    assert without_queue(outcomes["pass"]) == without_queue(outcomes["reference"])


class TestTheProgramPassIsTheQueuePath:
    """``drain(program, blocks)`` issues a program's lone runs without
    queueing them; whatever it meets — a run sharing its epoch, a refresh
    falling due inside a run, ``SHUFFLE``, a queue that was not empty, a
    fault — must leave the bus, the clocks, the counters, the banks, the
    queue and the trace where queueing the program run by run does."""

    @settings(max_examples=150, deadline=None)
    @given(
        mode=st.sampled_from(["sb", "ab", "ab-pim"]),
        fused=st.booleans(),
        policy=POLICY,
        refresh=st.booleans(),
        fence_penalty=st.sampled_from([0, 45]),
        window=st.sampled_from([1, 4, 16]),
        before=st.lists(REQUEST, max_size=5),
        fence_before=st.booleans(),
        runs=PROGRAM,
    )
    def test_drawn_programs(
        self, mode, fused, policy, refresh, fence_penalty, window, before,
        fence_before, runs,
    ):
        outcomes = three_ways(
            mode, runs, before, fence_before, fused=fused, policy=policy[0],
            seed=policy[1], refresh=refresh, fence_penalty=fence_penalty,
            window=window,
        )
        assert_one_outcome(outcomes)
        assert outcomes["pass"][0][0][0] == "ok"

    # The kernels' shape: every run fenced, rows 0..2 of bank 0.
    RUNS = [
        (True, 0, 0, 8, 5, True, False, 0), (False, 1, 0, 8, 0, True, False, 0),
        (False, 2, 0, 8, 0, True, False, 0), (True, 2, 8, 8, 9, True, True, 0),
        (False, 0, 0, 8, 0, True, False, 0),
    ]

    @pytest.mark.parametrize(
        "mode, faults, microkernel, error",
        [
            # Two flips in one word under column 5 of row 2: the third run
            # raises at its sixth read (SB: bank 0; AB: the broadcast).
            ("sb", [("flip", 0, 2, 5, 64), ("flip", 0, 2, 5, 65)], NOP_PROGRAM,
             UncorrectableError),
            ("ab", [("flip", 0, 2, 5, 64), ("flip", 0, 2, 5, 65)], NOP_PROGRAM,
             UncorrectableError),
            # A dead bank the eager exec unit first reads at trigger 20 —
            # the fourth column of the third run.
            ("ab-pim", [("dead", 2)],
             "NOP\nJUMP -1, 18\nFILL GRF_A[A], EVEN_BANK\nJUMP -1, 7\nEXIT",
             PimChannelError),
            # A dead bank in SB mode: the first command of the program.
            ("sb", [("dead", 0)], NOP_PROGRAM, PimChannelError),
        ],
    )
    @pytest.mark.parametrize("policy", [SchedulerPolicy.FRFCFS, SchedulerPolicy.FCFS])
    def test_damage_mid_program(self, mode, faults, microkernel, error, policy):
        """Same exception, type and text, after the same commands; the same
        runs left queued — and the drain after it agrees again."""
        outcomes = three_ways(
            mode, self.RUNS, microkernel=microkernel, faults=faults, ecc=True,
            policy=policy, fence_penalty=7,
        )
        assert_one_outcome(outcomes)
        first, second = outcomes["pass"][:2]
        assert first[0][:2] == ("raised", error) and second[0][:2] == ("raised", error)
        assert first[3], "the rest of the program is queued"

    # Two tiles' readback (``stream.gemv_readback``) from row 1 of the pool.
    READBACK = [
        (False, 1, run.col, run.count, 0, run.fence, run.barrier, run.bank)
        for col in (0, 8) for run in gemv_readback(1, col)
    ]

    @pytest.mark.parametrize(
        "damage, error",
        [
            ([], None),
            ([("flip", 4, 1, 3, 17)], None),  # corrected inline
            ([("flip", 4, 1, 5, 64), ("flip", 4, 1, 5, 65)], UncorrectableError),
            ([("dead", 6)], PimChannelError),
        ],
    )
    @pytest.mark.parametrize("policy", [SchedulerPolicy.FRFCFS, SchedulerPolicy.FCFS])
    def test_a_readback_program_over_eight_banks(self, damage, error, policy):
        """The readback's 16 runs share one epoch over the 8 even banks of
        an ECC channel: each run's block comes back under its index in the
        program, whichever order its columns went; a fault inside one
        leaves the same queue and ``pending`` behind on every way."""
        outcomes = three_ways(
            "sb", self.READBACK, faults=damage, ecc=True, policy=policy, fence_penalty=7
        )
        assert_one_outcome(outcomes)
        first = outcomes["pass"][0]
        if error is None:
            stored = {
                (index, col): ((7 * bank + 5 + 3 * col + np.arange(32)) % 251)
                .astype(np.uint8).tobytes()  # make_channel's fill, row 1
                for index, (_, _, col0, count, *_, bank) in enumerate(self.READBACK)
                for col in range(col0, col0 + count)
            }
            assert first[0] == ("ok", {}, stored)
        else:
            assert first[0][:2] == ("raised", error)
            assert first[3] and first[2][2][2] > 0  # queued runs, pending

    def test_the_strategy_reaches_every_way_out_of_the_pass(self, monkeypatch):
        """Fixed programs that leave the pass each way it can be left."""
        taken = burst_paths(monkeypatch)
        fenced = [(False, 0, 0, 8, 0, True, False, 0)] * 12
        # A refresh falls due inside some of twelve 8-column runs.
        assert_one_outcome(three_ways("sb", fenced, refresh=True, fence_penalty=7))
        assert taken["straddle"] >= 1 and taken["picks"] == 7 * taken["straddle"]
        # A run with no fence after it shares its epoch with the next: the
        # rest of the program is queued.  (Counts are of the two production
        # ways together.)
        taken.update(dict.fromkeys(taken, 0))
        unfenced = [fenced[0], (False, 1, 0, 8, 0, False, False, 0), fenced[0]]
        assert_one_outcome(three_ways("sb", unfenced, fence_penalty=7))
        assert (taken["closed-form"], taken["picks"]) == (2 * 1, 2 * 16)
        # A request queued ahead of the program: all of it is queued — in
        # the program's first epoch, that run and the request share picks;
        # behind a fence, each is a lone run off the queue.
        shared = [(MemOp.READ, 0, 0, 9, 0)]
        for fence_before, expect in ((False, (2 * 1, 2 * 9)), (True, (2 * 3, 0))):
            taken.update(dict.fromkeys(taken, 0))
            assert_one_outcome(three_ways("sb", fenced[:2], shared, fence_before))
            assert (taken["closed-form"], taken["picks"]) == expect
