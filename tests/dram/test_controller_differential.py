"""Differential oracle: the run-window scheduler vs the per-candidate one.

``repro.dram.controller.MemoryController`` schedules *runs*: the reorder
window is the queue head while a budget of bus commands lasts, a pick asks
the channel one first-ready question, and the picked run issues its next
column and shrinks.  The controller it replaced lives on as
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
blocks)``); ``TestAProgramDrainsAsItsSingleRequests`` holds that equal to
the reference fed the program's single requests — runs to drawn banks,
GEMV readback-shaped epochs among them, each read run's block, which
``drain`` files under the run's index in the program, and the queue a
raise leaves — also when the drain is the frame remembered from an equal
state.
``TestARememberedSchedule`` holds a drain from a state that differs in
one component of the key, or over a fault the key leaves out, equal to a
controller whose frame cache keeps nothing.

The four hypothesis properties run here on a small budget;
``tests/dram/sweep_controller_differential.py`` (CI job ``frame-oracle``)
runs them on a large one.
"""

import copy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dram import controller as controller_module
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
from repro.pim.modes import PimMode
from repro.pim.stream import ZEROS, Run, gemv_readback
from repro.tools import trace_channel

from .frame_seam import Forgetful, frames_taken
from .reference_controller import ReferenceController

NUM_ROWS = 64
# A short refresh interval so random streams of a few dozen requests cross
# several refreshes.
TIMING = replace(HBM2_1GHZ, trefi=150, trfc=40)
MODES = ("plain", "sb", "ab", "ab-pim")


def make_channel(mode, fused=False, ecc=False, timing=TIMING, bank_cls=None):
    """A fresh channel of the kind ``mode`` names (still in SB mode), its
    exec group the eager interpreter or (``fused``) the deferring one, its
    banks plain or SEC-DED protected (or of ``bank_cls``).  Every column of
    the rows the streams address holds bytes of its own, so a read's data
    names its column."""
    config = BankConfig(num_rows=NUM_ROWS)
    bank_cls = bank_cls or (EccBank if ecc else Bank)
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
        timing=TIMING, bank_cls=None, **kwargs,
    ):
        self.reference = controller_cls is ReferenceController
        self.mc = controller_cls(make_channel(mode, fused, ecc, timing, bank_cls), **kwargs)
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
        inject(side.mc.channel, sorted(faults, key=lambda fault: fault[0] == "dead"))
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


def budgeted(strategies, examples, prop):
    """``prop`` as a hypothesis test of ``examples`` cases drawn from
    ``strategies``: tier-1 runs each property of this file on a small
    budget, ``tests/dram/sweep_controller_differential.py`` on its large
    one."""

    @settings(
        max_examples=examples, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(**strategies)
    def check(**draws):
        prop(**draws)

    return check


SCHEDULER_DRAWS = dict(
    mode=st.sampled_from(MODES),
    policy=POLICY,
    refresh=st.booleans(),
    fence_penalty=st.sampled_from([0, 7]),
    window=st.sampled_from([1, 4, 16]),
    stream=STREAM,
    ab_bank=st.integers(0, 15),
    fused=st.booleans(),
)


def scheduler_matches_reference(
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


test_incremental_scheduler_matches_reference = budgeted(
    SCHEDULER_DRAWS, 50, scheduler_matches_reference
)


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
# Reads only (and long epochs of them): the pick path's read runs, their
# columns landing in one block.  The full STREAM, writes and all, is drawn
# as often.
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


DAMAGE_DRAWS = dict(
    mode=st.sampled_from(MODES),
    policy=st.sampled_from([SchedulerPolicy.FRFCFS, SchedulerPolicy.FCFS]),
    refresh=st.booleans(),
    window=st.sampled_from([1, 4, 16]),
    stream=st.one_of(STREAM, READ_STREAM),
    faults=FAULTS,
    ab_bank=st.integers(0, 15),
    fused=st.booleans(),
)


def runs_over_damage_match_reference(
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


test_runs_over_flipped_bits_and_dead_banks_match_reference = budgeted(
    DAMAGE_DRAWS, 30, runs_over_damage_match_reference
)

ILLEGAL_DRAWS = dict(
    policy=POLICY,
    window=st.sampled_from([1, 4, 16]),
    stream=st.lists(st.one_of(REQUEST, REQUEST, BURST), min_size=2, max_size=30),
)


def illegal_streams_fail_identically(policy, window, stream):
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


test_illegal_all_bank_streams_fail_identically = budgeted(
    ILLEGAL_DRAWS, 15, illegal_streams_fail_identically
)


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


@pytest.mark.parametrize("policy, seed", [
    (SchedulerPolicy.FRFCFS, None), (SchedulerPolicy.FCFS, None), (SchedulerPolicy.SHUFFLE, 5),
])
def test_an_empty_drain_returns_what_the_full_path_builds(monkeypatch, policy, seed):
    """A drain with no program and nothing queued returns at once — it
    builds no drain state — the result the reference controller's full
    drain returns: the cycle, no issue order or data, zero counts, no hits
    or misses.  With refresh on and a refresh due it issues none, and a
    tracer attached records nothing: the controllers agree on busy
    cycles, refresh count and epoch, and both are as they were."""
    built = []
    monkeypatch.setattr(
        controller_module, "_Drain",
        lambda make=controller_module._Drain: built.append(None) or make(),
    )
    new, ref = (
        Side(cls, "sb", policy=policy, seed=seed, refresh=True)
        for cls in (MemoryController, ReferenceController)
    )
    tracer = new.mc.tracer = Tracer()
    stream = [(MemOp.READ, b % 3, b % 2, b % 4, 0) for b in range(24)]
    stream += ["drain", "drain", "fence", "drain", (MemOp.WRITE, 5, 1, 2, 9), "drain", "due",
               "drain"]
    empty = 0
    for position, element in enumerate(stream):
        if element == "fence":
            for side in (new, ref):
                side.mc.fence()
        elif element == "due":  # a refresh due at the current cycle
            for side in (new, ref):
                side.mc._next_refresh = side.mc.current_cycle
        elif element == "drain":
            queued, before = bool(new.mc._queue), len(built)
            held = (new.mc._epoch, new.mc.busy_cycles, new.mc.refresh_count)
            records = (len(tracer.spans), len(tracer.events))
            got, want = new.drain(), ref.drain()
            assert got == want
            assert (new.mc._epoch, new.mc.refresh_count) == (ref.mc._epoch, ref.mc.refresh_count)
            if not queued:
                empty += 1
                assert len(built) == before
                assert (new.mc._epoch, new.mc.busy_cycles, new.mc.refresh_count) == held
                assert (len(tracer.spans), len(tracer.events)) == records
        else:
            op, bank, row, col, value = element
            for side in (new, ref):
                side.enqueue(position, op, bank // 4, bank % 4, row, col, value)
    assert empty == 3 and tracer.spans


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
    ``one-update`` — AB-PIM trigger runs taken as one state update;
    ``frames`` — the frames taken (:func:`frame_seam.frames_taken`)."""
    taken = {
        "closed-form": 0, "straddle": 0, "expanded": 0, "one-update": 0, "picks": 0,
        "frames": frames_taken(monkeypatch),
    }
    lone_run = MemoryController._lone_run
    expand = Request.expand
    pick = MemoryController._pick
    issue_burst = PimPseudoChannel._issue_burst

    def counted_lone_run(self, *args, **kwargs):
        whole = lone_run(self, *args, **kwargs)
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


def reset(taken):
    """Zero ``burst_paths``' counts."""
    for path, count in taken.items():
        if isinstance(count, list):
            count.clear()
        else:
            taken[path] = 0


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
        "straddle": 0, "expanded": 0, "one-update": 6, "picks": 0, "frames": [],
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
# A program that is one fence epoch of several runs, readbacks or not:
# what the controller remembers a schedule of.
EPOCH = st.lists(
    st.one_of(
        PROGRAM_RUN.map(lambda run: [run[:5] + (False, False) + run[7:]]), READBACK_EPOCH
    ),
    min_size=2, max_size=4,
).map(lambda parts: [run for part in parts for run in part])


def frame_due(mode, fused, runs):
    """Whether the program of drawn ``runs``, drained on an empty queue
    under an in-order policy, leaves a frame the next drain from an equal
    state takes: SB-mode reads of bank rows; an all-bank program on a
    deferring exec group whose columns read no bytes out (AB-PIM RDs
    trigger, AB and register-row RDs return data) and whose register
    writes (row 3, the GRF) flush no trigger — none of these programs
    starts the sequencers.  Never an epoch of several runs with a write
    in it: those are queued."""
    writes = any(run[0] for run in runs)
    if writes and len(runs) > 1 and not any(run[5] or run[6] for run in runs):
        return False
    if mode == "sb":
        return not writes and not any(run[1] == 3 for run in runs)
    if not fused or any(not run[0] and (run[1] == 3 or mode == "ab") for run in runs):
        return False
    triggered = False
    for run in runs:
        if run[1] == 3 and triggered:
            return False
        triggered = triggered or (mode == "ab-pim" and run[1] != 3)
    return True


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
    """What is left queued, one entry per single request: a production run
    stands for its expansion, the reference queues singles.  Tags are left
    out: the two tag a program's runs differently."""
    return [
        (r.op, r.bg, r.ba, r.row, r.col, r.epoch, None if r.data is None else r.data.tobytes())
        for run in mc._queue for r in run.expand()
    ]


def remember(mc, program, blocks=()):
    """Drain ``program`` on a copy of ``mc`` and its channel, and hand
    ``mc`` the copy's frame cache: the next drain of ``program`` on ``mc``
    starts from the timing state that drain remembered."""
    twin = copy.deepcopy(mc)
    twin.drain(program, blocks)
    mc.frames = twin.frames


def inject(channel, faults):
    """``("flip", bank, row, col, bit)`` flips one stored data bit of an
    ECC bank, ``("dead", bank)`` hard-fails a bank."""
    for kind, bank, *where in faults:
        if kind == "flip":
            channel.banks[bank].inject_error(*where)
        else:
            channel.banks[bank].fail(0)


def two_ways(
    mode, runs, before=(), fence_before=True, microkernel=NOP_PROGRAM, faults=(),
    hit=False, **kwargs,
):
    """Hand the program of ``runs`` to ``drain`` (``drain``) and, expanded
    into single requests, to the reference controller (``reference``) —
    each behind the same ``before`` requests (and a fence, with
    ``fence_before``) on a twin channel with the same ``faults`` — then
    drain once more.  With ``hit`` the production side first drains the
    program from the same state, on clean cells, and is put back
    (``remember``): its drain is then the frame it remembered, when the
    program is one it remembers.
    Returns each side's outcome of both drains: result or exception, every
    bus command at its cycle (bursts spelled as their columns), the
    ``drain`` spans, the controller and bank state, the queue in single
    requests and the read data per (run, column) — of ``before`` (tagged
    ``("before", position)``) and, apart, of the program's runs (by index
    in the program).  The production side's ``issue_order`` must list no
    run of the program."""
    program, blocks = make_program(runs, mode)
    rows = stream_rows(mode)
    step = TIMING.tccd_l
    outcomes = {}
    for way in ("drain", "reference"):
        controller = ReferenceController if way == "reference" else MemoryController
        side = Side(controller, mode, program=microkernel, **kwargs)
        for position, (op, bank, row, col, value) in enumerate(before):
            bank = bank if mode == "sb" else 0  # all-bank modes: one bank
            side.enqueue(
                ("before", position), op, bank // 4, bank % 4, rows[row], col, value
            )
        if fence_before:
            side.mc.fence()
        if hit and way == "drain":
            remember(side.mc, program, blocks)
        inject(side.mc.channel, faults)
        side.mc.tracer = tracer = Tracer()
        drains = []
        for attempt in range(2):
            # Where each of the program's queued read runs stands: its
            # block starts there.
            first_col = {r.tag: r.col for r in side.mc._queue if isinstance(r.tag, int)}
            listed = []
            with trace_channel(side.mc.channel) as trace:
                try:
                    if attempt:
                        result = side.mc.drain()
                    elif way == "drain":
                        result = side.mc.drain(program, blocks)
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
                    listed = [r for _, r in result.issue_order if r.index is not None]
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
            assert not listed, "issue_order lists a program's run"
            drains.append((
                outcome,
                [
                    (r.cycle + i * step, r.cmd_type, r.row, r.col + i, r.mode)
                    for r in trace.records for i in range(r.count)
                ],
                side.state(),
                queue_state(side.mc),
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
    """The two ways agree on everything, the queue a raise leaves too."""
    assert outcomes["drain"] == outcomes["reference"]


PROGRAM_DRAWS = dict(
    mode=st.sampled_from(["sb", "ab", "ab-pim"]),
    fused=st.booleans(),
    policy=POLICY,
    refresh=st.booleans(),
    fence_penalty=st.sampled_from([0, 45]),
    window=st.sampled_from([1, 4, 16]),
    # Half the time nothing queued ahead: only then is a schedule
    # remembered, and taken as a frame with ``hit``.
    before=st.one_of(st.just([]), st.lists(REQUEST, min_size=1, max_size=5)),
    fence_before=st.booleans(),
    runs=st.one_of(PROGRAM, EPOCH),
    hit=st.booleans(),
)


def program_drains_as_reference(
    mode, fused, policy, refresh, fence_penalty, window, before, fence_before, runs, hit,
):
    """A drawn program drained (twice, with ``hit``) as the reference
    drains its single requests; a frame exactly where one is due."""
    with pytest.MonkeyPatch.context() as patch:
        taken = burst_paths(patch)
        outcomes = two_ways(
            mode, runs, before, fence_before, fused=fused, policy=policy[0],
            seed=policy[1], refresh=refresh, fence_penalty=fence_penalty,
            window=window, hit=hit,
        )
    assert_one_outcome(outcomes)
    assert outcomes["drain"][0][0][0] == "ok"
    # The second drain from an equal state is a frame exactly where one
    # is due — unless a refresh fell due inside it.
    due = (
        hit and not before and policy[0] is not SchedulerPolicy.SHUFFLE
        and frame_due(mode, fused, runs)
    )
    assert len(taken["frames"]) <= due
    if due and not refresh:
        assert len(taken["frames"]) == 1


class TestAProgramDrainsAsItsSingleRequests:
    """``drain(program, blocks)`` queues a program's runs, takes each lone
    epoch as one lone run, and takes the frame it remembered from an equal
    timing state — of fenced runs, or of a read-only epoch of several runs
    — with this drain's blocks; whatever it meets — a run sharing its
    epoch, a refresh falling due inside a run, ``SHUFFLE``, a queue that
    was not empty, a fault, a frame — must leave the bus, the clocks, the
    counters, the banks, the queue and the trace where the reference fed
    the program's single requests does."""

    test_drawn_programs = staticmethod(budgeted(PROGRAM_DRAWS, 30, program_drains_as_reference))

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
        single requests left queued — and the drain after it agrees again."""
        outcomes = two_ways(
            mode, self.RUNS, microkernel=microkernel, faults=faults, ecc=True,
            policy=policy, fence_penalty=7,
        )
        assert_one_outcome(outcomes)
        first, second = outcomes["drain"][:2]
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
    @pytest.mark.parametrize("hit", [False, True], ids=["picked", "replayed"])
    def test_a_readback_program_over_eight_banks(
        self, monkeypatch, damage, error, policy, hit
    ):
        """The readback's 16 runs share one epoch over the 8 even banks of
        an ECC channel: each run's block comes back under its index in the
        program, whichever order its columns went; a fault inside one
        leaves the same queue and ``pending`` behind on both ways — also
        when the pick path remembered a frame from the same state on clean
        cells, which the fault then declines."""
        taken = burst_paths(monkeypatch)
        outcomes = two_ways(
            "sb", self.READBACK, faults=damage, ecc=True, policy=policy, fence_penalty=7,
            hit=hit,
        )
        # Damage on a read row or bank declines the frame: the pick path.
        assert len(taken["frames"]) == (hit and not damage)
        assert_one_outcome(outcomes)
        first = outcomes["drain"][0]
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

    def test_the_strategy_reaches_every_path(self, monkeypatch):
        """Fixed programs that take each path a program's runs can take."""
        taken = burst_paths(monkeypatch)
        fenced = [(False, 0, 0, 8, 0, True, False, 0)] * 12
        # A refresh falls due inside some of twelve 8-column runs.
        assert_one_outcome(two_ways("sb", fenced, refresh=True, fence_penalty=7))
        assert taken["straddle"] >= 1 and taken["picks"] == 7 * taken["straddle"]
        # A run with no fence after it shares its epoch with the next.
        reset(taken)
        unfenced = [fenced[0], (False, 1, 0, 8, 0, False, False, 0), fenced[0]]
        assert_one_outcome(two_ways("sb", unfenced, fence_penalty=7))
        assert (taken["closed-form"], taken["picks"]) == (1, 16)
        # A request queued ahead of the program: in the program's first
        # epoch, that run and the request share picks; behind a fence,
        # each is a lone run.
        shared = [(MemOp.READ, 0, 0, 9, 0)]
        for fence_before, expect in ((False, (1, 9)), (True, (3, 0))):
            reset(taken)
            assert_one_outcome(two_ways("sb", fenced[:2], shared, fence_before))
            assert (taken["closed-form"], taken["picks"]) == expect
        # One epoch of several reads drained again from an equal state: a
        # frame and no pick (the pick path ran when the production side
        # remembered it), any window — in SB mode; the all-bank modes take
        # the pick path every time.
        epoch = self.READBACK[:8]
        for mode, window, frames in (("sb", 4, 1), ("ab", 16, 0), ("ab-pim", 1, 0)):
            reset(taken)
            assert_one_outcome(two_ways(mode, epoch, hit=True, window=window))
            assert (len(taken["frames"]), taken["picks"]) == (frames, (2 - frames) * 64)
        # Not when a refresh fell due inside it: nothing was remembered.
        reset(taken)
        assert_one_outcome(two_ways("sb", self.READBACK, hit=True, refresh=True))
        assert (len(taken["frames"]), taken["picks"]) == (0, 2 * 128)
        # A fenced program drained again from an equal state on a
        # deferring exec group: a frame — the kernels' shape in AB-PIM, a
        # write to every column of a row in AB — and no lone run; on the
        # eager group, the lone runs.  (Lone runs of the remembering drain
        # and, in AB-PIM, ``entering_ab_pim``'s two.)
        writes = [(True, 1, 0, 8, 3, True, False, 0), (True, 1, 8, 8, 4, True, False, 0)]
        for mode, runs, fused, frames in (
            ("ab-pim", self.RUNS, True, 1), ("ab", writes, True, 1),
            ("ab-pim", self.RUNS, False, 0),
        ):
            reset(taken)
            assert_one_outcome(two_ways(mode, runs, hit=True, fused=fused))
            assert (len(taken["frames"]), taken["closed-form"]) == (
                frames, (2 - frames) * len(runs) + 2 * (mode == "ab-pim")
            )


# -- a remembered schedule: one frame from an equal timing state only ---------------


def outcome(side, program, blocks=()):
    """Drain ``program`` on ``side``: the result (read data by index, the
    cycle) or the exception, every bus command, the controller and bank
    state, and what is left queued."""
    with trace_channel(side.mc.channel) as trace:
        try:
            result = side.mc.drain(program, blocks)
            got = ("ok", {i: d.tobytes() for i, d in result.read_data.items()}, result.cycles)
        except Exception as exc:  # compared, not swallowed
            got = ("raised", type(exc), str(exc))
    return got, trace.records, side.state(), queue_state(side.mc)


def forgetful(side):
    """A copy of ``side`` that never remembers."""
    twin = copy.deepcopy(side)
    twin.mc.frames = Forgetful()
    return twin


def readback(row, cols=(0, 8)):
    """The readback of a tile at each of ``cols`` of ``row``, as one program."""
    return sum((gemv_readback(row, col) for col in cols), ())


def assign(obj, **values):
    """Set attributes of ``obj``; returns None, the base program."""
    for name, value in values.items():
        setattr(obj, name, value)


def delay_bank(side, bank=2, by=40):
    """Push one bank's next ACT ``by`` cycles past the controller's cycle."""
    channel = side.mc.channel
    channel.banks[bank].next_act = side.mc._cycle + by
    channel._absorb(channel.banks[bank])


def delay_columns(side, by):
    """Raise every bank's next RD and WR to ``by`` cycles past the
    controller's cycle, as one all-bank command does."""
    channel = side.mc.channel
    bound = side.mc._cycle + by
    for bank in channel.banks:
        bank.next_rd = max(bank.next_rd, bound)
        bank.next_wr = max(bank.next_wr, bound)
    channel._absorb(channel.banks[0])


class TestARememberedSchedule:
    """``drain`` takes a remembered frame only from the timing state it
    was recorded in, counted from the controller's cycle: a state that
    differs in one thing the schedule depends on, or a fault on what the
    readback reads, takes the pick path.  The base
    state: a channel after one readback and a PREA, every bank closed,
    refresh on (HBM2 tREFI, so none falls due unless moved)."""

    @staticmethod
    def program(mode, row=1, cols=(0, 8)):
        """The readback of a tile at each of ``cols`` of ``row`` — in the
        all-bank modes, where the banks are one, every run to bank 0."""
        runs = readback(row, cols)
        return runs if mode == "sb" else tuple(run._replace(bank=0) for run in runs)

    def base(self, mode="sb"):
        side = Side(MemoryController, mode, timing=HBM2_1GHZ, refresh=True, ecc=True)
        side.mc.drain(self.program(mode, row=2))
        side.mc.precharge_all()
        remember(side.mc, self.program(mode))
        return side

    # What to change of the base state, as a function of the side; what it
    # returns, when anything, is the program to drain instead.
    @pytest.mark.parametrize(
        "component, mode, perturb",
        [
            ("program", "sb", lambda side: readback(1, (16, 24))),
            ("CA bus", "sb", lambda side: assign(side.mc, _next_ca=side.mc._next_ca + 20)),
            # The controller believes bank 4 open on row 1: its reads go out
            # without an ACT, and the bank refuses them.
            ("open-row shadow", "sb", lambda side: side.mc._open_rows.__setitem__(4, 1)),
            ("bank bounds", "sb", delay_bank),
            ("last column", "sb", lambda side: assign(
                side.mc.channel, _last_col_cycle=side.mc._cycle + 40
            )),
            ("last ACT", "sb", lambda side: assign(
                side.mc.channel, _last_act_cycle=side.mc._cycle + 20
            )),
            ("tFAW window", "sb", lambda side: side.mc.channel._act_window.extend(
                [side.mc._cycle + 10] * 4
            )),
            # Every bank closed: the all-bank bounds apply, and the second
            # ACT finds the broadcast row open.
            ("mode", "sb", lambda side: assign(side.mc.channel.mode_ctrl, mode=PimMode.AB)),
            # Every bank's column bounds, as one all-bank command moves them.
            ("all-bank column bounds", "ab", lambda side: delay_columns(side, 60)),
            # The refresh check: the schedule is the same, but a refresh
            # now falls due inside it.
            ("refresh", "sb", lambda side: assign(
                side.mc, _next_refresh=side.mc._cycle + 60
            )),
        ],
        ids=lambda value: value if isinstance(value, str) else "",
    )
    def test_a_state_differing_in_one_component_takes_the_pick_path(
        self, component, mode, perturb
    ):
        side = self.base(mode)
        unperturbed = outcome(forgetful(side), self.program(mode))
        program = perturb(side) or self.program(mode)
        want = outcome(forgetful(side), program)
        assert want != unperturbed, f"the {component} moves the schedule"
        assert outcome(side, program) == want

    @pytest.mark.parametrize("mode", ["sb", "ab"])
    def test_an_equal_state_replays(self, monkeypatch, mode):
        """In SB mode the drain is one frame and no pick; an all-bank
        program is never remembered, so it takes the pick path."""
        side = self.base(mode)
        want = outcome(forgetful(side), self.program(mode))
        taken = burst_paths(monkeypatch)
        assert outcome(side, self.program(mode)) == want
        if mode == "sb":
            assert (len(taken["frames"]), taken["picks"]) == (1, 0)
        else:
            assert len(taken["frames"]) == 0 and taken["picks"] > 0

    # Faults are not in the key: the channel declines the frame, and the
    # pick path meets them where a controller that never remembers does.
    @pytest.mark.parametrize(
        "fault",
        [
            # Bank 6 is read by the readback: its first RD raises.
            ("failed bank", lambda bank: bank.fail(0)),
            # A single-bit flip under column 3 of row 1: corrected inline.
            ("injected word on a read row", lambda bank: bank.inject_error(1, 3, 17)),
            # Two flips in one word: the read of column 5 raises.
            ("two injected bits in a word", lambda bank: (
                bank.inject_error(1, 5, 64), bank.inject_error(1, 5, 65)
            )),
            # A flipped check bit: corrected, the data untouched.
            ("injected check byte on a read row", lambda bank: (
                bank.inject_check_error(1, 2, word=1, bit=3)
            )),
        ],
        ids=lambda fault: fault[0],
    )
    def test_a_fault_outside_the_key_takes_the_pick_path(self, monkeypatch, fault):
        _, damage = fault
        side = self.base()
        unperturbed = outcome(forgetful(side), self.program("sb"))
        damage(side.mc.channel.banks[6])
        want = outcome(forgetful(side), self.program("sb"))
        assert want != unperturbed
        taken = burst_paths(monkeypatch)
        assert outcome(side, self.program("sb")) == want
        assert len(taken["frames"]) == 0 and taken["picks"] > 0

    def test_a_repeated_wave_replays_at_later_cycles(self, monkeypatch):
        """A GEMV's shape, wave after wave on one ECC channel: a PREA, a
        write run to every bank, each fenced, then the readback of the even
        banks.  From the second wave on the readback finds the same timing
        state later on the clock, and is one frame — until a corrected word
        and then an uncorrectable one sit on its rows, when the pick path
        meets them; a controller that never remembers agrees on every
        drain, raise and leftover queue."""
        taken = burst_paths(monkeypatch)
        sides = [Side(MemoryController, "sb", timing=HBM2_1GHZ, ecc=True) for _ in range(2)]
        sides[1].mc.frames = Forgetful()
        writes = tuple(Run(True, 0, 0, 8, True, 0, False, bank) for bank in range(16))
        blocks = [write_data(17, 8)]
        damage = {3: [("flip", 4, 1, 3, 17)], 4: [("flip", 6, 1, 9, 64), ("flip", 6, 1, 9, 65)]}
        origins = []
        for wave in range(5):
            for side in sides:
                side.mc.precharge_all()
                side.mc.drain(writes, blocks)
                inject(side.mc.channel, damage.get(wave, ()))
            origins.append(sides[0].mc.current_cycle)
            frames = len(taken["frames"])
            got, want = (outcome(side, self.program("sb")) for side in sides)
            assert got == want
            # Waves 3 and 4 leave injection entries on the readback's rows.
            assert len(taken["frames"]) == frames + (wave in (1, 2))
            if wave == 4:
                assert got[0][:2] == ("raised", UncorrectableError)
                assert outcome(sides[0], ()) == outcome(sides[1], ())
        assert got[3], "the readback's unissued columns stayed queued"
        assert len(set(origins)) == len(origins)
