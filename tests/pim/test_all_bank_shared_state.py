"""Differential oracle: one shared all-bank update vs the 16-bank loop.

``PimPseudoChannel`` advances one shared copy of the bank state per AB /
AB-PIM command and brings the ``Bank`` objects up to date only where
per-bank state can be observed.  ``ReferencePimPseudoChannel`` is the
per-bank loop it replaced.  Twin channels take the same random command
streams — legal and illegal, through every mode — and must agree on
everything: return data, exception type and text, channel maxima,
shared-bus history, counters, and (at every observation point) each
bank's ``(state, open_row, next_act/pre/rd/wr, act/rd/wr_count)``.

Column bursts ride the same streams: the channel under test takes a
``Command(count=n)`` at one cycle, the oracle the ``n`` single commands
``tCCD_L`` apart, and on top of the above the deferred exec tapes must
hold the same triggers with the same data.

In SB mode a column to a bank row is one frame of the channel under test
(``PseudoChannel._bank_column``); the oracle takes it the per-command way
it was taken before (``Reference`` below), so the SB cases are a
differential too.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import BankConfig, TimingViolation
from repro.dram.commands import Command, CommandType
from repro.dram.ecc import EccBank, UncorrectableError
from repro.dram.timing import HBM2_1GHZ
from repro.errors import PimChannelError
from repro.pim.assembler import assemble_words
from repro.pim.device import PimPseudoChannel
from repro.pim.fused import FusedLockstepGroup
from repro.pim.modes import PimMode

from .reference_device import ReferencePimPseudoChannel

NUM_ROWS = 64
BAD_ENTRY = "entered AB mode with open rows; precharge all banks first"
# Reads the even bank on RD triggers (so a failed bank is felt inside a
# window), rejects WR triggers, and runs out after eight.
PROGRAM = "FILL GRF_A[A], EVEN_BANK\nJUMP -1, 7\nEXIT"


def bank_state(channel):
    return [
        (
            b.state, b.open_row, b.next_act, b.next_pre, b.next_rd, b.next_wr,
            b.act_count, b.rd_count, b.wr_count, b.is_failed,
        )
        for b in channel.banks
    ]


def channel_state(channel):
    """Everything but the banks: read without touching ``banks``."""
    return (
        channel.mode,
        (channel._max_act, channel._max_pre, channel._max_rd, channel._max_wr),
        (channel._last_col_cycle, channel._last_col_bg, channel._last_col_was_write),
        (channel._last_act_cycle, channel._last_act_bg, tuple(channel._act_window)),
        dict(channel.cmd_counts),
        (channel.pim_triggered_columns, channel.ab_broadcast_columns),
        channel.pim_op_mode,
        [unit.stats for unit in channel.units],
    )


def exec_tape(channel):
    """The deferred triggers, one per column command."""
    return [
        (
            trig.is_write, trig.row, trig.col,
            None if trig.host_data is None else trig.host_data.tobytes(),
        )
        for entry in getattr(channel.lockstep, "_tape", [])
        for trig in entry.singles()
    ]


def bank_data(channel):
    return [
        {row: bank._rows[row].tobytes() for row in bank.materialized_rows()}
        for bank in channel._banks
    ]


class Reference(ReferencePimPseudoChannel):
    """The oracle: the 16-bank loop per all-bank command, and an SB column
    to a bank row taken the way it was before one bank-column method
    served it — the bound through ``earliest_issue`` (and the mode's
    ``earliest_col``), then the bank's own read / write."""

    def issue(self, cmd, cycle):
        kind = cmd.cmd
        if (
            cmd.count > 1 or self.mode_ctrl.all_bank or not kind.is_column
            or self.memory_map.is_register_row(cmd.row)
        ):
            return super().issue(cmd, cycle)
        bound = self.earliest_issue(cmd)
        if cycle < bound:
            raise TimingViolation(f"{cmd!r} at {cycle} before bound {bound}")
        self.cmd_counts[kind] += 1
        bank = self._banks[cmd.bank_index]
        data = None
        try:
            if kind is CommandType.RD:
                data = bank.read(cmd.row, cmd.col, cycle)
            else:
                if cmd.data is None:
                    raise ValueError("WR command without data")
                bank.write(cmd.row, cmd.col, cmd.data, cycle)
            self._record_col(cmd.bg, cycle, kind is CommandType.WR)
        finally:
            self._absorb(bank)
        return data


class Twins:
    """The channel under test and the oracle, driven in lock-step."""

    def __init__(self, bank_cls=None, fused=False):
        config = BankConfig(num_rows=NUM_ROWS)
        self.new = PimPseudoChannel(HBM2_1GHZ, config, bank_cls=bank_cls)
        self.ref = Reference(HBM2_1GHZ, config, bank_cls=bank_cls)
        if fused:  # the deferring exec group: AB-PIM bursts are one update
            for channel in (self.new, self.ref):
                channel.lockstep = FusedLockstepGroup(channel.units)
        self.map = self.new.memory_map
        self.clock = 0

    def both(self, action):
        """Run ``action(channel)`` on each side; the outcomes must match."""
        outcomes = []
        for channel in (self.new, self.ref):
            try:
                result = action(channel)
                outcomes.append(
                    ("ok", None if result is None else np.asarray(result).tobytes())
                )
            except Exception as exc:  # compared, not swallowed
                outcomes.append(("raised", type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]
        assert channel_state(self.new) == channel_state(self.ref)
        assert exec_tape(self.new) == exec_tape(self.ref)
        return outcomes[0]

    def observe(self):
        assert bank_state(self.new) == bank_state(self.ref)
        assert bank_data(self.new) == bank_data(self.ref)
        new = self.new
        assert new._max_act == max(b.next_act for b in new.banks)
        assert new._max_pre == max(b.next_pre for b in new.banks)
        assert new._max_rd == max(b.next_rd for b in new.banks)
        assert new._max_wr == max(b.next_wr for b in new.banks)

    def issue(
        self, kind, bank=0, row=0, col=0, value=None, early=False, slack=0, count=1,
    ):
        """Issue one command at its earliest cycle plus ``slack`` — or, with
        ``early``, one cycle too soon.  With ``count > 1`` the channel under
        test takes a column burst, the oracle its single commands."""
        data = None
        if value is not None:
            data = np.full(32, value, dtype=np.uint8)
            if count > 1:  # a different burst per column
                data = (data + np.arange(count, dtype=np.uint8)[:, None]).astype(np.uint8)
        cmd = Command(kind, bank // 4, bank % 4, row=row, col=col, data=data, count=count)
        bound = self.new.earliest_issue(cmd)
        assert bound == self.ref.earliest_issue(cmd)
        if early and bound > 0:
            cycle = bound - 1
        else:
            cycle = max(self.clock + 1, bound) + slack
            self.clock = cycle + (count - 1) * HBM2_1GHZ.tccd_l

        def action(channel):
            if count == 1 or channel is self.new:
                return channel.issue(cmd, cycle)
            columns = [
                channel.issue(cmd.single(index), cycle + index * HBM2_1GHZ.tccd_l)
                for index in range(count)
            ]
            # A read burst answers with the block of its columns.
            return None if columns[0] is None else np.stack(columns)

        outcome = self.both(action)
        if outcome[0] == "raised" and outcome[2] == BAD_ENTRY:
            # The banks no longer share one row state: undefined until the
            # driver's recovery sequence has run.
            self.reset()
        return outcome

    def reset(self):
        self.clock += 50
        self.both(lambda channel: channel.hard_reset(self.clock))

    def enter_ab(self):
        self.issue(CommandType.PREA)
        self.issue(CommandType.ACT, row=self.map.abmr_row)
        self.issue(CommandType.PRE)

    def exit_ab(self):
        self.issue(CommandType.ACT, row=self.map.sbmr_row)
        self.issue(CommandType.PRE)

    def program(self):
        words = np.array(assemble_words(PROGRAM)[:8], dtype="<u4").view(np.uint8)
        for channel in (self.new, self.ref):
            for unit in channel.units:
                unit.regs.write_crf_column(0, words)

    def set_pim(self, on):
        data = np.zeros(32, dtype=np.uint8)
        data[0] = on
        cmd = Command(
            CommandType.WR, 0, 0, row=self.map.conf_row,
            col=self.map.PIM_OP_MODE_COL, data=data,
        )
        bound = self.new.earliest_issue(cmd)
        self.clock = max(self.clock + 1, bound)
        self.both(lambda channel: channel.issue(cmd, self.clock))


# Rows: three data rows, every reserved row (mode registers, PIM_CONF,
# GRF, SRF) by name, and — often, or legal columns would be rare — the row
# the addressed bank has open.
ROW = st.sampled_from(
    [0, 1, 2, "open", "open", "open", "abmr", "sbmr", "conf", "grf", "srf"]
)
COMMAND = st.tuples(
    st.sampled_from(
        [CommandType.ACT, CommandType.RD, CommandType.WR, CommandType.RD,
         CommandType.WR, CommandType.PRE, CommandType.PREA, CommandType.REF]
    ),
    st.integers(0, 15),  # bank
    ROW,
    st.integers(0, 9),  # col (8, 9: out of range for the SRF)
    st.integers(0, 255),  # write value
    st.sampled_from([False, False, False, True]),  # one cycle early
    st.sampled_from([0, 0, 3, 40]),  # slack
)
# A column burst: a column command plus a count (2..8, from columns that
# keep it inside the GRF's 16 and mostly outside the SRF's 2).
BURST = st.tuples(
    st.sampled_from([CommandType.RD, CommandType.WR]),
    st.integers(0, 15),
    ROW,
    st.sampled_from([0, 1, 4, 8]),
    st.integers(0, 255),
    st.sampled_from([False, False, False, True]),
    st.sampled_from([0, 0, 3, 40]),
    st.sampled_from([2, 5, 8]),
)
STEP = st.one_of(
    COMMAND, COMMAND, COMMAND, COMMAND, COMMAND, BURST, BURST,
    st.sampled_from(
        ["enter_ab", "enter_ab", "exit_ab", "pim_on", "pim_on", "pim_off",
         "observe", "observe", "observe", "reset"]
    ),
    st.sampled_from(
        ["enter_ab", "enter_ab", "exit_ab", "pim_on", "pim_on", "pim_off",
         "observe", "observe", "observe", ("fail", 0), ("fail", 9), ("fail", 15)]
    ),
)
# Where a stream starts: most of the interesting state is two mode
# transitions and an ACT away from power-up.
START = st.sampled_from([PimMode.SB, PimMode.AB, PimMode.AB, PimMode.AB_PIM, PimMode.AB_PIM])


def resolve_row(twins, row, bank):
    if isinstance(row, int):
        return row
    if row == "open":
        return twins.ref._banks[bank].open_row or 0
    return getattr(twins.map, f"{row}_row")


@settings(max_examples=300, deadline=None)
@given(START, st.lists(STEP, min_size=1, max_size=60), st.booleans())
def test_random_streams_agree_with_the_per_bank_loop(start, steps, fused):
    twins = Twins(fused=fused)
    twins.program()
    # Uneven per-bank bounds and counts before the first broadcast.
    twins.issue(CommandType.ACT, bank=5, row=1)
    twins.issue(CommandType.WR, bank=5, row=1, col=2, value=9)
    twins.issue(CommandType.ACT, bank=9, row=2, slack=7)
    if start is not PimMode.SB:
        twins.enter_ab()
        twins.issue(CommandType.ACT, row=1)
        if start is PimMode.AB_PIM:
            twins.set_pim(1)
    for step in steps:
        if step == "observe":
            twins.observe()
        elif step == "reset":
            twins.reset()
        elif step == "enter_ab":
            twins.enter_ab()
        elif step == "exit_ab":
            twins.exit_ab()
        elif step == "pim_on":
            twins.set_pim(1)
        elif step == "pim_off":
            twins.set_pim(0)
        elif step[0] == "fail":
            # Through ``banks``: fault injection is an observation point.
            for channel in (twins.new, twins.ref):
                channel.banks[step[1]].fail(0)
        else:
            kind, bank, row, col, value, early, slack, *count = step
            twins.issue(
                kind, bank, resolve_row(twins, row, bank), col,
                value if kind is CommandType.WR else None, early, slack, *count,
            )
    twins.observe()


@pytest.mark.parametrize("fused", [False, True], ids=["eager", "deferring"])
def test_a_trigger_burst_moves_the_shared_state_as_its_commands_do(fused):
    """AB-PIM, the kernels' shape: runs of 8 RDs / WRs to the open row.
    With the deferring exec group the run is one shared-state update and
    one tape entry; either way nothing observable tells it from 8
    commands."""
    twins = Twins(fused=fused)
    twins.program()
    twins.enter_ab()
    twins.issue(CommandType.ACT, row=2)
    twins.issue(CommandType.WR, row=twins.map.grf_row, col=8, value=0, count=8)
    twins.set_pim(1)
    before = twins.new.cmd_counts[CommandType.RD]
    twins.issue(CommandType.RD, row=2, col=0, count=8)
    twins.issue(CommandType.WR, row=2, col=8, value=7, count=8, slack=3)
    twins.issue(CommandType.RD, row=2, col=8)  # a single command after bursts
    assert twins.new.cmd_counts[CommandType.RD] == before + 9
    assert twins.new.pim_triggered_columns == 17
    assert twins.new._last_col_cycle == twins.clock
    if fused:
        assert [entry.count for entry in twins.new.lockstep._tape] == [8, 8, 1]
        assert [entry.count for entry in twins.ref.lockstep._tape] == [1] * 17
    twins.observe()
    # What stops a run half way stops it where it stops the commands:
    # too early, the wrong row, no open row.
    assert twins.issue(CommandType.RD, row=2, count=8, early=True)[:2] == (
        "raised", TimingViolation
    )
    assert twins.issue(CommandType.RD, row=1, count=8) == (
        "raised", TimingViolation, "column command to row 1 but row 2 is open"
    )
    twins.issue(CommandType.PREA)
    assert twins.issue(CommandType.WR, row=2, value=1, count=8) == (
        "raised", TimingViolation, "column command to a bank with no open row"
    )
    twins.set_pim(0)  # flushes the tape: 17 triggers, identical unit stats
    twins.exit_ab()
    twins.observe()


def test_the_stream_strategy_reaches_every_mode_and_error():
    """A fixed walk through what the random streams are meant to reach —
    so a change to the strategy that stops covering a case fails here."""
    twins = Twins()
    twins.program()
    # Uneven per-bank history before the first broadcast.
    twins.issue(CommandType.ACT, bank=5, row=1)
    twins.issue(CommandType.WR, bank=5, row=1, col=2, value=9)
    twins.issue(CommandType.ACT, bank=9, row=2)
    twins.enter_ab()
    assert twins.new.mode is PimMode.AB
    assert twins.issue(CommandType.RD, row=1)[:2] == ("raised", TimingViolation)
    twins.issue(CommandType.ACT, row=1)
    assert twins.issue(CommandType.ACT, row=2) == (
        "raised", TimingViolation, "ACT to a bank with an open row"
    )
    assert twins.issue(CommandType.RD, row=2) == (
        "raised", TimingViolation, "column command to row 2 but row 1 is open"
    )
    assert twins.issue(CommandType.RD, row=1, early=True)[:2] == (
        "raised", TimingViolation
    )
    twins.issue(CommandType.WR, row=1, col=3, value=7)
    assert twins.issue(CommandType.RD, bank=6, row=1, col=3)[0] == "ok"
    twins.issue(CommandType.WR, row=twins.map.grf_row, col=1, value=3)
    twins.set_pim(1)
    assert twins.new.mode is PimMode.AB_PIM
    for col in range(10):  # eight executed, two ignored after EXIT
        twins.issue(CommandType.RD, row=1, col=col % 8)
    twins.issue(CommandType.REF)
    twins.observe()
    twins.issue(CommandType.PREA)
    assert twins.issue(CommandType.WR, row=1, value=1) == (
        "raised", TimingViolation, "column command to a bank with no open row"
    )
    twins.set_pim(0)
    twins.exit_ab()
    assert twins.new.mode is PimMode.SB
    twins.observe()
    twins.issue(CommandType.ACT, bank=3, row=0)
    twins.issue(CommandType.RD, bank=3, row=0, col=1)
    twins.observe()


@pytest.mark.parametrize("mode", [PimMode.AB, PimMode.AB_PIM])
def test_deferred_state_lands_before_a_mid_window_reset(mode):
    twins = Twins()
    twins.program()
    twins.enter_ab()
    twins.issue(CommandType.ACT, row=2)
    if mode is PimMode.AB_PIM:
        twins.set_pim(1)
    for col in range(4):
        twins.issue(CommandType.RD, row=2, col=col)
    twins.reset()
    assert twins.new.mode is PimMode.SB
    twins.observe()
    assert all(bank.open_row is None for bank in twins.new.banks)


@pytest.mark.parametrize("failed", [0, 6, 15])
@pytest.mark.parametrize("kind", [CommandType.RD, CommandType.WR])
def test_a_failed_bank_unwinds_the_broadcast_where_the_loop_did(failed, kind):
    twins = Twins()
    twins.enter_ab()
    twins.issue(CommandType.ACT, row=1)
    twins.issue(CommandType.WR, row=1, col=0, value=5)
    for channel in (twins.new, twins.ref):
        channel.banks[failed].fail(0)
    outcome = twins.issue(kind, row=1, col=1, value=6 if kind is CommandType.WR else None)
    assert outcome[:2] == ("raised", PimChannelError)
    twins.observe()
    taken = [b.rd_count + b.wr_count == 2 for b in twins.new.banks]
    assert taken == [index <= failed for index in range(16)]
    # Still in AB mode, banks no longer alike: further broadcasts keep
    # matching the loop.
    twins.issue(CommandType.PREA)
    twins.issue(CommandType.ACT, row=2)
    twins.observe()


def test_an_uncorrectable_word_unwinds_the_broadcast_where_the_loop_did():
    twins = Twins(bank_cls=EccBank)
    twins.enter_ab()
    twins.issue(CommandType.ACT, row=1)
    twins.issue(CommandType.WR, row=1, col=0, value=5)
    for channel in (twins.new, twins.ref):
        for bit in (3, 17):
            channel.banks[4].inject_error(1, 0, bit)
    assert twins.issue(CommandType.RD, row=1, col=0)[:2] == (
        "raised", UncorrectableError
    )
    twins.observe()
    assert [b.rd_count for b in twins.new.banks] == [1] * 5 + [0] * 11
    assert [b.ecc_stats for b in twins.new.banks] == [
        b.ecc_stats for b in twins.ref.banks
    ]


def test_entering_ab_with_open_rows_still_raises_and_recovers():
    twins = Twins()
    twins.issue(CommandType.ACT, bank=7, row=1)
    twins.issue(CommandType.ACT, bank=0, row=twins.map.abmr_row)
    outcome = twins.issue(CommandType.PRE, bank=0)  # resets both on the error
    assert outcome == ("raised", RuntimeError, BAD_ENTRY)
    assert twins.new.mode is PimMode.SB
    twins.observe()
    twins.enter_ab()
    twins.issue(CommandType.ACT, row=0)
    twins.observe()


# -- SB mode: a column to a bank row is one bank-column frame -----------------------

NO_ROW = ("raised", TimingViolation, "column command to a bank with no open row")


@pytest.mark.parametrize("bank_cls", [None, EccBank], ids=["Bank", "EccBank"])
class TestSingleBankColumn:
    """In SB mode ``PimPseudoChannel.issue`` hands a RD / WR to a bank row
    straight to ``PseudoChannel._bank_column`` (bound, bank, column
    history, channel maxima): every way such a command can go — or fail
    to — against the oracle, outcome, exception type and text."""

    def test_the_row_must_be_open_and_the_one_addressed(self, bank_cls):
        twins = Twins(bank_cls=bank_cls)
        assert twins.issue(CommandType.RD, bank=3, row=1) == NO_ROW
        assert twins.issue(CommandType.WR, bank=3, row=1, value=4) == NO_ROW
        twins.issue(CommandType.ACT, bank=3, row=1)
        assert twins.issue(CommandType.RD, bank=3, row=2, col=5) == (
            "raised", TimingViolation, "column command to row 2 but row 1 is open"
        )
        assert twins.issue(CommandType.WR, bank=3, row=1, col=5, value=4)[0] == "ok"
        assert twins.issue(CommandType.RD, bank=3, row=1, col=5) == (
            "ok", bytes([4]) * 32
        )
        twins.observe()

    @pytest.mark.parametrize("kind", [CommandType.RD, CommandType.WR])
    def test_one_cycle_early(self, bank_cls, kind):
        twins = Twins(bank_cls=bank_cls)
        twins.issue(CommandType.ACT, bank=6, row=2)
        twins.issue(CommandType.ACT, bank=7, row=0, slack=9)
        twins.issue(CommandType.RD, bank=7, row=0)  # the column history to beat
        bound = twins.new.earliest_col(1, 2, kind is CommandType.WR)
        outcome = twins.issue(kind, bank=6, row=2, value=2, early=True)
        assert outcome[:2] == ("raised", TimingViolation)
        assert outcome[2].endswith(f"at {bound - 1} before bound {bound}")
        twins.observe()

    def test_a_write_without_data(self, bank_cls):
        """Counted, then refused — with the bank's bounds and the channel
        maxima as the oracle leaves them."""
        twins = Twins(bank_cls=bank_cls)
        twins.issue(CommandType.ACT, bank=1, row=2)
        assert twins.issue(CommandType.WR, bank=1, row=2) == (
            "raised", ValueError, "WR command without data"
        )
        assert twins.new.cmd_counts[CommandType.WR] == 1
        twins.observe()

    def test_a_register_row_is_not_a_bank_column(self, bank_cls):
        """The GRF row in SB mode: the unit of the addressed bank pair
        answers, the bank row's timing is still checked and moved."""
        twins = Twins(bank_cls=bank_cls)
        grf = twins.map.grf_row
        assert twins.issue(CommandType.WR, bank=4, row=grf, col=9, value=3) == NO_ROW
        twins.issue(CommandType.ACT, bank=4, row=grf)
        assert twins.issue(CommandType.WR, bank=4, row=grf, col=9, value=3)[0] == "ok"
        assert twins.issue(CommandType.RD, bank=4, row=grf, col=9) == ("ok", bytes([3]) * 32)
        assert twins.new.units[2].regs.read_grf_column(9).tobytes() == bytes([3]) * 32
        twins.observe()

    def test_a_failed_bank(self, bank_cls):
        twins = Twins(bank_cls=bank_cls)
        twins.issue(CommandType.ACT, bank=5, row=1)
        for channel in (twins.new, twins.ref):
            channel.banks[5].fail(0)
        for kind, value in ((CommandType.RD, None), (CommandType.WR, 8)):
            assert twins.issue(kind, bank=5, row=1, col=2, value=value) == (
                "raised", PimChannelError, "data access to a bank of failed channel 0"
            )
        twins.observe()

    @pytest.mark.parametrize("damage", [(), (17,), (17, 18)], ids=["clean", "1-bit", "2-bit"])
    def test_a_read_run_over_a_flipped_bit(self, bank_cls, damage):
        """Eight written columns, bits ``damage`` of the fourth flipped (17
        and 18 share a 64-bit word), read as one RD burst and then as the
        pick path reads a run, one RD per column: an ECC bank corrects the
        word or raises at it; a plain bank returns what is stored."""
        twins = Twins(bank_cls=bank_cls)
        twins.issue(CommandType.ACT, bank=8, row=2)
        twins.issue(CommandType.WR, bank=8, row=2, col=4, value=10, count=8)
        expected = np.repeat(np.arange(10, 18, dtype=np.uint8), 32)
        for bit in damage:
            if bank_cls is None:
                expected[3 * 32 + bit // 8] ^= 1 << (bit % 8)
            for channel in (twins.new, twins.ref):
                channel.banks[8].flip_bit(2, 7 * 256 + bit)
        raises = len(damage) == 2 and bank_cls is EccBank
        for col, count in [(4, 8)] + [(col, 1) for col in range(4, 12)]:
            outcome = twins.issue(CommandType.RD, bank=8, row=2, col=col, count=count)
            if raises and col <= 7 < col + count:
                assert outcome[:2] == ("raised", UncorrectableError)
            else:
                assert outcome == ("ok", expected[32 * (col - 4) :][: 32 * count].tobytes())
        assert raises or twins.new.banks[8].rd_count == 16
        if bank_cls is EccBank:
            assert twins.new.banks[8].ecc_stats == twins.ref.banks[8].ecc_stats
        twins.observe()
