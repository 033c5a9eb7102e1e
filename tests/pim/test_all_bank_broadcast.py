"""The all-bank broadcast: one AB / AB-PIM command, 16 ``Bank`` updates.

In the all-bank modes ``PimPseudoChannel`` moves every bank through its
own ``activate`` / ``precharge`` / ``read`` / ``write`` / ``touch_column``
on each command.  What is left to check is what that loop does not state
by itself: a trigger burst moves the banks as its single commands do;
when bank *k*'s data path raises, banks ``0..k`` have taken the command
and the rest have not; entering AB with open rows raises and recovers;
and after every command the channel maxima are the banks' maxima.

In SB mode a column to a bank row is one frame of the channel
(``PseudoChannel._bank_column``); ``Reference`` below takes it the
per-command way it was taken before, so the SB cases are a differential.
"""

import numpy as np
import pytest

from repro.dram.bank import BankConfig, BankState, TimingViolation
from repro.dram.commands import Command, CommandType
from repro.dram.ecc import EccBank, UncorrectableError
from repro.dram.timing import HBM2_1GHZ
from repro.errors import PimChannelError
from repro.pim.assembler import assemble_words
from repro.pim.device import PimPseudoChannel
from repro.pim.fused import FusedLockstepGroup
from repro.pim.modes import PimMode

NUM_ROWS = 64
BAD_ENTRY = "entered AB mode with open rows; precharge all banks first"
# Reads the even bank on RD triggers, rejects WR triggers, and runs out
# after eight.
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
    """Everything but the banks."""
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
        for bank in channel.banks
    ]


class Reference(PimPseudoChannel):
    """The SB oracle: a column to a bank row taken the way it was before
    one bank-column method served it — the bound through
    ``earliest_issue`` (and the mode's ``earliest_col``), then the bank's
    own read / write.  Everything else is the channel's own path."""

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
        bank = self.banks[cmd.bank_index]
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
    """The channel under test and the oracle, driven in lock-step; with
    ``oracle=False``, the channel under test alone."""

    def __init__(self, bank_cls=None, fused=False, oracle=True):
        config = BankConfig(num_rows=NUM_ROWS)
        self.new = PimPseudoChannel(HBM2_1GHZ, config, bank_cls=bank_cls)
        self.ref = Reference(HBM2_1GHZ, config, bank_cls=bank_cls) if oracle else None
        self.sides = (self.new, self.ref) if oracle else (self.new,)
        if fused:  # the deferring exec group: AB-PIM bursts are one update
            for channel in self.sides:
                channel.lockstep = FusedLockstepGroup(channel.units)
        self.map = self.new.memory_map
        self.clock = 0

    def both(self, action):
        """Run ``action(channel)`` on each side; the outcomes must match."""
        outcomes = []
        for channel in self.sides:
            try:
                result = action(channel)
                outcomes.append(
                    ("ok", None if result is None else np.asarray(result).tobytes())
                )
            except Exception as exc:  # compared, not swallowed
                outcomes.append(("raised", type(exc), str(exc)))
        if self.ref is not None:
            assert outcomes[0] == outcomes[1]
            assert channel_state(self.new) == channel_state(self.ref)
            assert exec_tape(self.new) == exec_tape(self.ref)
        return outcomes[0]

    def observe(self):
        if self.ref is not None:
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
        assert all(side.earliest_issue(cmd) == bound for side in self.sides)
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
        for channel in self.sides:
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


@pytest.mark.parametrize("fused", [False, True], ids=["eager", "deferring"])
def test_a_trigger_burst_moves_every_bank_as_its_commands_do(fused):
    """AB-PIM, the kernels' shape: runs of 8 RDs / WRs to the open row,
    against the same commands one by one.  With the deferring exec group
    the run touches each bank once and is one tape entry; either way
    nothing observable tells it from 8 commands."""
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


def test_every_bank_takes_each_all_bank_command():
    """Uneven per-bank history (bank 5 opened and wrote, bank 9 opened
    later), then in AB mode an ACT, a WR, a RD and a PREA: each moves every
    bank's bounds by the same ``max(own, cycle + t)`` and counts in every
    bank; in AB-PIM a trigger moves the precharge bound and counts in
    none."""
    t = HBM2_1GHZ
    twins = Twins(oracle=False)
    twins.program()
    twins.issue(CommandType.ACT, bank=5, row=1)
    twins.issue(CommandType.WR, bank=5, row=1, col=2, value=9)
    twins.issue(CommandType.ACT, bank=9, row=2, slack=7)
    twins.enter_ab()
    steps = [
        ((CommandType.ACT, 0, 1), lambda a, p, r, w, c: (
            max(a, c + t.trc), max(p, c + t.tras), max(r, c + t.trcd),
            max(w, c + t.trcd), (1, 0, 0))),
        ((CommandType.WR, 0, 1, 3, 7), lambda a, p, r, w, c: (
            a, max(p, c + t.cwl + t.burst_cycles + t.twr), r, w, (0, 0, 1))),
        ((CommandType.RD, 6, 1, 3), lambda a, p, r, w, c: (
            a, max(p, c + t.trtp), r, w, (0, 1, 0))),
        ("pim_on", None),
        ((CommandType.RD, 0, 1, 4), lambda a, p, r, w, c: (
            a, max(p, c + t.trtp), r, w, (0, 0, 0))),
        ("pim_off", None),
        ((CommandType.PREA,), lambda a, p, r, w, c: (
            max(a, c + t.trp), p, r, w, (0, 0, 0))),
    ]
    for command, moved in steps:
        if moved is None:
            twins.set_pim(int(command == "pim_on"))
            continue
        before = bank_state(twins.new)
        assert twins.issue(*command)[0] == "ok"
        opens = {CommandType.ACT: 1, CommandType.PREA: None}
        want = []
        for state, open_row, a, p, r, w, acts, rds, wrs, failed in before:
            a, p, r, w, (da, dr, dw) = moved(a, p, r, w, twins.clock)
            open_row = opens.get(command[0], open_row)
            state = BankState.IDLE if open_row is None else BankState.ACTIVE
            want.append(
                (state, open_row, a, p, r, w, acts + da, rds + dr, wrs + dw, failed)
            )
        assert bank_state(twins.new) == want, command[0]
        twins.observe()


@pytest.mark.parametrize("failed", [0, 6, 15])
@pytest.mark.parametrize("kind", [CommandType.RD, CommandType.WR])
def test_a_failed_bank_stops_the_broadcast_after_it(failed, kind):
    """A bank moves its bounds and counts before its bytes: banks
    ``0..failed`` have taken the column and the banks after it have not.
    The channel stays in AB mode and keeps broadcasting."""
    twins = Twins(oracle=False)
    channel = twins.new
    twins.enter_ab()
    twins.issue(CommandType.ACT, row=1)
    twins.issue(CommandType.WR, row=1, col=0, value=5)
    channel.banks[failed].fail(0)
    before = bank_state(channel)
    outcome = twins.issue(kind, row=1, col=1, value=6 if kind is CommandType.WR else None)
    assert outcome == (
        "raised", PimChannelError, "data access to a bank of failed channel 0"
    )
    moved = [now != then for now, then in zip(bank_state(channel), before)]
    assert moved == [index <= failed for index in range(16)]
    taken = [b.rd_count + b.wr_count == 2 for b in channel.banks]
    assert taken == moved
    twins.observe()
    twins.issue(CommandType.PREA)
    twins.issue(CommandType.ACT, row=2)
    assert [b.open_row for b in channel.banks] == [2] * 16
    twins.observe()


def test_an_uncorrectable_word_stops_the_broadcast_after_its_bank():
    """An AB read over a two-bit word in bank 4: banks 0..4 have read (and
    decoded) the column, bank 4 raised at the word, banks 5..15 have not."""
    twins = Twins(bank_cls=EccBank, oracle=False)
    channel = twins.new
    twins.enter_ab()
    twins.issue(CommandType.ACT, row=1)
    twins.issue(CommandType.WR, row=1, col=0, value=5)
    for bit in (3, 17):
        channel.banks[4].inject_error(1, 0, bit)
    assert twins.issue(CommandType.RD, row=1, col=0)[:2] == (
        "raised", UncorrectableError
    )
    twins.observe()
    assert [b.rd_count for b in channel.banks] == [1] * 5 + [0] * 11
    assert [
        (b.ecc_stats.words_checked, b.ecc_stats.detected_uncorrectable)
        for b in channel.banks
    ] == [(4, 0)] * 4 + [(1, 1)] + [(0, 0)] * 11


def test_entering_ab_with_open_rows_still_raises_and_recovers():
    twins = Twins(oracle=False)
    channel = twins.new
    twins.issue(CommandType.ACT, bank=7, row=1)
    twins.issue(CommandType.ACT, bank=0, row=twins.map.abmr_row)
    outcome = twins.issue(CommandType.PRE, bank=0)  # resets the channel on the error
    assert outcome == ("raised", RuntimeError, BAD_ENTRY)
    assert channel.mode is PimMode.SB and channel.all_banks_idle
    twins.observe()
    twins.enter_ab()
    twins.issue(CommandType.ACT, row=0)
    assert [b.open_row for b in channel.banks] == [0] * 16
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
        for channel in twins.sides:
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
            for channel in twins.sides:
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
