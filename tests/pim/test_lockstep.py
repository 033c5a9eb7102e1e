"""Differential tests: the lock-step batch path vs the per-unit oracle.

A :class:`LockstepGroup` with ``enabled=True`` must be *indistinguishable*
from the historical ``for unit in units: unit.trigger(trig)`` loop — same
register bytes, same bank bytes, same sequencer state, same ``UnitStats``,
same exceptions — across randomized microkernels (JUMP loops, multi-cycle
NOP, AAM, every opcode) and randomized trigger sequences, including ones
that hit error paths and ones where units are deliberately desynchronized.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank, BankConfig
from repro.dram.ecc import EccBank
from repro.dram.timing import HBM2_1GHZ
from repro.pim.assembler import assemble_words
from repro.pim.exec_unit import ColumnTrigger, PimExecutionUnit
from repro.pim.lockstep import LockstepGroup
from repro.pim.registers import LANES

NUM_UNITS = 8
NUM_ROWS = 8
DATA_ROWS = 4  # rows 0..3 hold operand data; register rows are not modelled


def _build_group(seed: int, enabled: bool, bank_cls=Bank, cols: int = 8) -> LockstepGroup:
    """A seeded group: random bank rows (their first ``cols`` columns),
    random GRF/SRF, shared layout."""
    rng = np.random.default_rng(seed)
    cfg = BankConfig(num_rows=NUM_ROWS)
    units = []
    for u in range(NUM_UNITS):
        even = bank_cls(cfg, HBM2_1GHZ)
        odd = bank_cls(cfg, HBM2_1GHZ)
        units.append(PimExecutionUnit(u, even, odd))
    group = LockstepGroup(units, enabled=enabled)
    for unit in units:
        for bank in (unit.even_bank, unit.odd_bank):
            for row in range(DATA_ROWS):
                for col in range(cols):
                    values = rng.standard_normal(LANES).astype(np.float16)
                    bank.poke(row, col, values.view(np.uint8))
        unit.regs.grf_a[...] = rng.standard_normal(
            unit.regs.grf_a.shape
        ).astype(np.float16)
        unit.regs.grf_b[...] = rng.standard_normal(
            unit.regs.grf_b.shape
        ).astype(np.float16)
        unit.regs.srf_m[...] = rng.standard_normal(
            unit.regs.srf_m.shape
        ).astype(np.float16)
        unit.regs.srf_a[...] = rng.standard_normal(
            unit.regs.srf_a.shape
        ).astype(np.float16)
    return group


def _program(group: LockstepGroup, source: str) -> None:
    words = assemble_words(source)
    for unit in group.units:
        for i, word in enumerate(words):
            unit.regs.crf[i] = word
    group.start_all()


def _snapshot(group: LockstepGroup):
    """Everything observable about the group, as comparable bytes/values."""
    state = []
    for unit in group.units:
        banks = []
        for bank in (unit.even_bank, unit.odd_bank):
            rows = {
                row: bank.peek_raw_row(row).tobytes()
                if hasattr(bank, "peek_raw_row")
                else bank._row_array(row).tobytes()
                for row in sorted(bank._rows)
            }
            checks = (
                {r: a.tobytes() for r, a in sorted(bank._check.items())}
                if isinstance(bank, EccBank)
                else None
            )
            ecc_stats = (
                vars(bank.ecc_stats).copy() if isinstance(bank, EccBank) else None
            )
            banks.append((rows, checks, ecc_stats))
        state.append(
            {
                "banks": banks,
                "crf": list(unit.regs.crf),
                "grf_a": unit.regs.grf_a.tobytes(),
                "grf_b": unit.regs.grf_b.tobytes(),
                "srf_m": unit.regs.srf_m.tobytes(),
                "srf_a": unit.regs.srf_a.tobytes(),
                "ppc": unit.ppc,
                "exited": unit.exited,
                "nop": unit._nop_remaining,
                "jump": dict(unit._jump_state),
                "stats": vars(unit.stats).copy(),
            }
        )
    return state


def _run(group: LockstepGroup, triggers) -> list:
    """Apply the triggers, recording outcomes (None or the exception)."""
    outcomes = []
    for trig in triggers:
        try:
            group.trigger_all(trig)
            outcomes.append(None)
        except Exception as exc:  # compared type-and-message against oracle
            outcomes.append((type(exc).__name__, str(exc)))
    return outcomes


def _assert_equivalent(source: str, triggers, seed: int = 0, bank_cls=Bank,
                       mutate=None) -> None:
    batched = _build_group(seed, enabled=True, bank_cls=bank_cls)
    oracle = _build_group(seed, enabled=False, bank_cls=bank_cls)
    _program(batched, source)
    _program(oracle, source)
    if mutate is not None:
        mutate(batched)
        mutate(oracle)
    out_b = _run(batched, triggers)
    out_o = _run(oracle, triggers)
    assert out_b == out_o
    assert _snapshot(batched) == _snapshot(oracle)
    assert batched.scalar_fallbacks + batched.batched_triggers >= 0  # counters exist


def _rd(row=0, col=0):
    return ColumnTrigger(is_write=False, row=row, col=col)


def _wr(row=0, col=0, value=1.0):
    data = np.full(LANES, value, dtype=np.float16).view(np.uint8)
    return ColumnTrigger(is_write=True, row=row, col=col, host_data=data)


# -- hand-written microkernels covering each structural feature ---------------------


class TestMicrokernels:
    def test_gemv_style_mac_loop(self):
        source = (
            "MAC GRF_B[A], EVEN_BANK, SRF_M[A]\n"
            "JUMP -1, 7\n"
            "EXIT"
        )
        triggers = [_rd(row=0, col=c) for c in range(8)] + [_rd(0, 0)]
        _assert_equivalent(source, triggers)

    def test_elementwise_add_with_bank_writeback(self):
        source = (
            "FILL GRF_A[0], EVEN_BANK\n"
            "ADD GRF_A[1], GRF_A[0], ODD_BANK\n"
            "MOV EVEN_BANK, GRF_A[1]\n"
            "EXIT"
        )
        triggers = [_rd(0, 0), _rd(1, 1), _wr(2, 2), _rd(0, 0)]
        _assert_equivalent(source, triggers)

    def test_multi_cycle_nop_and_relu(self):
        source = (
            "NOP 3\n"
            "MOV(RELU) GRF_A[2], GRF_B[3]\n"
            "NOP 2\n"
            "EXIT"
        )
        triggers = [_rd(0, 0)] * 7
        _assert_equivalent(source, triggers)

    def test_mad_with_scalar_operands(self):
        source = (
            "MAD GRF_B[0], ODD_BANK, SRF_M[4], SRF_A[4]\n"
            "MUL GRF_B[1], GRF_B[0], GRF_A[5]\n"
            "EXIT"
        )
        triggers = [_rd(1, 3), _rd(0, 0), _rd(0, 0)]
        _assert_equivalent(source, triggers)

    def test_host_broadcast_write(self):
        source = "MOV GRF_A[A], HOST\nJUMP -1, 3\nEXIT"
        triggers = [_wr(0, c, value=float(c + 1)) for c in range(4)]
        _assert_equivalent(source, triggers)

    def test_surplus_triggers_after_exit(self):
        source = "MOV GRF_A[0], GRF_B[0]\nEXIT"
        triggers = [_rd(0, 0)] * 5
        _assert_equivalent(source, triggers)

    def test_wrong_trigger_kind_raises_identically(self):
        # Bank-read microkernel poked with WR triggers: the scalar loop
        # raises PimProgramError on unit 0; the batch path must fall back
        # and raise the same error with the same partial state.
        source = "FILL GRF_A[0], EVEN_BANK\nEXIT"
        triggers = [_wr(0, 0), _rd(0, 0), _rd(0, 0)]
        _assert_equivalent(source, triggers)

    def test_ecc_banks_identical_counters(self):
        source = (
            "FILL GRF_A[0], EVEN_BANK\n"
            "ADD GRF_A[1], GRF_A[0], ODD_BANK\n"
            "MOV ODD_BANK, GRF_A[1]\n"
            "EXIT"
        )
        triggers = [_rd(0, 0), _rd(1, 1), _wr(2, 2), _rd(3, 3)]
        _assert_equivalent(source, triggers, bank_cls=EccBank)


class TestDesync:
    def test_single_unit_crf_divergence_falls_back(self):
        source = "MOV GRF_A[0], GRF_B[0]\nMOV GRF_A[1], GRF_B[1]\nEXIT"

        def mutate(group):
            # Unit 3 gets a different second instruction (SB-mode rewrite).
            group.units[3].regs.crf[1] = assemble_words(
                "MOV GRF_A[2], GRF_B[2]"
            )[0]

        triggers = [_rd(0, 0), _rd(0, 0), _rd(0, 0)]
        _assert_equivalent(source, triggers, mutate=mutate)

    def test_crf_bit_flip_mid_program(self):
        source = (
            "MOV GRF_A[0], GRF_B[0]\n"
            "MUL GRF_A[1], GRF_A[0], SRF_M[0]\n"
            "EXIT"
        )

        def mutate(group):
            group.units[5].regs.flip_bit("crf", 1, 7)

        triggers = [_rd(0, 0), _rd(0, 0), _rd(0, 0)]
        _assert_equivalent(source, triggers, mutate=mutate)

    def test_divergent_sequencer_state(self):
        source = "NOP 2\nMOV GRF_A[0], GRF_B[0]\nEXIT"

        def mutate(group):
            group.units[2]._nop_remaining = 1  # unit 2 mid-NOP already

        triggers = [_rd(0, 0)] * 4
        _assert_equivalent(source, triggers, mutate=mutate)

    def test_batched_counter_advances_on_clean_run(self):
        group = _build_group(1, enabled=True)
        _program(group, "MOV GRF_A[0], GRF_B[0]\nEXIT")
        group.trigger_all(_rd(0, 0))
        assert group.batched_triggers == 1
        assert group.scalar_fallbacks == 0


# -- randomized microkernels (hypothesis) -------------------------------------------

_INSTRUCTIONS = (
    "FILL GRF_A[{i}], EVEN_BANK",
    "FILL GRF_B[{i}], ODD_BANK",
    "MOV GRF_A[{i}], GRF_B[{j}]",
    "MOV(RELU) GRF_B[{i}], GRF_A[{j}]",
    "MOV GRF_A[A], HOST",
    "MOV EVEN_BANK, GRF_A[{i}]",
    "MOV ODD_BANK, GRF_B[{i}]",
    "MUL GRF_A[{i}], GRF_A[{j}], SRF_M[{k}]",
    "ADD GRF_B[{i}], GRF_B[{j}], SRF_A[{k}]",
    "ADD GRF_A[{i}], GRF_A[{j}], GRF_B[{k}]",
    "MAC GRF_B[A], EVEN_BANK, SRF_M[A]",
    "MAC GRF_A[{i}], GRF_B[{j}], GRF_A[{k}]",
    "MAD GRF_A[{i}], ODD_BANK, SRF_M[{j}], SRF_A[{j}]",  # ISA: SRC1# == SRC2#
    "NOP {n}",
)

_instr = st.builds(
    lambda t, i, j, k, n: t.format(i=i, j=j, k=k, n=n),
    st.sampled_from(_INSTRUCTIONS),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(0, 7),
    st.integers(1, 3),
)

_jump = st.builds(
    lambda off, cnt: f"JUMP -{off}, {cnt}",
    st.integers(1, 3),
    st.integers(1, 4),
)

_trigger = st.builds(
    lambda is_write, row, col, value: (
        _wr(row, col, value) if is_write else _rd(row, col)
    ),
    st.booleans(),
    st.integers(0, DATA_ROWS - 1),
    st.integers(0, 7),
    st.floats(-4, 4, width=16),
)


@st.composite
def _microkernel(draw):
    body = draw(st.lists(_instr, min_size=1, max_size=6))
    # Optionally close with a backward JUMP over the tail of the body.
    if draw(st.booleans()):
        jump = draw(_jump)
        offset = int(jump.split()[1].rstrip(","))  # negative
        if len(body) + offset >= 0:  # jump target stays inside the body
            body.append(jump)
    body.append("EXIT")
    return "\n".join(body)


class TestRandomizedDifferential:
    @settings(max_examples=30, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=24),
        seed=st.integers(0, 2**16),
    )
    def test_batched_equals_scalar(self, source, triggers, seed):
        _assert_equivalent(source, triggers, seed=seed)

    @settings(max_examples=15, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_batched_equals_scalar_ecc(self, source, triggers, seed):
        _assert_equivalent(source, triggers, seed=seed, bank_cls=EccBank)

    @settings(max_examples=15, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
        unit=st.integers(0, NUM_UNITS - 1),
        entry=st.integers(0, 6),
        bit=st.integers(0, 31),
    )
    def test_batched_equals_scalar_with_crf_fault(
        self, source, triggers, seed, unit, entry, bit
    ):
        def mutate(group):
            group.units[unit].regs.flip_bit("crf", entry, bit)

        _assert_equivalent(source, triggers, seed=seed, mutate=mutate)


class TestSystemToggle:
    """Every ``SystemConfig(exec_mode=...)`` must be bit-exact with the
    default (lock-step) path end to end."""

    def test_exec_mode_end_to_end_equivalence(self):
        from repro.stack.runtime import PimSystem, SystemConfig

        def run(exec_mode):
            rng = np.random.default_rng(13)
            system = PimSystem(
                SystemConfig.fast_functional(ecc=True, exec_mode=exec_mode)
            )
            w = (rng.standard_normal((48, 64)) * 0.25).astype(np.float16)
            x = (rng.standard_normal(64) * 0.25).astype(np.float16)
            y, _ = system.executor.gemv_operator(w)(x)
            a = (rng.standard_normal(192) * 0.25).astype(np.float16)
            b = (rng.standard_normal(192) * 0.25).astype(np.float16)
            z, _ = system.executor.elementwise("add", a, b)
            pch = system.device.pch(0)
            stats = [vars(u.stats) for u in pch.units]
            ecc = [vars(bank.ecc_stats) for bank in pch.banks]
            grf = [
                unit.regs.grf_a.tobytes() + unit.regs.grf_b.tobytes()
                for unit in pch.units
            ]
            return (
                y.tobytes(), z.tobytes(), stats, ecc, grf,
                pch.lockstep.batched_triggers,
            )

        default = run("lockstep")
        scalar = run("scalar")
        fused = run("fused")
        assert default[:-1] == scalar[:-1] == fused[:-1]
        assert default[-1] > 0  # the batch path actually ran by default
        assert scalar[-1] == 0  # ... and was fully disabled when forced off
        assert fused[-1] >= default[-1]  # fused batches at least as widely
