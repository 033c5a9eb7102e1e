"""Differential: the trace-compiled fused executor vs the execution units.

The fused executor (:mod:`repro.pim.fused`) must be *indistinguishable*
from the execution units it compiles away — the eager
:class:`~repro.pim.lockstep.LockstepGroup`, every trigger on every unit
through ``PimExecutionUnit.trigger`` (``exec_mode="scalar"`` end to end)
— wherever results are observable: bit-identical register/bank bytes,
identical ``UnitStats`` and ECC counters, identical profile counters, and
identical span trees (``diff_span_trees`` names the first divergence on
failure), across hand-written and randomized microkernels, random shapes
and channel subsets, and under injected CRF faults and shed overload.

The one deliberate exception is exception *surfacing*: the fused group
defers triggers within an AB-PIM window, so an error the units raise at
trigger N surfaces at the window flush instead (documented in
:mod:`repro.pim.fused`).  Error-path cases therefore compare the first
raised exception and stop — both post-error states are garbage the
self-healing layer discards.

The sequencer rules (``exec_unit.resolve_control``) are shared by the
units and the compiler: a window they raise at must compile poisoned and
raise the units' own error.  The eager group's own contract — a burst is
its singles, a raise stops at the raising unit — is pinned here too.

The seeded groups, microkernel sources and hypothesis strategies here
are shared by ``test_trace_cache.py`` and ``test_fused_blocks.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank, BankConfig
from repro.dram.ecc import EccBank, UncorrectableError
from repro.dram.timing import HBM2_1GHZ
from repro.pim.assembler import assemble_words
from repro.pim.exec_unit import ColumnTrigger, PimExecutionUnit, PimProgramError
from repro.pim.fused import FusedLockstepGroup
from repro.pim.lockstep import LockstepGroup
from repro.pim.registers import LANES

NUM_UNITS = 8
NUM_ROWS = 8
DATA_ROWS = 4  # rows 0..3 hold operand data; register rows are not modelled


def _normals(rng, shape):
    return rng.standard_normal(shape).astype(np.float16)


# FP16 specials by bit pattern: signed zeros, the smallest and largest
# subnormals of either sign, the smallest normal, infinities, quiet NaNs of
# either sign and one with a payload, and magnitudes whose products (300 *
# 300) or sums (65504 + 65504) pass binary16's largest finite value.
SPECIALS = np.array(
    [0x0000, 0x8000, 0x0001, 0x8001, 0x03FF, 0x83FF, 0x0400, 0x7C00, 0xFC00,
     0x7E00, 0xFE00, 0x7E5A, 0x7BFF, 0xFBFF, 0x5CB0, 0xDCB0],
    dtype=np.uint16,
).view(np.float16)


def _specials(rng, shape):
    """Lanes drawn half from :data:`SPECIALS`, half from N(0, 1)."""
    special = SPECIALS[rng.integers(0, len(SPECIALS), shape)]
    return np.where(rng.random(shape) < 0.5, special, _normals(rng, shape))


def _build_group(seed: int, bank_cls=Bank, cols: int = 8, values=_normals) -> LockstepGroup:
    """A seeded eager group: bank rows (their first ``cols`` columns) and
    GRF/SRF drawn by ``values(rng, shape)``, shared layout."""
    rng = np.random.default_rng(seed)
    cfg = BankConfig(num_rows=NUM_ROWS)
    units = []
    for u in range(NUM_UNITS):
        even = bank_cls(cfg, HBM2_1GHZ)
        odd = bank_cls(cfg, HBM2_1GHZ)
        units.append(PimExecutionUnit(u, even, odd))
    group = LockstepGroup(units)
    for unit in units:
        for bank in (unit.even_bank, unit.odd_bank):
            for row in range(DATA_ROWS):
                for col in range(cols):
                    bank.poke(row, col, values(rng, LANES).view(np.uint8))
        for name in ("grf_a", "grf_b", "srf_m", "srf_a"):
            regs = getattr(unit.regs, name)
            regs[...] = values(rng, regs.shape)
    return group


def _build_fused(seed: int, bank_cls=Bank, cols: int = 8, values=_normals) -> FusedLockstepGroup:
    base = _build_group(seed, bank_cls=bank_cls, cols=cols, values=values)
    return FusedLockstepGroup(base.units)


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


def _rd(row=0, col=0):
    return ColumnTrigger(is_write=False, row=row, col=col)


def _wr(row=0, col=0, value=1.0):
    data = np.full(LANES, value, dtype=np.float16).view(np.uint8)
    return ColumnTrigger(is_write=True, row=row, col=col, host_data=data)


def _burst(singles):
    """Consecutive single triggers of one row as one column burst."""
    first = singles[0]
    host = None if first.host_data is None else np.stack([t.host_data for t in singles])
    return ColumnTrigger(first.is_write, first.row, first.col, host, count=len(singles))


# -- randomized microkernels (hypothesis strategies) ------------------------------

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


# A trigger whose HOST burst, if any, is 16 lanes drawn by :func:`_specials`
# from a seed.
_special_trigger = st.builds(
    lambda is_write, row, col, seed: (
        ColumnTrigger(
            True, row, col, _specials(np.random.default_rng(seed), LANES).view(np.uint8)
        )
        if is_write else _rd(row, col)
    ),
    st.booleans(),
    st.integers(0, DATA_ROWS - 1),
    st.integers(0, 7),
    st.integers(0, 2**16),
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


def _compiled(group: FusedLockstepGroup):
    """The one compiled trace in ``group``'s cache."""
    (key,) = group.cache.keys()
    return group.cache.get(key)


def _run_window(group, triggers):
    """One AB-PIM window: all triggers, then the flush the device issues
    at the window boundary.  Returns the first exception (type, message)
    or None — for eager groups an exception aborts the window exactly as
    a device drain would."""
    try:
        for trig in triggers:
            group.trigger_all(trig)
        group.flush_pending()
        return None
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def _assert_twoway(source, triggers, seed=0, bank_cls=Bank, mutate=None, cols=8, values=_normals):
    """Run one window on the units and fused; returns the fused group (for
    its plan) and the common outcome."""
    units = _build_group(seed, bank_cls=bank_cls, cols=cols, values=values)
    fused = _build_fused(seed, bank_cls=bank_cls, cols=cols, values=values)
    outcomes = []
    for group in (units, fused):
        _program(group, source)
        if mutate is not None:
            mutate(group)
        outcomes.append(_run_window(group, triggers))
    assert outcomes[0] == outcomes[1]
    if outcomes[0] is None:  # post-error state is documented as unspecified
        assert _snapshot(fused) == _snapshot(units), "fused diverged from the units"
    return fused, outcomes[1]


# -- hand-written windows covering each structural feature ----------------------


class TestFusedMicrokernels:
    def test_gemv_style_mac_loop_replays_fused(self):
        source = "MAC GRF_B[A], EVEN_BANK, SRF_M[A]\nJUMP -1, 7\nEXIT"
        triggers = [_rd(row=0, col=c) for c in range(8)]
        _assert_twoway(source, triggers)

    def test_grouped_elementwise_chain(self):
        source = (
            "FILL GRF_A[A], EVEN_BANK\n"
            "JUMP -1, 7\n"
            "ADD GRF_B[A], GRF_A[A], ODD_BANK\n"
            "JUMP -1, 7\n"
            "MOV EVEN_BANK, GRF_B[A]\n"
            "JUMP -1, 7\n"
            "EXIT"
        )
        triggers = (
            [_rd(1, c) for c in range(8)]
            + [_rd(2, c) for c in range(8)]
            + [_wr(3, c) for c in range(8)]
        )
        _assert_twoway(source, triggers)

    def test_interleaved_stages_self_split(self):
        # The PR 5 elementwise order: FILL/ADD/MOV triples interleave, so
        # every group is a singleton — still bit-exact, just unfused.
        source = (
            "FILL GRF_A[0], EVEN_BANK\n"
            "ADD GRF_A[1], GRF_A[0], ODD_BANK\n"
            "MOV EVEN_BANK, GRF_A[1]\n"
            "JUMP -3, 3\n"
            "EXIT"
        )
        triggers = []
        for col in range(4):
            triggers += [_rd(1, col), _rd(2, col), _wr(3, col)]
        _assert_twoway(source, triggers)

    def test_fixed_register_mac_accumulates_sequentially(self):
        # Non-AAM MAC: every trigger reads and writes GRF_B[0], so the
        # hazard rule must split the run into singletons (fused grouping
        # would break sequential FP16 accumulation).
        source = "MAC GRF_B[0], EVEN_BANK, SRF_M[0]\nJUMP -1, 7\nEXIT"
        triggers = [_rd(0, c) for c in range(8)]
        _assert_twoway(source, triggers)

    def test_host_broadcast_and_relu(self):
        source = (
            "MOV GRF_A[A], HOST\n"
            "JUMP -1, 3\n"
            "MOV(RELU) GRF_B[A], GRF_A[A]\n"
            "JUMP -1, 3\n"
            "EXIT"
        )
        triggers = [_wr(0, c, value=float(c) - 1.5) for c in range(4)] + [
            _rd(0, c) for c in range(4)
        ]
        _assert_twoway(source, triggers)

    def test_multi_cycle_nop_inside_window(self):
        source = "NOP 3\nMOV GRF_A[2], GRF_B[3]\nNOP 2\nEXIT"
        _assert_twoway(source, [_rd(0, 0)] * 7)

    def test_surplus_triggers_after_exit(self):
        source = "MOV GRF_A[0], GRF_B[0]\nEXIT"
        _assert_twoway(source, [_rd(0, 0)] * 5)

    def test_wrong_trigger_kind_raises_identically(self):
        # WR trigger against a bank-read program: the tape compiles
        # poisoned and runs on the units, which raise their exact
        # PimProgramError.
        source = "FILL GRF_A[0], EVEN_BANK\nEXIT"
        _assert_twoway(source, [_wr(0, 0)])

    def test_wrong_trigger_kind_after_a_clean_step(self):
        # The mismatch is the window's second trigger: the units execute
        # the FILL, then raise at the bank write fed by a RD.
        source = "FILL GRF_A[0], EVEN_BANK\nMOV EVEN_BANK, GRF_A[0]\nEXIT"
        _, outcome = _assert_twoway(source, [_rd(0, 0), _rd(1, 1), _rd(0, 0)])
        assert outcome == (
            "PimProgramError",
            "bank-destination requires a column WR trigger (write drivers)",
        )

    def test_gemv_style_mac_loop(self):
        # The loop, then a surplus trigger after its EXIT.
        source = "MAC GRF_B[A], EVEN_BANK, SRF_M[A]\nJUMP -1, 7\nEXIT"
        triggers = [_rd(row=0, col=c) for c in range(8)] + [_rd(0, 0)]
        _assert_twoway(source, triggers)

    def test_multi_cycle_nop_and_relu(self):
        source = "NOP 3\nMOV(RELU) GRF_A[2], GRF_B[3]\nNOP 2\nEXIT"
        _assert_twoway(source, [_rd(0, 0)] * 7)

    def test_ecc_elementwise_add_counters(self):
        # Non-AAM: one column per instruction, the sum written to ODD_BANK.
        source = (
            "FILL GRF_A[0], EVEN_BANK\n"
            "ADD GRF_A[1], GRF_A[0], ODD_BANK\n"
            "MOV ODD_BANK, GRF_A[1]\n"
            "EXIT"
        )
        triggers = [_rd(0, 0), _rd(1, 1), _wr(2, 2), _rd(3, 3)]
        _assert_twoway(source, triggers, bank_cls=EccBank)

    def test_elementwise_add_with_bank_writeback(self):
        source = (
            "FILL GRF_A[0], EVEN_BANK\n"
            "ADD GRF_A[1], GRF_A[0], ODD_BANK\n"
            "MOV EVEN_BANK, GRF_A[1]\n"
            "EXIT"
        )
        _assert_twoway(source, [_rd(0, 0), _rd(1, 1), _wr(2, 2), _rd(0, 0)])

    def test_mad_with_scalar_operands(self):
        source = (
            "MAD GRF_B[0], ODD_BANK, SRF_M[4], SRF_A[4]\n"
            "MUL GRF_B[1], GRF_B[0], GRF_A[5]\n"
            "EXIT"
        )
        _assert_twoway(source, [_rd(1, 3), _rd(0, 0), _rd(0, 0)])

    def test_host_broadcast_write_loop(self):
        source = "MOV GRF_A[A], HOST\nJUMP -1, 3\nEXIT"
        _assert_twoway(source, [_wr(0, c, value=float(c + 1)) for c in range(4)])

    def test_ecc_banks_identical_counters(self):
        source = (
            "FILL GRF_A[A], EVEN_BANK\n"
            "JUMP -1, 7\n"
            "MOV ODD_BANK, GRF_A[A]\n"
            "JUMP -1, 7\n"
            "EXIT"
        )
        triggers = [_rd(0, c) for c in range(8)] + [_wr(1, c) for c in range(8)]
        _assert_twoway(source, triggers, bank_cls=EccBank)

    def test_repeated_windows_hit_the_cache(self):
        group = _build_fused(3)
        _program(group, "MAC GRF_B[A], EVEN_BANK, SRF_M[A]\nJUMP -1, 7\nEXIT")
        for _ in range(4):
            for col in range(8):
                group.trigger_all(_rd(0, col))
            group.flush_pending()
            group.start_all()
        stats = group.cache.stats
        assert stats.compiles == 1
        assert stats.hits == 3
        assert group.fused_replays == 4
        assert group.fused_fallbacks == 0


class TestFusedDesync:
    def test_single_unit_crf_divergence_falls_back(self):
        from repro.pim.assembler import assemble_words

        source = "MOV GRF_A[0], GRF_B[0]\nMOV GRF_A[1], GRF_B[1]\nEXIT"

        def mutate(group):
            group.units[3].regs.crf[1] = assemble_words(
                "MOV GRF_A[2], GRF_B[2]"
            )[0]

        _assert_twoway(source, [_rd(0, 0)] * 3, mutate=mutate)

    def test_crf_bit_flip_changes_the_cache_key(self):
        source = "MOV GRF_A[0], GRF_B[0]\nEXIT"
        group = _build_fused(5)
        _program(group, source)
        group.trigger_all(_rd(0, 0))
        group.flush_pending()
        first_keys = group.cache.keys()
        # A broadcast CRF mutation (all units stay uniform) must compile a
        # fresh trace — never replay the stale program.
        for unit in group.units:
            unit.regs.flip_bit("crf", 0, 9)
        group.start_all()
        group.trigger_all(_rd(0, 0))
        group.flush_pending()
        assert group.cache.stats.compiles == 2
        assert set(group.cache.keys()) != set(first_keys)

    def test_divergent_sequencer_state_falls_back(self):
        source = "NOP 2\nMOV GRF_A[0], GRF_B[0]\nEXIT"

        def mutate(group):
            group.units[2]._nop_remaining = 1

        _assert_twoway(source, [_rd(0, 0)] * 4, mutate=mutate)

    def test_crf_bit_flip_mid_program(self):
        # One unit's second instruction is upset after AB-PIM entry: the
        # CRFs differ at flush, so the window runs on the units.
        source = (
            "MOV GRF_A[0], GRF_B[0]\n"
            "MUL GRF_A[1], GRF_A[0], SRF_M[0]\n"
            "EXIT"
        )

        def mutate(group):
            group.units[5].regs.flip_bit("crf", 1, 7)

        fused, _ = _assert_twoway(source, [_rd(0, 0)] * 3, mutate=mutate)
        assert fused.fused_fallbacks == 1 and len(fused.cache) == 0


class TestSequencerRules:
    """The sequencer rules are one function the units and the compiler
    both call: a window the rules accept compiles and replays, and one
    they raise at compiles poisoned and runs on the units, which raise
    what they always raised."""

    @pytest.mark.parametrize("source, triggers", [
        ("NOP 0\nMOV GRF_A[0], GRF_B[0]\nEXIT", 3),  # NOP 0 still takes a cycle
        ("NOP 2\nNOP 0\nNOP 1\nMOV GRF_A[0], GRF_B[0]\nEXIT", 6),  # back to back
        ("MOV GRF_A[0], GRF_B[0]\nJUMP -1, 0\nNOP 1\nEXIT", 3),  # a loop of none
    ], ids=["nop-zero", "nops-back-to-back", "jump-zero-iterations"])
    def test_accepted_windows_replay(self, source, triggers):
        fused, outcome = _assert_twoway(source, [_rd(0, 0)] * triggers, seed=12)
        assert outcome is None
        assert not _compiled(fused).poisoned
        assert (fused.fused_replays, fused.fused_fallbacks) == (1, 0)

    @pytest.mark.parametrize("source, patch, triggers, error", [
        (
            "MOV GRF_A[0], GRF_B[0]\nJUMP -5, 1\nEXIT", None, 2,
            ("PimProgramError", "PPC -4 out of CRF range"),
        ),
        (
            "\n".join(["NOP"] * 32), None, 33,
            ("PimProgramError", "PPC 32 out of CRF range"),
        ),
        (
            "MOV GRF_A[0], GRF_B[0]\nEXIT", (1, 0xF000_0000), 2,
            ("ValueError", "15 is not a valid Opcode"),
        ),
        (
            "MOV GRF_A[0], GRF_B[0]\nJUMP 1, 1\nJUMP -1, 131071\nJUMP -2, 131071\nEXIT",
            None, 2,
            ("PimProgramError", "control-flow resolution did not converge"),
        ),
    ], ids=["jump-before-the-crf", "ppc-past-the-crf", "undecodable-word", "runaway-jump"])
    def test_a_raise_compiles_the_window_poisoned(self, source, patch, triggers, error):
        def mutate(group):  # after AB-PIM entry resolved PPC 0
            if patch is not None:
                slot, word = patch
                for unit in group.units:
                    unit.regs.crf[slot] = word

        fused, outcome = _assert_twoway(source, [_rd(0, 0)] * triggers, mutate=mutate)
        assert outcome == error
        assert _compiled(fused).poisoned
        assert (fused.fused_replays, fused.fused_fallbacks) == (0, 1)


class TestTheUnitsAsAGroup:
    """The eager group the fused path falls back to, and the contract it
    shares with the fused group."""

    @pytest.mark.parametrize("build", [_build_group, _build_fused], ids=["units", "fused"])
    def test_a_burst_runs_as_its_singles(self, build):
        singles = _gemv_window(1)  # 8 HOST writes, 8 weight reads, 8 write-outs
        bursts = [_burst(singles[i : i + 8]) for i in range(0, len(singles), 8)]
        whole, parts = build(13), build(13)
        for group, tape in ((whole, bursts), (parts, singles)):
            _program(group, GEMV.format(reps=0))
            assert _run_window(group, tape) is None
        assert _snapshot(whole) == _snapshot(parts)

    def test_a_raise_stops_at_the_raising_unit(self):
        group = _build_group(11)
        _program(group, "MOV GRF_A[0], HOST\nEXIT")
        group.units[3].regs.crf[0] = assemble_words("FILL GRF_A[0], EVEN_BANK")[0]
        before = _snapshot(group)
        with pytest.raises(PimProgramError, match="bank-sourced operand requires"):
            group.trigger_all(_wr(0, 0, value=2.0))
        after = _snapshot(group)
        for unit in group.units[:3]:  # executed
            assert unit.exited and (unit.regs.grf_a[0] == np.float16(2.0)).all()
        assert after[3]["stats"]["triggers"] == 1 and not after[3]["exited"]
        assert after[3]["grf_a"] == before[3]["grf_a"]
        assert after[4:] == before[4:]  # never triggered


# -- the levelled replay: dependences, not hazards, order a window ---------------

GEMV = (
    "MOV GRF_A[A], HOST\n"
    "JUMP -1, 7\n"
    "MAC GRF_B[A], EVEN_BANK, GRF_A[A]\n"
    "JUMP -1, 7\n"
    "JUMP -4, {reps}\n"
    "MOV EVEN_BANK[A], GRF_B[A]\n"
    "JUMP -1, 7\n"
    "EXIT"
)
OUT_ROW = 3


def _gemv_window(chunks):
    """The GEMV kernel's window: per chunk 8 HOST bursts and 8 weight
    columns (32 to a row, rows 0..), then the write-out to ``OUT_ROW``."""
    triggers = []
    for chunk in range(chunks):
        triggers += [_wr(0, j, value=0.25 * (chunk - j)) for j in range(8)]
        triggers += [_rd(chunk // 4, 8 * (chunk % 4) + j) for j in range(8)]
    return triggers + [_wr(OUT_ROW, j) for j in range(8)]


def _kinds(entry):
    return [op.kind for op in entry.ops]


def _width(op):
    return op.out.stop - op.out.start


@pytest.mark.parametrize("bank_cls", [Bank, EccBank])
class TestLevelledReplay:
    """Each case runs on the units and fused, then pins the shape the
    compiler found."""

    def test_mac_chain_of_16_chunks_over_4_weight_rows(self, bank_cls):
        group, _ = _assert_twoway(
            GEMV.format(reps=15), _gemv_window(16), seed=1, bank_cls=bank_cls, cols=32
        )
        entry = _compiled(group)
        # One block per weight row; the 128 MOVs are nobody's op.
        assert [(op.bank[1], op.bank[3], len(op.bank[2])) for op in entry.fetches] == [
            (row, 0, 32) for row in range(4)
        ]
        assert _kinds(entry) == ["mul"] + ["add"] * 16 + ["store"]
        assert [_width(op) for op in entry.ops[:-1]] == [128] + [8] * 16
        assert [op.level for op in entry.ops] == list(range(2, 20))
        assert sorted(space.name for space, _, _ in entry.puts) == ["GRF_A", "GRF_B"]

    def test_fixed_register_mac_is_a_chain_of_depth_8_width_1(self, bank_cls):
        source = "MAC GRF_B[0], EVEN_BANK, SRF_M[0]\nJUMP -1, 7\nEXIT"
        group, _ = _assert_twoway(source, [_rd(0, c) for c in range(8)], bank_cls=bank_cls)
        entry = _compiled(group)
        assert _kinds(entry) == ["mul"] + ["add"] * 8
        assert [_width(op) for op in entry.ops] == [8] + [1] * 8
        # Non-AAM reads were single-column groups: a dirty block re-reads so.
        assert [op.bank[3:] for op in entry.fetches] == [(0, 1)]

    def test_register_reuse_orders_nothing_next_to_a_true_chain(self, bank_cls):
        # GRF_A[0] is rewritten between the two ADDs (WAW, and WAR against
        # the first ADD's read); only GRF_B[2] carries data from one to the other.
        source = (
            "MOV GRF_A[0], GRF_B[1]\n"
            "ADD GRF_B[2], GRF_A[0], GRF_B[2]\n"
            "MOV GRF_A[0], GRF_B[3]\n"
            "ADD GRF_B[2], GRF_A[0], GRF_B[2]\n"
            "MUL GRF_B[4], GRF_A[0], GRF_B[5]\n"
            "EXIT"
        )
        group, _ = _assert_twoway(source, [_rd(0, 0)] * 5, seed=2, bank_cls=bank_cls)
        ops = _compiled(group).ops
        assert [(op.kind, op.level) for op in ops] == [("mul", 1), ("add", 1), ("add", 2)]

    def test_register_written_twice_keeps_the_second_value(self, bank_cls):
        source = "MOV GRF_A[0], GRF_B[1]\nMOV GRF_A[0], GRF_B[2]\nEXIT"
        group, _ = _assert_twoway(source, [_rd(0, 0)] * 2, seed=3, bank_cls=bank_cls)
        entry = _compiled(group)
        assert entry.ops == () and entry.fetches == ()
        ((space, regs, _),) = entry.puts
        assert (space.name, list(regs)) == ("GRF_A", [0])
        unit = group.units[0]
        assert unit.regs.grf_a[0].tobytes() == unit.regs.grf_b[2].tobytes()

    def test_register_read_before_the_window_writes_it(self, bank_cls):
        source = (
            "ADD GRF_B[0], GRF_A[0], GRF_A[1]\n"
            "MOV GRF_A[0], GRF_B[5]\n"
            "ADD GRF_B[1], GRF_A[0], GRF_A[1]\n"
            "EXIT"
        )
        _assert_twoway(source, [_rd(0, 0)] * 3, seed=4, bank_cls=bank_cls)

    @pytest.mark.parametrize(
        "source, triggers, kinds",
        [
            (  # written, then read: the read follows the store, not the fetches
                "MOV EVEN_BANK, GRF_A[1]\nFILL GRF_B[2], EVEN_BANK\nEXIT",
                [_wr(1, 3), _rd(1, 3)],
                ["store", "load"],
            ),
            (  # read, then written: the fetch sees the old column
                "FILL GRF_B[2], EVEN_BANK\nMOV EVEN_BANK, GRF_A[1]\nEXIT",
                [_rd(1, 3), _wr(1, 3)],
                ["store"],
            ),
            (  # written twice: two stores, in tape order
                "MOV EVEN_BANK, GRF_A[1]\nMOV EVEN_BANK, GRF_A[2]\nEXIT",
                [_wr(1, 3), _wr(1, 3)],
                ["store", "store"],
            ),
            (  # written, read back, combined and written again
                "MOV EVEN_BANK, GRF_A[1]\n"
                "ADD GRF_B[2], EVEN_BANK, GRF_A[3]\n"
                "MOV EVEN_BANK, GRF_B[2]\nEXIT",
                [_wr(1, 3), _rd(1, 3), _wr(1, 3)],
                ["store", "load", "add", "store"],
            ),
        ],
    )
    def test_bank_locations_keep_tape_order(self, bank_cls, source, triggers, kinds):
        group, _ = _assert_twoway(source, triggers, seed=5, bank_cls=bank_cls)
        ops = _compiled(group).ops
        assert [op.kind for op in ops] == kinds
        assert [op.level for op in ops] == sorted(op.level for op in ops)
        assert len({op.level for op in ops}) == len(ops)

    def test_batch_norm_mad_with_both_scalar_files(self, bank_cls):
        source = (
            "MAD GRF_B[A], EVEN_BANK, SRF_M[A], SRF_A[A]\n"
            "JUMP -1, 7\n"
            "MOV EVEN_BANK[A], GRF_B[A]\n"
            "JUMP -1, 7\n"
            "EXIT"
        )
        triggers = [_rd(1, c) for c in range(8)] + [_wr(2, c) for c in range(8)]
        group, _ = _assert_twoway(source, triggers, seed=6, bank_cls=bank_cls)
        assert _kinds(_compiled(group)) == ["mul", "add", "store"]

    def test_mov_relu_is_a_producer(self, bank_cls):
        source = (
            "MOV(RELU) GRF_A[A], EVEN_BANK\n"
            "JUMP -1, 7\n"
            "ADD GRF_B[A], GRF_A[A], ODD_BANK\n"
            "JUMP -1, 7\n"
            "MOV(RELU) ODD_BANK[A], GRF_B[A]\n"
            "JUMP -1, 7\n"
            "EXIT"
        )
        triggers = (
            [_rd(1, c) for c in range(8)]
            + [_rd(2, c) for c in range(8)]
            + [_wr(3, c) for c in range(8)]
        )
        group, _ = _assert_twoway(source, triggers, seed=7, bank_cls=bank_cls)
        assert _kinds(_compiled(group)) == ["relu", "add", "relu", "store"]

    def test_host_bursts_land_block_by_block(self, bank_cls):
        """The HOST operand is compiled per write block: a burst's rows and
        a single write's column each go straight to their pool slots."""
        triggers = _gemv_window(4)
        tape = []
        for chunk in range(4):
            writes, reads = triggers[16 * chunk : 16 * chunk + 8], triggers[16 * chunk + 8 : 16 * chunk + 16]
            tape += ([_burst(writes)] if chunk % 2 == 0 else writes) + [_burst(reads)]
        tape.append(_burst(triggers[64:]))
        group, _ = _assert_twoway(GEMV.format(reps=3), tape, seed=2, bank_cls=bank_cls, cols=32)
        host = _compiled(group).host
        # Blocks: chunk 0's burst, chunk 1's 8 singles, chunk 2's burst,
        # chunk 3's singles; the write-out's burst feeds no HOST operand.
        assert [block for block, _, _ in host] == list(range(18))
        bursts = [rows for block, _, rows in host if block in (0, 9)]
        assert bursts == [(slice(0, 8), None)] * 2
        assert all(rows is None for block, _, rows in host if block not in (0, 9))

    def test_how_the_host_bursts_arrived_is_in_the_key(self, bank_cls):
        """The same window as bursts and as single commands is two traces —
        the HOST operand reads block by block — and each replays as the
        units run it."""
        triggers = _gemv_window(2)
        bursts = [_burst(triggers[i : i + 8]) for i in range(0, len(triggers), 8)]
        fused = _build_fused(4, bank_cls=bank_cls, cols=16)
        units = _build_group(4, bank_cls=bank_cls, cols=16)
        for tape in (bursts, triggers, bursts, triggers):
            for group in (fused, units):
                _program(group, GEMV.format(reps=1))
                assert _run_window(group, tape) is None
            assert _snapshot(fused) == _snapshot(units)
        assert (len(fused.cache), fused.cache.stats.hits) == (2, 2)

    def test_a_split_at_every_trigger_is_invisible(self, bank_cls):
        source, triggers = GEMV.format(reps=1), _gemv_window(2)
        whole = _build_fused(8, bank_cls=bank_cls, cols=16)
        _program(whole, source)
        assert _run_window(whole, triggers) is None
        for split in range(1, len(triggers)):
            parts = _build_fused(8, bank_cls=bank_cls, cols=16)
            _program(parts, source)
            assert _run_window(parts, triggers[:split]) is None
            assert _run_window(parts, triggers[split:]) is None
            assert _snapshot(parts) == _snapshot(whole), f"split at {split}"


class TestLevelledReplayUnderFaults:
    """Merged weight rows meet stored faults as the separate reads did."""

    def test_correctable_words_in_one_weight_row_count_alike(self):
        def mutate(group):
            group.units[2].even_bank.inject_error(0, 19, bit=7)
            group.units[5].even_bank.inject_error(0, 3, bit=130)
            group.units[5].even_bank.inject_check_error(1, 30, word=1, bit=2)

        _, outcome = _assert_twoway(
            GEMV.format(reps=7), _gemv_window(8), seed=9, bank_cls=EccBank,
            mutate=mutate, cols=32,
        )
        assert outcome is None  # ... and the snapshots held every EccStats counter

    @pytest.mark.parametrize("bad_unit, bad_col, good_unit, good_col", [
        (5, 3, 2, 19),  # the uncorrectable word in the row's first chunk
        (2, 19, 5, 3),  # ... behind a correctable one
        (6, 21, 1, 17),  # both in one chunk, the correctable one in a lower bank
    ])
    def test_first_exception_is_identical(self, bad_unit, bad_col, good_unit, good_col):
        def mutate(group):
            group.units[good_unit].even_bank.inject_error(0, good_col, bit=7)
            for bit in (64, 69):  # two flips in one word
                group.units[bad_unit].even_bank.inject_error(0, bad_col, bit=bit)

        _, outcome = _assert_twoway(
            GEMV.format(reps=7), _gemv_window(8), seed=9, bank_cls=EccBank,
            mutate=mutate, cols=32,
        )
        assert outcome == (
            "UncorrectableError", f"double-bit error at row 0 col {bad_col} word 1"
        )

    def test_uncorrectable_word_aborts_the_window_before_any_write(self):
        """ROADMAP 6(d): the raise comes at the window's flush, and GRF_B
        and the out row are what they were at window entry — although the
        bad word belongs to the *last* chunk."""
        group = _build_fused(10, bank_cls=EccBank, cols=32)
        _program(group, GEMV.format(reps=15))
        for bit in (3, 11):
            group.units[4].even_bank.inject_error(3, 31, bit=bit)

        def state():
            return [
                (
                    unit.regs.grf_a.tobytes(),
                    unit.regs.grf_b.tobytes(),
                    unit.even_bank._row_array(OUT_ROW).tobytes(),
                    unit.even_bank.ecc_stats.words_encoded,
                )
                for unit in group.units
            ]

        triggers = _gemv_window(16)
        # The kernel's own layout: the write-out shares the last weight row.
        assert triggers[-9].row == OUT_ROW and triggers[-1].row == OUT_ROW
        before = state()
        for trig in triggers:
            group.trigger_all(trig)  # buffered: nothing can raise here
        assert state() == before
        with pytest.raises(UncorrectableError, match="row 3 col 31 word 0"):
            group.flush_pending()
        assert state() == before
        assert group.fused_replays == 0 and group.fused_fallbacks == 0


# -- randomized two-way differential (hypothesis) -------------------------------


class TestRandomizedTwoWay:
    @settings(max_examples=30, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=24),
        seed=st.integers(0, 2**16),
    )
    def test_fused_equals_the_units(self, source, triggers, seed):
        _assert_twoway(source, triggers, seed=seed)

    @settings(max_examples=15, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_fused_equals_the_units_ecc(self, source, triggers, seed):
        _assert_twoway(source, triggers, seed=seed, bank_cls=EccBank)

    @settings(max_examples=15, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
        unit=st.integers(0, NUM_UNITS - 1),
        entry=st.integers(0, 6),
        bit=st.integers(0, 31),
    )
    def test_fused_equals_the_units_with_crf_fault(
        self, source, triggers, seed, unit, entry, bit
    ):
        def mutate(group):
            group.units[unit].regs.flip_bit("crf", entry, bit)

        _assert_twoway(source, triggers, seed=seed, mutate=mutate)

    @settings(max_examples=10, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=16),
        seed=st.integers(0, 2**16),
        split=st.integers(1, 15),
    )
    def test_window_split_is_invisible(self, source, triggers, seed, split):
        """Flushing mid-stream (a register access landing mid-window) must
        not change any observable state versus one unbroken window."""
        whole = _build_fused(seed)
        parts = _build_fused(seed)
        _program(whole, source)
        _program(parts, source)

        def run_split(group):
            for trig in triggers[:split]:
                group.trigger_all(trig)
            group.flush_pending()
            for trig in triggers[split:]:
                group.trigger_all(trig)
            group.flush_pending()
            return None

        def run_whole(group):
            for trig in triggers:
                group.trigger_all(trig)
            group.flush_pending()
            return None

        exc_w = exc_p = None
        try:
            run_whole(whole)
        except Exception as exc:
            exc_w = (type(exc).__name__, str(exc))
        try:
            run_split(parts)
        except Exception as exc:
            exc_p = (type(exc).__name__, str(exc))
        assert exc_w == exc_p
        if exc_w is None:
            assert _snapshot(whole) == _snapshot(parts)


class TestFp16Specials:
    """Signed zeros, subnormals, infinities, NaNs and operands whose product
    or sum overflows, in the banks, the registers and the HOST bursts: the
    replay's bytes are the units' bytes, NaN payloads included (both are
    NumPy float16 arithmetic).  Overflow and invalid-operation warnings are
    silenced on both sides alike."""

    @settings(max_examples=20, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_special_trigger, min_size=1, max_size=24),
        seed=st.integers(0, 2**16),
    )
    def test_fused_equals_the_units(self, source, triggers, seed):
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_twoway(source, triggers, seed=seed, values=_specials)

    @pytest.mark.parametrize("bank_cls", [Bank, EccBank])
    def test_a_gemv_window_overflows_alike(self, bank_cls):
        """A MAC chain of 16 chunks whose HOST operands are 300s and
        infinities: products and partial sums pass 65504."""
        triggers = []
        for chunk in range(16):
            lanes = np.full(LANES, 300.0 if chunk % 3 else np.inf, dtype=np.float16)
            lanes[chunk % LANES] = -0.0
            triggers += [ColumnTrigger(True, 0, j, lanes.view(np.uint8)) for j in range(8)]
            triggers += [_rd(chunk // 4, 8 * (chunk % 4) + j) for j in range(8)]
        triggers += [_wr(OUT_ROW, j) for j in range(8)]
        with np.errstate(over="ignore", invalid="ignore"):
            group, outcome = _assert_twoway(
                GEMV.format(reps=15), triggers, seed=9, bank_cls=bank_cls, cols=32,
                values=_specials,
            )
        assert outcome is None and group.fused_replays == 1
        sums = group.stacked.grf_b
        assert np.isinf(sums).any() and np.isnan(sums).any()

    def test_relu_of_negative_zero_and_negative_nan_is_positive_zero(self):
        lanes = np.array([-0.0, -np.nan, np.nan, -np.inf, np.inf, -1e-7] * 3, np.float16)[:LANES]
        source = "MOV GRF_A[A], HOST\nJUMP -1, 7\nMOV(RELU) GRF_B[A], GRF_A[A]\nJUMP -1, 7\nEXIT"
        triggers = [ColumnTrigger(True, 0, j, lanes.view(np.uint8)) for j in range(8)]
        triggers += [_rd(0, j) for j in range(8)]
        group, _ = _assert_twoway(source, triggers)
        bits = group.stacked.grf_b.view(np.uint16)
        want = np.where(lanes.view(np.uint16) >> 15 != 0, 0, lanes.view(np.uint16))
        assert (bits == want).all()


# -- end-to-end: ops x shapes x channel subsets x exec modes --------------------


def _system(mode, **overrides):
    from repro.stack.runtime import PimSystem, SystemConfig

    return PimSystem(
        SystemConfig.fast_functional(ecc=True, exec_mode=mode, **overrides)
    )


def _run_op_suite(mode, trace=False):
    """gemv/add/mul/relu/bn/lstm_cell across shapes and channel subsets."""
    from repro.stack.blas import PimBlas

    # Every channel simulated: the suite compares all units' statistics.
    system = _system(mode, trace=trace, simulate_pchs=None)
    blas = PimBlas(system)
    rng = np.random.default_rng(99)
    out = []
    for m, n in ((24, 32), (48, 64)):
        w = (rng.standard_normal((m, n)) * 0.25).astype(np.float16)
        x = (rng.standard_normal(n) * 0.25).astype(np.float16)
        out.append(blas.gemv(w, x).tobytes())
    for length in (96, 192):
        a = (rng.standard_normal(length) * 0.25).astype(np.float16)
        b = (rng.standard_normal(length) * 0.25).astype(np.float16)
        out.append(blas.add(a, b).tobytes())
        out.append(blas.mul(a, b).tobytes())
        out.append(blas.relu(a).tobytes())
        out.append(blas.bn(a, 1.5, -0.25).tobytes())
    # Channel subsets: the same operator pinned to different channels.
    for channels in ((0,), (1, 2)):
        kern = system.executor.elementwise_operator(
            "add", 96, channels=channels
        )
        a = (rng.standard_normal(96) * 0.25).astype(np.float16)
        b = (rng.standard_normal(96) * 0.25).astype(np.float16)
        out.append(kern(a, b)[0].tobytes())
    # LSTM cell: two PIM GEMVs + host nonlinearities.
    h_dim, x_dim = 16, 24
    w_ih = (rng.standard_normal((4 * h_dim, x_dim)) * 0.2).astype(np.float16)
    w_hh = (rng.standard_normal((4 * h_dim, h_dim)) * 0.2).astype(np.float16)
    bias = (rng.standard_normal(4 * h_dim) * 0.2).astype(np.float16)
    xv = (rng.standard_normal(x_dim) * 0.2).astype(np.float16)
    hv = (rng.standard_normal(h_dim) * 0.2).astype(np.float16)
    cv = (rng.standard_normal(h_dim) * 0.2).astype(np.float16)
    h1, c1 = blas.lstm_cell(w_ih, w_hh, bias, xv, hv, cv)
    out.append(h1.tobytes())
    out.append(c1.tobytes())
    unit_stats = [
        vars(u.stats).copy() for ch in system.device.pchs for u in ch.units
    ]
    ecc_stats = [
        vars(bk.ecc_stats).copy() for ch in system.device.pchs for bk in ch.banks
    ]
    counters = system.metrics.render() if trace else None
    return out, unit_stats, ecc_stats, counters, system


class TestEndToEndTwoWay:
    def test_ops_bit_exact_across_modes(self):
        base, fused = _run_op_suite("scalar"), _run_op_suite("fused")
        assert fused[0] == base[0], "fused results diverged"
        assert fused[1] == base[1], "fused unit stats diverged"
        assert fused[2] == base[2], "fused ecc stats diverged"
        assert sum(ch.lockstep.fused_replays for ch in fused[4].device.pchs) > 0

    def test_profile_counters_and_span_trees_identical(self):
        from ..reference.span_trees import diff_span_trees

        base = _run_op_suite("scalar", trace=True)
        fused = _run_op_suite("fused", trace=True)
        assert fused[3] == base[3], "fused metrics counters diverged"
        diff = diff_span_trees(base[4].tracer, fused[4].tracer)
        assert diff is None, f"fused span tree diverged: {diff}"

    def test_shed_overload_bit_exact(self):
        """Fused must stay bit-exact when the server sheds load mid-run."""
        from repro.stack.api import Request, ServerConfig
        from repro.stack.runtime import PimSystem, SystemConfig
        from repro.stack.server import PimServer

        def run(mode):
            system = PimSystem(
                SystemConfig(
                    num_pchs=4, num_rows=256, simulate_pchs=1, exec_mode=mode
                )
            )
            rng = np.random.default_rng(17)
            a = (rng.standard_normal(128) * 0.25).astype(np.float16)
            b = (rng.standard_normal(128) * 0.25).astype(np.float16)
            cfg = ServerConfig(
                lanes=1, max_batch=4, queue_depth=2, admission="shed"
            )
            with PimServer(system, cfg) as srv:
                handles = [
                    srv.submit(Request("add", a=a, b=b, arrival_ns=0.0))
                    for _ in range(6)
                ]
                profile = srv.run()
            outcomes = [h.outcome for h in handles]
            results = [
                h.result.tobytes() for h in handles if h.result is not None
            ]
            return outcomes, results, profile.rejected

        base = run("scalar")
        fused = run("fused")
        assert fused[0] == base[0], "outcomes diverged under shed overload"
        assert fused[1] == base[1], "results diverged under shed overload"
        assert base[2] > 0 and fused[2] == base[2]  # shed path engaged

    @pytest.mark.parametrize("mode", ["warp", "lockstep"])
    def test_unknown_exec_mode_rejected(self, mode):
        from repro.stack.runtime import SystemConfig

        with pytest.raises(ValueError, match='exec_mode .*"fused" or "scalar"'):
            SystemConfig(exec_mode=mode)


# -- the counts the replay's cost rests on, made by the compiler -----------------


class TestCompiledPlanCounts:
    """What a resident operator's window compiles to on each pCH of
    ``SystemConfig(simulate_pchs=None)`` (every channel simulated).  The
    hazard-group replay this compiler replaced ran the GEMV slice-tile as
    33 groups (16 MOV, 16 MAC, the write-out), add as 3 and relu as 2."""

    @staticmethod
    def _traces(run):
        from collections import Counter

        from repro.stack.blas import PimBlas
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(simulate_pchs=None))
        run(PimBlas(system), np.random.default_rng(23))
        cache = system._trace_cache
        entries = [cache.get(key) for key in cache.keys()]
        assert entries and not any(entry.poisoned for entry in entries)
        return [
            (Counter(op.kind for op in entry.ops), len(entry.fetches), entry)
            for entry in entries
        ]

    def test_gemv_128x512_slice_tile(self):
        def run(blas, rng):
            w = (rng.standard_normal((128, 512)) * 0.25).astype(np.float16)
            blas.gemv(w, (rng.standard_normal(512) * 0.25).astype(np.float16))

        for kinds, fetches, entry in self._traces(run):
            assert entry.stat_deltas[0] == 264  # 128 MOVs, 128 MACs, 8 write-outs
            assert kinds == {"mul": 1, "add": 16, "store": 1}  # the MOVs: no op
            assert 1 <= fetches <= 4  # one block per weight row
            assert len(entry.puts) == 2

    def test_elementwise_windows_are_no_longer_than_their_groups_were(self):
        def add(blas, rng):
            a = (rng.standard_normal(4096) * 0.25).astype(np.float16)
            blas.add(a, a)

        def relu(blas, rng):
            blas.relu((rng.standard_normal(2048) * 0.25).astype(np.float16))

        for run, groups_before in ((add, 3), (relu, 2)):
            for kinds, _, _ in self._traces(run):
                assert sum(kinds.values()) <= groups_before
