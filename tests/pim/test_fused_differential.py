"""Three-way differential: trace-compiled fused vs lock-step vs scalar.

The fused executor (:mod:`repro.pim.fused`) must be *indistinguishable*
from both always-available oracles — the lock-step interpreter and the
per-unit scalar loop — wherever results are observable: bit-identical
register/bank bytes, identical ``UnitStats`` and ECC counters, identical
profile counters, and identical span trees (``diff_span_trees`` names the
first divergence on failure), across hand-written and randomized
microkernels, random shapes and channel subsets, and under injected CRF
faults and shed overload.

The one deliberate exception is exception *surfacing*: the fused group
defers triggers within an AB-PIM window, so an error the interpreter
raises at trigger N surfaces at the window flush instead (documented in
:mod:`repro.pim.fused`).  Error-path cases therefore compare the first
raised exception and stop — both post-error states are garbage the
self-healing layer discards.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank
from repro.dram.ecc import EccBank, UncorrectableError
from repro.pim.fused import FusedLockstepGroup, TraceCache
from repro.pim.lockstep import LockstepGroup

from tests.pim.test_lockstep import (
    NUM_UNITS,
    _build_group,
    _microkernel,
    _program,
    _rd,
    _snapshot,
    _trigger,
    _wr,
)


def _build_fused(seed: int, bank_cls=Bank, cols: int = 8) -> FusedLockstepGroup:
    base = _build_group(seed, enabled=True, bank_cls=bank_cls, cols=cols)
    return FusedLockstepGroup(base.units)


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


def _assert_threeway(source, triggers, seed=0, bank_cls=Bank, mutate=None, cols=8):
    """Run one window three ways; returns the fused group (for its plan)
    and the common outcome."""
    groups = {
        "scalar": _build_group(seed, enabled=False, bank_cls=bank_cls, cols=cols),
        "lockstep": _build_group(seed, enabled=True, bank_cls=bank_cls, cols=cols),
        "fused": _build_fused(seed, bank_cls=bank_cls, cols=cols),
    }
    outcomes = {}
    for name, group in groups.items():
        _program(group, source)
        if mutate is not None:
            mutate(group)
        outcomes[name] = _run_window(group, triggers)
    assert outcomes["scalar"] == outcomes["lockstep"] == outcomes["fused"]
    if outcomes["scalar"] is None:  # post-error state is documented as unspecified
        snap = _snapshot(groups["scalar"])
        assert _snapshot(groups["lockstep"]) == snap, "lockstep diverged from scalar"
        assert _snapshot(groups["fused"]) == snap, "fused diverged from scalar"
    return groups["fused"], outcomes["fused"]


# -- hand-written windows covering each structural feature ----------------------


class TestFusedMicrokernels:
    def test_gemv_style_mac_loop_replays_fused(self):
        source = "MAC GRF_B[A], EVEN_BANK, SRF_M[A]\nJUMP -1, 7\nEXIT"
        triggers = [_rd(row=0, col=c) for c in range(8)]
        _assert_threeway(source, triggers)

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
        _assert_threeway(source, triggers)

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
        _assert_threeway(source, triggers)

    def test_fixed_register_mac_accumulates_sequentially(self):
        # Non-AAM MAC: every trigger reads and writes GRF_B[0], so the
        # hazard rule must split the run into singletons (fused grouping
        # would break sequential FP16 accumulation).
        source = "MAC GRF_B[0], EVEN_BANK, SRF_M[0]\nJUMP -1, 7\nEXIT"
        triggers = [_rd(0, c) for c in range(8)]
        _assert_threeway(source, triggers)

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
        _assert_threeway(source, triggers)

    def test_multi_cycle_nop_inside_window(self):
        source = "NOP 3\nMOV GRF_A[2], GRF_B[3]\nNOP 2\nEXIT"
        _assert_threeway(source, [_rd(0, 0)] * 7)

    def test_surplus_triggers_after_exit(self):
        source = "MOV GRF_A[0], GRF_B[0]\nEXIT"
        _assert_threeway(source, [_rd(0, 0)] * 5)

    def test_wrong_trigger_kind_raises_identically(self):
        # WR trigger against a bank-read program: the tape compiles
        # poisoned and the interpreted fallback raises the scalar loop's
        # exact PimProgramError.
        source = "FILL GRF_A[0], EVEN_BANK\nEXIT"
        _assert_threeway(source, [_wr(0, 0)])

    def test_ecc_banks_identical_counters(self):
        source = (
            "FILL GRF_A[A], EVEN_BANK\n"
            "JUMP -1, 7\n"
            "MOV ODD_BANK, GRF_A[A]\n"
            "JUMP -1, 7\n"
            "EXIT"
        )
        triggers = [_rd(0, c) for c in range(8)] + [_wr(1, c) for c in range(8)]
        _assert_threeway(source, triggers, bank_cls=EccBank)

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

        _assert_threeway(source, [_rd(0, 0)] * 3, mutate=mutate)

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

        _assert_threeway(source, [_rd(0, 0)] * 4, mutate=mutate)


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
    """Each case runs three ways, then pins the shape the compiler found."""

    def test_mac_chain_of_16_chunks_over_4_weight_rows(self, bank_cls):
        group, _ = _assert_threeway(
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
        group, _ = _assert_threeway(source, [_rd(0, c) for c in range(8)], bank_cls=bank_cls)
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
        group, _ = _assert_threeway(source, [_rd(0, 0)] * 5, seed=2, bank_cls=bank_cls)
        ops = _compiled(group).ops
        assert [(op.kind, op.level) for op in ops] == [("mul", 1), ("add", 1), ("add", 2)]

    def test_register_written_twice_keeps_the_second_value(self, bank_cls):
        source = "MOV GRF_A[0], GRF_B[1]\nMOV GRF_A[0], GRF_B[2]\nEXIT"
        group, _ = _assert_threeway(source, [_rd(0, 0)] * 2, seed=3, bank_cls=bank_cls)
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
        _assert_threeway(source, [_rd(0, 0)] * 3, seed=4, bank_cls=bank_cls)

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
        group, _ = _assert_threeway(source, triggers, seed=5, bank_cls=bank_cls)
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
        group, _ = _assert_threeway(source, triggers, seed=6, bank_cls=bank_cls)
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
        group, _ = _assert_threeway(source, triggers, seed=7, bank_cls=bank_cls)
        assert _kinds(_compiled(group)) == ["relu", "add", "relu", "store"]

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

        _, outcome = _assert_threeway(
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

        _, outcome = _assert_threeway(
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


# -- randomized three-way differential (hypothesis) -----------------------------


class TestRandomizedThreeWay:
    @settings(max_examples=30, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=24),
        seed=st.integers(0, 2**16),
    )
    def test_fused_equals_both_oracles(self, source, triggers, seed):
        _assert_threeway(source, triggers, seed=seed)

    @settings(max_examples=15, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_fused_equals_both_oracles_ecc(self, source, triggers, seed):
        _assert_threeway(source, triggers, seed=seed, bank_cls=EccBank)

    @settings(max_examples=15, deadline=None)
    @given(
        source=_microkernel(),
        triggers=st.lists(_trigger, min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
        unit=st.integers(0, NUM_UNITS - 1),
        entry=st.integers(0, 6),
        bit=st.integers(0, 31),
    )
    def test_fused_equals_oracles_with_crf_fault(
        self, source, triggers, seed, unit, entry, bit
    ):
        def mutate(group):
            group.units[unit].regs.flip_bit("crf", entry, bit)

        _assert_threeway(source, triggers, seed=seed, mutate=mutate)

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


# -- end-to-end: ops x shapes x channel subsets x exec modes --------------------


def _system(mode, **overrides):
    from repro.stack.runtime import PimSystem, SystemConfig

    return PimSystem(
        SystemConfig.fast_functional(ecc=True, exec_mode=mode, **overrides)
    )


def _run_op_suite(mode, trace=False):
    """gemv/add/mul/relu/bn/lstm_cell across shapes and channel subsets."""
    from repro.stack.blas import PimBlas

    system = _system(mode, trace=trace)
    blas = PimBlas(system)
    rng = np.random.default_rng(99)
    out = []
    for m, n in ((24, 32), (48, 64)):
        w = (rng.standard_normal((m, n)) * 0.25).astype(np.float16)
        x = (rng.standard_normal(n) * 0.25).astype(np.float16)
        y, _ = blas.gemv(w, x)
        out.append(y.tobytes())
    for length in (96, 192):
        a = (rng.standard_normal(length) * 0.25).astype(np.float16)
        b = (rng.standard_normal(length) * 0.25).astype(np.float16)
        out.append(blas.add(a, b)[0].tobytes())
        out.append(blas.mul(a, b)[0].tobytes())
        out.append(blas.relu(a)[0].tobytes())
        out.append(blas.bn(a, 1.5, -0.25)[0].tobytes())
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
    h1, c1 = blas.lstm_cell(w_ih, w_hh, bias, xv, hv, cv)[:2]
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


class TestEndToEndThreeWay:
    def test_ops_bit_exact_across_modes(self):
        results = {m: _run_op_suite(m) for m in ("scalar", "lockstep", "fused")}
        base = results["lockstep"]
        for mode in ("scalar", "fused"):
            got = results[mode]
            assert got[0] == base[0], f"{mode} results diverged"
            assert got[1] == base[1], f"{mode} unit stats diverged"
            assert got[2] == base[2], f"{mode} ecc stats diverged"
        fused_system = results["fused"][4]
        assert sum(
            ch.lockstep.fused_replays for ch in fused_system.device.pchs
        ) > 0

    def test_profile_counters_and_span_trees_identical(self):
        from repro.obs.export import diff_span_trees

        base = _run_op_suite("lockstep", trace=True)
        fused = _run_op_suite("fused", trace=True)
        scalar = _run_op_suite("scalar", trace=True)
        assert fused[3] == base[3], "fused metrics counters diverged"
        assert scalar[3] == base[3], "scalar metrics counters diverged"
        diff = diff_span_trees(base[4].tracer, fused[4].tracer)
        assert diff is None, f"fused span tree diverged: {diff}"
        diff = diff_span_trees(base[4].tracer, scalar[4].tracer)
        assert diff is None, f"scalar span tree diverged: {diff}"

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

        base = run("lockstep")
        fused = run("fused")
        assert fused[0] == base[0], "outcomes diverged under shed overload"
        assert fused[1] == base[1], "results diverged under shed overload"
        assert base[2] > 0 and fused[2] == base[2]  # shed path engaged

    def test_unknown_exec_mode_rejected(self):
        from repro.stack.runtime import SystemConfig

        import pytest

        with pytest.raises(ValueError, match="exec_mode"):
            SystemConfig(exec_mode="warp")


# -- the counts the replay's cost rests on, made by the compiler -----------------


class TestCompiledPlanCounts:
    """What a resident operator's window compiles to on one pCH of
    ``SystemConfig(simulate_pchs=1)``.  PR 23 replayed the GEMV slice-tile
    as 33 hazard groups (16 MOV, 16 MAC, the write-out), add as 3 and relu
    as 2."""

    @staticmethod
    def _traces(run):
        from collections import Counter

        from repro.stack.blas import PimBlas
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(simulate_pchs=1))
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
