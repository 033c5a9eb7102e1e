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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank
from repro.dram.ecc import EccBank
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


def _build_fused(seed: int, bank_cls=Bank) -> FusedLockstepGroup:
    base = _build_group(seed, enabled=True, bank_cls=bank_cls)
    return FusedLockstepGroup(base.units)


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


def _assert_threeway(source, triggers, seed=0, bank_cls=Bank, mutate=None):
    groups = {
        "scalar": _build_group(seed, enabled=False, bank_cls=bank_cls),
        "lockstep": _build_group(seed, enabled=True, bank_cls=bank_cls),
        "fused": _build_fused(seed, bank_cls=bank_cls),
    }
    outcomes = {}
    for name, group in groups.items():
        _program(group, source)
        if mutate is not None:
            mutate(group)
        outcomes[name] = _run_window(group, triggers)
    assert outcomes["scalar"] == outcomes["lockstep"] == outcomes["fused"]
    if outcomes["scalar"] is not None:
        return  # post-error state is documented as unspecified
    snap = _snapshot(groups["scalar"])
    assert _snapshot(groups["lockstep"]) == snap, "lockstep diverged from scalar"
    assert _snapshot(groups["fused"]) == snap, "fused diverged from scalar"


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
