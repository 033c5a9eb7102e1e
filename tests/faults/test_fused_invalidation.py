"""Fault x fused-executor interactions: no stale compiled-trace replay.

The compiled-trace cache is content-keyed (sequencer entry state, every
CRF word and the window's pattern are *in* the key), so a corrupted
program can never replay a stale trace, and no fault drops an entry: a
trace holds no channel and no row, so the entries a faulty channel used
serve the healthy ones, and the LRU bound keeps the cache small.  These
tests drive the public fault paths (:meth:`FaultInjector.corrupt_registers`,
:meth:`FaultInjector.fail_channel`, driver quarantine) and assert the end
that matters: the cache keeps its entries, the next launch after the
fault hits where the program is the one compiled, and results, raises
included, stay bit-identical to the scalar oracle under the same fault
sequence, including across a scrub/heal cycle.  The miss a CRF upset
causes before its reload is pinned at the exec group, where the upset
program can run
(``tests/pim/test_trace_cache.py::TestContentKeys::test_a_crf_upset_misses_and_its_reload_hits``).
"""

import numpy as np

from repro.errors import PimChannelError
from repro.faults import FaultConfig, FaultInjector
from repro.stack.blas import PimBlas, add_reference
from repro.stack.runtime import PimSystem, SystemConfig


def _system(mode="fused", **overrides):
    return PimSystem(
        SystemConfig(num_pchs=2, num_rows=128, ecc=True, exec_mode=mode, **overrides)
    )


def _rand(length, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(length) * 0.25).astype(np.float16)


def _warm(system, seed=5):
    """Run one elementwise op to compile traces; returns (a, b, result)."""
    blas = PimBlas(system)
    a, b = _rand(96, seed), _rand(96, seed + 1)
    return a, b, blas.add(a, b)


class TestCrfUpset:
    def test_the_reload_after_a_crf_upset_hits(self):
        """A CRF upset drops nothing; the next launch loads the CRF again
        and replays the traces compiled before it — bit-identical to the
        scalar oracle under the same seeded upsets."""

        def run(mode):
            system = _system(mode)
            a, b, _ = _warm(system)
            cache = system._trace_cache
            before = None if cache is None else (cache.keys(), cache.stats.compiles)
            injector = FaultInjector(system, FaultConfig(register_fault_rate=1.0, seed=2))
            injector.corrupt_registers()
            assert injector.stats.crf_faults > 0  # seed 2 strikes a CRF
            if cache is not None:
                assert (cache.keys(), cache.stats.compiles) == before
            hits = None if cache is None else cache.stats.hits
            out = PimBlas(system).add(a, b)
            if cache is not None:
                assert cache.stats.compiles == before[1] and cache.stats.hits > hits
            return out.tobytes()

        assert run("fused") == run("scalar")

    def test_no_stale_replay_after_crf_upset(self):
        """After a CRF upset the driver re-broadcasts; the next run must
        compile the fresh program, never replay the corrupted window."""
        system = _system()
        a, b, _ = _warm(system)
        injector = FaultInjector(
            system, FaultConfig(register_fault_rate=1.0, seed=2)
        )
        injector.corrupt_registers()
        assert injector.stats.crf_faults > 0
        out = PimBlas(system).add(a, b)
        assert np.array_equal(out, add_reference(a, b))

    def test_fused_matches_scalar_under_identical_fault_sequence(self):
        """The differential invariant survives faults: two systems fed the
        same seeded CRF/GRF/SRF upsets produce identical bytes."""

        def run(mode):
            system = _system(mode)
            blas = PimBlas(system)
            a, b = _rand(96, 31), _rand(96, 32)
            injector = FaultInjector(
                system, FaultConfig(register_fault_rate=0.5, seed=9)
            )
            outs = []
            for _ in range(3):
                outs.append(blas.add(a, b).tobytes())
                injector.corrupt_registers()
            return outs, injector.stats.register_faults

        base = run("scalar")
        fused = run("fused")
        assert fused[1] == base[1] > 0  # identical seeded fault sequence
        assert fused[0] == base[0], "fused diverged under register faults"


class TestChannelFailure:
    def test_a_failed_channel_raises_as_the_units_do(self):
        """Failing channel 1 drops no trace, and the traces both channels
        replayed never run there again: the launch raises what the scalar
        oracle raises."""

        def run(mode):
            system = _system(mode)
            a, b, _ = _warm(system)
            cache = system._trace_cache
            keys = None if cache is None else cache.keys()
            group = system.device.pch(1).lockstep
            replays = getattr(group, "fused_replays", None)
            FaultInjector(system, FaultConfig()).fail_channel(1)
            try:
                PimBlas(system).add(a, b)
            except PimChannelError as exc:
                raised = str(exc)
            else:
                raised = None
            if cache is not None:
                assert cache.keys() == keys and group.fused_replays == replays
            return raised

        raised = run("fused")
        assert raised is not None and raised == run("scalar")

    def test_quarantine_leaves_the_traces(self):
        system = _system()
        a, b, _ = _warm(system)
        cache = system._trace_cache
        keys, compiles = cache.keys(), cache.stats.compiles
        lease = system.driver.alloc_channels(1)
        system.driver.quarantine_channels(tuple(lease))
        assert cache.keys() == keys
        assert np.array_equal(PimBlas(system).add(a, b), add_reference(a, b))
        assert cache.stats.compiles == compiles


class TestScrubHealBitExact:
    def test_fused_bit_exact_across_inject_scrub_heal_cycle(self):
        """Single-bit storage errors land on live rows, the scrubber
        repairs them, and the re-run is bit-exact — identically in fused
        and scalar mode (ECC counters included)."""

        def run(mode):
            system = _system(mode)
            blas = PimBlas(system)
            a, b = _rand(96, 21), _rand(96, 22)
            first = blas.add(a, b).tobytes()
            # Strike one data bit per live row on every bank (deterministic
            # locations so both modes see the same damage).
            for pch in range(system.num_pchs):
                for bank in system.device.pch(pch).banks:
                    for row in bank.materialized_rows():
                        bank.inject_error(row, col=0, bit=3)
            result = system.driver.scrub()
            assert result.corrected > 0
            assert not result.uncorrectable
            second = blas.add(a, b).tobytes()
            ecc = [
                vars(bk.ecc_stats).copy()
                for pch in range(system.num_pchs)
                for bk in system.device.pch(pch).banks
            ]
            return first, second, ecc

        base = run("scalar")
        fused = run("fused")
        assert fused[0] == base[0]
        assert fused[1] == base[1], "fused diverged after scrub/heal"
        assert fused[2] == base[2], "ECC counters diverged"
        assert base[0] == base[1]  # scrub restored the exact bytes
