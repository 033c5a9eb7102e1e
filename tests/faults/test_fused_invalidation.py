"""Fault x fused-executor interactions: no stale compiled-trace replay.

The compiled-trace cache is content-keyed (CRF words and sequencer entry
state are *in* the key), so a corrupted program can never silently replay
a stale trace — but faults additionally invalidate a channel's entries
eagerly, keeping the bounded cache free of dead programs.  These tests
drive the public fault paths (:meth:`FaultInjector.corrupt_registers`,
:meth:`FaultInjector.fail_channel`, driver quarantine) and assert both
the bookkeeping (``TraceCacheStats.invalidations``) and the end that
matters: results stay bit-identical to the scalar oracle under the
same fault sequence, including across a scrub/heal cycle.
"""

import numpy as np

from repro.faults import FaultConfig, FaultInjector
from repro.stack.blas import PimBlas, add_reference
from repro.stack.runtime import PimSystem, SystemConfig


def _fused_system(**overrides):
    return PimSystem(
        SystemConfig(
            num_pchs=2, num_rows=128, ecc=True, exec_mode="fused", **overrides
        )
    )


def _rand(length, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(length) * 0.25).astype(np.float16)


def _warm(system, seed=5):
    """Run one elementwise op to compile traces; returns (a, b, result)."""
    blas = PimBlas(system)
    a, b = _rand(96, seed), _rand(96, seed + 1)
    return a, b, blas.add(a, b)


class TestCrfUpsetInvalidation:
    def test_crf_fault_drops_compiled_traces(self):
        system = _fused_system()
        _warm(system)
        cache = system._trace_cache
        assert len(cache) > 0
        injector = FaultInjector(
            system, FaultConfig(register_fault_rate=1.0, seed=2)
        )
        injector.corrupt_registers()
        assert injector.stats.crf_faults > 0  # seed 2 strikes a CRF
        assert cache.stats.invalidations > 0

    def test_no_stale_replay_after_crf_upset(self):
        """After a CRF upset the driver re-broadcasts; the next run must
        compile the fresh program, never replay the corrupted window."""
        system = _fused_system()
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
            system = PimSystem(
                SystemConfig(
                    num_pchs=2, num_rows=128, ecc=True, exec_mode=mode
                )
            )
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


class TestChannelFailureInvalidation:
    def test_fail_channel_drops_only_that_channels_traces(self):
        system = _fused_system()
        _warm(system)
        cache = system._trace_cache
        assert {key[0] for key in cache.keys()} == {0, 1}
        injector = FaultInjector(system, FaultConfig())
        injector.fail_channel(1)
        assert cache.stats.invalidations > 0
        assert {key[0] for key in cache.keys()} == {0}

    def test_driver_quarantine_invalidates(self):
        system = _fused_system()
        _warm(system)
        cache = system._trace_cache
        before = cache.stats.invalidations
        lease = system.driver.alloc_channels(1)
        system.driver.quarantine_channels(tuple(lease))
        assert cache.stats.invalidations > before
        assert all(key[0] not in tuple(lease) for key in cache.keys())


class TestScrubHealBitExact:
    def test_fused_bit_exact_across_inject_scrub_heal_cycle(self):
        """Single-bit storage errors land on live rows, the scrubber
        repairs them, and the re-run is bit-exact — identically in fused
        and scalar mode (ECC counters included)."""

        def run(mode):
            system = PimSystem(
                SystemConfig(
                    num_pchs=2, num_rows=128, ecc=True, exec_mode=mode
                )
            )
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
