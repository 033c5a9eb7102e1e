"""The compiled-trace cache contract: bounded, content-keyed, replicated.

Three properties keep ``exec_mode="fused"`` safe to leave on:

* *LRU-bounded* — the cache never exceeds its limit; evicted programs
  recompile (correctly) on their next window instead of growing the
  working set without bound.
* *Content-keyed* — the key embeds the CRF words and sequencer entry
  state, so any observable program change is a miss by construction.
* *Independent replicas* — every serving process owns a private cache
  (``PimFabric`` workers, ``serve-bench --workers N``); replicas compile
  independently and still produce bit-identical results.
"""

import numpy as np
import pytest

from repro.pim.assembler import assemble_words
from repro.pim.fused import CompiledTrace, FusedLockstepGroup, TraceCache

from tests.pim.test_fused_differential import _build_group, _program, _rd, _snapshot

GEMV = "MAC GRF_B[A], EVEN_BANK, SRF_M[A]\nJUMP -1, 7\nEXIT"
FILLER = "FILL GRF_A[A], EVEN_BANK\nJUMP -1, 7\nEXIT"
MOV = "MOV GRF_A[0], GRF_B[0]\nEXIT"


def _fused(seed=0, cache=None):
    base = _build_group(seed)
    return FusedLockstepGroup(base.units, cache=cache)


def _window(group, triggers):
    for trig in triggers:
        group.trigger_all(trig)
    group.flush_pending()
    group.start_all()


class TestLruBound:
    def test_insertions_never_exceed_limit(self):
        cache = TraceCache(limit=2)
        for i in range(5):
            cache.put((0, (), (), (i,)), CompiledTrace(poisoned=False))
            assert len(cache) <= 2
        assert cache.stats.compiles == 5
        assert cache.stats.evictions == 3
        # Only the two most recent keys survive.
        assert [key[3] for key in cache.keys()] == [(3,), (4,)]

    def test_get_freshens_against_eviction(self):
        cache = TraceCache(limit=2)
        cache.put((0, (), (), ("a",)), CompiledTrace(poisoned=False))
        cache.put((0, (), (), ("b",)), CompiledTrace(poisoned=False))
        assert cache.get((0, (), (), ("a",))) is not None  # freshen "a"
        cache.put((0, (), (), ("c",)), CompiledTrace(poisoned=False))
        assert cache.get((0, (), (), ("b",))) is None  # "b" was LRU
        assert cache.get((0, (), (), ("a",))) is not None

    def test_eviction_recompiles_correctly(self):
        """A limit-1 cache thrashed by two alternating programs still
        produces bit-exact state — eviction costs a compile, never bits."""
        cache = TraceCache(limit=1)
        fused = _fused(7, cache=cache)
        oracle = _build_group(7)
        triggers = [_rd(0, c) for c in range(8)]
        for source in (GEMV, FILLER, GEMV, FILLER):
            _program(fused, source)
            _window(fused, triggers)
            _program(oracle, source)
            for trig in triggers:
                oracle.trigger_all(trig)
            oracle.start_all()
        assert cache.stats.evictions >= 3
        assert cache.stats.compiles == 4  # every alternation recompiles
        assert len(cache) == 1
        assert _snapshot(fused) == _snapshot(oracle)


class TestContentKeys:
    def test_same_program_same_stream_is_one_entry(self):
        cache = TraceCache()
        fused = _fused(1, cache=cache)
        _program(fused, GEMV)
        for _ in range(3):
            _window(fused, [_rd(0, c) for c in range(8)])
        assert cache.stats.compiles == 1 and cache.stats.hits == 2

    def test_distinct_streams_are_distinct_entries(self):
        cache = TraceCache()
        fused = _fused(1, cache=cache)
        _program(fused, FILLER)
        _window(fused, [_rd(0, c) for c in range(8)])
        _program(fused, FILLER)
        _window(fused, [_rd(1, c) for c in range(4)])  # other row/length
        assert cache.stats.compiles == 2

    def test_crf_word_is_in_the_key(self):
        cache = TraceCache()
        fused = _fused(1, cache=cache)
        _program(fused, MOV)
        _window(fused, [_rd(0, 0)])
        # Uniformly rewrite entry 0 across units: new program, new key.
        word = assemble_words("MOV GRF_A[1], GRF_B[1]")[0]
        for unit in fused.units:
            unit.regs.crf[0] = word
        fused.stop_all()
        fused.start_all()
        _window(fused, [_rd(0, 0)])
        assert cache.stats.compiles == 2
        assert cache.stats.hits == 0

    def test_invalidate_channel_is_scoped(self):
        cache = TraceCache()
        cache.put((0, (), (), ("x",)), CompiledTrace(poisoned=False))
        cache.put((1, (), (), ("x",)), CompiledTrace(poisoned=False))
        assert cache.invalidate_channel(0) == 1
        assert cache.stats.invalidations == 1
        assert [key[0] for key in cache.keys()] == [1]


class TestSystemKnob:
    def test_default_builds_fused_groups_and_one_cache(self):
        from repro.stack.runtime import PimSystem, SystemConfig

        assert SystemConfig().execution_mode == "fused"
        for config in (
            SystemConfig(num_pchs=2, num_rows=64),
            SystemConfig(num_pchs=2, num_rows=64, exec_mode="fused"),
        ):
            system = PimSystem(config)
            assert system._trace_cache is not None
            assert system.driver.trace_cache is system._trace_cache
            for channel in system.device.pchs:
                assert type(channel.lockstep) is FusedLockstepGroup
                assert channel.lockstep.cache is system._trace_cache

    def test_the_scalar_mode_builds_no_cache(self):
        """The oracle is explicit: it wires no compiled-trace path."""
        from repro.pim.lockstep import LockstepGroup
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(num_pchs=2, num_rows=64, exec_mode="scalar"))
        assert system._trace_cache is None
        assert system.driver.trace_cache is None
        for channel in system.device.pchs:
            assert type(channel.lockstep) is LockstepGroup


class TestReplicaIndependence:
    def test_fabric_workers_compile_independently_bit_exact(self):
        """Each fabric worker process owns a private cache; a 2-worker
        fused fabric must match a scalar fabric handle-for-handle."""
        from repro.stack import PimFabric, Request, SystemConfig
        from repro.stack.blas import gemv_reference

        def run(mode):
            config = SystemConfig(
                num_pchs=2, num_rows=256, simulate_pchs=1, exec_mode=mode,
            )
            rng = np.random.default_rng(7)
            weights = [
                (rng.standard_normal((16, 8)) * 0.25).astype(np.float16)
                for _ in range(4)
            ]
            items = [
                Request(
                    "gemv", weights=weights[i % 4],
                    a=(rng.standard_normal(8) * 0.25).astype(np.float16),
                    arrival_ns=i * 200.0,
                )
                for i in range(12)
            ]
            with PimFabric(config, workers=2) as fabric:
                handles = [fabric.submit(r) for r in items]
                fabric.run()
            assert {h.shard for h in handles} == {0, 1}
            for h in handles:
                gold = gemv_reference(h.request.weights, h.request.a, 2)
                assert h.result is not None and np.array_equal(h.result, gold)
            return [(h.outcome, h.result.tobytes()) for h in handles]

        assert run("fused") == run("scalar")
