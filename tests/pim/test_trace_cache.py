"""The compiled-trace cache contract: bounded, content-keyed, relocatable,
replicated.

Four properties keep ``exec_mode="fused"`` safe to leave on:

* *LRU-bounded* — the cache never exceeds its limit; evicted programs
  recompile (correctly) on their next window instead of growing the
  working set without bound.
* *Content-keyed* — the key embeds the sequencer entry state, every CRF
  word and the window's trigger pattern, so any observable program or
  pattern change is a miss by construction (``TestKeyCompleteness``
  changes each input alone), and a CRF upset never replays a stale
  trace.
* *Relocatable* — the pattern names each bank row by its first use in
  the window, so a window at other rows with the same row-equality
  pattern, on any channel, replays the same trace at its own rows, bit
  for bit what the execution units leave (``relocated_vs_units``, on a
  small fixed-draw budget here; ``tests/pim/sweep_fused_relocation.py``
  runs it at a large one).  A serving system compiles one trace per
  kernel shape, not per operator (``TestOneTracePerShape``).
* *Independent replicas* — every serving process owns a private cache
  (``PimFabric`` workers, ``serve-bench --workers N``); replicas compile
  independently and still produce bit-identical results.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dram.bank import Bank
from repro.dram.ecc import EccBank
from repro.pim.assembler import assemble_words
from repro.pim.exec_unit import ColumnTrigger
from repro.pim.fused import CompiledTrace, FusedLockstepGroup, TraceCache

from tests.pim.test_fused_differential import (
    NUM_ROWS, NUM_UNITS, _build_fused, _build_group, _microkernel, _program, _rd,
    _run_window, _snapshot, _trigger, _wr,
)

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
            cache.put(((), b"", (i,)), CompiledTrace(poisoned=False))
            assert len(cache) <= 2
        assert cache.stats.compiles == 5
        assert cache.stats.evictions == 3
        # Only the two most recent keys survive.
        assert [key[2] for key in cache.keys()] == [(3,), (4,)]

    def test_get_freshens_against_eviction(self):
        cache = TraceCache(limit=2)
        cache.put(((), b"", ("a",)), CompiledTrace(poisoned=False))
        cache.put(((), b"", ("b",)), CompiledTrace(poisoned=False))
        assert cache.get(((), b"", ("a",))) is not None  # freshen "a"
        cache.put(((), b"", ("c",)), CompiledTrace(poisoned=False))
        assert cache.get(((), b"", ("b",))) is None  # "b" was LRU
        assert cache.get(((), b"", ("a",))) is not None

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

    def test_a_crf_upset_misses_and_its_reload_hits(self):
        """No stale state without dropping anything: a window after a CRF
        upset (uniform, so the group does not fall back) misses and
        compiles the upset program; the window after the CRF is loaded
        again hits the first trace.  Every window leaves what the
        execution units leave."""
        cache = TraceCache()
        fused, oracle = _fused(4, cache=cache), _build_group(4)
        triggers = [_rd(0, c) for c in range(8)]
        for upset, stats in ((False, (1, 0)), (True, (2, 0)), (False, (2, 1))):
            for group in (fused, oracle):
                _program(group, GEMV)
                if upset:
                    for unit in group.units:  # the MAC reads the odd bank
                        unit.regs.flip_bit("crf", 0, 22)
                    group.start_all()
                _window(group, triggers)
            assert (cache.stats.compiles, cache.stats.hits) == stats
            assert _snapshot(fused) == _snapshot(oracle)
        assert len(cache) == 2


#: A program whose window reads banks, takes HOST bursts, writes banks and
#: reuses rows.
KEYED = (
    "FILL GRF_A[A], EVEN_BANK\nJUMP -1, 1\nMOV GRF_B[A], HOST\nJUMP -1, 1\n"
    "MOV ODD_BANK, GRF_A[A]\nJUMP -1, 1\nEXIT"
)
#: Its window: rows 0 and 1 read, two HOST bursts at row 2, the two values
#: read written to rows 1 and 3 — the row pattern (0, 1, 2, 2, 1, 3).
KEYED_WINDOW = [_rd(0, 0), _rd(1, 1), _wr(2, 2), _wr(2, 3), _wr(1, 0), _wr(3, 1)]
#: The same window with rows 0, 1, 2, 3 moved to 7, 3, 0, 6.
MOVED_WINDOW = [_rd(7, 0), _rd(3, 1), _wr(0, 2), _wr(0, 3), _wr(3, 0), _wr(6, 1)]


def _two_windows(second, mutate=None, bank_cls=Bank):
    """:data:`KEYED_WINDOW` then ``second`` — after ``mutate(group)``, if
    given — as two windows of :data:`KEYED` on the units and fused, which
    must agree on what each raises and, if neither does, on every byte and
    counter.  Returns the fused cache's ``(compiles, hits)`` and what the
    second window raised (see ``_run_window``)."""
    units, fused = _build_group(6, bank_cls=bank_cls), _build_fused(6, bank_cls=bank_cls)
    outcomes = []
    for group in (units, fused):
        _program(group, KEYED)
        outcome = [_run_window(group, KEYED_WINDOW)]
        group.start_all()
        if mutate is not None:
            mutate(group)
        outcome.append(_run_window(group, second))
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
    if outcomes[0] == [None, None]:
        assert _snapshot(fused) == _snapshot(units)
    return (fused.cache.stats.compiles, fused.cache.stats.hits), outcomes[0][1]


def _exited(group):
    for unit in group.units:
        unit.install_sequencer_state(0, True, 0, ())


def _unused_crf_word(group):
    for unit in group.units:
        unit.regs.crf[20] ^= 1


class TestKeyCompleteness:
    """Each key input changed alone is a miss; rows renamed with their
    equality pattern kept are a hit that replays at the new rows."""

    @pytest.mark.parametrize("second, mutate", [
        (KEYED_WINDOW, _exited),  # the sequencer entry state
        (KEYED_WINDOW, _unused_crf_word),  # one CRF word, even one never fetched
        ([_rd(0, 0), ColumnTrigger(True, 1, 1), *KEYED_WINDOW[2:]], None),  # is_write
        ([_rd(0, 0), _rd(1, 5), *KEYED_WINDOW[2:]], None),  # one column
        ([*KEYED_WINDOW[:3], ColumnTrigger(True, 2, 3), *KEYED_WINDOW[4:]], None),  # HOST flag
        # Two rows read become one, one row of HOST bursts becomes two.
        ([_rd(0, 0), _rd(0, 1), *KEYED_WINDOW[2:]], None),
        ([*KEYED_WINDOW[:3], _wr(4, 3), *KEYED_WINDOW[4:]], None),
    ], ids=["entry state", "crf word", "is_write", "col", "host flag", "one row", "two rows"])
    def test_one_input_changed_misses(self, second, mutate):
        assert _two_windows(second, mutate)[0] == (2, 0)

    @pytest.mark.parametrize("bank_cls", [Bank, EccBank])
    def test_renamed_rows_hit_and_replay_at_the_new_rows(self, bank_cls):
        assert _two_windows(MOVED_WINDOW, bank_cls=bank_cls) == ((1, 1), None)

    def test_an_injected_word_on_the_new_rows_counts_as_on_the_units(self):
        def inject(group):
            group.units[2].even_bank.inject_error(3, 1, bit=7)  # read: corrected
            group.units[6].even_bank.inject_error(7, 5, bit=130)  # never read
            group.units[5].odd_bank.inject_error(6, 1, bit=9)  # overwritten

        assert _two_windows(MOVED_WINDOW, inject, bank_cls=EccBank) == ((1, 1), None)

    def test_an_uncorrectable_word_on_the_new_rows_raises_as_on_the_units(self):
        def inject(group):
            for bit in (64, 69):  # two flips in one word
                group.units[4].even_bank.inject_error(3, 1, bit=bit)

        raised = ("UncorrectableError", "double-bit error at row 3 col 1 word 1")
        assert _two_windows(MOVED_WINDOW, inject, bank_cls=EccBank) == ((1, 1), raised)


#: The relocation differential's draws: a microkernel and its window, the
#: rows it is moved to (a permutation of the bank's rows), ECC banks or
#: not and, on ECC banks, an injection into one unit's two banks at the
#: moved window's ``index``-th read (trigger, if it reads none): one
#: flipped bit, or two in one word.
RELOCATION_DRAWS = dict(
    source=_microkernel(),
    triggers=st.lists(_trigger, min_size=1, max_size=24),
    seed=st.integers(0, 2**16),
    rows=st.permutations(range(NUM_ROWS)),
    ecc=st.booleans(),
    injected=st.none() | st.tuples(
        st.integers(0, NUM_UNITS - 1), st.integers(0, 23),
        st.sampled_from([(7,), (130,), (64, 69)]),
    ),
)


def relocated_vs_units(source, triggers, seed, rows, ecc, injected):
    """The property: a window, then the same window with every row ``r``
    moved to ``rows[r]``, on the execution units and fused.  The moved
    window must hit the first one's trace and leave what the units leave
    (or raise what they raise).  Returns how the fused group ran the moved
    window — ``"replayed"``, ``"units"`` (a poisoned trace) or None (the
    first window raised) — whether a word was injected on its rows and
    whether it raised."""
    moved = [ColumnTrigger(t.is_write, rows[t.row], t.col, t.host_data, t.count) for t in triggers]
    bank_cls = EccBank if ecc else Bank
    units, fused = (build(seed, bank_cls=bank_cls) for build in (_build_group, _build_fused))
    outcomes = []
    for group in (units, fused):
        _program(group, source)
        with np.errstate(over="ignore", invalid="ignore"):  # both overflow alike
            outcome = [_run_window(group, triggers)]
        if outcome[0] is None:
            group.start_all()
            if ecc and injected is not None:
                unit, index, bits = injected
                reads = [t for t in moved if not t.is_write] or moved
                target = reads[index % len(reads)]
                for bank in (group.units[unit].even_bank, group.units[unit].odd_bank):
                    for bit in bits:
                        bank.inject_error(target.row, target.col, bit)
            with np.errstate(over="ignore", invalid="ignore"):
                outcome.append(_run_window(group, moved))
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
    stats = fused.cache.stats
    assert stats.compiles == 1
    if outcomes[0][0] is not None:
        return None, False, True
    assert stats.hits == 1
    raised = outcomes[0][1] is not None
    if not raised:
        assert _snapshot(fused) == _snapshot(units), "the moved window diverged"
    path = "units" if fused.fused_fallbacks else "replayed"
    return path, ecc and injected is not None, raised


RELOCATION_TIER1_EXAMPLES = 25


@settings(
    max_examples=RELOCATION_TIER1_EXAMPLES, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(**RELOCATION_DRAWS)
def test_a_moved_window_replays_its_trace_as_the_units_run_it(**draws):
    relocated_vs_units(**draws)


class TestOneTracePerShape:
    """A trace is compiled once per kernel shape, whatever the operator,
    pass, slot, lane or channel."""

    @staticmethod
    def _grid(rng, *shape):
        return (rng.integers(-16, 17, size=shape) / 8).astype(np.float16)

    def test_gemv_serve_traffic_compiles_one_trace(self):
        """A fresh system serving the ``gemv_serve`` shape — four resident
        128 x 512 operators round robin over the default two lanes, eight
        requests, one wave — compiles one GEMV-window trace (keyed by its
        rows and channel, it compiled 12) and serves every result
        bit-exact."""
        from repro.stack import PimContext, Request, ServerConfig, SystemConfig
        from repro.stack.arithmetic import golden_reference

        rng = np.random.default_rng(1)
        weights = [self._grid(rng, 128, 512) for _ in range(4)]
        with PimContext(SystemConfig(simulate_pchs=1)) as ctx:
            server = ctx.server(ServerConfig())
            assert server.server_config.lanes == 2
            requests = [
                Request(
                    "gemv", weights=weights[i % 4], a=self._grid(rng, 512), arrival_ns=500.0 * i,
                )
                for i in range(8)
            ]
            handles = [server.submit(request) for request in requests]
            server.run()
            cache = ctx.system.driver.trace_cache
            assert (cache.stats.compiles, len(cache)) == (1, 1)
            num_pchs = ctx.system.num_pchs
            for request, handle in zip(requests, handles):
                assert np.array_equal(handle.result, golden_reference(request, num_pchs))

    def test_eight_resident_operators_of_one_shape_leave_one_entry(self):
        from repro.stack.blas import PimBlas, gemv_reference
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(simulate_pchs=1))
        blas = PimBlas(system)
        rng = np.random.default_rng(2)
        for _ in range(8):
            w, x = self._grid(rng, 128, 512), self._grid(rng, 512)
            assert np.array_equal(blas.gemv(w, x), gemv_reference(w, x, system.num_pchs))
        assert len(system._trace_cache) == 1


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
