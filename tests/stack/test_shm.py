"""Tests for the zero-copy shared-memory fabric transport.

Three tiers: unit tests of the transport primitives (arena, segment
cache, weight store, wire codec), the :func:`as_wire_array` layout
choke point, and end-to-end fabric tests asserting the shm transport's
three contracts — bit-exactness against the pipe oracle, wire-byte
reduction from shard-resident weights, and zero leaked ``/dev/shm``
segments across every lifecycle path (clean close, SIGKILL + respawn,
drain, kill-everything, corruption quarantine).
"""

import numpy as np
import pytest

from repro.stack import (
    PimFabric,
    Request,
    ServerConfig,
    SystemConfig,
    gemv_reference,
)
from repro.stack.profiler import ServingProfile
from repro.stack.shm import (
    ArrayRef,
    SegmentCache,
    ShmArena,
    StagedWeights,
    WeightRef,
    WeightStore,
    as_wire_array,
    decode_request,
    encode_request,
    live_segments,
)

CONFIG = SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1)
SHM = ServerConfig(transport="shm")


def rand(shape, seed, scale=0.25, dtype=np.float16):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(dtype)


def gemv_stream(count, distinct, seed=7, shape=(16, 8), wbase=1000):
    """``count`` gemv Requests cycling over ``distinct`` weight matrices.

    ``wbase`` seeds the weight matrices themselves — streams sharing it
    share weights (and digests); distinct bases get distinct weights.
    """
    rng = np.random.default_rng(seed)
    weights = [rand(shape, wbase + k) for k in range(distinct)]
    arrivals = np.cumsum(rng.exponential(300.0, size=count))
    return [
        Request(
            "gemv", weights=weights[i % distinct],
            a=rand(shape[1], i), arrival_ns=float(arrivals[i]),
            trace_id=f"req{i}",
        )
        for i in range(count)
    ]


def assert_bit_exact(handles):
    for handle in handles:
        golden = gemv_reference(
            handle.request.weights, handle.request.a, CONFIG.num_pchs
        )
        assert handle.result is not None
        assert np.array_equal(handle.result, golden)


def serve_waves(items, workers, server_config, waves=1):
    """Serve ``items`` in ``waves`` submit/run rounds through one fabric."""
    chunk = max(1, -(-len(items) // waves))
    with PimFabric(
        CONFIG, workers=workers, server_config=server_config
    ) as fabric:
        handles, profile = [], ServingProfile()
        for lo in range(0, len(items), chunk):
            for request in items[lo:lo + chunk]:
                handles.append(fabric.submit(request))
            profile.merge(fabric.run())
        stats = {
            "bytes_tx": fabric.bytes_tx,
            "shm_tx": fabric.shm_tx,
            "shm_rx": fabric.shm_rx,
            "weight_store": dict(fabric.weight_store_stats),
        }
    return handles, profile, stats


class TestAsWireArray:
    """Satellite: the blessed C-contiguity choke point."""

    def test_contiguous_passthrough_is_identity(self):
        array = rand((8, 4), 0)
        assert as_wire_array(array) is array

    def test_fortran_order_copied_to_c(self):
        array = np.asfortranarray(rand((8, 4), 1))
        wired = as_wire_array(array)
        assert wired.flags.c_contiguous
        assert np.array_equal(wired, array)

    def test_sliced_view_copied_to_c(self):
        array = rand((8, 8), 2)[:, ::2]
        wired = as_wire_array(array)
        assert wired.flags.c_contiguous
        assert np.array_equal(wired, array)

    def test_zero_length_array_survives(self):
        array = np.empty((0, 4), dtype=np.float16)
        wired = as_wire_array(array)
        assert wired.shape == (0, 4)
        assert wired.tobytes() == b""


class TestArenaAndSegmentCache:
    def test_write_read_round_trip(self):
        arena, cache = ShmArena(tag="t"), SegmentCache()
        try:
            array = rand((64, 96), 3)
            ref = arena.write(array)
            assert np.array_equal(cache.read(ref), array)
        finally:
            cache.close()
            arena.close()

    def test_fortran_array_round_trips_layout_exact(self):
        arena, cache = ShmArena(tag="t"), SegmentCache()
        try:
            array = np.asfortranarray(rand((16, 8), 4))
            ref = arena.write(array)
            assert np.array_equal(cache.read(ref), array)
        finally:
            cache.close()
            arena.close()

    def test_reset_rewinds_offsets(self):
        arena = ShmArena(tag="t")
        try:
            first = arena.write(rand(2048, 5, dtype=np.float32))
            arena.reset()
            second = arena.write(rand(2048, 6, dtype=np.float32))
            assert second.segment == first.segment
            assert second.offset == first.offset
        finally:
            arena.close()

    def test_oversize_array_gets_dedicated_segment(self):
        arena = ShmArena(tag="t", segment_bytes=1024)
        try:
            ref = arena.write(rand(4096, 7, dtype=np.float32))
            assert len(arena.segment_names()) == 1
            assert ref.nbytes == 4096 * 4
        finally:
            arena.close()

    def test_corrupted_frame_fails_crc(self):
        arena, cache = ShmArena(tag="t"), SegmentCache()
        try:
            ref = arena.write(rand((64, 96), 8))
            segment = cache.attach(ref.segment)
            segment.buf[ref.offset] ^= 0xFF
            with pytest.raises(ValueError, match="CRC32"):
                cache.read(ref)
        finally:
            cache.close()
            arena.close()

    def test_close_unlinks_every_segment(self):
        before = live_segments()
        arena = ShmArena(tag="t")
        arena.write(rand(2048, 9, dtype=np.float32))
        assert live_segments() != before
        arena.close()
        assert live_segments() == before
        with pytest.raises(ValueError, match="closed"):
            arena.write(rand(8, 0))


class TestWeightStore:
    def test_put_get_hit_miss_accounting(self):
        store = WeightStore(budget_mb=1)
        array = rand((16, 8), 0)
        assert store.get("d1") is None
        assert store.put("d1", array)
        assert np.array_equal(store.get("d1"), array)
        assert (store.hits, store.misses) == (1, 1)

    def test_lru_eviction_reports_victims(self):
        store = WeightStore(budget_mb=1)
        a = rand(1 << 18, 1)  # 512 KiB each: two fit, the third evicts
        b, c = rand(1 << 18, 2), rand(1 << 18, 3)
        store.put("a", a), store.put("b", b)
        store.get("a")  # freshen: b is now least recently used
        store.put("c", c)
        assert store.drain_evicted() == ["b"]
        assert store.drain_evicted() == []
        assert "a" in store and "c" in store and "b" not in store
        assert store.evictions == 1

    def test_over_budget_array_never_cached(self):
        store = WeightStore(budget_mb=0.001)
        assert not store.cacheable(1 << 20)
        assert not store.put("big", rand(1 << 19, 4))
        assert len(store) == 0

    def test_zero_budget_disables_residency(self):
        store = WeightStore(budget_mb=0)
        assert not store.cacheable(16)


class TestWireCodec:
    def setup_method(self):
        self.arena = ShmArena(tag="t")
        self.cache = SegmentCache()
        self.store = WeightStore(budget_mb=4)

    def teardown_method(self):
        self.cache.close()
        self.arena.close()

    def roundtrip(self, request, resident=None, **kwargs):
        wire = encode_request(
            request, self.arena, resident if resident is not None else set(),
            self.store.budget_bytes, **kwargs
        )
        return wire, decode_request(wire, self.cache, self.store)

    def test_small_operands_ride_inline(self):
        request = Request("gemv", weights=rand((16, 8), 0), a=rand(8, 1))
        wire, decoded = self.roundtrip(request)
        assert isinstance(wire.a, np.ndarray)  # 16 bytes: inline
        assert np.array_equal(decoded.a, request.a)
        assert np.array_equal(decoded.weights, request.weights)

    def test_large_operand_crosses_as_descriptor(self):
        request = Request("gemv", weights=rand((64, 96), 2), a=rand(96, 3))
        wire, decoded = self.roundtrip(request)
        assert isinstance(wire.weights, StagedWeights)
        assert isinstance(wire.weights.ref, ArrayRef)
        assert np.array_equal(decoded.weights, request.weights)

    def test_resident_weights_ship_as_digest(self):
        request = Request("gemv", weights=rand((64, 96), 4), a=rand(96, 5))
        wire1, decoded1 = self.roundtrip(request)
        assert isinstance(wire1.weights, StagedWeights)
        # Second crossing against a residency set naming the digest.
        wire2, decoded2 = self.roundtrip(
            request, resident={request.weight_digest}
        )
        assert isinstance(wire2.weights, WeightRef)
        assert np.array_equal(decoded2.weights, request.weights)
        assert self.store.hits == 1

    def test_small_cacheable_weights_still_staged(self):
        # Residency dedup beats inlining the moment a weight repeats, so
        # cacheable weights are staged even below the inline threshold.
        request = Request("gemv", weights=rand((16, 8), 6), a=rand(8, 7))
        wire, _ = self.roundtrip(request)
        assert isinstance(wire.weights, StagedWeights)

    def test_stale_digest_reference_raises(self):
        request = Request("gemv", weights=rand((64, 96), 8), a=rand(96, 9))
        wire = encode_request(
            request, self.arena, {request.weight_digest},
            self.store.budget_bytes,
        )
        assert isinstance(wire.weights, WeightRef)
        with pytest.raises(ValueError, match="not resident"):
            decode_request(wire, self.cache, self.store)

    def test_decoded_request_carries_digest_preseeded(self):
        request = Request("gemv", weights=rand((64, 96), 10), a=rand(96, 11))
        _, decoded = self.roundtrip(request)
        assert decoded.__dict__.get("_weight_digest") == request.weight_digest

    def test_inline_zero_forces_descriptors(self):
        request = Request("gemv", weights=rand((16, 8), 12), a=rand(8, 13))
        wire, decoded = self.roundtrip(request, inline_bytes=0)
        assert isinstance(wire.a, ArrayRef)
        assert np.array_equal(decoded.a, request.a)


class TestWeightDigest:
    """Satellite: the sha1 weight digest is computed once per Request."""

    def test_digest_cached_across_accesses(self, monkeypatch):
        import repro.stack.api as api

        calls = []
        real = api.hashlib.sha1
        monkeypatch.setattr(
            api.hashlib, "sha1",
            lambda data=b"": calls.append(1) or real(data),
        )
        request = Request("gemv", weights=rand((16, 8), 0), a=rand(8, 1))
        first = request.weight_digest
        assert request.weight_digest == first
        assert request.signature[-1] == first
        assert len(calls) == 1

    def test_digest_layout_invariant(self):
        w = rand((16, 8), 2)
        c = Request("gemv", weights=w, a=rand(8, 3))
        f = Request("gemv", weights=np.asfortranarray(w), a=rand(8, 3))
        assert c.weight_digest == f.weight_digest

    def test_no_weights_no_digest(self):
        request = Request("add", a=rand(8, 4), b=rand(8, 5))
        assert request.weight_digest is None


class TestShmFabric:
    """End-to-end: bit-exactness, wire reduction, residency, leaks."""

    def test_bit_exact_vs_pipe_oracle(self):
        items = gemv_stream(24, 4)
        pipe = ServerConfig(transport="pipe")
        p_handles, p_profile, _ = serve_waves(items, 2, pipe, waves=3)
        s_handles, s_profile, _ = serve_waves(items, 2, SHM, waves=3)
        assert_bit_exact(s_handles)
        assert [h.outcome for h in p_handles] == [h.outcome for h in s_handles]
        assert all(
            np.array_equal(a.result, b.result)
            for a, b in zip(p_handles, s_handles)
        )
        assert p_profile.render() == s_profile.render()

    def test_repeated_weights_cut_wire_bytes(self):
        items = gemv_stream(24, 4, shape=(32, 24))  # 1.5 KiB weights
        pipe = ServerConfig(transport="pipe")
        _, _, p_stats = serve_waves(items, 2, pipe, waves=4)
        handles, _, s_stats = serve_waves(items, 2, SHM, waves=4)
        assert_bit_exact(handles)
        assert s_stats["bytes_tx"] * 2 < p_stats["bytes_tx"]
        assert s_stats["shm_tx"] > 0
        assert s_stats["weight_store"]["hits"] > 0

    def test_no_segments_leaked_after_clean_close(self):
        before = live_segments()
        handles, _, _ = serve_waves(gemv_stream(8, 2), 2, SHM)
        assert_bit_exact(handles)
        assert live_segments() == before

    def test_no_segments_leaked_after_sigkill_and_respawn(self):
        before = live_segments()
        config = SHM.replace(max_respawns=1, heartbeat_timeout_s=2.0)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            first = [fabric.submit(r) for r in gemv_stream(8, 2)]
            fabric.run()
            fabric.kill_worker(0)
            second = [fabric.submit(r) for r in gemv_stream(8, 2, seed=11)]
            fabric.run()
            assert fabric.alive_shards() == [0, 1]
        assert_bit_exact(first + second)
        assert live_segments() == before

    def test_no_segments_leaked_after_drain(self):
        before = live_segments()
        with PimFabric(CONFIG, workers=2, server_config=SHM) as fabric:
            handles = [fabric.submit(r) for r in gemv_stream(8, 2)]
            fabric.run()
            fabric.drain(0)
            more = [fabric.submit(r) for r in gemv_stream(8, 2, seed=11)]
            fabric.run()
        assert_bit_exact(handles + more)
        assert live_segments() == before

    def test_no_segments_leaked_after_killing_every_worker(self):
        before = live_segments()
        config = SHM.replace(max_respawns=0)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            handles = [fabric.submit(r) for r in gemv_stream(8, 2)]

            def kill_everything(fab):
                for shard in list(fab.alive_shards()):
                    fab.kill_worker(shard)
                fab._post_dispatch_hook = None

            fabric._post_dispatch_hook = kill_everything
            fabric.run()
        assert_bit_exact(handles)  # host path completes the round
        assert live_segments() == before

    def test_respawn_invalidates_residency(self):
        config = SHM.replace(max_respawns=1, heartbeat_timeout_s=2.0)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            first = [fabric.submit(r) for r in gemv_stream(8, 2)]
            fabric.run()
            old = {s: set(d) for s, d in fabric._resident.items() if d}
            assert old  # round 1 staged weights somewhere
            victim = next(iter(old))
            fabric.kill_worker(victim)
            # Round 2 uses *different* weights (wbase), so any digest
            # still marked resident on the respawned shard would be a
            # stale round-1 entry — there must be none.
            second = [fabric.submit(r) for r in gemv_stream(8, 2, wbase=2000)]
            fabric.run()
            assert not (fabric._resident.get(victim, set()) & old[victim])
            assert fabric.respawns == {victim: 1}
        assert_bit_exact(first + second)

    def test_stale_residency_self_heals_not_stale_weights(self):
        """Negative test: a poisoned residency map (digest never staged)
        must fail the round and heal by re-staging — never serve stale
        or missing weights silently."""
        items = gemv_stream(8, 1, seed=23)
        digest = items[0].weight_digest
        config = SHM.replace(max_respawns=2)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            # Lie to the router: claim every shard already staged it.
            for shard in fabric.alive_shards():
                fabric._resident.setdefault(shard, set()).add(digest)
            handles = [fabric.submit(r) for r in items]
            profile = fabric.run()
        assert_bit_exact(handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert profile.replays > 0 or profile.quarantined_shards
        assert any("not resident" in str(e) for e in fabric.worker_errors)

    def test_corrupt_shm_frame_quarantines_and_replays(self):
        """The corrupt_shm chaos kind: a result frame corrupted after the
        control blob was checksummed is caught by the descriptor CRC."""
        before = live_segments()
        items = gemv_stream(12, 4)
        config = SHM.replace(max_respawns=1, shm_inline_bytes=0)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            handles = [fabric.submit(r) for r in items]
            fabric.inject_worker_fault(0, {"corrupt_shm": True, "seed": 3})
            profile = fabric.run()
            assert fabric.alive_shards() == [0, 1]
        assert_bit_exact(handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert 0 in profile.quarantined_shards
        assert profile.replays > 0
        assert any("CRC32" in str(e) for e in fabric.worker_errors)
        assert live_segments() == before

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError, match="transport"):
            PimFabric(
                CONFIG, workers=1,
                server_config=ServerConfig(transport="carrier-pigeon"),
            )
