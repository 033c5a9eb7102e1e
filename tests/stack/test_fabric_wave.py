"""The ledger's wave through a real 2-worker fabric.

One ``fabric_hardened``-shaped wave — 8 GEMVs 64x96 over 8 weight
matrices, 4 add[1024], 4 relu[2048], interleaved ``g g a r`` — served
with ECC and the journal on and hedging off, the deployed shape the
end-to-end ledger measures.  Placement is by cost, so each worker must
carry 4 GEMVs; and it is a pure function of the round, so the shard
vector is pinned as a literal: CI runs this file under two
``PYTHONHASHSEED`` values, and a placement that leaked dict or set order
would miss the literal in one of them.
"""

import numpy as np

from repro.journal import recover
from repro.journal.wal import JournalWriter, read_records
from repro.stack import PimFabric, Request, ServerConfig, SystemConfig
from repro.stack.arithmetic import golden_reference
from repro.stack.fabric import request_cost

CONFIG = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1, ecc=True)
WAVE_REQUESTS = 16
GEMV_COST = 120
#: Where cost placement puts one wave, by submission position.
EXPECTED_SHARDS = (1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1)


def grid(rng, *shape):
    return (rng.integers(-16, 17, size=shape) / 8.0).astype(np.float16)


_MODEL = np.random.default_rng(4)
WEIGHTS = [grid(_MODEL, 64, 96) for _ in range(8)]


def make_wave(index):
    rng = np.random.default_rng([11, index])
    arrival = index * 1_000_000.0
    requests = []
    for i in range(WAVE_REQUESTS):
        arrival += float(rng.exponential(500.0))
        if i % 4 < 2:
            request = Request(
                "gemv", weights=WEIGHTS[(i // 4) * 2 + i % 4], a=grid(rng, 96)
            )
        elif i % 4 == 2:
            request = Request("add", a=grid(rng, 1024), b=grid(rng, 1024))
        else:
            request = Request("relu", a=grid(rng, 2048))
        requests.append(request.replace(arrival_ns=arrival))
    return requests


def serve(journal_dir, waves=1, hook=None, **knobs):
    """Serve ``waves`` waves on a fresh 2-worker fabric; returns the
    handles and profile of each wave and the fabric (closed)."""
    server_config = ServerConfig(journal_dir=str(journal_dir), **knobs)
    served = []
    with PimFabric(CONFIG, workers=2, server_config=server_config) as fabric:
        fabric._post_dispatch_hook = hook
        for index in range(waves):
            handles = [fabric.submit(r) for r in make_wave(index)]
            served.append((handles, fabric.run()))
    return served, fabric


def assert_served_exactly_once(handles, profile):
    assert sum(profile.outcomes().values()) == len(handles)
    assert sorted(r.request_id for r in profile.requests) == [
        h.request_id for h in handles
    ]
    for handle in handles:
        assert handle.outcome == "completed"
        assert np.array_equal(
            handle.result, golden_reference(handle.request, CONFIG.num_pchs)
        )


def test_wave_splits_by_cost_and_places_identically_wave_after_wave(tmp_path):
    served, fabric = serve(tmp_path / "journal", waves=3)
    for handles, profile in served:
        assert_served_exactly_once(handles, profile)
        assert tuple(h.shard for h in handles) == EXPECTED_SHARDS
        gemvs = [h.shard for h in handles if h.request.op == "gemv"]
        assert gemvs.count(0) == gemvs.count(1) == 4
        cost = profile.shard_cost
        assert sum(cost.values()) == sum(
            request_cost(h.request, CONFIG, fabric.server_config)
            for h in handles
        )
        assert abs(cost[0] - cost[1]) <= GEMV_COST
        assert profile.shard_cost_imbalance() <= 1.25
        assert any("shard cost (col cmds)" in line for line in profile.render())
    assert fabric.worker_errors == []

    # Durability: one bit-exact terminal outcome per request, whatever
    # order the outcome records were appended in.
    journal_dir = str(tmp_path / "journal")
    records = read_records(journal_dir)
    outcomes = [r for r in records if r["kind"] == "outcome"]
    assert len(outcomes) == 3 * WAVE_REQUESTS
    by_shard = {}
    for record in outcomes[:WAVE_REQUESTS]:
        by_shard.setdefault(record["shard"], []).append(record["rid"])
    assert all(rids == sorted(rids) for rids in by_shard.values())
    with JournalWriter(str(tmp_path / "reordered")) as writer:
        for record in records:
            if record["kind"] != "outcome":
                writer.append(record)
        for record in reversed(outcomes):
            writer.append(record)
    reports = [
        recover(journal_dir), recover(str(tmp_path / "reordered"))
    ]
    submitted = [h for handles, _ in served for h in handles]
    for report in reports:
        assert report.restored == len(submitted) and report.replayed == 0
        assert [h.request_id for h in report.handles] == [
            h.request_id for h in submitted
        ]
        for restored, original in zip(report.handles, submitted):
            assert restored.outcome == original.outcome
            assert restored.shard == original.shard
            assert np.array_equal(restored.result, original.result)


def test_two_fresh_fabrics_agree_on_placement_and_schedule(tmp_path):
    (first, _), (second, _) = (
        serve(tmp_path / name, waves=2) for name in ("a", "b")
    )
    for (handles_a, profile_a), (handles_b, profile_b) in zip(first, second):
        assert [h.shard for h in handles_a] == [h.shard for h in handles_b]
        assert profile_a.makespan_ns == profile_b.makespan_ns
        assert profile_a.shard_cost == profile_b.shard_cost


def test_shm_weights_stay_resident_across_waves(tmp_path):
    served, fabric = serve(tmp_path / "journal", waves=3, transport="shm")
    for handles, profile in served:
        assert_served_exactly_once(handles, profile)
        assert tuple(h.shard for h in handles) == EXPECTED_SHARDS
    # Each weight crossed once, in the cold wave; waves 2 and 3 sent all
    # 8 by digest and found them resident where placement had left them
    # (a re-homed signature would restage instead of hitting).
    assert fabric.weight_store_stats == {
        "hits": 2 * len(WEIGHTS), "misses": 0, "evictions": 0
    }


def test_killed_worker_round_replays_onto_the_survivor(tmp_path):
    def kill_shard_one(fabric):
        fabric.kill_worker(1)
        fabric._post_dispatch_hook = None

    served, fabric = serve(
        tmp_path / "journal", hook=kill_shard_one, max_respawns=0
    )
    (handles, profile), = served
    assert_served_exactly_once(handles, profile)
    assert fabric.quarantined_shards == (1,)
    assert profile.replays == EXPECTED_SHARDS.count(1)
    assert all(h.shard == 0 for h in handles)
    assert [h.replays for h in handles] == list(EXPECTED_SHARDS)
    # The replayed round is placed (and counted) again on the survivor.
    assert profile.shard_cost[0] == sum(
        request_cost(h.request, CONFIG, fabric.server_config) for h in handles
    )
