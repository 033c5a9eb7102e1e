"""Tests for the sharded serving fabric.

The worker-kill conservation test is the load-bearing one: a 4-worker
fabric loses a worker to SIGKILL mid-round (after dispatch, before
collection — the most adversarial deterministic instant) and every
submitted request must still end in exactly one terminal outcome with a
bit-exact result, with the dead shard reported as quarantined.
"""

import os

import numpy as np
import pytest

from repro.chaos.harness import arm_kill
from repro.errors import PimProgramError, PimWorkerError
from repro.obs.export import SHARD_PID_BASE, chrome_trace, validate_chrome_trace
from repro.pim import stream
from repro.stack import (
    PimContext,
    PimFabric,
    Request,
    ServerConfig,
    SystemConfig,
    gemv_reference,
)
from repro.stack.arithmetic import golden_reference
from repro.stack.fabric import place_round, request_cost
from repro.stack.kernels import column_commands, column_cost

CONFIG = SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1)
# Pin the pre-self-healing semantics for the conservation tests: a killed
# shard stays quarantined (no respawn) so replays land on survivors only.
NO_RESPAWN = ServerConfig(max_respawns=0)


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def gemv_stream(count, distinct, seed=7):
    """``count`` gemv Requests over ``distinct`` weight matrices."""
    rng = np.random.default_rng(seed)
    weights = [rand((16, 8), 1000 + k) for k in range(distinct)]
    arrivals = np.cumsum(rng.exponential(300.0, size=count))
    return [
        Request(
            "gemv", weights=weights[i % distinct], a=rand(8, i),
            arrival_ns=float(arrivals[i]), trace_id=f"req{i}",
        )
        for i in range(count)
    ]


def kill_busiest(fabric) -> int:
    """Before ``run()``: arm a SIGKILL of the shard the next round's
    placement will load most — by cost in column commands, the router's
    one definition of load (first such shard on a tie) — right after that
    round is dispatched, its serve stalled so it cannot reply first
    (:func:`~repro.chaos.harness.arm_kill`).  Returns the victim."""
    _, load, _ = place_round(
        fabric._pending,
        lambda request: request_cost(request, fabric.config, fabric.server_config),
        fabric.alive_shards(),
        fabric._ring,
    )
    victim = max((s for s in load if load[s]), key=load.get)
    arm_kill(fabric, victim)
    return victim


def assert_bit_exact(handles):
    for handle in handles:
        golden = gemv_reference(
            handle.request.weights, handle.request.a, CONFIG.num_pchs
        )
        assert handle.result is not None
        assert np.array_equal(handle.result, golden)


class TestFabricServing:
    def test_serves_bit_exact_across_shards(self):
        items = gemv_stream(16, 4)
        with PimFabric(CONFIG, workers=2) as fabric:
            handles = [fabric.submit(r) for r in items]
            profile = fabric.run()
        assert_bit_exact(handles)
        assert all(h.outcome == "completed" for h in handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert {h.shard for h in handles} == {0, 1}

    def test_same_signature_requests_share_a_shard(self):
        items = gemv_stream(12, 3)
        with PimFabric(CONFIG, workers=3) as fabric:
            handles = [fabric.submit(r) for r in items]
            fabric.run()
        by_signature = {}
        for handle in handles:
            by_signature.setdefault(handle.request.signature, set()).add(
                handle.shard
            )
        assert all(len(shards) == 1 for shards in by_signature.values())

    def test_submit_after_close_rejected(self):
        fabric = PimFabric(CONFIG, workers=1)
        fabric.close()
        with pytest.raises(PimProgramError, match="closed"):
            fabric.submit(Request("relu", a=rand(8, 0)))

    def test_close_leaves_every_slot_closed(self):
        """After ``close()`` the slot states and the alive list agree:
        every reaped worker reports ``closed``, none ``serving``."""
        with PimFabric(CONFIG, workers=2) as fabric:
            fabric.kill_worker(1)
            fabric.submit(Request("relu", a=rand(8, 0)))
            fabric.run()
            assert fabric.shard_states() == {0: "serving", 1: "rejoined"}
        assert fabric.alive_shards() == []
        assert fabric.shard_states() == {0: "closed", 1: "closed"}

    def test_context_fabric_entry_point_merges_into_profiler(self):
        items = gemv_stream(8, 2)
        with PimContext(CONFIG) as ctx:
            fabric = ctx.fabric(workers=2)
            handles = [fabric.submit(r) for r in items]
            fabric.run()
            assert ctx.profiler.serving is not None
            assert ctx.profiler.serving.num_requests == len(items)
            text = "\n".join(ctx.report())
            assert "serving profile" in text
        assert_bit_exact(handles)


class TestWorkerKillConservation:
    """Satellite: SIGKILL one of four workers mid-run; nothing is lost."""

    def test_every_request_exactly_one_terminal_outcome(self):
        items = gemv_stream(24, 6)
        with PimFabric(CONFIG, workers=4, server_config=NO_RESPAWN) as fabric:
            handles = [fabric.submit(r) for r in items]
            victim = kill_busiest(fabric)
            profile = fabric.run()
        assert all(h.outcome is not None for h in handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert_bit_exact(handles)
        assert fabric.quarantined_shards == (victim,)
        assert profile.quarantined_shards == [victim]
        assert profile.replays > 0
        assert any(h.replays > 0 for h in handles)
        assert all(h.shard != victim for h in handles)
        assert len(fabric.worker_errors) == 1
        assert isinstance(fabric.worker_errors[0], PimWorkerError)
        assert fabric.worker_errors[0].shard == victim

    def test_all_workers_dead_completes_on_host(self):
        items = gemv_stream(6, 2)
        with PimFabric(CONFIG, workers=2, server_config=NO_RESPAWN) as fabric:
            handles = [fabric.submit(r) for r in items]

            def kill_everything(fab):
                for shard in list(fab.alive_shards()):
                    fab.kill_worker(shard)
                fab._post_dispatch_hook = None

            fabric._post_dispatch_hook = kill_everything
            profile = fabric.run()
        assert_bit_exact(handles)
        assert all(h.outcome == "degraded_host" for h in handles)
        assert all(h.shard == -1 for h in handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert sorted(profile.quarantined_shards) == [0, 1]
        # Each host completion is a fault-driven fallback, read from its entry.
        assert profile.fallbacks == profile.degraded == len(handles)

    def test_replay_lands_on_survivors(self):
        items = gemv_stream(12, 4)
        with PimFabric(CONFIG, workers=3, server_config=NO_RESPAWN) as fabric:
            handles = [fabric.submit(r) for r in items]
            kill_busiest(fabric)
            fabric.run()
            survivors = set(fabric.alive_shards())
        replayed = [h for h in handles if h.replays > 0]
        assert replayed
        assert all(h.shard in survivors for h in replayed)


class TestFabricTraceMerge:
    """Satellite: spans from every worker reassemble into one valid trace."""

    def run_traced(self, kill=False):
        config = CONFIG.replace(trace=True)
        items = gemv_stream(12, 4)
        fabric = PimFabric(config, workers=3)
        try:
            handles = [fabric.submit(r) for r in items]
            if kill:
                def hook(fab):
                    fab.kill_worker(fab.alive_shards()[0])
                    fab._post_dispatch_hook = None
                fabric._post_dispatch_hook = hook
            fabric.run()
        finally:
            fabric.close()
        return fabric, handles

    def test_merged_trace_validates(self):
        fabric, handles = self.run_traced()
        doc = chrome_trace(fabric.tracer)
        assert validate_chrome_trace(doc) == []
        # Placement is in the trace as a number: one instant per round
        # with every shard's cost in column commands and the fair share.
        (placed,) = [e for e in fabric.tracer.events if e.name == "place:round"]
        cost = {
            int(shard): int(commands)
            for shard, commands in (
                pair.split(":") for pair in placed.attrs["cost"].split(",")
            )
        }
        total = sum(
            request_cost(h.request, CONFIG, fabric.server_config)
            for h in handles
        )
        assert set(cost) == {0, 1, 2} and sum(cost.values()) == total
        assert placed.attrs["fair"] == -(-total // 3)

    def test_one_process_row_per_shard(self):
        fabric, handles = self.run_traced()
        doc = chrome_trace(fabric.tracer)
        span_pids = {
            e["pid"] for e in doc["traceEvents"] if e["ph"] in ("X", "i")
        }
        shards = {h.shard for h in handles}
        assert {SHARD_PID_BASE + s for s in shards} <= span_pids
        names = {
            (e["pid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        for shard in shards:
            assert (SHARD_PID_BASE + shard, f"shard{shard}") in names

    def test_trace_ids_thread_through_workers(self):
        fabric, handles = self.run_traced()
        seen = {
            span.attrs["trace_id"]
            for span in fabric.tracer.spans
            if "trace_id" in span.attrs
        }
        assert {f"req{i}" for i in range(12)} <= seen

    def test_span_ids_unique_after_multi_shard_merge(self):
        fabric, handles = self.run_traced()
        ids = [span.span_id for span in fabric.tracer.spans]
        assert len(ids) == len(set(ids))
        known = set(ids)
        assert all(
            span.parent_id is None or span.parent_id in known
            for span in fabric.tracer.spans
        )

    def test_a_reply_comes_back_unchanged(self, monkeypatch):
        """The router merges shifted copies of a reply's spans and
        (frozen) events: the reply's own objects keep their ids."""
        merge = PimFabric._merge_trace
        replies = []

        def spy(self, spans, events):
            ids = [(s.span_id, s.parent_id) for s in spans], [e.parent_id for e in events]
            merge(self, spans, events)
            replies.append((spans, events, ids))

        monkeypatch.setattr(PimFabric, "_merge_trace", spy)
        fabric, _ = self.run_traced()
        assert any(e.parent_id is not None for _, events, _ in replies for e in events)
        for spans, events, ids in replies:
            assert ([(s.span_id, s.parent_id) for s in spans], [e.parent_id for e in events]) == ids
        merged = {id(span) for span in fabric.tracer.spans}
        assert not any(id(span) in merged for spans, _, _ in replies for span in spans)

    def test_quarantine_emits_event_and_trace_still_validates(self):
        fabric, handles = self.run_traced(kill=True)
        assert_bit_exact(handles)
        doc = chrome_trace(fabric.tracer)
        assert validate_chrome_trace(doc) == []
        assert any(
            event.name == "quarantine:shard" for event in fabric.tracer.events
        )


class TestSelfHealing:
    """The lifecycle manager respawns, rejoins, waits out stragglers,
    drains."""

    def test_killed_shard_respawns_and_rejoins_ring(self):
        items = gemv_stream(24, 6)
        config = ServerConfig(max_respawns=1)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            handles = [fabric.submit(r) for r in items]
            victim = kill_busiest(fabric)
            profile = fabric.run()
            # Capacity restored: the victim was respawned into its slot
            # and rejoined the ring within the same run.
            assert fabric.alive_shards() == [0, 1]
            assert fabric.shard_states()[victim] == "rejoined"
        assert_bit_exact(handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert profile.quarantined_shards == [victim]
        assert profile.respawns == {victim: 1}
        assert fabric.respawns == {victim: 1}
        assert profile.replays > 0
        # Nothing was forced onto the host path: the healed fleet served
        # every replay on-device.
        assert all(h.shard != -1 for h in handles)

    def test_respawn_budget_bounds_healing(self):
        items = gemv_stream(8, 2)
        config = ServerConfig(max_respawns=0)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            handles = [fabric.submit(r) for r in items]
            victim = kill_busiest(fabric)
            fabric.run()
            assert victim not in fabric.alive_shards()
            assert fabric.respawns == {}
        assert_bit_exact(handles)

    def test_wedged_worker_detected_by_reply_timeout_watchdog(self):
        """A worker stalled past ``reply_timeout_s`` is killed, quarantined,
        its round replayed, and its slot respawned (fabric watchdog path)."""
        items = gemv_stream(12, 4)
        config = ServerConfig(reply_timeout_s=0.4, max_respawns=1)
        traced = CONFIG.replace(trace=True)
        with PimFabric(traced, workers=2, server_config=config) as fabric:
            assert fabric.server_config.reply_timeout_s == 0.4
            handles = [fabric.submit(r) for r in items]
            fabric.inject_worker_fault(0, {"delay_s": 5.0, "wedge": True})
            profile = fabric.run()
            assert fabric.alive_shards() == [0, 1]
        assert_bit_exact(handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert 0 in profile.quarantined_shards
        assert profile.respawns.get(0) == 1
        wedge_errors = [e for e in fabric.worker_errors if "wedged" in str(e)]
        assert wedge_errors and "reply_timeout_s" in str(wedge_errors[0])
        # The worker answers the between-rounds ping and wedges in its
        # serve, so the watchdog, not the heartbeat, is what catches it.
        events = {e.name for e in fabric.tracer.events}
        assert "wedge:shard" in events and "heartbeat:miss" not in events

    def test_straggler_short_of_the_watchdog_is_waited_out(self):
        """A stalled (not wedged) shard keeps its group: the router waits
        for its reply, and the run is the one an unstalled fabric serves."""
        items = gemv_stream(12, 4)
        config = ServerConfig(reply_timeout_s=30.0)

        def serve(stall):
            with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
                handles = [fabric.submit(r) for r in items]
                if stall:
                    fabric.inject_worker_fault(0, {"delay_s": 1.0})
                profile = fabric.run()
                assert fabric.alive_shards() == [0, 1]
            return handles, profile

        handles, stalled = serve(stall=True)
        _, fresh = serve(stall=False)
        assert_bit_exact(handles)
        assert stalled.quarantined_shards == []
        assert stalled.replays == 0
        assert stalled.render() == fresh.render()

        def finishes(profile):
            return [(r.request_id, r.shard, r.finish_ns) for r in profile.requests]

        assert finishes(stalled) == finishes(fresh)

    def test_heartbeat_detects_silent_death_between_rounds(self):
        config = ServerConfig(heartbeat_timeout_s=2.0, max_respawns=1)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            first = [fabric.submit(r) for r in gemv_stream(8, 2)]
            fabric.run()
            fabric.kill_worker(0)  # dies silently between rounds
            second = [fabric.submit(r) for r in gemv_stream(8, 2, seed=11)]
            profile = fabric.run()
            assert fabric.alive_shards() == [0, 1]
        assert_bit_exact(first + second)
        assert any("heartbeat" in str(e) for e in fabric.worker_errors)
        assert fabric.respawns == {0: 1}
        assert profile.respawns == {0: 1}

    def test_drain_between_rounds_is_zero_loss_hot_restart(self):
        with PimFabric(CONFIG, workers=2) as fabric:
            first = [fabric.submit(r) for r in gemv_stream(8, 2)]
            fabric.run()
            fabric.drain(0)
            assert fabric.drains == 1
            assert fabric.alive_shards() == [0, 1]
            assert fabric.shard_states()[0] == "rejoined"
            second = [fabric.submit(r) for r in gemv_stream(8, 2, seed=11)]
            profile = fabric.run()
        assert_bit_exact(first + second)
        assert profile.quarantined_shards == []
        assert profile.replays == 0
        assert fabric.respawns == {}

    def test_drain_mid_round_finishes_in_flight_groups(self):
        """Draining a shard with a round in flight collects its reply
        first: in-flight groups finish, nothing is replayed."""
        items = gemv_stream(12, 4)

        def drain_busiest(fabric):
            busiest = max(
                (s for s in fabric.alive_shards()
                 if fabric._round_assignment.get(s)),
                key=lambda s: len(fabric._round_assignment[s]),
            )
            fabric.drain(busiest)
            fabric._post_dispatch_hook = None
            self.drained = busiest

        with PimFabric(CONFIG, workers=2) as fabric:
            handles = [fabric.submit(r) for r in items]
            fabric._post_dispatch_hook = drain_busiest
            profile = fabric.run()
            assert fabric.alive_shards() == [0, 1]
            assert fabric.drains == 1
        assert_bit_exact(handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert profile.replays == 0
        assert profile.quarantined_shards == []

    def test_drain_of_a_dead_in_flight_shard_replays_at_once(self):
        """Draining a shard whose worker died with its round in flight
        replays the group at once: the fresh worker in the slot never got
        the dispatch, so it is neither waited on nor quarantined."""
        items = gemv_stream(12, 4)
        config = ServerConfig(hedge=False, reply_timeout_s=2.0)

        def kill_then_drain(fabric):
            cost = fabric._round_cost
            victim = max(cost, key=lambda s: (cost[s], -s))
            self.group = len(fabric._round_assignment[victim])
            fabric.kill_worker(victim)
            fabric.drain(victim)
            fabric._post_dispatch_hook = None

        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            handles = [fabric.submit(r) for r in items]
            fabric._post_dispatch_hook = kill_then_drain
            profile = fabric.run()
            assert fabric.alive_shards() == [0, 1]
            assert fabric.drains == 1
        assert_bit_exact(handles)
        assert fabric.quarantined_shards == ()
        assert profile.quarantined_shards == []
        assert profile.replays == self.group
        assert not any("wedged" in str(e) for e in fabric.worker_errors)

    def test_drain_dead_shard_rejected(self):
        config = ServerConfig(max_respawns=0)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            fabric.kill_worker(0)
            fabric._quarantine(0)
            with pytest.raises(PimWorkerError, match="drain"):
                fabric.drain(0)

    def test_corrupt_reply_fails_crc_and_replays(self):
        """Satellite: a worker reply corrupted in transit is caught by the
        CRC32 check, the shard quarantined, and the round replayed."""
        items = gemv_stream(12, 4)
        config = ServerConfig(max_respawns=1)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            handles = [fabric.submit(r) for r in items]
            fabric.inject_worker_fault(0, {"corrupt_reply": True, "seed": 3})
            profile = fabric.run()
            assert fabric.alive_shards() == [0, 1]
        assert_bit_exact(handles)
        assert sum(profile.outcomes().values()) == len(handles)
        assert 0 in profile.quarantined_shards
        assert profile.replays > 0
        assert any("CRC32" in str(e) for e in fabric.worker_errors)

    def test_timeouts_thread_through_server_config(self):
        """Satellite: the historical hard-coded poll/join constants are
        now ServerConfig knobs (defaults preserved)."""
        assert ServerConfig().reply_timeout_s == 600.0
        assert ServerConfig().close_timeout_s == 10.0
        assert ServerConfig().join_timeout_s == 30.0
        config = ServerConfig(
            reply_timeout_s=1.25, close_timeout_s=2.5, join_timeout_s=3.5,
            heartbeat_timeout_s=4.5,
        )
        fabric = PimFabric(CONFIG, workers=1, server_config=config)
        try:
            assert fabric.server_config.reply_timeout_s == 1.25
            assert fabric.server_config.close_timeout_s == 2.5
            assert fabric.server_config.join_timeout_s == 3.5
            assert fabric.server_config.heartbeat_timeout_s == 4.5
        finally:
            fabric.close()


def mixed_round():
    """A round of every operator kind the fabric ledger serves, ``g g a
    r`` twice: GEMVs over two weight matrices, adds and relus."""
    weights = [rand((16, 8), 2000 + k) for k in range(2)]
    requests = []
    for i in range(8):
        if i % 4 < 2:
            requests.append(Request("gemv", weights=weights[i % 2], a=rand(8, i)))
        elif i % 4 == 2:
            requests.append(Request("add", a=rand(256, 100 + i), b=rand(256, 200 + i)))
        else:
            requests.append(Request("relu", a=rand(512, 100 + i)))
    return requests


def policies(fabric):
    return {
        shard: os.sched_getscheduler(link.process.pid)
        for shard, link in fabric._workers.items()
    }


class TestWorkerScheduling:
    """Workers run under ``SCHED_BATCH`` so a woken worker never preempts
    the router mid-dispatch; the policy is best-effort."""

    @pytest.mark.skipif(
        not hasattr(os, "SCHED_BATCH"), reason="no SCHED_BATCH on this platform"
    )
    def test_every_worker_process_runs_under_sched_batch(self):
        batch = {0: os.SCHED_BATCH, 1: os.SCHED_BATCH}
        config = ServerConfig(heartbeat_timeout_s=2.0, max_respawns=1)
        with PimFabric(CONFIG, workers=2, server_config=config) as fabric:
            assert policies(fabric) == batch
            pids = {s: link.process.pid for s, link in fabric._workers.items()}
            fabric.kill_worker(0)
            handles = [fabric.submit(r) for r in gemv_stream(8, 2)]
            fabric.run()
            assert fabric.respawns == {0: 1}
            assert fabric._workers[0].process.pid != pids[0]
            assert policies(fabric) == batch
            fabric.drain(1)
            assert fabric._workers[1].process.pid != pids[1]
            assert policies(fabric) == batch
        assert_bit_exact(handles)

    @pytest.mark.parametrize("cause", ["refused", "missing"])
    def test_a_refused_or_missing_policy_still_serves(self, monkeypatch, cause):
        if cause == "refused":
            def refuse(*args):
                raise PermissionError("operation not permitted")

            monkeypatch.setattr(os, "sched_setscheduler", refuse, raising=False)
        else:
            monkeypatch.delattr(os, "SCHED_BATCH", raising=False)
        requests = mixed_round()
        with PimFabric(CONFIG, workers=2) as fabric:
            handles = [fabric.submit(r) for r in requests]
            profile = fabric.run()
            if hasattr(os, "sched_getscheduler"):
                # Each worker keeps the policy it inherited.
                assert set(policies(fabric).values()) == {os.sched_getscheduler(0)}
        assert sum(profile.outcomes().values()) == len(requests)
        assert {h.shard for h in handles} == {0, 1}
        for handle in handles:
            assert handle.outcome == "completed"
            assert np.array_equal(
                handle.result, golden_reference(handle.request, CONFIG.num_pchs)
            )


def uncached_cost(op, shape, streams):
    """Column commands plus a GEMV's readback columns, computed afresh."""
    cost = column_commands(op, shape, streams)
    if op == "gemv":
        tiles = stream.gemv_shape(*shape, streams)[0]
        cost += tiles * stream.columns(stream.gemv_readback(0, 0))
    return cost


class TestRequestCostMemo:
    """``column_cost`` is memoised; a remembered price equals a fresh one
    for every shape the placement tests and the ledger's workloads
    price."""

    @staticmethod
    def shapes():
        from benchmarks.e2e.workloads import SPECS, make_wave

        zeros = lambda *shape: np.zeros(shape, dtype=np.float16)
        requests = [
            Request("gemv", weights=zeros(m, n), a=zeros(n))
            for m, n in [(64, 96), (128, 512), (200, 96)]
        ] + [
            Request(op, a=zeros(length), b=zeros(length) if op in ("add", "mul") else None,
                    scalars=(1.5, 0.25) if op == "bn" else None)
            for op in ("add", "mul", "relu", "bn")
            for length in (1024, 2048, 4096)
        ]
        for name in ("gemv_serve", "eltwise_serve", "fabric_hardened"):
            requests += make_wave(SPECS[name], 11, 0).requests
        hidden = len(make_wave(SPECS["lstm_blas"], 11, 0).inputs[0])
        requests.append(
            Request("gemv", weights=zeros(4 * hidden, hidden), a=zeros(hidden))
        )
        return requests

    @pytest.mark.parametrize("lanes", [1, 2, 4])
    @pytest.mark.parametrize("num_pchs", [2, 4])
    def test_remembered_price_equals_a_fresh_one(self, lanes, num_pchs):
        config = SystemConfig(num_pchs=num_pchs, num_rows=256, simulate_pchs=1)
        server = ServerConfig(lanes=lanes)
        for request in self.shapes():
            if request.op == "gemv":
                shape, streams = np.shape(request.weights), num_pchs
            else:
                shape, streams = (np.size(request.a),), max(1, num_pchs // lanes)
            want = uncached_cost(request.op, shape, streams)
            assert request_cost(request, config, server) == want
            hits = column_cost.cache_info().hits
            assert request_cost(request, config, server) == want
            assert column_cost.cache_info().hits == hits + 1
