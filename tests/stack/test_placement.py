"""Placement as a property: :func:`repro.stack.fabric.place_round` on plain data.

No worker is spawned here.  A round is a list of ``FabricHandle`` s over
synthetic signatures with drawn costs; the ring is the fabric's own
consistent-hash ring.  The last class ties the cost the router computes
from shapes to what a real kernel launch puts on the bus.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dram.commands import CommandType
from repro.stack import Request, ServerConfig, SystemConfig
from repro.stack.fabric import (
    FabricHandle,
    PimFabric,
    _HashRing,
    _WorkerLink,
    place_round,
    request_cost,
)
from repro.stack.kernels import (
    ElementwiseKernel,
    GemvKernel,
    column_commands,
    column_cost,
)
from repro.stack.runtime import PimSystem
from repro.tools import trace_channel

from .test_fabric import kill_busiest

_OPERAND = np.zeros(8, dtype=np.float16)


def make_round(groups):
    """Handles for ``groups`` = [(key, cost, count)]: ``count`` requests
    of signature ``("bn", 8, (key, cost))``, ids in group order."""
    requests = [
        Request("bn", a=_OPERAND, scalars=(key, cost))
        for key, cost, count in groups
        for _ in range(count)
    ]
    return [FabricHandle(rid, request) for rid, request in enumerate(requests)]


def drawn_cost(request):
    return int(request.scalars[1])


def signature_shards(assignment):
    return {
        handle.request.signature: shard
        for shard, items in assignment.items()
        for handle in items
    }


rounds = st.lists(
    st.tuples(st.integers(1, 400), st.integers(1, 6)),
    min_size=1, max_size=10,
).map(lambda drawn: [(key, *pair) for key, pair in enumerate(drawn)])
alive_sets = st.lists(
    st.integers(0, 5), min_size=1, max_size=6, unique=True
).map(sorted)


class TestPlacementProperties:
    @given(groups=rounds, alive=alive_sets)
    @settings(max_examples=60)
    def test_every_handle_once_on_an_alive_shard_groups_whole(self, groups, alive):
        handles = make_round(groups)
        assignment, load, fair = place_round(
            handles, drawn_cost, alive, _HashRing(alive)
        )
        placed = [h.request_id for items in assignment.values() for h in items]
        assert sorted(placed) == [h.request_id for h in handles]
        assert set(assignment) <= set(alive) and set(load) == set(alive)
        by_signature = {}
        for shard, items in assignment.items():
            assert items, "empty shards are dropped from the assignment"
            assert [h.request_id for h in items] == sorted(
                h.request_id for h in items
            )
            assert load[shard] == sum(drawn_cost(h.request) for h in items)
            for handle in items:
                by_signature.setdefault(handle.request.signature, set()).add(shard)
        assert all(len(shards) == 1 for shards in by_signature.values())

    @given(groups=rounds, alive=alive_sets)
    @settings(max_examples=60)
    def test_load_bounded_by_fair_share_plus_one_group(self, groups, alive):
        _, load, fair = place_round(
            make_round(groups), drawn_cost, alive, _HashRing(alive)
        )
        total = sum(cost * count for _, cost, count in groups)
        assert fair == max(1, math.ceil(total / len(alive)))
        assert sum(load.values()) == total
        assert max(load.values()) <= fair + max(
            cost * count for _, cost, count in groups
        )

    @given(groups=rounds, alive=alive_sets, data=st.data())
    @settings(max_examples=60)
    def test_invariant_under_permutation_of_the_handles(self, groups, alive, data):
        handles = make_round(groups)
        shuffled = data.draw(st.permutations(handles))
        ring = _HashRing(alive)
        first = place_round(handles, drawn_cost, alive, ring)
        second = place_round(shuffled, drawn_cost, alive, ring)
        assert first[1:] == second[1:]
        assert {s: [h.request_id for h in items] for s, items in first[0].items()} == {
            s: [h.request_id for h in items] for s, items in second[0].items()
        }

    @given(groups=rounds, alive=alive_sets, extra=st.integers(1, 400))
    @settings(max_examples=60)
    def test_signature_set_places_identically_and_additions_stay_local(
        self, groups, alive, extra
    ):
        ring = _HashRing(alive)
        first, _, _ = place_round(make_round(groups), drawn_cost, alive, ring)
        again, _, _ = place_round(make_round(groups), drawn_cost, alive, ring)
        assert signature_shards(first) == signature_shards(again)
        # One more, unrelated signature: where every group is ring-owned
        # and under the fair share before and after, nobody else moves.
        grown = groups + [(len(groups), extra, 1)]
        bigger, load, fair = place_round(
            make_round(grown), drawn_cost, alive, ring
        )
        home = {}
        for handle in make_round(grown):
            signature = handle.request.signature
            home.setdefault(ring.lookup(signature), []).append(
                drawn_cost(handle.request)
            )
        assume(max(sum(costs) for costs in home.values()) <= fair)
        after = signature_shards(bigger)
        assert all(ring.lookup(sig) == shard for sig, shard in after.items())
        before = signature_shards(first)
        moved = [sig for sig in before if before[sig] != after[sig]]
        assert all(ring.lookup(sig) != before[sig] for sig in moved)

    def test_cost_not_count_decides_the_shard(self):
        # The ledger's wave in miniature: 4 costly singletons and two
        # groups of 4 cheap requests.  By count the cheap groups fill a
        # shard's fair share and every costly request lands on the other.
        groups = [(k, 120, 1) for k in range(4)] + [(4, 24, 4), (5, 16, 4)]
        assignment, load, fair = place_round(
            make_round(groups), drawn_cost, [0, 1], _HashRing([0, 1])
        )
        costly = {
            shard: sum(1 for h in items if drawn_cost(h.request) == 120)
            for shard, items in assignment.items()
        }
        assert costly == {0: 2, 1: 2}
        assert abs(load[0] - load[1]) <= 120
        assert max(load.values()) <= fair + 120


class TestRequestCost:
    CONFIG = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1)

    def test_ledger_operators(self):
        server = ServerConfig()  # 2 lanes of 2 channel slots
        w = np.zeros((64, 96), dtype=np.float16)
        cost = lambda request: request_cost(request, self.CONFIG, server)
        assert cost(Request("gemv", weights=w, a=w[0])) == 56 + 64
        assert cost(Request("add", a=np.zeros(1024), b=np.zeros(1024))) == 24
        assert cost(Request("relu", a=np.zeros(2048))) == 16
        big = np.zeros((128, 512), dtype=np.float16)
        assert cost(Request("gemv", weights=big, a=big[0])) == 264 + 64

    def test_more_lanes_means_fewer_slots_and_longer_streams(self):
        request = Request("relu", a=np.zeros(4096))
        costs = [
            request_cost(request, self.CONFIG, ServerConfig(lanes=lanes))
            for lanes in (1, 2, 4)
        ]
        assert costs == sorted(costs) and costs[0] < costs[-1]

    @pytest.mark.parametrize("m,n", [(64, 96), (128, 512), (200, 96)])
    def test_gemv_cost_is_what_a_launch_puts_on_the_bus(self, m, n):
        system = PimSystem(self.CONFIG.replace(num_rows=512))
        kernel = GemvKernel(system, m, n, channels=(0, 1))
        kernel.load_weights(np.zeros((m, n), dtype=np.float16))
        with trace_channel(system.device.pch(0)) as trace:
            _, report = kernel(np.zeros(n, dtype=np.float16), simulate_pchs=1)
        # The readback: the SB-mode reads of the partial sums.
        readback = sum(
            record.count for record in trace.records
            if record.mode == "single-bank" and record.cmd_type is CommandType.RD
        )
        streams = report.simulated_pchs  # slices run on the timed channel
        assert streams == 2
        assert report.column_commands == column_commands("gemv", (m, n), 4) * streams
        assert (
            report.column_commands + readback
            == column_cost("gemv", (m, n), 4) * streams
        )

    @pytest.mark.parametrize("op", ["add", "mul", "relu", "bn"])
    @pytest.mark.parametrize("length", [1024, 2048, 4096])
    def test_elementwise_cost_is_the_reported_count(self, op, length):
        system = PimSystem(self.CONFIG)
        kernel = ElementwiseKernel(system, op, length, channels=(0, 1))
        a = np.zeros(length, dtype=np.float16)
        _, report = kernel(
            a, a if op in ("add", "mul") else None,
            scalars=(1.5, 0.25) if op == "bn" else None, simulate_pchs=1,
        )
        assert report.simulated_pchs == 1
        assert report.column_commands == column_cost(op, (length,), 2)
        request = Request(
            op, a=a, b=a if op in ("add", "mul") else None,
            scalars=(1.5, 0.25) if op == "bn" else None,
        )
        assert request_cost(request, self.CONFIG, ServerConfig()) == (
            report.column_commands
        )


class _StubFabric(PimFabric):
    """A router with pending requests and shard slots but no processes:
    enough state for ``kill_busiest`` to pick its victim before ``run()``
    and arm the stall and the post-dispatch hook."""

    def __init__(self, requests, shards):
        self.config = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1)
        self.server_config = ServerConfig()
        self._workers = {
            shard: _WorkerLink(shard=shard, process=None, conn=None) for shard in shards
        }
        self._ring = _HashRing(shards)
        self._pending = [FabricHandle(rid, r) for rid, r in enumerate(requests)]
        self._post_dispatch_hook = None
        self.stalled, self.killed = [], []

    def inject_worker_fault(self, shard, spec):
        self.stalled.append((shard, spec["wedge"]))

    def kill_worker(self, shard):
        self.killed.append(shard)


class TestLoadIsCostEverywhere:
    """Count and cost disagree: one GEMV-sized request against eight
    cheap ones."""

    def test_kill_smoke_victim_is_the_costliest_shard(self):
        gemv = Request(
            "gemv", weights=np.zeros((128, 512), np.float16), a=np.zeros(512, np.float16)
        )
        cheap = [Request("relu", a=_OPERAND) for _ in range(8)]
        fabric = _StubFabric([gemv] + cheap, shards=[0, 1, 2])
        assignment, load, _ = place_round(
            fabric._pending,
            lambda request: request_cost(request, fabric.config, fabric.server_config),
            [0, 1, 2], fabric._ring,
        )
        costliest = max(load, key=load.get)
        assert len(assignment[costliest]) == 1 < max(map(len, assignment.values()))
        # Picked and stalled before the round is placed; killed after.
        assert kill_busiest(fabric) == costliest
        assert fabric.stalled == [(costliest, True)] and fabric.killed == []
        fabric._post_dispatch_hook(fabric)
        assert fabric.killed == [costliest]
        assert fabric._post_dispatch_hook is None
