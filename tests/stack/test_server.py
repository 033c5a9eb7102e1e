"""The serving engine: batching, lane pipelining, per-channel-set fences.

The tentpole invariant is *bit-exactness*: a request served through the
batched/pipelined path must produce exactly the bytes the sequential
``PimBlas`` path produces on an identical platform — under refresh, under
ECC, and under an adversarial in-window scheduler.  The second invariant
is *isolation*: a lane's fences and drains never move another lane's
clocks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.controller import SchedulerPolicy
from repro.stack.api import Request, ServerConfig
from repro.stack.blas import PimBlas
from repro.stack.kernels import ElementwiseKernel, GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig
from repro.stack.server import PimServer

PLAIN = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1)
HARDENED = PLAIN.replace(refresh=True, ecc=True)


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def _mixed_workload(seed=3, count=12):
    """Interleaved gemv / add / mul requests (one shared weight matrix)."""
    w = rand((48, 80), seed)
    requests = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            requests.append(("gemv", dict(weights=w, a=rand(80, seed + 10 + i))))
        elif kind == 1:
            requests.append(
                ("add", dict(a=rand(192, seed + 10 + i), b=rand(192, seed + 40 + i)))
            )
        else:
            requests.append(
                ("mul", dict(a=rand(192, seed + 10 + i), b=rand(192, seed + 40 + i)))
            )
    return requests


def _sequential_results(config, workload):
    blas = PimBlas(PimSystem(config), simulate_pchs=config.simulate_pchs)
    results = []
    for op, kw in workload:
        if op == "gemv":
            y, _ = blas.gemv(kw["weights"], kw["a"])
        elif op == "add":
            y, _ = blas.add(kw["a"], kw["b"])
        else:
            y, _ = blas.mul(kw["a"], kw["b"])
        results.append(y)
    return results


class TestServingBitExact:
    @pytest.mark.parametrize(
        "config", [PLAIN, HARDENED], ids=["plain", "refresh+ecc"]
    )
    def test_mixed_load_matches_sequential(self, config):
        """gemv/add/mul through batched lanes == N sequential BLAS calls."""
        workload = _mixed_workload()
        expected = _sequential_results(config, workload)
        system = PimSystem(config)
        with PimServer(system, ServerConfig(lanes=2, max_batch=4)) as server:
            handles = [server.submit(Request(op, **kw)) for op, kw in workload]
            profile = server.run()
        assert profile.num_requests == len(workload)
        # Batching actually happened (all arrivals at t=0).
        assert profile.mean_batch_size() > 1
        for handle, want in zip(handles, expected):
            assert np.array_equal(handle.result, want)

    def test_fused_gemv_batch_matches_sequential_calls(self):
        """GemvKernel.batched over max_batch slots == one call per input, bitwise."""
        system = PimSystem(PLAIN)
        w = rand((64, 96), 0)
        xs = np.stack([rand(96, i + 1) for i in range(5)])
        kernel = GemvKernel(system, 64, 96, max_batch=4)
        kernel.load_weights(w)
        singles = np.stack([kernel(x, simulate_pchs=1)[0] for x in xs])
        fused, report = kernel.batched(xs, simulate_pchs=1)
        assert np.array_equal(fused, singles)
        # 5 inputs over max_batch=4 slots -> exactly two launches.
        assert report.notes["launches"] == 2

    def test_fused_elementwise_batch_matches_sequential_calls(self):
        system = PimSystem(PLAIN)
        kernel = ElementwiseKernel(system, "add", 200)
        items = [(rand(200, i), rand(200, i + 50)) for i in range(4)]
        singles = [kernel(a, b, simulate_pchs=1)[0] for a, b in items]
        fused, report = kernel.batched(items, simulate_pchs=1)
        for got, want in zip(fused, singles):
            assert np.array_equal(got, want)
        assert report.notes["launches"] == 1

    def test_lane_subset_gemv_matches_full_device(self):
        """The layout/executing-channel split keeps lane results canonical."""
        w, x = rand((72, 100), 5), rand(100, 6)
        full = GemvKernel(PimSystem(PLAIN), 72, 100)
        full.load_weights(w)
        y_full, _ = full(x, simulate_pchs=1)
        system = PimSystem(PLAIN)
        lane = GemvKernel(system, 72, 100, channels=(2, 3))
        lane.load_weights(w)
        y_lane, _ = lane(x, simulate_pchs=1)
        assert np.array_equal(y_lane, y_full)

    def test_amortisation_wins_at_batch(self):
        """Batched serving clears 1.5x sequential at mean batch >= 4."""
        workload = _mixed_workload(count=16)
        system = PimSystem(PLAIN)
        blas = PimBlas(PimSystem(PLAIN), simulate_pchs=1)
        seq_ns = 0.0
        for op, kw in workload:
            if op == "gemv":
                seq_ns += blas.gemv(kw["weights"], kw["a"])[1].ns
            elif op == "add":
                seq_ns += blas.add(kw["a"], kw["b"])[1].ns
            else:
                seq_ns += blas.mul(kw["a"], kw["b"])[1].ns
        with PimServer(system, ServerConfig(lanes=2, max_batch=8)) as server:
            for op, kw in workload:
                server.submit(Request(op, **kw))
            profile = server.run()
        assert profile.mean_batch_size() >= 4
        assert seq_ns / profile.makespan_ns >= 1.5


class TestServerMechanics:
    def test_lanes_lease_disjoint_channel_sets(self):
        system = PimSystem(PLAIN)
        server = PimServer(system, ServerConfig(lanes=2))
        chans = [set(lane.channels) for lane in server.lanes]
        assert chans[0].isdisjoint(chans[1])
        server.close()
        # Channels return to the driver on close.
        assert len(system.driver.channels_free) == system.num_pchs

    def test_queueing_accounting(self):
        """Waits and turnarounds follow from arrivals and lane clocks."""
        system = PimSystem(PLAIN)
        w = rand((48, 80), 0)
        with PimServer(system, ServerConfig(lanes=1, max_batch=2)) as server:
            first = server.submit(
                Request("gemv", weights=w, a=rand(80, 1), arrival_ns=0.0)
            )
            late = server.submit(
                Request("gemv", weights=w, a=rand(80, 2), arrival_ns=1e9)
            )
            profile = server.run()
        assert first.wait_ns == 0.0
        # The late request arrives long after the first finishes: no queueing.
        assert late.start_ns == pytest.approx(1e9)
        assert late.wait_ns == 0.0
        assert profile.makespan_ns == pytest.approx(late.finish_ns)
        for stats in profile.requests:
            assert stats.turnaround_ns == pytest.approx(
                stats.wait_ns + stats.service_ns
            )

    def test_gemv_signature_keys_on_content_not_identity(self):
        """Equal bytes share a launch; an ``id()``-recycled array must not.

        The resident-kernel cache outlives run() calls, so identity keys
        would serve stale weights once a freed array's id is reused.
        """
        w = rand((16, 32), 0)
        same = Request("gemv", weights=w, a=rand(32, 1))
        copy = Request("gemv", weights=w.copy(), a=rand(32, 2))
        other = Request("gemv", weights=rand((16, 32), 9), a=rand(32, 3))
        assert same.signature == copy.signature
        assert same.signature != other.signature

    def test_same_shape_weights_across_runs_stay_correct(self):
        """A second run with different same-shape weights (the old array
        dropped, so its id may be recycled) must use the new weights."""
        system = PimSystem(PLAIN)
        ref = PimBlas(PimSystem(PLAIN), simulate_pchs=1)
        with PimServer(system, ServerConfig(lanes=1, max_batch=2)) as server:
            w1 = rand((48, 80), 21)
            x1 = rand(80, 22)
            first = server.submit(Request("gemv", weights=w1, a=x1))
            server.run()
            want1 = ref.gemv(w1, x1)[0]
            del w1  # allow id reuse by the next allocation
            w2 = rand((48, 80), 23)
            x2 = rand(80, 24)
            second = server.submit(Request("gemv", weights=w2, a=x2))
            server.run()
            assert np.array_equal(first.result, want1)
            assert np.array_equal(second.result, ref.gemv(w2, x2)[0])
            # Distinct contents got distinct resident kernels; a
            # byte-identical resubmission reuses rather than reloads.
            assert len(server.lanes[0].gemv_kernels) == 2
            third = server.submit(Request("gemv", weights=w2.copy(), a=rand(80, 25)))
            server.run()
            assert len(server.lanes[0].gemv_kernels) == 2
            assert third.result is not None

    def test_uneven_lane_split_leases_every_channel(self):
        """3 lanes on 4 channels -> 2+1+1, no channel left permanently idle."""
        system = PimSystem(PLAIN)
        server = PimServer(system, ServerConfig(lanes=3))
        sizes = sorted(len(lane.channels) for lane in server.lanes)
        assert sizes == [1, 1, 2]
        leased = set()
        for lane in server.lanes:
            leased.update(lane.channels)
        assert leased == set(range(system.num_pchs))
        assert system.driver.channels_free == []
        server.close()
        assert len(system.driver.channels_free) == system.num_pchs

    def test_submit_validates_operands(self):
        system = PimSystem(PLAIN)
        with PimServer(system) as server:
            with pytest.raises(ValueError):
                server.submit(Request("gemv", a=rand(8, 0)))  # no weights
            with pytest.raises(ValueError):
                server.submit(Request("add", a=rand(8, 0)))  # no second operand
            with pytest.raises(ValueError):
                server.submit(Request("transpose", a=rand(8, 0)))


class TestChannelSetFences:
    """Per-channel-set fences preserve ordering without global coupling."""

    @given(seed=st.integers(0, 2**16), split=st.integers(1, 3))
    @settings(max_examples=8, deadline=None)
    def test_disjoint_lanes_stay_bit_exact_under_shuffle(self, seed, split):
        """Two lanes under an adversarial scheduler: per-set fences are
        enough to keep each lane's AAM windows ordered."""
        config = SystemConfig(
            num_pchs=4,
            num_rows=256,
            policy=SchedulerPolicy.SHUFFLE,
            scheduler_seed=seed,
        )
        system = PimSystem(config)
        lane_a = tuple(range(split))
        lane_b = tuple(range(split, 4))
        w, x = rand((48, 64), seed), rand(64, seed + 1)
        a, b = rand(160, seed + 2), rand(160, seed + 3)
        gemv = GemvKernel(system, 48, 64, channels=lane_a)
        gemv.load_weights(w)
        ew = ElementwiseKernel(system, "add", 160, channels=lane_b)
        y, _ = gemv(x)
        s, _ = ew(a, b)
        ref_sys = PimSystem(SystemConfig(num_pchs=4, num_rows=256))
        ref_gemv = GemvKernel(ref_sys, 48, 64)
        ref_gemv.load_weights(w)
        y_ref, _ = ref_gemv(x)
        assert np.array_equal(y, y_ref)
        assert np.array_equal(
            s, (a.astype(np.float16) + b.astype(np.float16)).astype(np.float16)
        )

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_set_drain_never_moves_other_clocks(self, seed):
        """drain_set/fence_set on one set leave non-members' clocks and
        queues untouched — the isolation pipelining relies on."""
        system = PimSystem(
            SystemConfig(
                num_pchs=4,
                num_rows=128,
                policy=SchedulerPolicy.SHUFFLE,
                scheduler_seed=seed,
            )
        )
        rng = np.random.default_rng(seed)
        for mc in system.controllers:
            for _ in range(int(rng.integers(4, 20))):
                mc.read(0, 0, int(rng.integers(0, 64)), int(rng.integers(0, 16)))
        members = (0, 1)
        others = (2, 3)
        before_cycles = [system.controllers[i].current_cycle for i in others]
        before_pending = [system.controllers[i].pending for i in others]
        system.fence_set(members)
        system.drain_set(members)
        for i, cycle, pend in zip(others, before_cycles, before_pending):
            assert system.controllers[i].current_cycle == cycle
            assert system.controllers[i].pending == pend
        # Members did drain and their clocks are aligned.
        for i in members:
            assert system.controllers[i].pending == 0
        assert (
            system.controllers[0].current_cycle
            == system.controllers[1].current_cycle
        )

    def test_lane_clocks_advance_independently(self):
        """Simulated time on one lane does not inflate the other lane's
        makespan — the overlap the serving speedup comes from."""
        system = PimSystem(PLAIN)
        heavy = ElementwiseKernel(system, "add", 16384, channels=(0, 1))
        light = ElementwiseKernel(system, "add", 64, channels=(2, 3))
        heavy(rand(16384, 0), rand(16384, 1), simulate_pchs=1)
        light(rand(64, 2), rand(64, 3), simulate_pchs=1)
        heavy_front = system.now_cycles((0, 1))
        light_front = system.now_cycles((2, 3))
        assert light_front < heavy_front
