"""Overload protection: admission, deadlines, priorities, budgets, breakers.

The tentpole invariant is *conservation*: every submitted request ends in
exactly one terminal :class:`~repro.stack.server.RequestOutcome`, requests
that are shed or expired cost zero device time (and never touch the
channel-occupancy accounting), and everything that completes — on the
device or degraded to the host — is bit-exact against the golden path.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PimDataError, PimOverloadError, PimProgramError
from repro.faults import FaultConfig
from repro.stack.api import Request, ServerConfig
from repro.stack.blas import add_reference, gemv_reference, mul_reference
from repro.stack.context import PimContext
from repro.stack.runtime import PimSystem, SystemConfig
from repro.stack.server import (
    ADMISSION_POLICIES,
    PimServer,
    RequestOutcome,
)

PLAIN = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1)


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def _assert_conserved(handles, profile):
    """Every request has exactly one terminal outcome; counts add up."""
    assert all(h.outcome is not None for h in handles)
    assert profile.num_requests == len(handles)
    assert sum(profile.outcomes().values()) == len(handles)


def _assert_zero_device_time(handle):
    """A dropped request must not have consumed simulated device time."""
    assert handle.service_ns == 0.0
    assert handle.batch_size == 0
    assert handle.result is None


class TestAdmissionBlock:
    def test_block_raises_once_lane_is_full(self):
        system = PimSystem(PLAIN)
        with PimServer(
            system, ServerConfig(lanes=1, queue_depth=2, admission="block")
        ) as server:
            a, b = rand(128, 0), rand(128, 1)
            server.submit(Request("add", a=a, b=b))
            server.submit(Request("add", a=a, b=b))
            with pytest.raises(PimOverloadError) as excinfo:
                server.submit(Request("add", a=a, b=b))
            assert excinfo.value.lane == 0

    def test_block_rejection_reserves_no_request_id(self):
        system = PimSystem(PLAIN)
        with PimServer(
            system, ServerConfig(lanes=1, queue_depth=1, admission="block")
        ) as server:
            a, b = rand(128, 0), rand(128, 1)
            first = server.submit(Request("add", a=a, b=b))
            with pytest.raises(PimOverloadError):
                server.submit(Request("add", a=a, b=b))
            retry = None
            profile = server.run()
            # run() drained the lane: the producer can resubmit now.
            retry = server.submit(Request("add", a=a, b=b))
            profile = server.run()
        assert retry.request_id == first.request_id + 1
        assert retry.outcome is RequestOutcome.COMPLETED

    def test_zero_queue_depth_means_unbounded(self):
        system = PimSystem(PLAIN)
        config = ServerConfig(lanes=1, queue_depth=0, admission="block")
        with PimServer(system, config) as server:
            a, b = rand(128, 0), rand(128, 1)
            handles = [server.submit(Request("add", a=a, b=b)) for _ in range(16)]
            profile = server.run()
        _assert_conserved(handles, profile)
        assert profile.rejected == 0

    def test_invalid_admission_policy_rejected(self):
        system = PimSystem(PLAIN)
        with pytest.raises(PimProgramError):
            PimServer(system, ServerConfig(admission="drop-everything"))
        assert "drop-everything" not in ADMISSION_POLICIES


class TestAdmissionShed:
    def test_excess_arrivals_shed_with_error_attached(self):
        system = PimSystem(PLAIN)
        with PimServer(
            system, ServerConfig(lanes=1, max_batch=4, queue_depth=2, admission="shed")
        ) as server:
            a, b = rand(128, 0), rand(128, 1)
            handles = [
                server.submit(Request("add", a=a, b=b, arrival_ns=0.0))
                for _ in range(6)
            ]
            profile = server.run()
        _assert_conserved(handles, profile)
        kept = [h for h in handles if h.outcome is RequestOutcome.COMPLETED]
        shed = [h for h in handles if h.outcome is RequestOutcome.REJECTED]
        assert len(kept) == 2 and len(shed) == 4
        assert profile.rejected == 4
        gold = add_reference(a, b)
        for handle in kept:
            assert np.array_equal(handle.result, gold)
        for handle in shed:
            _assert_zero_device_time(handle)
            assert isinstance(handle.error, PimOverloadError)
            assert handle.error.lane == 0

    def test_under_capacity_load_sheds_nothing(self):
        system = PimSystem(PLAIN)
        with PimServer(
            system, ServerConfig(lanes=1, queue_depth=8, admission="shed")
        ) as server:
            a, b = rand(128, 0), rand(128, 1)
            handles = [
                server.submit(Request("add", a=a, b=b, arrival_ns=i * 50_000.0))
                for i in range(6)
            ]
            profile = server.run()
        _assert_conserved(handles, profile)
        assert profile.rejected == 0
        assert all(h.outcome is RequestOutcome.COMPLETED for h in handles)


class TestAdmissionDegrade:
    def test_excess_arrivals_complete_bit_exactly_on_host(self):
        system = PimSystem(PLAIN)
        config = ServerConfig(
            lanes=1, max_batch=4, queue_depth=1, admission="degrade"
        )
        with PimServer(system, config) as server:
            w = rand((48, 80), 2)
            xs = [rand(80, 10 + i) for i in range(4)]
            handles = [
                server.submit(Request("gemv", weights=w, a=x, arrival_ns=0.0))
                for x in xs
            ]
            profile = server.run()
        _assert_conserved(handles, profile)
        degraded = [
            h for h in handles if h.outcome is RequestOutcome.DEGRADED_HOST
        ]
        assert len(degraded) == 3 and profile.degraded == 3
        # Degraded results are indistinguishable from device results.
        for handle, x in zip(handles, xs):
            gold = gemv_reference(w, x, system.num_pchs)
            assert np.array_equal(handle.result, gold)
        # Degrading bypasses the queue: the host starts at arrival time.
        for handle in degraded:
            assert handle.start_ns == handle.arrival_ns
            assert handle.service_ns > 0.0


class TestDeadlines:
    def test_dead_on_arrival_expires_at_admission(self):
        system = PimSystem(PLAIN)
        with PimServer(system, ServerConfig(lanes=1)) as server:
            a, b = rand(128, 0), rand(128, 1)
            late = server.submit(
                Request("add", a=a, b=b, arrival_ns=5_000.0, deadline_ns=1_000.0)
            )
            ok = server.submit(Request("add", a=a, b=b, arrival_ns=0.0))
            profile = server.run()
        assert late.outcome is RequestOutcome.EXPIRED
        _assert_zero_device_time(late)
        assert ok.outcome is RequestOutcome.COMPLETED
        assert profile.expired == 1

    def test_deadline_passing_in_queue_expires_before_dispatch(self):
        system = PimSystem(PLAIN)
        with PimServer(system, ServerConfig(lanes=1, max_batch=1)) as server:
            w = rand((48, 80), 2)
            first = server.submit(Request("gemv", weights=w, a=rand(80, 3)))
            # Same lane (lanes=1), different signature: must wait for the
            # GEMV, but its deadline passes long before that finishes.
            doomed = server.submit(
                Request("add", a=rand(128, 4), b=rand(128, 5), deadline_ns=1.0)
            )
            profile = server.run()
        assert first.outcome is RequestOutcome.COMPLETED
        assert first.service_ns > 1.0  # the GEMV outlived the deadline
        assert doomed.outcome is RequestOutcome.EXPIRED
        _assert_zero_device_time(doomed)
        # The drop is stamped at the deadline, not at the dispatch point.
        assert doomed.finish_ns == 1.0
        assert profile.expired == 1

    def test_met_deadline_completes(self):
        system = PimSystem(PLAIN)
        with PimServer(system, ServerConfig(lanes=1)) as server:
            a, b = rand(128, 0), rand(128, 1)
            handle = server.submit(Request("add", a=a, b=b, deadline_ns=1e9))
            server.run()
        assert handle.outcome is RequestOutcome.COMPLETED
        assert np.array_equal(handle.result, add_reference(a, b))


class TestPriorities:
    def _two_class_workload(self, server, highs=4):
        """One low-priority add at t=0 plus ``highs`` high-priority muls."""
        low = server.submit(
            Request("add", a=rand(128, 0), b=rand(128, 1), arrival_ns=0.0, priority=0)
        )
        high = [
            server.submit(Request(
                "mul",
                a=rand(128, 10 + i),
                b=rand(128, 20 + i),
                arrival_ns=0.0,
                priority=10,
            ))
            for i in range(highs)
        ]
        return low, high

    def test_higher_priority_dispatches_first(self):
        system = PimSystem(PLAIN)
        with PimServer(
            system, ServerConfig(lanes=1, max_batch=1, aging_ns=0.0)
        ) as server:
            low, high = self._two_class_workload(server)
            server.run()
        # With aging disabled, strict priority: every high-priority
        # request starts before the low-priority one.
        assert all(h.start_ns < low.start_ns for h in high)
        assert low.outcome is RequestOutcome.COMPLETED

    def test_aging_prevents_starvation(self):
        """An old low-priority request out-ranks a fresh high-priority one.

        Aging credits *waiting time*, so it only helps a request that
        arrived earlier than its competitors: one priority-0 add lands at
        t=50ns into a continuous priority-3 stream arriving every 100ns.
        With a 10ns aging quantum its 50ns+ head start is worth more than
        the 3-level priority gap, so it dispatches second instead of
        dead last (the ``aging_ns=0`` control).
        """

        def serve(aging_ns):
            system = PimSystem(PLAIN)
            with PimServer(
                system, ServerConfig(lanes=1, max_batch=1, aging_ns=aging_ns)
            ) as server:
                low = server.submit(Request(
                    "add",
                    a=rand(128, 0),
                    b=rand(128, 1),
                    arrival_ns=50.0,
                    priority=0,
                ))
                high = [
                    server.submit(Request(
                        "mul",
                        a=rand(128, 10 + i),
                        b=rand(128, 20 + i),
                        arrival_ns=i * 100.0,
                        priority=3,
                    ))
                    for i in range(10)
                ]
                server.run()
            return low, high

        low, high = serve(aging_ns=10.0)
        assert low.outcome is RequestOutcome.COMPLETED
        # Priority still wins before the low request has aged: the
        # already-running high batch is never preempted...
        assert high[0].start_ns < low.start_ns
        # ...but the aged request then jumps the rest of the stream.
        assert all(h.start_ns > low.start_ns for h in high[1:])
        # Control: with aging off, the continuous stream starves it.
        starved, high = serve(aging_ns=0.0)
        assert all(h.start_ns < starved.start_ns for h in high)
        assert starved.start_ns > low.start_ns

    def test_equal_priorities_reduce_to_fifo(self):
        """Order (and results) match the historical FIFO server exactly."""
        def serve(**knobs):
            system = PimSystem(PLAIN)
            with PimServer(
                system, ServerConfig(lanes=2, max_batch=4, **knobs)
            ) as server:
                w = rand((48, 80), 2)
                handles = [
                    server.submit(Request(
                        "gemv",
                        weights=w,
                        a=rand(80, 30 + i),
                        arrival_ns=i * 700.0,
                    ))
                    for i in range(8)
                ]
                server.run()
            return [(h.start_ns, h.finish_ns, h.batch_size) for h in handles]

        assert serve() == serve(aging_ns=123.0) == serve(aging_ns=0.0)


class TestRetryBudget:
    def test_exhausted_budget_falls_back_instead_of_retrying(self):
        config = PLAIN.replace(
            ecc=True,
            faults=FaultConfig(failed_channels=(0,), seed=11),
        )
        system = PimSystem(config)
        server_config = ServerConfig(
            lanes=2, max_batch=4, retry_budget=0.0, retry_refill=0.0
        )
        with PimServer(system, server_config) as server:
            w = rand((48, 80), 2)
            handles = [
                server.submit(Request("gemv", weights=w, a=rand(80, 40 + i)))
                for i in range(4)
            ]
            profile = server.run()
        _assert_conserved(handles, profile)
        # The dead channel's first failure wanted a retry, but the bucket
        # was empty: the batch went straight to the host golden path.
        assert profile.retry_budget_exhausted >= 1
        assert profile.retries == 0
        for handle in handles:
            gold = gemv_reference(w, handle.a, system.num_pchs)
            assert np.array_equal(handle.result, gold)

    def test_backoff_is_exponential_and_seed_deterministic(self):
        def delays(seed):
            system = PimSystem(PLAIN)
            config = ServerConfig(
                seed=seed, backoff_base_ns=1000.0, backoff_jitter=0.5
            )
            with PimServer(system, config) as server:
                return [server._backoff_ns(k) for k in (1, 2, 3)]

        a, b, c = delays(7), delays(7), delays(8)
        assert a == b  # same seed replays byte-identically
        assert a != c  # jitter actually depends on the seed
        # Jitter is bounded: each delay within +-50% of the 2^k ladder.
        for k, delay in enumerate(a, start=1):
            nominal = 1000.0 * 2.0 ** (k - 1)
            assert 0.5 * nominal <= delay <= 1.5 * nominal

    def test_zero_jitter_is_a_pure_exponential_ladder(self):
        system = PimSystem(PLAIN)
        with PimServer(
            system, ServerConfig(backoff_base_ns=500.0, backoff_jitter=0.0)
        ) as server:
            assert [server._backoff_ns(k) for k in (1, 2, 3)] == [
                500.0,
                1000.0,
                2000.0,
            ]


class _FlakyDevice:
    """Patches a server's device execution to fail while ``failing``."""

    def __init__(self, server):
        self.failing = True
        self.device_calls = 0
        self._original = server._execute

    def __call__(self, lane, batch):
        self.device_calls += 1
        if self.failing:
            raise PimDataError("injected persistent device fault")
        return self._original(lane, batch)


class TestCircuitBreaker:
    def _server(self, **knobs):
        system = PimSystem(PLAIN)
        server = PimServer(
            system,
            ServerConfig(
                lanes=1,
                max_batch=1,
                max_retries=0,
                breaker_threshold=2,
                breaker_cooldown_ns=1e6,
                **knobs,
            ),
        )
        flaky = _FlakyDevice(server)
        server._execute = flaky
        return server, flaky

    def _one(self, server, arrival_ns=0.0, seed=0):
        a, b = rand(128, seed), rand(128, seed + 100)
        handle = server.submit(Request("add", a=a, b=b, arrival_ns=arrival_ns))
        profile = server.run()
        return handle, profile

    def test_opens_after_consecutive_failures(self):
        server, _ = self._server()
        with server:
            _, p1 = self._one(server, seed=0)
            assert server.lanes[0].breaker_state == "closed"
            _, p2 = self._one(server, seed=1)
            assert server.lanes[0].breaker_state == "open"
        assert p2.breaker_opens == 1
        states = [(t.previous, t.state) for t in p2.breaker_transitions]
        assert states == [("closed", "open")]

    def test_open_breaker_short_circuits_to_host(self):
        server, flaky = self._server()
        with server:
            self._one(server, seed=0)
            self._one(server, seed=1)  # breaker opens
            calls_before = flaky.device_calls
            handle, profile = self._one(server, seed=2)
        # Inside the cooldown the device is never touched.
        assert flaky.device_calls == calls_before
        assert profile.breaker_short_circuits == 1
        assert handle.outcome is RequestOutcome.DEGRADED_HOST
        a, b = rand(128, 2), rand(128, 102)
        assert np.array_equal(handle.result, add_reference(a, b))

    def test_failed_probe_reopens(self):
        server, flaky = self._server()
        with server:
            self._one(server, seed=0)
            self._one(server, seed=1)  # open
            probe_at = server.lanes[0].breaker_open_until_ns + 1.0
            _, profile = self._one(server, arrival_ns=probe_at, seed=2)
        states = [(t.previous, t.state) for t in profile.breaker_transitions]
        assert states == [("open", "half_open"), ("half_open", "open")]
        assert server.lanes[0].breaker_state == "open"

    def test_successful_probe_closes(self):
        server, flaky = self._server()
        with server:
            self._one(server, seed=0)
            self._one(server, seed=1)  # open
            flaky.failing = False  # the device recovered
            probe_at = server.lanes[0].breaker_open_until_ns + 1.0
            handle, profile = self._one(server, arrival_ns=probe_at, seed=2)
        states = [(t.previous, t.state) for t in profile.breaker_transitions]
        assert states == [("open", "half_open"), ("half_open", "closed")]
        assert server.lanes[0].breaker_state == "closed"
        assert handle.outcome is RequestOutcome.COMPLETED

    def test_threshold_zero_disables_the_breaker(self):
        system = PimSystem(PLAIN)
        server = PimServer(
            system,
            ServerConfig(
                lanes=1, max_batch=1, max_retries=0, breaker_threshold=0
            ),
        )
        flaky = _FlakyDevice(server)
        server._execute = flaky
        with server:
            for i in range(5):
                handle, profile = self._one(server, seed=i)
                assert handle.outcome is RequestOutcome.DEGRADED_HOST
            assert server.lanes[0].breaker_state == "closed"
            assert profile.breaker_transitions == []


class TestDroppedWorkCostsNothing:
    """Satellite property: shed/expired work never touches the device."""

    @settings(max_examples=10, deadline=None)
    @given(
        count=st.integers(min_value=1, max_value=8),
        gap_ns=st.floats(min_value=0.0, max_value=5_000.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_all_expired_run_leaves_no_device_trace(self, count, gap_ns, seed):
        system = PimSystem(PLAIN)
        busy_before = [mc.busy_cycles for mc in system.controllers]
        with PimServer(system, ServerConfig(lanes=2)) as server:
            a, b = rand(128, seed), rand(128, seed + 1)
            handles = [
                server.submit(Request(
                    "add",
                    a=a,
                    b=b,
                    arrival_ns=1_000.0 + i * gap_ns,
                    # Dead on arrival: the deadline already passed.
                    deadline_ns=500.0,
                ))
                for i in range(count)
            ]
            profile = server.run()
        _assert_conserved(handles, profile)
        assert all(h.outcome is RequestOutcome.EXPIRED for h in handles)
        for handle in handles:
            _assert_zero_device_time(handle)
        # Never in the occupancy accounting...
        assert profile.channel_busy_cycles == {}
        assert profile.channel_occupancy() == {}
        # ...and the controllers' busy counters never moved.
        assert [mc.busy_cycles for mc in system.controllers] == busy_before
        assert profile.batches == 0

    @settings(max_examples=10, deadline=None)
    @given(
        extra=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_shed_requests_cost_zero_service_time(self, extra, seed):
        system = PimSystem(PLAIN)
        with PimServer(
            system, ServerConfig(lanes=1, max_batch=2, queue_depth=2, admission="shed")
        ) as server:
            a, b = rand(128, seed), rand(128, seed + 1)
            handles = [
                server.submit(Request("add", a=a, b=b, arrival_ns=0.0))
                for _ in range(2 + extra)
            ]
            profile = server.run()
        _assert_conserved(handles, profile)
        assert profile.rejected == extra
        gold = add_reference(a, b)
        for handle in handles:
            if handle.outcome is RequestOutcome.REJECTED:
                _assert_zero_device_time(handle)
            else:
                assert np.array_equal(handle.result, gold)
        # Only dispatched requests enter the batch-size average.
        assert profile.mean_batch_size() == pytest.approx(2.0)


class TestPresetAndContext:
    def test_context_server_passes_overload_knobs(self):
        with PimContext(PLAIN) as ctx:
            with ctx.server(
                ServerConfig(lanes=1, max_batch=4, queue_depth=1, admission="shed")
            ) as server:
                a, b = rand(128, 0), rand(128, 1)
                handles = [
                    server.submit(Request("add", a=a, b=b, arrival_ns=0.0))
                    for _ in range(3)
                ]
                profile = server.run()
        _assert_conserved(handles, profile)
        assert profile.rejected == 2


class TestAcceptance:
    def test_conservation_under_combined_overload_and_faults(self):
        """The headline scenario: 2x overload + channel death + flips.

        Every request ends in exactly one terminal outcome, completed and
        degraded requests are bit-exact against the golden path, dropped
        requests cost zero device time, and goodput stays positive.
        """
        config = PLAIN.replace(
            ecc=True,
            faults=FaultConfig(
                bit_flip_rate=1e-4,
                check_flip_rate=1e-4,
                failed_channels=(0,),
                seed=7,
            ),
        )
        system = PimSystem(config)
        server = PimServer(
            system,
            ServerConfig(
                lanes=2,
                max_batch=4,
                scrub_interval=4,
                queue_depth=4,
                admission="shed",
                seed=7,
            ),
        )
        rng = np.random.default_rng(9)
        w = rand((48, 80), 2)
        pairs = []
        with server:
            for i in range(40):
                arrival = i * 250.0  # ~2x the saturation rate
                deadline = arrival + 40_000.0 if i % 5 == 0 else None
                priority = int(rng.integers(0, 3))
                if i % 3 == 0:
                    x = rand(80, 100 + i)
                    handle = server.submit(Request(
                        "gemv",
                        weights=w,
                        a=x,
                        arrival_ns=arrival,
                        priority=priority,
                        deadline_ns=deadline,
                    ))
                    gold = gemv_reference(w, x, system.num_pchs)
                elif i % 3 == 1:
                    a, b = rand(192, 100 + i), rand(192, 200 + i)
                    handle = server.submit(Request(
                        "add",
                        a=a,
                        b=b,
                        arrival_ns=arrival,
                        priority=priority,
                        deadline_ns=deadline,
                    ))
                    gold = add_reference(a, b)
                else:
                    a, b = rand(192, 100 + i), rand(192, 200 + i)
                    handle = server.submit(Request(
                        "mul",
                        a=a,
                        b=b,
                        arrival_ns=arrival,
                        priority=priority,
                        deadline_ns=deadline,
                    ))
                    gold = mul_reference(a, b)
                pairs.append((handle, gold))
            profile = server.run()

        handles = [h for h, _ in pairs]
        _assert_conserved(handles, profile)
        served = 0
        for handle, gold in pairs:
            if handle.outcome in (
                RequestOutcome.COMPLETED,
                RequestOutcome.DEGRADED_HOST,
            ):
                assert np.array_equal(handle.result, gold)
                served += 1
            else:
                assert handle.outcome in (
                    RequestOutcome.REJECTED,
                    RequestOutcome.EXPIRED,
                )
                _assert_zero_device_time(handle)
        assert served > 0
        assert profile.goodput_rps() > 0.0
        assert profile.goodput_rps() <= profile.throughput_rps()
        # The outcome histogram is exactly the terminal dispositions.
        outcomes = profile.outcomes()
        assert outcomes.get("completed", 0) + outcomes.get(
            "degraded_host", 0
        ) == served
        assert outcomes.get("rejected", 0) == profile.rejected
        assert outcomes.get("expired", 0) == profile.expired
