"""Trace-invariant property tests over real traced serving sessions.

Whatever the workload, seed, fault pattern, or overload pressure, a
trace must satisfy the structural invariants the exporters and the
reconciliation check depend on:

* spans nest properly (every child's interval lies inside its parent's);
* the durations of a parent's children sum to no more than the parent
  per sequential group (same channel, or the serving-serial group);
* every terminal request owns exactly one request-category span, whose
  ``outcome`` attribute matches the request's terminal outcome;
* rejected/expired requests own zero device-command spans (dropped work
  must not appear to have consumed the device).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultConfig
from repro.obs import span_children
from repro.stack.api import Request, ServerConfig
from repro.stack.runtime import PimSystem, SystemConfig
from repro.stack.server import PimServer

EPS = 1e-6

BASE = SystemConfig(
    num_pchs=4, num_rows=256, simulate_pchs=1, trace=True
)


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def traced_session(
    seed,
    requests=14,
    gap_ns=1500.0,
    faults=False,
    overload=False,
    deadline_ns=None,
):
    """One served session under the given pressure; returns
    ``(system, handles, profile)``."""
    config = BASE
    server_config = ServerConfig(lanes=2, max_batch=4, seed=seed)
    if faults:
        server_config = server_config.replace(scrub_interval=2)
        config = config.replace(
            ecc=True,
            faults=FaultConfig(
                bit_flip_rate=5e-4,
                check_flip_rate=5e-4,
                failed_channels=(0,),
                seed=seed,
            ),
        )
    if overload:
        server_config = server_config.replace(queue_depth=3, admission="shed")
    rng = np.random.default_rng(seed)
    w = rand((48, 80), seed)
    arrivals = np.cumsum(rng.exponential(gap_ns, size=requests))
    system = PimSystem(config)
    handles = []
    with PimServer(system, server_config) as server:
        for i, arrival in enumerate(arrivals):
            kwargs = dict(
                arrival_ns=float(arrival),
                priority=int(i % 2),
                deadline_ns=deadline_ns,
            )
            if i % 3 == 0:
                handles.append(
                    server.submit(Request("gemv", weights=w, a=rand(80, seed + i),
                                          **kwargs))
                )
            elif i % 3 == 1:
                handles.append(
                    server.submit(Request("add", a=rand(192, seed + i),
                                          b=rand(192, seed + 500 + i), **kwargs))
                )
            else:
                handles.append(
                    server.submit(Request("relu", a=rand(192, seed + i), **kwargs))
                )
        profile = server.run()
    return system, handles, profile


def assert_trace_invariants(system, handles):
    tracer = system.tracer
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    children = span_children(spans)

    # No span was left open, and every parent reference resolves.
    assert tracer.current is None
    for span in spans:
        assert span.parent_id is None or span.parent_id in by_id

    # Proper nesting: a child's interval lies inside its parent's.
    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id[span.parent_id]
        assert span.start_ns >= parent.start_ns - EPS, (span, parent)
        assert span.end_ns <= parent.end_ns + EPS, (span, parent)

    # Sequential groups of one parent's children must fit in the parent:
    # device spans of one channel run back-to-back on that channel's
    # controller clock, everything else runs serially on the lane.
    for parent_id, kids in children.items():
        if parent_id is None:
            continue
        parent = by_id[parent_id]
        groups = {}
        for kid in kids:
            groups.setdefault(kid.channel, []).append(kid)
        for group in groups.values():
            total = sum(k.duration_ns for k in group)
            assert total <= parent.duration_ns + EPS, (parent, group)

    # Exactly one request span per terminal request, matching outcomes.
    request_spans = tracer.request_spans()
    spans_by_request = {}
    for span in request_spans:
        rid = span.attrs["request_id"]
        assert rid not in spans_by_request, f"duplicate span for {rid}"
        spans_by_request[rid] = span
    assert set(spans_by_request) == {h.request_id for h in handles}
    for handle in handles:
        span = spans_by_request[handle.request_id]
        assert span.attrs["outcome"] == handle.outcome.value

    # Dropped work owns zero device-command spans (transitively).
    for handle in handles:
        if handle.outcome.value not in ("rejected", "expired"):
            continue
        span = spans_by_request[handle.request_id]
        stack = [span.span_id]
        while stack:
            for kid in children.get(stack.pop(), []):
                assert kid.category != "device", (
                    f"dropped request {handle.request_id} owns device span"
                )
                stack.append(kid.span_id)


class TestInvariantsUnderPressure:
    def test_plain_session(self):
        system, handles, _ = traced_session(seed=3)
        assert_trace_invariants(system, handles)
        # Sanity: the plain session actually completed on the device.
        assert any(s.category == "device" for s in system.tracer.spans)

    def test_faulty_session_keeps_invariants(self):
        system, handles, profile = traced_session(seed=7, faults=True)
        assert_trace_invariants(system, handles)
        assert profile.retries + profile.fallbacks > 0

    def test_overloaded_session_keeps_invariants(self):
        system, handles, profile = traced_session(
            seed=11, overload=True, gap_ns=200.0, requests=24
        )
        assert_trace_invariants(system, handles)
        assert profile.rejected > 0

    def test_expired_requests_own_no_device_spans(self):
        system, handles, profile = traced_session(
            seed=5, deadline_ns=1.0, gap_ns=200.0
        )
        assert_trace_invariants(system, handles)
        assert profile.expired > 0

    @given(
        seed=st.integers(0, 2**16),
        faults=st.booleans(),
        overload=st.booleans(),
        requests=st.integers(4, 18),
        gap_ns=st.sampled_from([200.0, 1000.0, 4000.0]),
    )
    @settings(max_examples=8, deadline=None)
    def test_random_sessions(self, seed, faults, overload, requests, gap_ns):
        system, handles, _ = traced_session(
            seed=seed,
            requests=requests,
            gap_ns=gap_ns,
            faults=faults,
            overload=overload,
        )
        assert_trace_invariants(system, handles)
