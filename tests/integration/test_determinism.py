"""Determinism regression: identical seeds replay byte-identical runs.

Two serving sessions with identical configuration and seed must produce
identical ``ServingProfile`` counters, identical per-request terminal
outcomes, and an identical trace span tree — the reproducibility
contract the fault/overload layers advertise ("identical seeds replay
byte-identical runs") and the trace-based debugging workflow depends on.
On divergence the assertion message names the first differing span.
"""

import io
from contextlib import redirect_stdout

import numpy as np
import pytest

from repro.faults import FaultConfig
from repro.obs import diff_span_trees
from repro.stack.api import Request, ServerConfig
from repro.stack.runtime import PimSystem, SystemConfig
from repro.stack.server import PimServer


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def serve_once(seed):
    """One traced, faulty, overloaded session; returns (system, handles,
    profile)."""
    config = SystemConfig(
        num_pchs=4,
        num_rows=256,
        simulate_pchs=1,
        trace=True,
        ecc=True,
        faults=FaultConfig(
            bit_flip_rate=1e-4,
            check_flip_rate=1e-4,
            failed_channels=(0,),
            seed=seed,
        ),
    )
    server_config = ServerConfig(
        lanes=2,
        max_batch=4,
        seed=seed,
        scrub_interval=2,
        queue_depth=4,
        admission="shed",
    )
    rng = np.random.default_rng(seed)
    w = rand((48, 80), seed)
    arrivals = np.cumsum(rng.exponential(900.0, size=16))
    system = PimSystem(config)
    handles = []
    with PimServer(system, server_config) as server:
        for i, arrival in enumerate(arrivals):
            if i % 2 == 0:
                handles.append(
                    server.submit(Request("gemv", weights=w, a=rand(80, seed + i),
                                          arrival_ns=float(arrival)))
                )
            else:
                handles.append(
                    server.submit(Request("add", a=rand(160, seed + i),
                                          b=rand(160, seed + 700 + i),
                                          arrival_ns=float(arrival)))
                )
        profile = server.run()
    return system, handles, profile


PROFILE_COUNTERS = (
    "makespan_ns", "makespan_cycles", "batches", "launches", "retries",
    "fallbacks", "scrubs", "scrub_corrected", "scrub_uncorrectable",
    "ecc_corrected", "faults_injected", "rejected", "expired", "degraded",
    "retry_budget_exhausted", "breaker_opens", "breaker_short_circuits",
)


class TestInProcessDeterminism:
    def test_profiles_and_span_trees_identical(self):
        sys_a, handles_a, prof_a = serve_once(seed=9)
        sys_b, handles_b, prof_b = serve_once(seed=9)

        for name in PROFILE_COUNTERS:
            assert getattr(prof_a, name) == getattr(prof_b, name), name
        assert prof_a.outcomes() == prof_b.outcomes()
        assert prof_a.breaker_transitions == prof_b.breaker_transitions
        assert prof_a.channel_busy_cycles == prof_b.channel_busy_cycles
        assert [h.outcome for h in handles_a] == [
            h.outcome for h in handles_b
        ]
        for a, b in zip(handles_a, handles_b):
            if a.result is None:
                assert b.result is None
            else:
                assert np.array_equal(a.result, b.result)

        # The whole span tree, structurally; on failure the message is
        # the first diverging span.
        diverged = diff_span_trees(sys_a.tracer, sys_b.tracer)
        assert diverged is None, f"first diverging span: {diverged}"
        # Events too (retries, breaker flips, scrubs fire identically).
        assert [
            (e.name, e.at_ns, e.lane, e.channel) for e in sys_a.tracer.events
        ] == [
            (e.name, e.at_ns, e.lane, e.channel) for e in sys_b.tracer.events
        ]
        assert sys_a.metrics.render() == sys_b.metrics.render()

    def test_different_seeds_diverge(self):
        """The determinism check has teeth: a different seed produces a
        visibly different session (otherwise the test proves nothing)."""
        sys_a, _, _ = serve_once(seed=9)
        sys_b, _, _ = serve_once(seed=10)
        assert diff_span_trees(sys_a.tracer, sys_b.tracer) is not None


class TestCliDeterminism:
    def _run(self, *args):
        from repro.__main__ import main

        out = io.StringIO()
        with redirect_stdout(out):
            rc = main(list(args))
        return rc, out.getvalue()

    def test_serve_bench_replays_byte_identical(self):
        rc_a, out_a = self._run("serve-bench", "--seed", "5")
        rc_b, out_b = self._run("serve-bench", "--seed", "5")
        assert rc_a == rc_b == 0
        assert out_a == out_b

    def test_trace_replays_byte_identical(self, tmp_path):
        import json

        path_a, path_b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        rc_a, out_a = self._run(
            "trace", "--out", path_a, "--seed", "11", "--requests", "16"
        )
        rc_b, out_b = self._run(
            "trace", "--out", path_b, "--seed", "11", "--requests", "16"
        )
        assert rc_a == rc_b == 0
        # Identical modulo the output path echoed in the first line.
        assert out_a.replace(path_a, "OUT") == out_b.replace(path_b, "OUT")
        with open(tmp_path / "a.json") as fh_a, open(tmp_path / "b.json") as fh_b:
            assert json.load(fh_a) == json.load(fh_b)
