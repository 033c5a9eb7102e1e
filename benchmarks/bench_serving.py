"""Throughput of the pipelined serving engine vs sequential BLAS calls.

Offers the same Poisson request stream (a mixed GEMV + elementwise load)
to two executors built on identical :class:`SystemConfig` platforms:

* **sequential** — one :class:`PimBlas` call per request in arrival order,
  each paying its own kernel launch and global drain;
* **server** — :class:`PimServer` with two lanes, batching same-operator
  requests into fused launches and pipelining the GEMV lane against the
  elementwise lane in simulated time.

Outputs are asserted bit-identical; the reported metric is served
throughput versus offered load.  At loads where batches of >= 4 form, the
serving engine must clear 1.5x the sequential throughput.
"""

import numpy as np
import pytest

from repro.faults import FaultConfig
from repro.stack.api import Request, ServerConfig
from repro.stack.blas import PimBlas
from repro.stack.runtime import PimSystem, SystemConfig
from repro.stack.server import PimServer

CONFIG = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1)
M, N, LENGTH = 64, 96, 256
FAULT_RATES = (0.0, 1e-6, 1e-4)


def make_workload(num_requests: int, mean_interarrival_ns: float, seed: int = 7):
    """A mixed GEMV/ADD stream with Poisson (exponential-gap) arrivals."""
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal((M, N)) * 0.25).astype(np.float16)
    arrivals = np.cumsum(rng.exponential(mean_interarrival_ns, size=num_requests))
    requests = []
    for i in range(num_requests):
        if i % 2 == 0:
            requests.append(
                ("gemv", dict(weights=w, a=(rng.standard_normal(N) * 0.25).astype(np.float16)))
            )
        else:
            requests.append(
                (
                    "add",
                    dict(
                        a=(rng.standard_normal(LENGTH) * 0.25).astype(np.float16),
                        b=(rng.standard_normal(LENGTH) * 0.25).astype(np.float16),
                    ),
                )
            )
    return [(op, kw, float(t)) for (op, kw), t in zip(requests, arrivals)]


def run_sequential(workload):
    """Serve the stream one BLAS call at a time; returns (results, makespan_ns)."""
    system = PimSystem(CONFIG)
    blas = PimBlas(system, simulate_pchs=CONFIG.simulate_pchs)
    ready = 0.0
    results = []
    for op, kw, arrival in workload:
        if op == "gemv":
            y, report = blas.gemv(kw["weights"], kw["a"])
        else:
            y, report = blas.add(kw["a"], kw["b"])
        ready = max(ready, arrival) + report.ns
        results.append(y)
    return results, ready


def run_server(workload, lanes=2, max_batch=8, config=CONFIG, **server_knobs):
    """Serve the stream through PimServer; returns (results, profile)."""
    system = PimSystem(config)
    server_config = ServerConfig(
        lanes=lanes,
        max_batch=max_batch,
        **server_knobs,
    )
    with PimServer(system, server_config) as server:
        handles = [
            server.submit(Request(op, arrival_ns=arrival, **kw))
            for op, kw, arrival in workload
        ]
        profile = server.run()
    return [h.result for h in handles], profile


def run_bounded_server(workload, queue_depth=8, admission="shed"):
    """Serve through a bounded-queue server; returns (handles, profile)."""
    system = PimSystem(CONFIG)
    server_config = ServerConfig(
        lanes=2,
        max_batch=8,
        queue_depth=queue_depth,
        admission=admission,
    )
    with PimServer(system, server_config) as server:
        handles = [
            server.submit(Request(op, arrival_ns=arrival, **kw))
            for op, kw, arrival in workload
        ]
        profile = server.run()
    return handles, profile


def faulty_config(rate: float) -> SystemConfig:
    """The benchmark platform hardened with ECC and bit flips.

    Serve it with ``scrub_interval=2`` (a ``ServerConfig`` knob).
    """
    faults = FaultConfig(bit_flip_rate=rate, check_flip_rate=rate, seed=7)
    return CONFIG.replace(ecc=True, faults=faults if faults.active else None)


def test_serving_bit_exact_and_speedup(benchmark):
    """At saturating load the server is >= 1.5x sequential, bit-exactly."""
    workload = make_workload(num_requests=32, mean_interarrival_ns=500.0)

    def measure():
        seq_results, seq_makespan = run_sequential(workload)
        srv_results, profile = run_server(workload, lanes=2, max_batch=8)
        return seq_results, seq_makespan, srv_results, profile

    seq_results, seq_makespan, srv_results, profile = benchmark.pedantic(
        measure, rounds=1, iterations=1
    )
    for a, b in zip(seq_results, srv_results):
        assert np.array_equal(a, b)
    speedup = seq_makespan / profile.makespan_ns
    print(
        f"\nsequential makespan {seq_makespan / 1000:.1f} us, "
        f"server {profile.makespan_ns / 1000:.1f} us -> x{speedup:.2f} "
        f"(mean batch {profile.mean_batch_size():.1f})"
    )
    benchmark.extra_info["speedup"] = round(speedup, 2)
    benchmark.extra_info["mean_batch"] = round(profile.mean_batch_size(), 2)
    assert profile.mean_batch_size() >= 4
    assert speedup >= 1.5


def test_throughput_vs_offered_load(benchmark):
    """Throughput curve: the server's margin grows as batches fill."""

    def sweep():
        rows = []
        for gap_ns in (8000.0, 4000.0, 2000.0, 1000.0, 500.0):
            workload = make_workload(num_requests=24, mean_interarrival_ns=gap_ns)
            _, seq_makespan = run_sequential(workload)
            _, profile = run_server(workload)
            rows.append(
                (
                    gap_ns,
                    len(workload) / seq_makespan * 1e9,
                    profile.throughput_rps(),
                    profile.mean_batch_size(),
                )
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n  offered gap   seq req/s   server req/s   mean batch")
    for gap, seq_rps, srv_rps, batch in rows:
        print(f"  {gap:8.0f}ns {seq_rps:11,.0f} {srv_rps:14,.0f} {batch:10.1f}")
    # The server never loses, and wins at saturation.
    assert all(srv >= seq * 0.95 for _, seq, srv, _ in rows)
    assert rows[-1][2] >= rows[-1][1] * 1.5


def test_goodput_vs_offered_load(benchmark):
    """Goodput saturates gracefully under overload instead of collapsing.

    A bounded-queue shedding server is offered loads from well below to
    3-4x beyond saturation.  The ungated server's backlog (and turnaround)
    would grow without bound past saturation; the protected server must
    hold goodput within 10% of its saturation value while shedding the
    excess, and every submitted request must report a terminal outcome.
    """
    SATURATION_GAP_NS = 500.0

    def sweep():
        baseline = make_workload(
            num_requests=48, mean_interarrival_ns=SATURATION_GAP_NS
        )
        _, base_profile = run_server(baseline)
        rows = []
        for gap_ns in (2000.0, 1000.0, 500.0, 250.0, 125.0):
            workload = make_workload(num_requests=48, mean_interarrival_ns=gap_ns)
            handles, profile = run_bounded_server(workload)
            rows.append((gap_ns, handles, profile))
        return base_profile, rows

    base_profile, rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    baseline_goodput = base_profile.goodput_rps()
    print(
        f"\n  unprotected saturation baseline: {baseline_goodput:,.0f} req/s"
    )
    print("  offered gap   goodput req/s   rejected   p95 turnaround")
    for gap_ns, handles, profile in rows:
        print(
            f"  {gap_ns:8.0f}ns {profile.goodput_rps():15,.0f} "
            f"{profile.rejected:8d} {profile.p95_turnaround_ns() / 1000:13.1f}us"
        )
        # Conservation: nothing is silently lost, ever.
        assert all(h.outcome is not None for h in handles)
        assert sum(profile.outcomes().values()) == len(handles)
        benchmark.extra_info[f"goodput@{gap_ns:g}ns"] = round(
            profile.goodput_rps()
        )
    overloaded = [r for r in rows if r[0] < SATURATION_GAP_NS]
    # Past saturation the queue bound sheds load...
    assert all(profile.rejected > 0 for _, _, profile in overloaded)
    # ...and goodput holds within 10% of the unprotected saturation
    # baseline at 2-4x offered load: graceful saturation, no cliff.
    for _, _, profile in overloaded:
        assert profile.goodput_rps() >= 0.9 * baseline_goodput
    # The bounded queue also bounds tail latency: p95 turnaround at 4x
    # offered load stays within 4x of the saturation-point p95 (an
    # unbounded queue would grow it with the backlog, without bound).
    p95_sat = next(
        p.p95_turnaround_ns() for g, _, p in rows if g == SATURATION_GAP_NS
    )
    assert rows[-1][2].p95_turnaround_ns() <= 4.0 * p95_sat


def test_throughput_vs_fault_rate(benchmark):
    """Throughput degradation under injected storage faults.

    One Poisson stream is served on ECC-hardened platforms whose fault
    injectors flip stored bits at increasing rates.  Every run must stay
    bit-exact against the fault-free run (the self-healing layer's job);
    the reported metric is the throughput each rate sustains.
    """
    workload = make_workload(num_requests=24, mean_interarrival_ns=1000.0)

    def sweep():
        rows = []
        for rate in FAULT_RATES:
            results, profile = run_server(
                workload, config=faulty_config(rate), scrub_interval=2
            )
            rows.append((rate, results, profile))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    baseline = rows[0]
    print("\n  flip rate     req/s   retries   fallbacks   scrub fixed")
    for rate, results, profile in rows:
        print(
            f"  {rate:9.0e} {profile.throughput_rps():9,.0f} "
            f"{profile.retries:7d} {profile.fallbacks:11d} "
            f"{profile.scrub_corrected:13d}"
        )
        assert all(r is not None for r in results)
        for got, want in zip(results, baseline[1]):
            assert np.array_equal(got, want)
        benchmark.extra_info[f"rps@{rate:g}"] = round(profile.throughput_rps())
    # Faults cost throughput, never correctness; degradation stays bounded.
    assert rows[-1][2].throughput_rps() >= baseline[2].throughput_rps() * 0.2


def main():
    print("Serving throughput vs offered load (mixed GEMV+ADD, 2 lanes)")
    print(f"  device: {CONFIG.num_pchs} pCH, gemv {M}x{N}, add[{LENGTH}]")
    print("  offered gap   seq req/s   server req/s   mean batch   speedup")
    for gap_ns in (8000.0, 4000.0, 2000.0, 1000.0, 500.0):
        workload = make_workload(num_requests=32, mean_interarrival_ns=gap_ns)
        seq_results, seq_makespan = run_sequential(workload)
        srv_results, profile = run_server(workload)
        assert all(
            np.array_equal(a, b) for a, b in zip(seq_results, srv_results)
        ), "serving results diverged from sequential"
        seq_rps = len(workload) / seq_makespan * 1e9
        print(
            f"  {gap_ns:8.0f}ns {seq_rps:11,.0f} {profile.throughput_rps():14,.0f} "
            f"{profile.mean_batch_size():10.1f} {profile.throughput_rps() / seq_rps:9.2f}x"
        )

    print("\nGoodput vs offered load (queue_depth=8, admission=shed)")
    print("  offered gap   goodput req/s   rejected   p95 turnaround")
    for gap_ns in (2000.0, 1000.0, 500.0, 250.0, 125.0):
        workload = make_workload(num_requests=48, mean_interarrival_ns=gap_ns)
        handles, profile = run_bounded_server(workload)
        assert all(h.outcome is not None for h in handles), "silent loss"
        print(
            f"  {gap_ns:8.0f}ns {profile.goodput_rps():15,.0f} "
            f"{profile.rejected:8d} "
            f"{profile.p95_turnaround_ns() / 1000:13.1f}us"
        )

    print("\nThroughput vs storage fault rate (ECC + scrub every 2 batches)")
    workload = make_workload(num_requests=24, mean_interarrival_ns=1000.0)
    baseline = None
    print("  flip rate     req/s   retries   fallbacks   scrub fixed")
    for rate in FAULT_RATES:
        results, profile = run_server(
            workload, config=faulty_config(rate), scrub_interval=2
        )
        if baseline is None:
            baseline = results
        assert all(
            np.array_equal(a, b) for a, b in zip(results, baseline)
        ), "faulty run diverged from the fault-free results"
        print(
            f"  {rate:9.0e} {profile.throughput_rps():9,.0f} "
            f"{profile.retries:7d} {profile.fallbacks:11d} "
            f"{profile.scrub_corrected:13d}"
        )


if __name__ == "__main__":
    main()
