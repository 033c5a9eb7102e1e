"""Command-line entry point.

::

    python -m repro report       # full paper-vs-model reproduction report
    python -m repro demo         # quick functional demo on the simulator
    python -m repro specs        # Tables IV & V
    python -m repro trace        # a GEMV kernel's command stream, annotated
    python -m repro trace --out trace.json
                                 # serve a workload, emit a Chrome trace
                                 # (+ span JSONL / metrics dump; see -h)
    python -m repro serve-bench  # serving engine under a Poisson load
    python -m repro serve-bench --trace trace.json
                                 # same, tracing the last served session
    python -m repro chaos --seed 7
                                 # scripted fault storm against the fabric;
                                 # nonzero exit on any invariant violation
    python -m repro serve-bench --journal wal/
                                 # same load sweep, journaling every request
                                 # and outcome into a write-ahead log
    python -m repro replay --journal wal/gap-2000
                                 # recover a journal into terminal outcomes
    python -m repro replay --trace workload.trace
                                 # execute an HBM-PIMulator textual trace
                                 # against the device model (see -h)
"""

from __future__ import annotations

import sys


def _report() -> None:
    import importlib.util
    import pathlib

    # benchmarks/report.py lives outside the package; load it directly so
    # the CLI works from a source checkout.
    path = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "report.py"
    if path.exists():
        spec = importlib.util.spec_from_file_location("repro_report", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # type: ignore[union-attr]
        module.main()
    else:
        print("benchmarks/report.py not found (installed without sources); "
              "the paper-figure benches and the end-to-end ledger "
              "(python -m benchmarks.e2e) need a source checkout")


def _demo() -> None:
    import numpy as np

    from .stack import PimBlas, PimSystem, SystemConfig

    print("Building a 4-channel PIM-HBM system...")
    system = PimSystem(SystemConfig(num_pchs=4, num_rows=256))
    blas = PimBlas(system)
    rng = np.random.default_rng(0)
    w = (rng.standard_normal((512, 256)) * 0.1).astype(np.float16)
    x = (rng.standard_normal(256) * 0.1).astype(np.float16)
    y, report = blas.gemv(w, x)
    gold = w.astype(np.float32) @ x.astype(np.float32)
    print(f"GEMV 512x256 on the simulated device:")
    print(f"  max |err| vs FP32: {np.abs(y - gold).max():.2e}")
    print(f"  {report.cycles} DRAM cycles, {report.column_commands} column "
          f"commands, {report.fences} fences, {report.pim_flops} PIM FLOPs")


def _specs() -> None:
    from .perf.specs import PimDeviceSpec, PimUnitSpec

    print("Table IV — PIM execution unit")
    for key, value in PimUnitSpec().as_table().items():
        print(f"  {key}: {value}")
    print("\nTable V — PIM-HBM device")
    for key, value in PimDeviceSpec().as_table().items():
        print(f"  {key}: {value}")


#: The serving commands' workload: GEMV 64x96 and ADD over 256 elements,
#: operands N(0, 1/16).
_GEMV_SHAPE = (64, 96)
_ADD_LENGTH = 256


def _serving_setup(seed, **system_knobs):
    """What every serving command starts from: the 4-pCH platform config,
    the 2-lane ``ServerConfig``, the seeded generator and the GEMV weights
    (the generator's first draw)."""
    import numpy as np

    from .stack import ServerConfig, SystemConfig

    config = SystemConfig(
        num_pchs=4, num_rows=256, simulate_pchs=1, **system_knobs
    )
    server_config = ServerConfig(lanes=2, max_batch=8, seed=seed)
    rng = np.random.default_rng(seed)
    w = (rng.standard_normal(_GEMV_SHAPE) * 0.25).astype(np.float16)
    return config, server_config, rng, w


def _poisson_stream(rng, w, count, gap_ns, trace_prefix=None):
    """``count`` alternating GEMV / ADD requests at Poisson arrivals.

    Seeded runs are byte-compared, so the draw order is part of the
    contract: all arrivals first, then per request ``x`` or ``a, b``.
    """
    import numpy as np

    from .stack import Request

    def draw(size):
        return (rng.standard_normal(size) * 0.25).astype(np.float16)

    requests = []
    for i, arrival in enumerate(np.cumsum(rng.exponential(gap_ns, size=count))):
        common = dict(
            arrival_ns=float(arrival),
            trace_id=None if trace_prefix is None else f"{trace_prefix}-r{i}",
        )
        if i % 2 == 0:
            requests.append(
                Request("gemv", weights=w, a=draw(w.shape[1]), **common)
            )
        else:
            requests.append(
                Request("add", a=draw(_ADD_LENGTH), b=draw(_ADD_LENGTH), **common)
            )
    return requests


def _print_checks(checks) -> int:
    """One ``[ok]`` / ``[FAIL]`` line per named check; the exit code."""
    for name, ok in checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    return 0 if all(checks.values()) else 1


def _trace(argv=None) -> int:
    """Bare ``trace``: the historical annotated command stream.  With
    ``--out PATH``: run the default serving workload with the observability
    layer enabled and emit a Chrome trace (plus optional span JSONL and
    metrics dump), checking that the request spans reconcile with the
    ``ServingProfile`` makespan within 1%.
    """
    if not argv:
        import numpy as np

        from .stack import PimBlas, PimSystem, SystemConfig
        from .tools import trace_channel

        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        blas = PimBlas(system)
        rng = np.random.default_rng(0)
        w = (rng.standard_normal((128, 64)) * 0.1).astype(np.float16)
        x = (rng.standard_normal(64) * 0.1).astype(np.float16)
        with trace_channel(system.device.pch(0)) as trace:
            blas.gemv(w, x)
        print(trace.summary())
        print("\nFirst 30 commands:")
        for line in trace.lines()[:30]:
            print(" ", line)
        return 0

    import argparse

    from .obs import render_timeline, validate_chrome_trace, write_span_jsonl
    from .stack import PimServer, PimSystem

    parser = argparse.ArgumentParser(prog="repro trace")
    parser.add_argument(
        "--out", required=True,
        help="write the Chrome/Perfetto trace JSON here "
             "(open at chrome://tracing or ui.perfetto.dev)",
    )
    parser.add_argument(
        "--spans", default=None,
        help="also write a flat JSONL span/event log here",
    )
    parser.add_argument(
        "--metrics", default=None,
        help="write the text metrics dump here (default: stdout)",
    )
    parser.add_argument(
        "--validate", action="store_true",
        help="validate the emitted file against the Chrome trace-event "
             "schema (nonzero exit on violations; used by CI)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--requests", type=int, default=32,
        help="requests in the serving workload (default: 32)",
    )
    parser.add_argument(
        "--gap-ns", type=float, default=2000.0,
        help="mean Poisson arrival gap in simulated ns (default: 2000)",
    )
    args = parser.parse_args(argv)

    config, server_config, rng, w = _serving_setup(args.seed, trace=True)
    system = PimSystem(config)
    with PimServer(system, server_config) as server:
        for request in _poisson_stream(rng, w, args.requests, args.gap_ns):
            server.submit(request)
        profile = server.run()

    tracer = system.tracer
    _write_trace(system, args.out)
    if args.spans is not None:
        lines = write_span_jsonl(tracer, args.spans)
        print(f"Wrote {lines} JSONL lines to {args.spans}")
    metrics_lines = system.metrics.render()
    if args.metrics is not None:
        with open(args.metrics, "w") as fh:
            fh.write("\n".join(metrics_lines) + "\n")
        print(f"Wrote {len(metrics_lines)} metrics to {args.metrics}")
    else:
        print("metrics:")
        for line in metrics_lines:
            print(" ", line)

    rc = 0
    requests = tracer.request_spans()
    span_extent = max(s.end_ns for s in requests) if requests else 0.0
    drift = abs(span_extent - profile.makespan_ns) / max(
        profile.makespan_ns, 1e-9
    )
    print(
        f"request spans: {len(requests)} / {profile.num_requests} requests; "
        f"extent {span_extent / 1000:.1f}us vs makespan "
        f"{profile.makespan_ns / 1000:.1f}us (drift {drift:.2%})"
    )
    if drift > 0.01 or len(requests) != profile.num_requests:
        print("  [FAIL] trace does not reconcile with the serving profile")
        rc = 1
    if args.validate:
        problems = validate_chrome_trace(args.out)
        if problems:
            rc = 1
            for problem in problems:
                print(f"  [FAIL] {problem}")
        else:
            print("  [ok] trace validates against the Chrome schema")
    print()
    for line in render_timeline(tracer, max_spans=24):
        print(line)
    return rc


def _write_trace(system, path) -> None:
    """Dump one traced system's spans as a Chrome trace file."""
    from .obs import write_chrome_trace

    tracer = getattr(system, "tracer", None)
    if tracer is None:
        return
    write_chrome_trace(tracer, path)
    print(
        f"Wrote {len(tracer.spans)} spans and {len(tracer.events)} events "
        f"to {path}"
    )


def _overload_smoke(config, server_config, w, trace_path=None) -> int:
    """Overload-protection smoke: graceful saturation, zero silent losses.

    Serves one mixed stream at saturation through an unbounded server
    (the baseline), then offers 2x that load to a bounded-queue shedding
    server, and asserts: every submitted request carries a terminal
    ``RequestOutcome``, every completed/degraded result is bit-exact
    against the host golden path, admission actually shed load, and
    goodput stayed within 10% of the baseline (no congestion collapse).
    Returns a nonzero exit code on any regression (used by CI).
    """
    import numpy as np

    from .stack import PimServer, PimSystem, RequestOutcome
    from .stack.arithmetic import golden_reference

    def serve(items, **server_knobs):
        system = PimSystem(config)
        with PimServer(system, server_config.replace(**server_knobs)) as srv:
            handles = [srv.submit(request) for request in items]
            profile = srv.run()
        return handles, profile, system

    seed = server_config.seed
    saturation_gap_ns = 500.0
    base_items = _poisson_stream(
        np.random.default_rng(seed), w, 32, saturation_gap_ns
    )
    _, base_profile, _ = serve(base_items)
    baseline_goodput = base_profile.goodput_rps()

    over_items = _poisson_stream(
        np.random.default_rng(seed + 1), w, 64, saturation_gap_ns / 2.0
    )
    handles, profile, over_system = serve(
        over_items, queue_depth=8, admission="shed"
    )
    if trace_path is not None:
        _write_trace(over_system, trace_path)
    print(
        f"Overload smoke: baseline {baseline_goodput:,.0f} req/s at "
        f"{saturation_gap_ns:.0f}ns gaps; 2x load on queue_depth=8 "
        f"shed admission"
    )
    print("\n".join(profile.render()))

    served = (RequestOutcome.COMPLETED, RequestOutcome.DEGRADED_HOST)
    exact = sum(
        1
        for handle, item in zip(handles, over_items)
        if handle.outcome in served
        and handle.result is not None
        and np.array_equal(
            handle.result, golden_reference(item, config.num_pchs)
        )
    )
    num_served = sum(1 for h in handles if h.outcome in served)
    checks = {
        "every request terminal": all(h.outcome is not None for h in handles),
        "outcomes conserve requests": sum(
            profile.outcomes().values()
        ) == len(handles),
        "served results bit-exact": exact == num_served and num_served > 0,
        "admission shed load": profile.rejected > 0,
        "dropped work cost no device time": all(
            h.service_ns == 0.0
            for h in handles
            if h.outcome
            in (RequestOutcome.REJECTED, RequestOutcome.EXPIRED)
        ),
        "goodput within 10% of baseline": (
            profile.goodput_rps() >= 0.9 * baseline_goodput
        ),
    }
    return _print_checks(checks)


def _kill_busiest(fabric) -> int:
    """Before ``run()``: arm a SIGKILL of the shard the next round's
    placement will load most — by cost in column commands, the router's
    one definition of load (first such shard on a tie) — right after that
    round is dispatched, its serve stalled so it cannot reply first
    (:func:`~repro.chaos.harness.arm_kill`).  Returns the victim."""
    from .chaos.harness import arm_kill
    from .stack.fabric import place_round, request_cost

    _, load, _ = place_round(
        fabric._pending,
        lambda request: request_cost(request, fabric.config, fabric.server_config),
        fabric.alive_shards(),
        fabric._ring,
    )
    victim = max((s for s in load if load[s]), key=load.get)
    arm_kill(fabric, victim)
    return victim


def _fabric_smoke(config, server_config, args) -> int:
    """Sharded-fabric smoke: scale-out throughput and kill conservation.

    Serves one GEMV-heavy stream (``--distinct-weights`` distinct weight
    matrices, so signatures spread across the hash ring) through a
    1-worker fabric and an ``--workers``-worker fabric, and compares
    *simulated* throughput (the device model's req/s; wall-clock is
    reported but not gated — CI containers may have a single core).
    With ``--min-speedup`` the run fails unless the sharded fabric beats
    the 1-worker baseline by at least that factor; without
    ``--kill-worker`` it also fails unless the per-shard placed cost
    (column commands) stays within 1.25x of its mean.  With
    ``--kill-worker`` the busiest shard — by that cost — is SIGKILLed
    after dispatch and the run asserts conservation: every request
    exactly one terminal outcome, bit-exact results, the dead shard
    quarantined.  With
    ``--transport shm`` the smoke additionally serves the workload
    through both transports and asserts the shm run is bit-exact vs the
    pipe oracle (results, outcomes, profile render), that no ``/dev/shm``
    segment outlives the fabrics (SIGKILL pass included), and — with
    ``--min-wire-reduction`` — that the resident-weight path cuts
    control-wire bytes by at least that factor over a multi-wave
    repeated-weight stream.  Nonzero exit code on any failed check
    (used by CI).
    """
    import time

    import numpy as np

    from .stack import PimFabric, Request
    from .stack.arithmetic import golden_reference
    from .stack.profiler import ServingProfile
    from .stack.shm import live_segments

    m, n = _GEMV_SHAPE
    count = 48
    k = max(1, args.distinct_weights)
    rng = np.random.default_rng(args.seed)
    weights = [
        (rng.standard_normal((m, n)) * 0.25).astype(np.float16)
        for _ in range(k)
    ]
    arrivals = np.cumsum(rng.exponential(200.0, size=count))
    items = [
        Request(
            "gemv",
            weights=weights[i % k],
            a=(rng.standard_normal(n) * 0.25).astype(np.float16),
            arrival_ns=float(arrivals[i]),
            trace_id=f"req{i}",
        )
        for i in range(count)
    ]
    server_config = server_config.replace(transport=args.transport)
    segments_before = live_segments()

    def serve(workers, kill=False, transport=None, waves=1):
        sc = (
            server_config if transport is None
            else server_config.replace(transport=transport)
        )
        chunk = max(1, -(-len(items) // waves))
        with PimFabric(
            config, workers=workers, server_config=sc
        ) as fabric:
            handles, profile = [], ServingProfile()
            t0 = time.perf_counter()
            for start in range(0, len(items), chunk):
                for request in items[start:start + chunk]:
                    handles.append(fabric.submit(request))
                if kill and not start:
                    _kill_busiest(fabric)
                profile.merge(fabric.run())
            wall_s = time.perf_counter() - t0
            bytes_tx = fabric.bytes_tx
        return handles, profile, wall_s, bytes_tx

    print(
        f"Fabric smoke: {count} gemv requests over {k} weight matrices, "
        f"{args.workers} workers, transport={args.transport}"
        + (" (killing the busiest shard mid-round)" if args.kill_worker else "")
    )
    base_handles, base_profile, base_wall, _ = serve(1)
    handles, profile, wall, _ = serve(args.workers, kill=args.kill_worker)
    print("\n".join(profile.render()))

    base_rps = base_profile.throughput_rps()
    rps = profile.throughput_rps()
    speedup = rps / base_rps if base_rps > 0 else float("inf")
    print(
        f"  simulated throughput: 1 worker {base_rps:,.0f} req/s, "
        f"{args.workers} workers {rps:,.0f} req/s "
        f"(speedup {speedup:.2f}x)"
    )
    print(
        f"  wall clock (informational): 1 worker {base_wall:.2f}s, "
        f"{args.workers} workers {wall:.2f}s"
    )

    def exact(hs):
        return all(
            h.result is not None
            and np.array_equal(
                h.result, golden_reference(h.request, config.num_pchs)
            )
            for h in hs
        )

    checks = {
        "every request terminal": all(h.outcome is not None for h in handles),
        "outcomes conserve requests": (
            sum(profile.outcomes().values()) == len(handles)
        ),
        "results bit-exact vs host reference": exact(handles),
        "baseline results bit-exact": exact(base_handles),
    }
    if args.kill_worker:
        checks["dead shard quarantined"] = len(profile.quarantined_shards) == 1
        checks["killed requests replayed or host-completed"] = (
            profile.replays > 0
        )
    else:
        shards_used = {h.shard for h in handles}
        checks["all shards served work"] = shards_used == set(
            range(args.workers)
        )
        checks["shard cost max/mean <= 1.25"] = (
            profile.shard_cost_imbalance() <= 1.25
        )
    if args.min_speedup is not None:
        checks[f"simulated speedup >= {args.min_speedup:g}x"] = (
            speedup >= args.min_speedup
        )
    if args.transport == "shm":
        # Differential pass: the same multi-wave repeated-weight stream
        # through both transports.  Waves matter twice over — the
        # lifecycle manager heals between waves, and the resident-weight
        # path only saves wire bytes when weights *repeat* across
        # rounds (pipe re-ships them each wave, shm ships digests).
        p_handles, p_profile, _, pipe_bytes = serve(
            args.workers, transport="pipe", waves=4
        )
        s_handles, s_profile, _, shm_bytes = serve(
            args.workers, transport="shm", waves=4
        )
        checks["shm results bit-exact vs pipe oracle"] = all(
            a.outcome == b.outcome
            and a.result is not None
            and np.array_equal(a.result, b.result)
            for a, b in zip(p_handles, s_handles)
        )
        checks["shm profile identical to pipe oracle"] = (
            p_profile.render() == s_profile.render()
        )
        reduction = pipe_bytes / max(1, shm_bytes)
        print(
            f"  wire bytes (4 waves): pipe {pipe_bytes:,d}, "
            f"shm {shm_bytes:,d} ({reduction:.1f}x reduction)"
        )
        if args.min_wire_reduction is not None:
            checks[f"wire reduction >= {args.min_wire_reduction:g}x"] = (
                reduction >= args.min_wire_reduction
            )
        checks["no /dev/shm segment leaked"] = (
            live_segments() == segments_before
        )
    return _print_checks(checks)


def _serve_bench(argv=None) -> int:
    """Serving benchmark; ``--faults``/``--overload`` run CI smokes.

    The fault smoke hard-fails a whole lane's channels, sprinkles
    single-bit flips over the allocated rows, and then *asserts* that the
    self-healing server completed every request bit-exactly with nonzero
    corrected and fallback counters.  The overload smoke offers 2x the
    saturation load to a bounded-queue server and *asserts* that goodput
    stays within 10% of the unprotected saturation baseline and that
    every submitted request reports a terminal ``RequestOutcome`` (zero
    silent losses).  A nonzero exit code means the corresponding
    protection layer regressed (both are used by CI).
    """
    import argparse
    import os

    import numpy as np

    from .stack import PimServer, PimSystem
    from .stack.arithmetic import golden_reference

    parser = argparse.ArgumentParser(prog="repro serve-bench")
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run the sharded-fabric smoke: serve the workload through a "
             "PimFabric with N worker processes and compare simulated "
             "throughput against a 1-worker fabric",
    )
    parser.add_argument(
        "--kill-worker", action="store_true",
        help="with --workers: SIGKILL the busiest worker mid-round and "
             "assert conservation (every request exactly one terminal "
             "outcome, bit-exact results, dead shard quarantined)",
    )
    parser.add_argument(
        "--distinct-weights", type=int, default=8,
        help="distinct GEMV weight matrices in the fabric workload "
             "(signature spread across the hash ring; default: 8)",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="with --workers: fail unless fabric simulated throughput is "
             "at least this multiple of the 1-worker fabric's",
    )
    parser.add_argument(
        "--transport", default="pipe", choices=("pipe", "shm"),
        help="fabric payload transport: 'pipe' pickles full requests "
             "through the worker pipe (the always-available differential "
             "oracle), 'shm' stages bulk tensors through shared memory "
             "with shard-resident weights; --transport shm additionally "
             "asserts bit-exactness against a pipe run and that no "
             "/dev/shm segment leaks (default: pipe)",
    )
    parser.add_argument(
        "--min-wire-reduction", type=float, default=None,
        help="with --workers and --transport shm: fail unless the pipe "
             "transport ships at least this many times more control "
             "bytes than shm over a multi-wave repeated-weight stream",
    )
    parser.add_argument(
        "--faults", action="store_true",
        help="run the fault-injection smoke instead of the load sweep",
    )
    parser.add_argument(
        "--overload", action="store_true",
        help="run the overload-protection smoke instead of the load sweep",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="master seed of the workload generator, the fault injector "
             "(unless --fault-seed overrides it), and the retry-backoff "
             "jitter; identical seeds replay byte-identical runs "
             "(default: 7)",
    )
    parser.add_argument(
        "--fault-rate", type=float, default=1e-4,
        help="per-bit flip probability per injection epoch",
    )
    parser.add_argument(
        "--fault-seed", type=int, default=None,
        help="seed of the fault injector (default: the --seed value)",
    )
    parser.add_argument(
        "--scrub-interval", type=int, default=2,
        help="run driver.scrub() every N batches (0 disables)",
    )
    parser.add_argument(
        "--fail-channels", default="0,1",
        help="comma-separated channels to hard-fail (fault mode only)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="enable the observability layer and write a Chrome trace of "
             "the last served session to PATH",
    )
    parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="journal every accepted request and terminal outcome of the "
             "load sweep into DIR (one write-ahead-log subdirectory per "
             "offered gap); 'python -m repro replay --journal DIR/gap-*' "
             "recovers it after a crash",
    )
    parser.add_argument(
        "--replay", action="store_true",
        help="run the record/replay smoke instead of the load sweep: "
             "journal one seeded session, re-serve the journaled request "
             "stream on a fresh system, and fail unless the two sessions "
             "are byte-comparable (identical profiles, identical span "
             "trees under diff_span_trees, bit-exact results)",
    )
    parser.add_argument(
        "--exec-mode", default=None, choices=("scalar", "fused"),
        help="how column triggers execute: the trace-compiled fused "
             "executor (default), or its differential oracle, the "
             "execution units trigger by trigger with per-word SEC-DED "
             "(see docs/ARCHITECTURE.md)",
    )
    args = parser.parse_args(argv or [])
    fault_seed = args.seed if args.fault_seed is None else args.fault_seed

    config, server_config, rng, w = _serving_setup(
        args.seed, trace=args.trace is not None, exec_mode=args.exec_mode
    )

    if args.replay:
        return _replay_smoke(config, server_config, w, args)

    if args.workers is not None:
        return _fabric_smoke(config, server_config, args)

    if args.overload:
        return _overload_smoke(config, server_config, w, trace_path=args.trace)

    if args.faults:
        from .faults import FaultConfig

        failed = tuple(
            int(p) for p in args.fail_channels.split(",") if p.strip() != ""
        )
        config = config.replace(
            ecc=True,
            faults=FaultConfig(
                bit_flip_rate=args.fault_rate,
                check_flip_rate=args.fault_rate,
                register_fault_rate=0.05,
                failed_channels=failed,
                seed=fault_seed,
            ),
        )
        print(
            f"Fault smoke: channels {failed} dead, bit flips at "
            f"{args.fault_rate:g}/bit/epoch, scrub every "
            f"{args.scrub_interval} batches"
        )
        system = PimSystem(config)
        faulty = server_config.replace(scrub_interval=args.scrub_interval)
        with PimServer(system, faulty) as server:
            requests = [
                server.submit(request)
                for request in _poisson_stream(rng, w, 24, 2000.0)
            ]
            profile = server.run()
        print("\n".join(profile.render()))
        if args.trace is not None:
            _write_trace(system, args.trace)
        exact = sum(
            1
            for request in requests
            if request.result is not None
            and np.array_equal(
                request.result, golden_reference(request, config.num_pchs)
            )
        )
        corrected = profile.ecc_corrected + profile.scrub_corrected
        checks = {
            "all requests completed": all(
                r.result is not None for r in requests
            ),
            "all results bit-exact": exact == len(requests),
            "nonzero corrected counter": corrected > 0,
            "nonzero fallback counter": profile.fallbacks > 0,
            "failed channels quarantined": set(failed).issubset(
                set(profile.quarantined_channels)
            ),
        }
        return _print_checks(checks)

    print("Serving a mixed GEMV+ADD Poisson stream (2 lanes, max_batch=8)")
    print(
        f"  device: {config.num_pchs} pCH, gemv {w.shape[0]}x{w.shape[1]}, "
        f"add[{_ADD_LENGTH}]"
    )
    if args.journal is not None:
        print(f"  journaling every request and outcome under {args.journal}")
    print("  offered gap     req/s   mean batch   mean wait   p95 turnaround")
    for gap_ns in (8000.0, 2000.0, 500.0):
        trace_prefix = None
        session_config = server_config
        if args.journal is not None:
            # One WAL per gap session: each session's request ids restart
            # at zero, and a journal's rids must be unique.
            trace_prefix = f"bench-s{args.seed}-g{gap_ns:.0f}"
            session_config = server_config.replace(
                journal_dir=os.path.join(args.journal, f"gap-{gap_ns:.0f}")
            )
        stream = _poisson_stream(rng, w, 32, gap_ns, trace_prefix)
        system = PimSystem(config)
        with PimServer(system, session_config) as server:
            for request in stream:
                server.submit(request)
            profile = server.run()
        print(
            f"  {gap_ns:8.0f}ns {profile.throughput_rps():9,.0f} "
            f"{profile.mean_batch_size():10.1f} "
            f"{profile.mean_wait_ns() / 1000:9.1f}us "
            f"{profile.p95_turnaround_ns() / 1000:13.1f}us"
        )
    if args.trace is not None:
        _write_trace(system, args.trace)
    return 0


def _replay_smoke(config, server_config, w, args) -> int:
    """Record one session into a journal, replay it, require byte-equality.

    Serves a seeded GEMV+ADD stream through a journaling server, then
    re-serves the *journaled* request stream (what the WAL actually
    captured, not the in-memory objects) on a fresh system.  The two
    sessions must be byte-comparable: identical profile renders,
    identical span trees under
    :func:`~repro.obs.export.diff_span_trees`, and bit-exact per-request
    results.  Nonzero exit code on any divergence (used by CI).
    """
    import os
    import shutil
    import tempfile

    import numpy as np

    from .journal.wal import read_records
    from .obs.export import diff_span_trees
    from .stack import PimServer, PimSystem

    config = config.replace(trace=True)
    scratch = None
    journal_root = args.journal
    if journal_root is None:
        scratch = tempfile.mkdtemp(prefix="repro-replay-")
        journal_root = scratch
    journal_dir = os.path.join(journal_root, "record")
    requests = _poisson_stream(
        np.random.default_rng(args.seed), w, 32, 2000.0,
        trace_prefix=f"replay-s{args.seed}",
    )
    try:
        system = PimSystem(config)
        recorded_config = server_config.replace(journal_dir=journal_dir)
        with PimServer(system, recorded_config) as server:
            recorded = [server.submit(request) for request in requests]
            recorded_profile = server.run()
        recorded_tracer = system.tracer

        accepted = sorted(
            (r for r in read_records(journal_dir) if r.get("kind") == "accepted"),
            key=lambda r: r["rid"],
        )
        replay_system = PimSystem(config)
        with PimServer(replay_system, server_config) as server:
            replayed = [server.submit(r["request"]) for r in accepted]
            replayed_profile = server.run()
        replayed_tracer = replay_system.tracer

        diff = diff_span_trees(recorded_tracer, replayed_tracer)
        checks = {
            "journal captured every request": len(accepted) == len(requests),
            "replayed profile identical": (
                "\n".join(recorded_profile.render())
                == "\n".join(replayed_profile.render())
            ),
            "replayed span tree identical": diff is None,
            "replayed results bit-exact": len(recorded) == len(replayed)
            and all(
                a.result is not None
                and b.result is not None
                and np.array_equal(a.result, b.result)
                for a, b in zip(recorded, replayed)
            ),
        }
        print(
            f"Record/replay smoke: {len(accepted)} journaled requests "
            f"({journal_dir})"
        )
        if diff is not None:
            print(f"  span divergence: {diff}")
        return _print_checks(checks)
    finally:
        if scratch is not None:
            shutil.rmtree(scratch, ignore_errors=True)


def _strip_outcomes(journal_dir: str, into: str) -> None:
    """Copy a journal with every outcome record dropped (forces replay)."""
    from .journal.wal import JournalWriter, read_records

    with JournalWriter(into) as writer:
        for record in read_records(journal_dir):
            if record.get("kind") != "outcome":
                writer.append(record)


def _crash_smoke(args) -> int:
    """SIGKILL a journaled serve-bench mid-run, recover, compare outcomes.

    Spawns ``python -m repro serve-bench --journal DIR`` as a child,
    kills it with SIGKILL as soon as the journal holds accepted records
    (the most adversarial instant recovery must handle: requests
    admitted, possibly a torn record at the tail), then for every WAL
    the child left behind:

    * ``recover()`` must terminate every journaled request exactly once
      (outcome conservation);
    * an *uninterrupted* run of the same journaled stream — a forced
      full replay through the identical recovery path — must produce
      the same outcome and bit-identical result bytes per trace id;
    * two such uninterrupted runs must agree byte-for-byte on profile
      render and span tree (replay determinism);
    * a second ``recover()`` must replay nothing (idempotence).
    """
    import os
    import shutil
    import signal
    import subprocess
    import tempfile
    import time

    import numpy as np

    from .journal import recover
    from .journal.wal import read_records
    from .obs.export import diff_span_trees

    root = tempfile.mkdtemp(prefix="repro-crash-smoke-")
    child_dir = os.path.join(root, "journal")
    checks = {}
    try:
        child = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve-bench",
             "--journal", child_dir, "--seed", str(args.seed)],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

        def accepted_count() -> int:
            total = 0
            if os.path.isdir(child_dir):
                for name in os.listdir(child_dir):
                    try:
                        records = read_records(os.path.join(child_dir, name))
                    except Exception:
                        continue
                    total += sum(
                        1 for r in records if r.get("kind") == "accepted"
                    )
            return total

        deadline = time.time() + 120.0
        killed = False
        while time.time() < deadline:
            if accepted_count() > 0:
                child.kill()  # SIGKILL: no atexit, no journal close
                killed = True
                break
            if child.poll() is not None:
                break
            time.sleep(0.01)
        child.wait()
        checks["child SIGKILLed with journaled requests"] = killed

        wals = sorted(os.listdir(child_dir)) if os.path.isdir(child_dir) else []
        checks["journal left behind"] = bool(wals)
        print(
            f"Crash smoke: child killed={killed}, WALs: "
            + (", ".join(wals) or "none")
        )
        for name in wals:
            wal = os.path.join(child_dir, name)
            report = recover(wal, workers=args.workers)
            print("\n".join("  " + line for line in report.render()))
            checks[f"{name}: every request terminal"] = all(
                h.outcome is not None for h in report.handles
            )

            # Uninterrupted comparator: the same journaled stream, fully
            # replayed twice through the identical recovery path.
            runs = []
            for attempt in ("a", "b"):
                stripped = os.path.join(root, f"full-{name}-{attempt}")
                _strip_outcomes(wal, stripped)
                runs.append(recover(stripped, workers=args.workers))
            full_a, full_b = runs
            by_trace = {
                h.request.trace_id: h for h in full_a.handles
            }
            checks[f"{name}: outcomes bit-exact vs uninterrupted"] = all(
                (other := by_trace.get(h.request.trace_id)) is not None
                and h.outcome == other.outcome
                and (
                    (h.result is None and other.result is None)
                    or (
                        h.result is not None
                        and other.result is not None
                        and np.array_equal(h.result, other.result)
                    )
                )
                for h in report.handles
            )
            checks[f"{name}: replay profile byte-identical"] = (
                "\n".join(full_a.replay_profile.render())
                == "\n".join(full_b.replay_profile.render())
            )
            checks[f"{name}: replay span tree identical"] = (
                diff_span_trees(full_a.tracer, full_b.tracer) is None
                if full_a.tracer is not None and full_b.tracer is not None
                else full_a.tracer is full_b.tracer
            )
            second = recover(wal, workers=args.workers)
            checks[f"{name}: second recover replays nothing"] = (
                second.replayed == 0
                and len(second.handles) == len(report.handles)
            )
        return _print_checks(checks)
    finally:
        shutil.rmtree(root, ignore_errors=True)


def _replay(argv=None) -> int:
    """Record/replay toolbox: journal recovery and trace-ISA interop.

    Four modes (first match wins):

    * ``--selftest`` — parse, execute, and re-emit the built-in
      ``all_inst``-style sample trace; fail unless
      ``execute(parse(emit(parse(t))))`` reproduces the device state
      digest of ``execute(parse(t))``.
    * ``--crash-smoke`` — record a journaled serve-bench in a child
      process, SIGKILL it mid-run, recover, and gate on outcome
      conservation plus byte-identical replay (see CI ``replay-smoke``).
    * ``--trace FILE`` — parse an HBM-PIMulator textual trace, execute
      it against the device model, print the op histogram and state
      digest, verify emit→parse→execute round-trips, and optionally
      ``--emit`` the canonical re-emission.
    * ``--journal DIR`` — recover a write-ahead-log directory into
      terminal outcomes (``repro.journal.recover``), print the recovery
      report, and optionally ``--export-trace`` the journaled request
      stream in the trace ISA.
    """
    import argparse

    parser = argparse.ArgumentParser(prog="repro replay")
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="parse and execute an HBM-PIMulator textual trace against "
             "the device model; nonzero exit if the trace does not "
             "round-trip through emit",
    )
    parser.add_argument(
        "--emit", default=None, metavar="OUT",
        help="with --trace/--journal: write the canonical trace-ISA "
             "emission to OUT",
    )
    parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="recover a journal directory: replay every "
             "journaled-but-unterminated request and print the recovery "
             "report; nonzero exit if any request is left non-terminal",
    )
    parser.add_argument(
        "--export-trace", default=None, metavar="OUT", dest="export_trace",
        help="with --journal: emit the recovered request stream as an "
             "HBM-PIMulator trace to OUT",
    )
    parser.add_argument(
        "--selftest", action="store_true",
        help="run the built-in trace-ISA round-trip selftest",
    )
    parser.add_argument(
        "--crash-smoke", action="store_true", dest="crash_smoke",
        help="record a journaled serve-bench in a child process, SIGKILL "
             "it mid-run, recover, and verify conservation plus "
             "byte-identical replay (used by CI)",
    )
    parser.add_argument(
        "--seed", type=int, default=7,
        help="seed of the --crash-smoke workload (default: 7)",
    )
    parser.add_argument(
        "--workers", type=int, default=2,
        help="fabric workers used by journal recovery (default: 2)",
    )
    parser.add_argument(
        "--channels", type=int, default=2,
        help="device channels the trace executor materialises (default: 2)",
    )
    args = parser.parse_args(argv or [])

    if args.selftest:
        return _replay_selftest(args)
    if args.crash_smoke:
        return _crash_smoke(args)
    if args.trace is not None:
        return _replay_trace(args)
    if args.journal is not None:
        return _replay_journal(args)
    parser.print_help()
    return 1


def _replay_selftest(args) -> int:
    """Round-trip the built-in sample trace; nonzero exit on divergence."""
    from .tools.pimulator import (
        emit_trace,
        execute_trace,
        parse_trace,
        sample_trace,
    )

    ops = parse_trace(sample_trace())
    first = execute_trace(ops, channels=args.channels)
    emitted = emit_trace(ops)
    second = execute_trace(parse_trace(emitted), channels=args.channels)
    ok = first.state_digest() == second.state_digest()
    print(
        f"Trace-ISA selftest: {len(ops)} ops, "
        f"{first.pim_instructions} PIM instructions, "
        f"digest {first.state_digest()[:16]}"
    )
    return _print_checks({"emit/parse/execute round-trip": ok})


def _replay_trace(args) -> int:
    """Execute an external trace file; verify it round-trips through emit."""
    from .errors import PimReplayError
    from .tools.pimulator import emit_trace, execute_trace, parse_trace

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            text = handle.read()
        ops = parse_trace(text)
        execution = execute_trace(ops, channels=args.channels)
    except (OSError, PimReplayError) as exc:
        print(f"replay failed: {exc}")
        return 1
    histogram = {}
    for op in ops:
        key = op.kind if op.mnemonic is None else f"{op.kind} {op.mnemonic}"
        histogram[key] = histogram.get(key, 0) + 1
    print(f"Executed {len(ops)} trace ops from {args.trace}")
    for key in sorted(histogram):
        print(f"  {key:<14} : {histogram[key]}")
    print(f"  state digest   : {execution.state_digest()}")
    emitted = emit_trace(ops)
    replayed = execute_trace(parse_trace(emitted), channels=args.channels)
    rc = _print_checks({
        "emit/parse/execute round-trip":
            replayed.state_digest() == execution.state_digest(),
    })
    if args.emit is not None:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(emitted)
        print(f"  wrote canonical emission to {args.emit}")
    return rc


def _replay_journal(args) -> int:
    """Recover a journal directory; print the report; export optionally."""
    from .errors import PimJournalError
    from .journal import recover
    from .tools.pimulator import emit_trace, requests_to_trace

    try:
        report = recover(args.journal, workers=args.workers)
    except PimJournalError as exc:
        print(f"recovery failed: {exc}")
        return 1
    print("\n".join(report.render()))
    non_terminal = [
        h.request_id for h in report.handles if h.outcome is None
    ]
    if args.export_trace is not None:
        # The streams request_cost prices: GEMV slices over the device,
        # elementwise slots over one serving lane.
        pchs, lanes = report.config.num_pchs, report.server_config.lanes
        ops = requests_to_trace(
            [h.request for h in report.handles], pchs, max(1, pchs // lanes)
        )
        with open(args.export_trace, "w", encoding="utf-8") as handle:
            handle.write(emit_trace(ops))
        print(
            f"  exported {len(ops)} trace-ISA ops to {args.export_trace}"
        )
    if non_terminal:
        print(f"  FAIL: requests without terminal outcome: {non_terminal}")
        return 1
    print("  every journaled request has exactly one terminal outcome")
    return 0


def _chaos(argv=None) -> int:
    """Chaos smoke: a scripted fault storm the fabric must survive.

    Generates a seeded :class:`~repro.chaos.ChaosSchedule` covering
    worker kill, wedge, slowdown, channel death, stored-bit flips, and
    pipe-payload / shared-memory-frame corruption, replays it against a
    live :class:`~repro.stack.fabric.PimFabric` alongside a fault-free
    baseline, and checks the invariant suite: every request exactly one
    terminal outcome, bit-exact results versus the host golden path, a
    valid merged Chrome trace, every respawned shard rejoined to the
    ring, post-recovery throughput within 20% of fault-free, and p99
    turnaround below 2x fault-free.  The scenario then runs a *second*
    time at the same seed and the two runs' serving profiles and span
    trees are compared — byte-identical replay is itself a gated
    invariant.  Under ``--transport shm`` the second pass runs on the
    *pipe* transport instead, turning the determinism check into a
    cross-transport differential: the shm fault storm (shm-frame
    corruption included) must be bit-exact against its pipe-oracle
    twin.  Nonzero exit code on any violation (used by CI).
    """
    import argparse

    from .chaos import run_chaos
    from .obs.export import diff_span_trees

    parser = argparse.ArgumentParser(prog="repro chaos")
    parser.add_argument(
        "--seed", type=int, default=7,
        help="seed of the chaos schedule, the workload, and every "
             "scripted fault; identical seeds replay byte-identical runs "
             "(default: 7)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="fabric worker processes (default: 4)",
    )
    parser.add_argument(
        "--requests", type=int, default=48,
        help="total requests across all waves (default: 48)",
    )
    parser.add_argument(
        "--once", action="store_true",
        help="skip the replay-determinism pass (single scenario run)",
    )
    parser.add_argument(
        "--transport", default="pipe", choices=("pipe", "shm"),
        help="fabric payload transport for the scenario; 'shm' makes "
             "the replay pass a pipe-oracle differential (default: pipe)",
    )
    args = parser.parse_args(argv or [])

    print(
        f"Chaos smoke: seed={args.seed} workers={args.workers} "
        f"requests={args.requests} transport={args.transport}"
    )
    report = run_chaos(
        seed=args.seed, workers=args.workers, requests=args.requests,
        transport=args.transport,
    )
    print("\n".join(report.render()))
    failures = list(report.violations)
    if not args.once:
        # Under shm the replay runs on the pipe transport: one pass
        # doubles as both the determinism check and the cross-transport
        # bit-exactness differential.
        oracle = "pipe" if args.transport == "shm" else args.transport
        replay = run_chaos(
            seed=args.seed, workers=args.workers, requests=args.requests,
            transport=oracle,
        )
        failures.extend(replay.violations)
        if oracle != args.transport:
            print(f"  replay pass ran on the {oracle} oracle transport")
        checks = {
            "replay profile identical": (
                "\n".join(report.profile.render())
                == "\n".join(replay.profile.render())
                and report.profile.outcomes() == replay.profile.outcomes()
                and [
                    (r.request_id, r.outcome, r.shard, r.finish_ns)
                    for r in report.profile.requests
                ]
                == [
                    (r.request_id, r.outcome, r.shard, r.finish_ns)
                    for r in replay.profile.requests
                ]
            ),
            "replay span tree identical": (
                diff_span_trees(report.tracer, replay.tracer) is None
            ),
        }
        _print_checks(checks)
        failures.extend(
            f"determinism check failed: {name}"
            for name, ok in checks.items() if not ok
        )
    if failures:
        print(f"chaos smoke FAILED ({len(failures)} violation(s))")
        return 1
    print("chaos smoke passed: every invariant held")
    return 0


_COMMANDS = {
    "report": _report,
    "demo": _demo,
    "specs": _specs,
    "trace": _trace,
    "serve-bench": _serve_bench,
    "chaos": _chaos,
    "replay": _replay,
}


def main(argv=None) -> int:
    """Dispatch a CLI subcommand; returns the process exit code.

    Arguments after the subcommand are forwarded to handlers that accept
    them (currently ``serve-bench``, ``trace``, ``chaos``, and
    ``replay``); a handler's integer return value becomes the exit code.
    """
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv else "demo"
    handler = _COMMANDS.get(command)
    if handler is None:
        print(__doc__)
        return 1
    if handler in (_serve_bench, _trace, _chaos, _replay):
        result = handler(argv[1:])
    else:
        result = handler()
    return int(result) if result is not None else 0


if __name__ == "__main__":
    raise SystemExit(main())
