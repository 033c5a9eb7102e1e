"""Command-line entry point.

Every command reports: it prints a profile or writes a file.  A nonzero
exit means bad outside input (an unreadable or malformed trace, a missing
or corrupt journal), or, for ``chaos``, a violated invariant in its
report; the checks themselves are tests (``tests/gates`` holds the
end-to-end ones).

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
    python -m repro serve-bench --journal wal/
                                 # same load sweep, journaling every request
                                 # and outcome into a write-ahead log
    python -m repro chaos --seed 7
                                 # scripted fault storm against the fabric;
                                 # prints the chaos report and its profile
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


def _trace(argv=None) -> None:
    """Bare ``trace``: the historical annotated command stream.  With
    ``--out PATH``: run the default serving workload with the observability
    layer enabled and emit a Chrome trace (plus optional span JSONL and
    metrics dump), printing how far the request spans' extent drifts from
    the ``ServingProfile`` makespan.
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
        return

    import argparse

    from .obs import render_timeline, write_span_jsonl
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
    print()
    for line in render_timeline(tracer, max_spans=24):
        print(line)


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


def _serve_bench(argv=None) -> None:
    """Serving benchmark: the mixed GEMV+ADD stream at three offered loads."""
    import argparse
    import os

    from .stack import PimServer, PimSystem

    parser = argparse.ArgumentParser(prog="repro serve-bench")
    parser.add_argument(
        "--seed", type=int, default=7,
        help="master seed of the workload generator and the retry-backoff "
             "jitter; identical seeds replay byte-identical runs "
             "(default: 7)",
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
    args = parser.parse_args(argv or [])

    config, server_config, rng, w = _serving_setup(
        args.seed, trace=args.trace is not None
    )
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


def _replay(argv=None) -> int:
    """Record/replay toolbox: journal recovery and trace-ISA interop.

    * ``--trace FILE`` — parse an HBM-PIMulator textual trace, execute it
      against the device model, print the op histogram and state digest,
      and optionally ``--emit`` the canonical re-emission.
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
             "the device model; nonzero exit if it cannot be read or parsed",
    )
    parser.add_argument(
        "--emit", default=None, metavar="OUT",
        help="with --trace: write the canonical trace-ISA emission to OUT",
    )
    parser.add_argument(
        "--journal", default=None, metavar="DIR",
        help="recover a journal directory: replay every "
             "journaled-but-unterminated request and print the recovery "
             "report; nonzero exit if the journal is missing or corrupt",
    )
    parser.add_argument(
        "--export-trace", default=None, metavar="OUT", dest="export_trace",
        help="with --journal: emit the recovered request stream as an "
             "HBM-PIMulator trace to OUT",
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

    if args.trace is not None:
        return _replay_trace(args)
    if args.journal is not None:
        return _replay_journal(args)
    parser.print_help()
    return 1


def _replay_trace(args) -> int:
    """Execute an external trace file; print its op histogram and digest."""
    from .errors import PimReplayError
    from .tools.pimulator import emit_trace, execute_trace, parse_trace

    try:
        with open(args.trace, "r", encoding="utf-8") as handle:
            text = handle.read()
        ops = parse_trace(text)
        execution = execute_trace(ops, channels=args.channels)
    except (OSError, UnicodeDecodeError, PimReplayError) as exc:
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
    if args.emit is not None:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(emit_trace(ops))
        print(f"  wrote canonical emission to {args.emit}")
    return 0


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
    return 0


def _chaos(argv=None) -> int:
    """A scripted fault storm against the fabric, reported.

    Runs :func:`~repro.chaos.run_chaos` once — a seeded
    :class:`~repro.chaos.ChaosSchedule` of worker kills, wedges,
    slowdowns, channel deaths, bit flips and payload corruption against a
    live fabric beside a fault-free baseline — and prints its report and
    merged serving profile.  The exit status is the report's: nonzero when
    an invariant of :mod:`repro.chaos.invariants` was violated.
    """
    import argparse

    from .chaos import run_chaos

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
    args = parser.parse_args(argv or [])

    report = run_chaos(
        seed=args.seed, workers=args.workers, requests=args.requests
    )
    print("\n".join(report.render()))
    print("serving profile:")
    print("\n".join(report.profile.render()))
    return 0 if report.ok else 1


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
