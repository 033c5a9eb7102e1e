"""Tracked durability baseline: what the request journal costs.

Serves the same seeded GEMV+ADD stream through a
:class:`~repro.stack.server.PimServer` twice — once plain, once with the
write-ahead log enabled (``ServerConfig(journal_dir=...)``) — and
records the journaling overhead on serving wall time, the journal's
size, and how long a restore-only :func:`repro.journal.recover` pass
takes over the finished log.  Both serving modes are timed as the
minimum over ``--reps`` repetitions so the overhead ratio reflects the
journal's cost, not scheduler noise.

Results land in a ``bench_replay/v1`` JSON document::

    python benchmarks/bench_replay.py --quick --out BENCH_replay.json \\
        --max-overhead 0.05

The process exits non-zero if the journaled run is more than
``--max-overhead`` slower than the plain run, if recovery loses a
record, or if the emitted document fails schema validation.
"""

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

from repro.journal import recover
from repro.journal.wal import list_segments, read_records
from repro.stack import PimServer, PimSystem, Request, ServerConfig, SystemConfig

SCHEMA = "bench_replay/v1"


def _requests(seed: int, count: int):
    rng = np.random.default_rng(seed)
    m, n, length = 64, 96, 256
    w = (rng.standard_normal((m, n)) * 0.25).astype(np.float16)
    arrivals = np.cumsum(rng.exponential(2000.0, size=count))
    requests = []
    for i, arrival in enumerate(arrivals):
        if i % 2 == 0:
            requests.append(Request(
                "gemv", weights=w,
                a=(rng.standard_normal(n) * 0.25).astype(np.float16),
                arrival_ns=float(arrival), trace_id=f"bench-r{i}",
            ))
        else:
            requests.append(Request(
                "add",
                a=(rng.standard_normal(length) * 0.25).astype(np.float16),
                b=(rng.standard_normal(length) * 0.25).astype(np.float16),
                arrival_ns=float(arrival), trace_id=f"bench-r{i}",
            ))
    return requests


def _serve_once(config, requests, journal_dir=None) -> float:
    server_config = ServerConfig(lanes=2, max_batch=8)
    if journal_dir is not None:
        server_config = server_config.replace(journal_dir=journal_dir)
    system = PimSystem(config)
    start = time.perf_counter()
    with PimServer(system, server_config) as server:
        for request in requests:
            server.submit(request)
        profile = server.run()
    elapsed = time.perf_counter() - start
    served = sum(1 for r in profile.requests if r.outcome == "completed")
    if served != len(requests):
        raise SystemExit(
            f"bench run did not complete every request ({served}/"
            f"{len(requests)})"
        )
    return elapsed


def bench_replay(seed: int, count: int, reps: int) -> dict:
    """Journal overhead + recovery cost at one workload size."""
    config = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1)
    requests = _requests(seed, count)
    root = tempfile.mkdtemp(prefix="repro-bench-replay-")
    try:
        # One untimed warmup, then *interleaved* plain/journaled reps:
        # back-to-back pairs see the same caches and scheduler state, so
        # the min-over-reps ratio isolates the journal's cost instead of
        # measuring which mode ran first.
        _serve_once(config, requests)
        plain_s = []
        journaled_s = []
        last_dir = None
        for rep in range(reps):
            plain_s.append(_serve_once(config, requests))
            last_dir = os.path.join(root, f"wal-{rep}")
            journaled_s.append(
                _serve_once(config, requests, journal_dir=last_dir)
            )
        plain_s = min(plain_s)
        journaled_s = min(journaled_s)
        journal_bytes = sum(
            os.path.getsize(p) for p in list_segments(last_dir)
        )
        records = len(read_records(last_dir))
        start = time.perf_counter()
        report = recover(last_dir)
        restore_s = time.perf_counter() - start
        if report.restored != count or report.replayed != 0:
            raise SystemExit(
                f"restore-only recovery diverged: restored "
                f"{report.restored}/{count}, replayed {report.replayed}"
            )
        return {
            "seed": seed,
            "requests": count,
            "reps": reps,
            "plain_s": plain_s,
            "journaled_s": journaled_s,
            "overhead": journaled_s / plain_s - 1.0,
            "journal_bytes": journal_bytes,
            "records": records,
            "restore_s": restore_s,
            "restored": report.restored,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def validate(doc: dict) -> None:
    """Schema check of a ``bench_replay/v1`` document (raises ValueError)."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}")
    if not isinstance(doc.get("quick"), bool):
        raise ValueError("quick must be a bool")
    entry = doc.get("serving")
    if not isinstance(entry, dict):
        raise ValueError("serving must be a dict")
    for key in ("plain_s", "journaled_s", "restore_s"):
        value = entry.get(key)
        if not isinstance(value, float) or value <= 0:
            raise ValueError(f"serving.{key} must be a positive float")
    for key in ("seed", "requests", "reps", "journal_bytes", "records",
                "restored"):
        if not isinstance(entry.get(key), int) or entry[key] < 0:
            raise ValueError(f"serving.{key} must be a non-negative int")
    overhead = entry.get("overhead")
    if not isinstance(overhead, float):
        raise ValueError("serving.overhead must be a float")
    implied = entry["journaled_s"] / entry["plain_s"] - 1.0
    if abs(overhead - implied) > 1e-6:
        raise ValueError("serving.overhead is inconsistent with timings")
    if entry["restored"] != entry["requests"]:
        raise ValueError("recovery must restore every journaled request")
    # meta + one accepted + one outcome record per request.
    if entry["records"] != 1 + 2 * entry["requests"]:
        raise ValueError("journal record count is inconsistent")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload and fewer reps (CI-sized)")
    parser.add_argument("--out", default=None,
                        help="write the bench_replay/v1 JSON here")
    parser.add_argument("--max-overhead", type=float, default=None,
                        help="fail if journaling slows serving by more "
                             "than this fraction (e.g. 0.05)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    count, reps = (64, 3) if args.quick else (128, 5)
    entry = bench_replay(args.seed, count, reps)
    doc = {"schema": SCHEMA, "quick": args.quick, "serving": entry}
    validate(doc)

    print(
        f"serving {entry['requests']} requests: plain "
        f"{entry['plain_s'] * 1000:.1f}ms, journaled "
        f"{entry['journaled_s'] * 1000:.1f}ms "
        f"(overhead {entry['overhead'] * 100:+.1f}%)"
    )
    print(
        f"journal {entry['journal_bytes'] / 1024:.0f}KiB, "
        f"{entry['records']} records; restore-only recovery "
        f"{entry['restore_s'] * 1000:.1f}ms for {entry['restored']} requests"
    )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        validate(json.load(open(args.out)))
        print(f"wrote {args.out}")
    if args.max_overhead is not None and entry["overhead"] > args.max_overhead:
        print(
            f"FAIL: journal overhead {entry['overhead'] * 100:.1f}% above "
            f"--max-overhead {args.max_overhead * 100:.1f}%"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
