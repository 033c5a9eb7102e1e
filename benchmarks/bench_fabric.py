"""Tracked scale-out and transport baseline for the serving fabric.

Serves one multi-wave GEMV stream (8 distinct weight matrices, each wave
revisiting every matrix) through :class:`~repro.stack.fabric.PimFabric`
at 1, 2, and 4 workers under **both** payload transports and records,
per (worker count, transport):

* **simulated** throughput (req/s of the merged serving profile — round
  makespan is the max over shards, so this is what sharding actually
  scales) and its speedup over the same transport's 1-worker fabric;
* **wall-clock** serve time (informational only: CI containers may pin
  the whole run to a single core, so wall time is recorded but never
  gated by default — ``--max-wall-ratio`` opts a bound in);
* **bytes on the control wire** (``fabric.bytes_tx``: framed pickle
  bytes the router pushed down worker pipes) and the bytes staged
  through shared memory (``fabric.shm_tx``).  The stream re-uses every
  weight matrix each wave, so the pipe transport re-ships the matrices
  wave after wave while the shm transport's shard-resident weight store
  ships each matrix once and 40-byte digests thereafter —
  ``wire_reduction`` (pipe bytes / shm bytes, same worker count) is the
  tracked payoff of ``ServerConfig(transport="shm")``.

Every result is checked bit-exact against the host GEMV reference, and
each worker count's shm run is checked bit-exact (results *and* profile
render) against its pipe twin before anything is recorded — the bench
refuses to emit numbers for a transport that diverges.  Hedging is
pinned off: it triggers on wall-clock noise, and the pipe-vs-shm
comparison must isolate the transport.  Results land in a
``bench_fabric/v2`` JSON document::

    python benchmarks/bench_fabric.py --quick --out BENCH_fabric.json \\
        --min-speedup 1.8 --min-wire-reduction 15

The process exits non-zero if the 4-worker pipe simulated speedup falls
below ``--min-speedup``, the 4-worker wire reduction falls below
``--min-wire-reduction``, the 4-worker shm/pipe wall ratio exceeds
``--max-wall-ratio`` (when given), or the emitted document fails schema
validation.
"""

import argparse
import json
import sys
import time

import numpy as np

from repro.stack import (
    PimFabric,
    Request,
    ServerConfig,
    SystemConfig,
    gemv_reference,
)
from repro.stack.profiler import ServingProfile

SCHEMA = "bench_fabric/v2"
WORKER_COUNTS = (1, 2, 4)
TRANSPORTS = ("pipe", "shm")


def _workload(count: int, distinct: int, seed: int):
    """``count`` GEMV requests cycling over ``distinct`` weight matrices.

    Request ``i`` carries matrix ``i % distinct``, so serving the stream
    in waves of ``distinct`` requests makes every wave revisit every
    matrix exactly once — the repeated-weight shape the shm transport's
    residency path is built for.
    """
    m, n = 64, 96
    rng = np.random.default_rng(seed)
    weights = [
        (rng.standard_normal((m, n)) * 0.25).astype(np.float16)
        for _ in range(distinct)
    ]
    arrivals = np.cumsum(rng.exponential(200.0, size=count))
    return [
        Request(
            "gemv",
            weights=weights[i % distinct],
            a=(rng.standard_normal(n) * 0.25).astype(np.float16),
            arrival_ns=float(arrivals[i]),
        )
        for i in range(count)
    ]


def bench_workers(config, items, workers: int, transport: str, waves: int):
    """Serve ``items`` in ``waves`` rounds through one fabric.

    Returns ``(entry, handles, profile)`` — the result row plus the raw
    handles and merged profile the caller diffs across transports.
    """
    server_config = ServerConfig(
        lanes=2, max_batch=8, transport=transport, hedge=False
    )
    chunk = max(1, -(-len(items) // waves))
    with PimFabric(
        config, workers=workers, server_config=server_config
    ) as fabric:
        handles, profile = [], ServingProfile()
        start = time.perf_counter()
        for lo in range(0, len(items), chunk):
            for request in items[lo:lo + chunk]:
                handles.append(fabric.submit(request))
            profile.merge(fabric.run())
        wall_s = time.perf_counter() - start
        bytes_on_wire = fabric.bytes_tx
        shm_staged = fabric.shm_tx
    for handle in handles:
        golden = gemv_reference(
            handle.request.weights, handle.request.a, config.num_pchs
        )
        if handle.result is None or not np.array_equal(handle.result, golden):
            raise SystemExit(
                f"fabric result diverged from host reference at "
                f"{workers} workers/{transport} (request {handle.request_id})"
            )
    if sum(profile.outcomes().values()) != len(handles):
        raise SystemExit(
            f"outcome conservation broken at {workers} workers/{transport}"
        )
    entry = {
        "workers": workers,
        "transport": transport,
        "requests": len(handles),
        "waves": waves,
        "throughput_rps": profile.throughput_rps(),
        "makespan_ns": profile.makespan_ns,
        "wall_s": wall_s,
        "bytes_on_wire": int(bytes_on_wire),
        "shm_staged_bytes": int(shm_staged),
    }
    return entry, handles, profile


def validate(doc: dict) -> None:
    """Schema check of a ``bench_fabric/v2`` document (raises ValueError)."""
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"schema must be {SCHEMA!r}")
    if not isinstance(doc.get("quick"), bool):
        raise ValueError("quick must be a bool")
    workloads = doc.get("workloads")
    expected = {
        f"workers{n}_{t}" for n in WORKER_COUNTS for t in TRANSPORTS
    }
    if not isinstance(workloads, dict) or set(workloads) != expected:
        raise ValueError(f"workloads must be exactly {sorted(expected)}")
    for name, entry in workloads.items():
        for key in ("throughput_rps", "makespan_ns", "wall_s"):
            value = entry.get(key)
            if not isinstance(value, float) or value <= 0:
                raise ValueError(f"{name}.{key} must be a positive float")
        for key in ("workers", "requests", "waves"):
            if not isinstance(entry.get(key), int) or entry[key] <= 0:
                raise ValueError(f"{name}.{key} must be a positive int")
        if not isinstance(entry.get("bytes_on_wire"), int) or (
            entry["bytes_on_wire"] <= 0
        ):
            raise ValueError(f"{name}.bytes_on_wire must be a positive int")
        if not isinstance(entry.get("shm_staged_bytes"), int) or (
            entry["shm_staged_bytes"] < 0
        ):
            raise ValueError(f"{name}.shm_staged_bytes must be an int >= 0")
        if entry.get("transport") not in TRANSPORTS:
            raise ValueError(f"{name}.transport must be one of {TRANSPORTS}")
        base = workloads[f"workers1_{entry['transport']}"]
        speedup = entry.get("speedup")
        if not isinstance(speedup, float) or speedup <= 0:
            raise ValueError(f"{name}.speedup must be a positive float")
        implied = entry["throughput_rps"] / base["throughput_rps"]
        if abs(speedup - implied) > 1e-6:
            raise ValueError(f"{name}.speedup is inconsistent with throughput")
        if entry["transport"] == "shm":
            pipe = workloads[f"workers{entry['workers']}_pipe"]
            reduction = entry.get("wire_reduction")
            if not isinstance(reduction, float) or reduction <= 0:
                raise ValueError(
                    f"{name}.wire_reduction must be a positive float"
                )
            implied = pipe["bytes_on_wire"] / max(1, entry["bytes_on_wire"])
            if abs(reduction - implied) > 1e-6:
                raise ValueError(
                    f"{name}.wire_reduction is inconsistent with bytes_on_wire"
                )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small request count (CI fabric-smoke)")
    parser.add_argument("--out", default=None,
                        help="write the bench_fabric/v2 JSON here")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail if the 4-worker pipe simulated speedup "
                             "is below this")
    parser.add_argument("--min-wire-reduction", type=float, default=None,
                        help="fail if the 4-worker pipe/shm control-wire "
                             "byte ratio is below this")
    parser.add_argument("--max-wall-ratio", type=float, default=None,
                        help="fail if 4-worker shm wall clock exceeds this "
                             "multiple of the pipe wall clock (off by "
                             "default: CI wall time is noisy)")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    count = 48 if args.quick else 96
    waves = 6 if args.quick else 12
    # 8 distinct matrices is the most a single replica can keep staged
    # (num_rows=256); more would overflow the 1-worker baseline's driver
    # allocation and collapse it onto the host path.
    distinct = 8
    config = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1)
    items = _workload(count, distinct, args.seed)

    workloads = {}
    for workers in WORKER_COUNTS:
        runs = {}
        for transport in TRANSPORTS:
            entry, handles, profile = bench_workers(
                config, items, workers, transport, waves
            )
            runs[transport] = (entry, handles, profile)
            workloads[f"workers{workers}_{transport}"] = entry
        # Differential gate: the shm run must be indistinguishable from
        # its pipe twin everywhere but the wire counters.
        (_, p_handles, p_profile) = runs["pipe"]
        (s_entry, s_handles, s_profile) = runs["shm"]
        if not all(
            a.outcome == b.outcome and np.array_equal(a.result, b.result)
            for a, b in zip(p_handles, s_handles)
        ):
            raise SystemExit(
                f"shm results diverged from the pipe oracle at "
                f"{workers} workers"
            )
        if p_profile.render() != s_profile.render():
            raise SystemExit(
                f"shm serving profile diverged from the pipe oracle at "
                f"{workers} workers"
            )
        s_entry["wire_reduction"] = (
            runs["pipe"][0]["bytes_on_wire"]
            / max(1, s_entry["bytes_on_wire"])
        )
    for transport in TRANSPORTS:
        base_rps = workloads[f"workers1_{transport}"]["throughput_rps"]
        for workers in WORKER_COUNTS:
            entry = workloads[f"workers{workers}_{transport}"]
            entry["speedup"] = entry["throughput_rps"] / base_rps
    doc = {"schema": SCHEMA, "quick": args.quick, "workloads": workloads}
    validate(doc)

    print(
        f"{'workers':>8s}{'transport':>10s}{'sim req/s':>14s}{'speedup':>9s}"
        f"{'wall':>8s}{'wire bytes':>12s}{'reduction':>10s}"
    )
    for workers in WORKER_COUNTS:
        for transport in TRANSPORTS:
            entry = workloads[f"workers{workers}_{transport}"]
            reduction = (
                f"{entry['wire_reduction']:9.1f}x"
                if transport == "shm" else f"{'—':>10s}"
            )
            print(
                f"{workers:8d}{transport:>10s}"
                f"{entry['throughput_rps']:14,.0f}"
                f"{entry['speedup']:8.2f}x{entry['wall_s']:7.2f}s"
                f"{entry['bytes_on_wire']:12,d}{reduction}"
            )
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
        validate(json.load(open(args.out)))
        print(f"wrote {args.out}")
    failures = []
    if args.min_speedup is not None:
        speedup = workloads["workers4_pipe"]["speedup"]
        if speedup < args.min_speedup:
            failures.append(
                f"4-worker pipe simulated speedup {speedup:.2f}x below "
                f"--min-speedup {args.min_speedup}"
            )
    if args.min_wire_reduction is not None:
        reduction = workloads["workers4_shm"]["wire_reduction"]
        if reduction < args.min_wire_reduction:
            failures.append(
                f"4-worker wire reduction {reduction:.1f}x below "
                f"--min-wire-reduction {args.min_wire_reduction}"
            )
    if args.max_wall_ratio is not None:
        ratio = (
            workloads["workers4_shm"]["wall_s"]
            / workloads["workers4_pipe"]["wall_s"]
        )
        if ratio > args.max_wall_ratio:
            failures.append(
                f"4-worker shm/pipe wall ratio {ratio:.2f} above "
                f"--max-wall-ratio {args.max_wall_ratio}"
            )
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
