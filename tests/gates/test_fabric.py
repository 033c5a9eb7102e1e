"""End-to-end gates on the multi-process fabric.

Both tests spawn worker processes; the chaos gate runs the command-line
entry point itself, twice, in separate interpreters.
"""

import os
import subprocess
import sys

import numpy as np

from repro.__main__ import _serving_setup
from repro.stack import PimFabric, Request

SEED = 7


def test_four_workers_scale_simulated_throughput_on_balanced_shards():
    """48 GEMV 64x96 requests over 8 weight matrices: a 4-worker fabric
    clears 1.8x the 1-worker fabric's *simulated* throughput, every
    shard serves work, and the placed cost per shard (column commands)
    stays within 1.25x of its mean.  Fails when placement keeps every
    group on its ring owner (drop the fair-share fallback,
    ``shard = min(alive, ...)``, from ``fabric.place_round``)."""
    config, server_config, _, _ = _serving_setup(SEED)
    rng = np.random.default_rng(SEED)
    weights = [
        (rng.standard_normal((64, 96)) * 0.25).astype(np.float16)
        for _ in range(8)
    ]
    arrivals = np.cumsum(rng.exponential(200.0, size=48))
    requests = [
        Request(
            "gemv",
            weights=weights[i % len(weights)],
            a=(rng.standard_normal(96) * 0.25).astype(np.float16),
            arrival_ns=float(arrival),
            trace_id=f"req{i}",
        )
        for i, arrival in enumerate(arrivals)
    ]

    def serve(workers):
        with PimFabric(config, workers=workers, server_config=server_config) as fabric:
            handles = [fabric.submit(request) for request in requests]
            return handles, fabric.run()

    _, one = serve(1)
    handles, four = serve(4)
    assert four.throughput_rps() >= 1.8 * one.throughput_rps()
    assert {handle.shard for handle in handles} == {0, 1, 2, 3}
    assert four.shard_cost_imbalance() <= 1.25


def test_chaos_prints_the_same_report_under_two_hash_seeds():
    """``python -m repro chaos --seed 7`` in two interpreters with
    different string-hash seeds: both hold every invariant and print the
    same report and serving profile, so no set or hash order leaks into
    a fault storm.  Fails when ``chaos.harness._wave_requests`` seeds a
    wave with ``hash((seed, "wave", wave))``, which is salted per
    interpreter."""
    outputs = []
    for hash_seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-m", "repro", "chaos", "--seed", str(SEED)],
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True, text=True, timeout=300,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]
