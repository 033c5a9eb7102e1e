"""Golden simulated cycles: the literals every commit must reproduce.

"Simulated cycles stay bit-identical" is the constraint every performance
PR works under, but across commits it was enforced only by the benchmark
pipeline's ``sim_rps`` compare.  This suite pins it in tier-1: the
simulated cycles, ``column_commands`` and per-``CommandType`` bus counts of
the ledger's shapes — GEMV 128x512, each elementwise operator at 4096, one
``lstm_cell`` step and one ``serve-bench``-shaped 8-request wave — as
literals.  They were recorded from the commit *before* column bursts
became the unit of command work (PR 15), and are the same under
``exec_mode="fused"`` and ``"lockstep"``, with and without ECC: none of
those is allowed to move simulated time.

To re-record after a deliberate timing change::

    PYTHONPATH=src python tests/integration/test_golden_cycles.py
"""

import numpy as np
import pytest

from repro.stack import PimContext, Request, ServerConfig, SystemConfig

SEED = 7

GOLDEN = {
    "gemv[128x512]": {
        "cycles": 3151, "column_commands": 264,
        "ACT": 19, "PRE": 10, "PREA": 2, "RD": 192, "WR": 150, "REF": 0,
    },
    "add[4096]": {
        "cycles": 541, "column_commands": 24,
        "ACT": 6, "PRE": 5, "PREA": 2, "RD": 16, "WR": 14, "REF": 0,
    },
    "mul[4096]": {
        "cycles": 541, "column_commands": 24,
        "ACT": 6, "PRE": 5, "PREA": 2, "RD": 16, "WR": 14, "REF": 0,
    },
    "relu[4096]": {
        "cycles": 467, "column_commands": 16,
        "ACT": 6, "PRE": 5, "PREA": 2, "RD": 8, "WR": 14, "REF": 0,
    },
    "bn[4096]": {
        "cycles": 545, "column_commands": 16,
        "ACT": 7, "PRE": 6, "PREA": 2, "RD": 8, "WR": 16, "REF": 0,
    },
    "lstm_cell[128]": {
        "cycles": 8958, "column_commands": 576,
        "ACT": 61, "PRE": 43, "PREA": 4, "RD": 768, "WR": 404, "REF": 0,
    },
    "serve_wave[8]": {
        "cycles": 24138, "column_commands": 2304,
        "ACT": 148, "PRE": 128, "PREA": 8, "RD": 1664, "WR": 1248, "REF": 0,
    },
}


def _grid(rng, *shape):
    """Multiples of 1/8 in [-2, 2] (exact FP16 sums in any order)."""
    return (rng.integers(-16, 17, size=shape) / 8.0).astype(np.float16)


def _entry(cycles, column_commands, system):
    """The pinned numbers of one shape run on a fresh ``system``."""
    entry = {"cycles": int(cycles), "column_commands": int(column_commands)}
    for controller in system.controllers:
        for kind, count in controller.channel.cmd_counts.items():
            entry[kind.value] = entry.get(kind.value, 0) + count
    return entry


def measure(exec_mode, ecc):
    """Every pinned shape on fresh systems of one configuration."""
    config = SystemConfig(simulate_pchs=1, exec_mode=exec_mode, ecc=ecc)
    rng = np.random.default_rng(SEED)
    out = {}

    with PimContext(config, reports="attach") as ctx:
        w, x = _grid(rng, 128, 512), _grid(rng, 512)
        _, report = ctx.blas.gemv(w, x)
        out["gemv[128x512]"] = _entry(
            report.cycles, report.column_commands, ctx.system
        )

    for op in ("add", "mul", "relu", "bn"):
        with PimContext(config, reports="attach") as ctx:
            a = rng.standard_normal(4096).astype(np.float16)
            b = rng.standard_normal(4096).astype(np.float16)
            blas = ctx.blas
            if op == "add":
                _, report = blas.add(a, b)
            elif op == "mul":
                _, report = blas.mul(a, b)
            elif op == "relu":
                _, report = blas.relu(a)
            else:
                _, report = blas.bn(a, 1.5, 0.25)
            out[f"{op}[4096]"] = _entry(
                report.cycles, report.column_commands, ctx.system
            )

    with PimContext(config, reports="attach") as ctx:
        hidden = 128
        scale = np.float16(0.125)
        w_ih = _grid(rng, 4 * hidden, hidden) * scale
        w_hh = _grid(rng, 4 * hidden, hidden) * scale
        bias = rng.standard_normal(4 * hidden).astype(np.float32)
        zeros = np.zeros(hidden, dtype=np.float16)
        _, _, reports = ctx.blas.lstm_cell(
            w_ih, w_hh, bias, _grid(rng, hidden), zeros, zeros
        )
        out["lstm_cell[128]"] = _entry(
            sum(r.cycles for r in reports),
            sum(r.column_commands for r in reports),
            ctx.system,
        )

    with PimContext(config) as ctx:
        # The shape ``serve-bench`` offers: GEMV and add alternating,
        # Poisson arrivals, two lanes batching up to eight.
        w = _grid(rng, 128, 512)
        arrivals = np.cumsum(rng.exponential(500.0, size=8))
        server = ctx.server(ServerConfig(lanes=2, max_batch=8, seed=SEED))
        for i, arrival in enumerate(arrivals):
            if i % 2 == 0:
                request = Request("gemv", weights=w, a=_grid(rng, 512))
            else:
                request = Request(
                    "add",
                    a=rng.standard_normal(4096).astype(np.float16),
                    b=rng.standard_normal(4096).astype(np.float16),
                )
            server.submit(request.replace(arrival_ns=float(arrival)))
        profile = server.run()
        assert profile.outcomes() == {"completed": 8}
        out["serve_wave[8]"] = _entry(
            profile.makespan_cycles,
            sum(k.column_commands for k in ctx.profiler.profile.kernels.values()),
            ctx.system,
        )
    return out


@pytest.mark.parametrize("ecc", [False, True], ids=["plain", "ecc"])
@pytest.mark.parametrize("exec_mode", ["fused", "lockstep"])
def test_simulated_cycles_and_bus_counts_match_the_recorded_literals(exec_mode, ecc):
    assert measure(exec_mode, ecc) == GOLDEN


if __name__ == "__main__":
    import pprint

    recorded = measure("fused", False)
    for mode, ecc in (("fused", True), ("lockstep", False), ("lockstep", True)):
        assert measure(mode, ecc) == recorded, (mode, ecc)
    pprint.pprint(recorded, sort_dicts=False, width=78)
