"""Collaborative host+PIM GEMV (Section VIII future work), quantified.

Sweeps the output-row split between the PIM device and the host across
batch sizes.  At batch 1, PIM's 11x dominance makes the optimum all-PIM;
at the Fig. 10 crossover (batch ~3-4) a genuine split beats both pure
configurations — the quantitative case for the HBM3-generation
fine-grained SB/AB-PIM interleaving the paper proposes.
"""

from repro.stack.collaborative import CollaborativeGemv, optimal_split


def test_collaborative_split_sweep(benchmark):
    m, n = 8192, 4096

    def sweep():
        return {
            batch: CollaborativeGemv.sweep_split(m, n, batch=batch, points=9)
            for batch in (1, 2, 3, 4)
        }

    sweeps = benchmark(sweep)
    print(f"\nCollaborative GEMV {m}x{n}: time (us) vs PIM-side rows")
    rows_axis = sorted(next(iter(sweeps.values())))
    header = "  batch " + " ".join(f"{r:>7d}" for r in rows_axis)
    print(header)
    for batch, sweep_result in sweeps.items():
        line = f"  B{batch}    " + " ".join(
            f"{sweep_result[r] / 1000:7.1f}" for r in rows_axis
        )
        best = min(sweep_result, key=sweep_result.get)
        print(line + f"   best @ {best}")
        benchmark.extra_info[f"B{batch}_best_rows"] = best
    # Batch 1: all (or nearly all) PIM.  Crossover: interior optimum.
    assert min(sweeps[1], key=sweeps[1].get) >= m - 256
    b3_best = min(sweeps[3], key=sweeps[3].get)
    assert 0 < b3_best < m


def test_collaborative_speedup_at_crossover(benchmark):
    m, n, batch = 8192, 4096, 3

    def measure():
        sweep = CollaborativeGemv.sweep_split(m, n, batch=batch, points=33)
        best = min(sweep.values())
        return sweep[0] / best, sweep[max(sweep)] / best

    vs_host, vs_pim = benchmark(measure)
    print(f"\nAt batch {batch}, the optimal split is x{vs_host:.2f} faster than "
          f"pure host and x{vs_pim:.2f} faster than pure PIM")
    benchmark.extra_info["vs_host"] = round(vs_host, 2)
    benchmark.extra_info["vs_pim"] = round(vs_pim, 2)
    assert vs_host > 1.05 and vs_pim > 1.05


def test_optimal_split_functional_check(benchmark):
    """The chosen split computes the right answer on the simulator."""
    import numpy as np
    from repro.stack.runtime import PimSystem, SystemConfig

    def run():
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=256, simulate_pchs=1))
        m, n = 512, 128
        rng = np.random.default_rng(0)
        w = (rng.standard_normal((m, n)) * 0.1).astype(np.float16)
        x = (rng.standard_normal(n) * 0.1).astype(np.float16)
        collab = CollaborativeGemv(system, m, n, pim_rows=256)
        collab.load_weights(w)
        y, report = collab(x)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        return float(np.abs(y - gold).max()), report

    err, report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert err < 2e-3
    assert report.pim_rows == 256 and report.host_rows == 256
