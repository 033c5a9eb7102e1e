"""Quickstart: run linear algebra on the simulated PIM-HBM device.

`PimContext` is the public entry point: one `SystemConfig` assembles the
device, driver, BLAS and profiler.  Hand the BLAS numpy arrays, get
results computed by the functional PIM simulator (FP16 MACs in the
in-bank execution units, driven entirely by standard DRAM commands); the
execution reports are folded into the context's profiler.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import PimContext, Request, ServerConfig, SystemConfig


def main():
    # A small system: 4 pseudo-channels, 256 rows per bank.  The real
    # device has 16 pCHs per stack and 8192 rows — SystemConfig.paper_scale()
    # builds that shape (see repro.perf.specs).
    config = SystemConfig(num_pchs=4, num_rows=256)
    rng = np.random.default_rng(0)

    with PimContext(config) as ctx:
        blas = ctx.blas

        # --- GEMV: the key memory-bound kernel of RNN/FC layers ---------
        m, n = 512, 256
        w = (rng.standard_normal((m, n)) * 0.1).astype(np.float16)
        x = (rng.standard_normal(n) * 0.1).astype(np.float16)
        y = blas.gemv(w, x)

        gold = w.astype(np.float32) @ x.astype(np.float32)
        print(f"GEMV {m}x{n} on PIM:")
        print(f"  max |error| vs FP32    : {np.abs(y - gold).max():.2e}")

        # --- Elementwise kernels (residual connections, activations) ----
        a = (rng.standard_normal(20_000) * 0.5).astype(np.float16)
        b = (rng.standard_normal(20_000) * 0.5).astype(np.float16)

        total = blas.add(a, b)
        assert np.array_equal(total, (a + b).astype(np.float16))

        activated = blas.relu(total)
        assert (activated >= 0).all()

        normed = blas.bn(a, gamma=1.5, beta=-0.25)
        print("ADD/ReLU/BN on 20k elements: bit-exact elementwise kernels")

        # --- Serving: batch + pipeline concurrent requests --------------
        with ctx.server(ServerConfig(lanes=2, max_batch=8)) as server:
            for i in range(16):
                if i % 2 == 0:
                    xi = (rng.standard_normal(n) * 0.1).astype(np.float16)
                    server.submit(Request(
                        "gemv", weights=w, a=xi, arrival_ns=i * 500.0
                    ))
                else:
                    ai = (rng.standard_normal(4096) * 0.5).astype(np.float16)
                    bi = (rng.standard_normal(4096) * 0.5).astype(np.float16)
                    server.submit(Request("add", a=ai, b=bi, arrival_ns=i * 500.0))
            serving = server.run()
        print(f"\nServed {serving.num_requests} mixed requests in "
              f"{serving.batches} batches "
              f"({serving.throughput_rps():,.0f} req/s)")

        # The device always returns to standard single-bank DRAM mode.
        from repro.pim.modes import PimMode

        system = ctx.system
        assert all(
            system.device.pch(i).mode is PimMode.SB
            for i in range(system.num_pchs)
        )
        print("\nAll kernels done; device back in standard DRAM (SB) mode.")
        print("\nProfile:")
        print("\n".join(ctx.report()))


if __name__ == "__main__":
    main()
