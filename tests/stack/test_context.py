"""The PimContext API surface: config presets, report modes, caches."""

import numpy as np
import pytest

from repro.stack.api import Request, ServerConfig
from repro.stack.blas import PimBlas, gemv_reference
from repro.stack.context import PimContext
from repro.stack.profiler import Profiler, RequestStats, ServingProfile
from repro.stack.runtime import PimSystem, SystemConfig


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


class TestSystemConfig:
    def test_presets(self):
        fast = SystemConfig.fast_functional()
        assert fast.num_pchs == 4 and fast.simulate_pchs == 1
        paper = SystemConfig.paper_scale()
        assert paper.num_pchs == 16 and paper.num_rows == 8192

    def test_preset_overrides(self):
        config = SystemConfig.fast_functional(num_pchs=2, refresh=True)
        assert config.num_pchs == 2 and config.refresh
        assert config.simulate_pchs == 1  # preset default survives

    def test_replace_is_pure(self):
        base = SystemConfig()
        other = base.replace(ecc=True)
        assert other.ecc and not base.ecc

    def test_paper_scale_constructs_cheaply(self):
        # 8192 rows/bank are backed sparsely; assembly must be instant.
        system = PimSystem(SystemConfig.paper_scale())
        assert system.num_pchs == 16


class TestReportModes:
    def test_attach_mode_returns_tuples(self):
        blas = PimBlas(PimSystem(SystemConfig.fast_functional()))
        y, report = blas.gemv(rand((32, 48), 0), rand(48, 1))
        assert report.kernel.startswith("gemv")

    def test_profile_mode_returns_results_and_records(self):
        profiler = Profiler()
        blas = PimBlas(
            PimSystem(SystemConfig.fast_functional()),
            simulate_pchs=1,
            reports="profile",
            profiler=profiler,
        )
        w, x = rand((32, 48), 0), rand(48, 1)
        y = blas.gemv(w, x)
        assert isinstance(y, np.ndarray)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=4))
        s = blas.add(x, x)
        assert isinstance(s, np.ndarray)
        h, c = blas.lstm_cell(
            rand((32, 48), 2), rand((32, 8), 3), np.zeros(32, np.float16),
            x, np.zeros(8, np.float16), np.zeros(8, np.float16),
        )
        assert h.shape == (8,) and c.shape == (8,)
        kernels = profiler.profile.kernels
        assert any(name.startswith("gemv") for name in kernels)
        assert any(name.startswith("add") for name in kernels)

    def test_profile_mode_requires_sink(self):
        with pytest.raises(ValueError):
            PimBlas(PimSystem(SystemConfig.fast_functional()), reports="profile")

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            PimBlas(PimSystem(SystemConfig.fast_functional()), reports="stream")


class TestPimContext:
    def test_context_serves_and_reports(self):
        w = rand((32, 48), 0)
        with PimContext(SystemConfig.fast_functional()) as ctx:
            y = ctx.blas.gemv(w, rand(48, 1))
            assert isinstance(y, np.ndarray)
            with ctx.server(ServerConfig(lanes=2, max_batch=4)) as server:
                for i in range(4):
                    server.submit(Request("gemv", weights=w, a=rand(48, i + 2)))
                profile = server.run()
            assert profile.num_requests == 4
            lines = ctx.report()
            text = "\n".join(lines)
            assert "kernel profile" in text and "serving profile" in text

    def test_context_releases_server_lanes_on_exit(self):
        with PimContext(SystemConfig.fast_functional()) as ctx:
            ctx.server(ServerConfig(lanes=2))
            system = ctx.system
            assert len(system.driver.channels_free) == 0
        assert len(system.driver.channels_free) == system.num_pchs

    def test_dropped_context_is_freed_without_a_garbage_collection(self):
        """The executor and its kernels refer back to the system weakly, so
        nothing waits for a full collection to release the device."""
        import gc
        import weakref

        w = rand((32, 48), 0)
        gc.disable()
        try:
            ctx = PimContext(SystemConfig.fast_functional())
            ctx.blas.gemv(w, rand(48, 1))
            ctx.blas.add(rand(64, 2), rand(64, 3))
            with ctx.server(ServerConfig(lanes=2)) as server:
                server.submit(Request("gemv", weights=w, a=rand(48, 4)))
                server.run()
            system, device = weakref.ref(ctx.system), weakref.ref(ctx.system.device)
            operator = ctx.system.executor.gemv_operator(w)
            ctx.close()
            del ctx, server
            assert system() is None and device() is None
            with pytest.raises(ReferenceError):
                operator.sys.num_pchs
        finally:
            gc.enable()

    def test_attach_mode_context(self):
        ctx = PimContext(SystemConfig.fast_functional(), reports="attach")
        y, report = ctx.blas.gemv(rand((32, 48), 0), rand(48, 1))
        assert report.cycles > 0


class TestOperatorCacheBounds:
    def test_elementwise_cache_keyed_by_scalars(self):
        """Two BN operators with different (gamma, beta) never share SRFs."""
        system = PimSystem(SystemConfig.fast_functional())
        k1 = system.executor.elementwise_operator("bn", 64, scalars=(1.5, 0.5))
        k2 = system.executor.elementwise_operator("bn", 64, scalars=(2.0, 0.0))
        assert k1 is not k2
        again = system.executor.elementwise_operator("bn", 64, scalars=(1.5, 0.5))
        assert again is k1

    def test_bn_results_correct_across_scalar_variants(self):
        system = PimSystem(SystemConfig.fast_functional())
        blas = PimBlas(system, simulate_pchs=1)
        a = rand(96, 0)
        y1, _ = blas.bn(a, 1.5, 0.5)
        y2, _ = blas.bn(a, 2.0, -1.0)
        y1_again, _ = blas.bn(a, 1.5, 0.5)
        ref1 = ((a * np.float16(1.5)).astype(np.float16) + np.float16(0.5)).astype(np.float16)
        ref2 = ((a * np.float16(2.0)).astype(np.float16) + np.float16(-1.0)).astype(np.float16)
        assert np.array_equal(y1, ref1)
        assert np.array_equal(y2, ref2)
        assert np.array_equal(y1_again, ref1)

    def test_lru_eviction_returns_rows(self):
        config = SystemConfig.fast_functional(elementwise_cache_size=2)
        system = PimSystem(config)
        executor = system.executor
        free_before = system.driver.rows_free
        k1 = executor.elementwise_operator("add", 64)
        executor.elementwise_operator("add", 128)
        executor.elementwise_operator("add", 192)  # evicts k1
        assert executor.evictions == 1
        assert len(executor._elementwise_cache) == 2
        with pytest.raises(RuntimeError):
            k1(rand(64, 0), rand(64, 1))
        # A fresh same-shape operator can be rebuilt and still fits.
        rebuilt = executor.elementwise_operator("add", 64)
        y, _ = rebuilt(rand(64, 0), rand(64, 1), simulate_pchs=1)
        assert y.shape == (64,)
        assert system.driver.rows_free <= free_before

    def test_lru_touch_order(self):
        config = SystemConfig.fast_functional(gemv_cache_size=2)
        system = PimSystem(config)
        executor = system.executor
        w1, w2, w3 = rand((16, 16), 1), rand((16, 16), 2), rand((16, 16), 3)
        k1 = executor.gemv_operator(w1)
        executor.gemv_operator(w2)
        executor.gemv_operator(w1)  # touch: w1 becomes most recent
        executor.gemv_operator(w3)  # evicts w2, not w1
        assert executor.gemv_operator(w1) is k1
        assert executor.evictions == 1


class TestServingProfileMath:
    def test_percentile_and_throughput(self):
        profile = ServingProfile()
        for i in range(10):
            profile.record(
                RequestStats(
                    request_id=i,
                    op="gemv",
                    arrival_ns=0.0,
                    start_ns=float(i),
                    finish_ns=float(i) + 100.0,
                )
            )
        profile.batches = 2
        assert profile.num_requests == 10
        assert profile.mean_batch_size() == 5
        assert profile.makespan_ns == 109.0
        assert profile.throughput_rps() == pytest.approx(10 / 109e-9)
        assert profile.p95_turnaround_ns() >= profile.mean_turnaround_ns()

    def test_occupancy_bounded(self):
        profile = ServingProfile(
            makespan_cycles=100, channel_busy_cycles={0: 50, 1: 120}
        )
        occ = profile.channel_occupancy()
        assert occ[0] == pytest.approx(0.5)
        assert occ[1] == 1.0  # clamped

    def test_profiler_merges_serving_sessions(self):
        profiler = Profiler()
        first = ServingProfile(
            makespan_cycles=10,
            batches=1,
            launches=1,
            channel_busy_cycles={0: 8},
        )
        second = ServingProfile(
            makespan_cycles=20,
            batches=2,
            launches=2,
            channel_busy_cycles={0: 10},
        )
        profiler.record_serving(first)
        profiler.record_serving(second)
        assert profiler.serving.batches == 3
        # Sequential sessions: busy cycles AND the makespan denominator
        # both add, so merged occupancy stays an honest average.
        assert profiler.serving.makespan_cycles == 30
        assert profiler.serving.channel_occupancy()[0] == pytest.approx(
            18 / 30
        )
