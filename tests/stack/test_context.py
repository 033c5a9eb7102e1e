"""The PimContext API surface: config presets, reports, caches."""

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


class TestReports:
    def test_blas_returns_results_and_records(self):
        blas = PimBlas(PimSystem(SystemConfig.fast_functional()))
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
        kernels = blas.profiler.profile.kernels
        assert any(name.startswith("gemv") for name in kernels)
        assert any(name.startswith("add") for name in kernels)

    def test_executor_returns_one_calls_report(self):
        system = PimSystem(SystemConfig.fast_functional())
        y, report = system.executor.gemv(rand((32, 48), 0), rand(48, 1))
        assert isinstance(y, np.ndarray)
        assert report.kernel.startswith("gemv") and report.cycles > 0


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

    def test_context_blas_records_into_the_context_profiler(self):
        with PimContext(SystemConfig.fast_functional()) as ctx:
            ctx.blas.gemv(rand((32, 48), 0), rand(48, 1))
            assert ctx.blas.profiler is ctx.profiler
            assert ctx.profiler.profile.kernels["gemv[32x48]"].cycles > 0

    def test_a_served_profile_does_not_grow_with_later_sessions(self):
        """Each ``server.run()`` hands back its own session's profile; the
        context's profiler folds every session into a profile it owns."""
        w = rand((32, 48), 0)
        with PimContext(SystemConfig.fast_functional()) as ctx:
            with ctx.server(ServerConfig(lanes=1)) as server:
                server.submit(Request("gemv", weights=w, a=rand(48, 1)))
                first = server.run()
                for i in range(2):
                    server.submit(Request("gemv", weights=w, a=rand(48, i + 2)))
                second = server.run()
            assert (first.num_requests, second.num_requests) == (1, 2)
            assert ctx.profiler.serving is not first
            assert ctx.profiler.serving.num_requests == 3


SAMPLED = SystemConfig(num_pchs=4, simulate_pchs=1)


def _executor_gemv(system):
    system.executor.gemv(rand((64, 48), 0), rand(48, 1))


def _executor_elementwise(system):
    system.executor.elementwise("add", rand(512, 0), rand(512, 1))


def _blas(system):
    blas = PimBlas(system)
    blas.gemv(rand((64, 48), 0), rand(48, 1))
    blas.relu(rand(512, 2))


def _graph(system):
    from repro.stack.graph import GraphBuilder as G, GraphExecutor

    out = G.relu(G.matvec(rand((64, 48), 0), G.placeholder("x")))
    GraphExecutor([out], backend="pim", system=system, min_elements=1).run(
        {"x": rand(48, 1)}
    )


def _lstm(system):
    blas = PimBlas(system)
    w_ih, w_hh = rand((64, 32), 0), rand((64, 16), 1)
    h = c = np.zeros(16, np.float16)
    for x in rand((2, 32), 2):
        h, c = blas.lstm_cell(w_ih, w_hh, np.zeros(64, np.float32), x, h, c)


def _collaborative(system):
    from repro.stack.collaborative import CollaborativeGemv

    collab = CollaborativeGemv(system, 256, 48, pim_rows=128)
    collab.load_weights(rand((256, 48), 0))
    collab(rand(48, 1))


class TestOneSamplingKnob:
    """``SystemConfig.simulate_pchs`` is the one sampling knob: every front
    end above the kernels cycle-simulates only the sampled channels."""

    @pytest.mark.parametrize("front_end", [
        _executor_gemv, _executor_elementwise, _blas, _graph, _lstm,
        _collaborative,
    ])
    def test_front_end_simulates_the_sampled_channel_only(self, front_end):
        system = PimSystem(SAMPLED)
        front_end(system)
        busy = [mc.busy_cycles for mc in system.controllers]
        assert busy[0] > 0 and busy[1:] == [0, 0, 0]

    def test_context_blas_simulates_the_sampled_channel_only(self):
        with PimContext(SAMPLED) as ctx:
            ctx.blas.gemv(rand((64, 48), 0), rand(48, 1))
            busy = [mc.busy_cycles for mc in ctx.system.controllers]
        assert busy[0] > 0 and busy[1:] == [0, 0, 0]


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
        blas = PimBlas(system)
        a = rand(96, 0)
        y1 = blas.bn(a, 1.5, 0.5)
        y2 = blas.bn(a, 2.0, -1.0)
        y1_again = blas.bn(a, 1.5, 0.5)
        ref1 = ((a * np.float16(1.5)).astype(np.float16) + np.float16(0.5)).astype(np.float16)
        ref2 = ((a * np.float16(2.0)).astype(np.float16) + np.float16(-1.0)).astype(np.float16)
        assert np.array_equal(y1, ref1)
        assert np.array_equal(y2, ref2)
        assert np.array_equal(y1_again, ref1)

    def test_row_pressure_evicts_and_returns_rows(self):
        # 8 rows leave 2 free row sets: room for two one-row operators.
        system = PimSystem(SystemConfig.fast_functional(num_rows=8))
        executor = system.executor
        k1 = executor.elementwise_operator("add", 64)
        executor.elementwise_operator("add", 128)
        assert system.driver.rows_free == 0
        executor.elementwise_operator("add", 192)  # no rows left: evicts k1
        assert executor.evictions == 1
        assert len(executor._kernels) == 2
        with pytest.raises(RuntimeError):
            k1(rand(64, 0), rand(64, 1))
        # A fresh same-shape operator can be rebuilt and still fits.
        rebuilt = executor.elementwise_operator("add", 64)
        y, _ = rebuilt(rand(64, 0), rand(64, 1), simulate_pchs=1)
        assert y.shape == (64,)
        assert executor.evictions == 2

    def test_lru_touch_order(self):
        # 10 rows leave 4 free row sets: room for two two-row GEMVs.
        system = PimSystem(SystemConfig.fast_functional(num_rows=10))
        executor = system.executor
        w1, w2, w3 = rand((16, 16), 1), rand((16, 16), 2), rand((16, 16), 3)
        k1 = executor.gemv_operator(w1)
        executor.gemv_operator(w2)
        executor.gemv_operator(w1)  # touch: w1 becomes most recent
        executor.gemv_operator(w3)  # evicts w2, not w1
        assert executor.gemv_operator(w1) is k1
        assert executor.evictions == 1

    def test_blas_gemv_over_more_matrices_than_the_rows_hold(self):
        """16 distinct 256x1024 weights: each call evicts the least recent
        resident matrix once the rows run out, and every result is exact."""
        system = PimSystem(SystemConfig(simulate_pchs=1))
        blas = PimBlas(system)
        x = rand(1024, 0)
        weights = [rand((256, 1024), 10 + i) for i in range(16)]
        for w in weights:
            y = blas.gemv(w, x)
            assert np.array_equal(y, gemv_reference(w, x, num_pchs=4))
        assert system.executor.evictions > 0
        assert len(system.executor._kernels) == 16 - system.executor.evictions

    def test_an_operator_larger_than_the_device_raises_with_nothing_left(self):
        from repro.errors import PimAllocationError

        system = PimSystem(SystemConfig.fast_functional(num_rows=10))
        executor = system.executor
        executor.elementwise_operator("add", 64)
        with pytest.raises(PimAllocationError):
            executor.gemv_operator(rand((512, 512), 4))
        assert len(executor._kernels) == 0
        assert system.driver.rows_free == system.driver.rows_total


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
