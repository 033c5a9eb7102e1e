"""Tests for the PIM memory manager's microkernel cache."""

import numpy as np

from repro.stack.memory import MicrokernelCache


class TestMicrokernelCache:
    def test_caches_by_source(self):
        cache = MicrokernelCache()
        a = cache.get("EXIT")
        b = cache.get("EXIT")
        assert a is b
        assert cache.hits == 1 and cache.misses == 1

    def test_distinct_sources(self):
        cache = MicrokernelCache()
        cache.get("EXIT")
        cache.get("NOP\nEXIT")
        assert len(cache) == 2
        assert cache.misses == 2

    def test_session_skips_reprogramming(self):
        """Repeated invocations of the same operator send no CRF writes."""
        from repro.dram.commands import CommandType
        from repro.stack.kernels import GemvKernel
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        rng = np.random.default_rng(0)
        w = (rng.standard_normal((128, 64)) * 0.1).astype(np.float16)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        counts = system.device.pch(0).cmd_counts

        def writes_of_a_call():
            before = counts[CommandType.WR]
            kernel((rng.standard_normal(64) * 0.1).astype(np.float16))
            return counts[CommandType.WR] - before

        first = writes_of_a_call()
        second = writes_of_a_call()
        # The warm call leaves out the CRF load: its 4 column writes.
        assert first - second == 4
        assert system.microkernels.hits >= 1

    def test_a_crf_written_outside_a_launch_is_reloaded(self):
        """A launch asks the units' CRF, not a note of what it loaded: a
        CRF column overwritten by an SB-mode write between two calls is
        loaded again, and the result stays bit-exact."""
        from repro.stack.blas import gemv_reference
        from repro.stack.kernels import GemvKernel
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        rng = np.random.default_rng(2)
        w = (rng.standard_normal((128, 64)) * 0.1).astype(np.float16)
        x = (rng.standard_normal(64) * 0.1).astype(np.float16)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        kernel(x)
        controller = system.controllers[0]
        crf_row = system.device.memory_map.crf_row
        controller.write(0, 0, crf_row, 0, np.zeros(32, np.uint8))
        controller.drain()
        y, _ = kernel(x)
        assert np.array_equal(y, gemv_reference(w, x, num_pchs=1))

    def test_different_kernels_reprogram(self):
        from repro.stack.runtime import PimSystem, SystemConfig
        from repro.stack.blas import PimBlas

        system = PimSystem(SystemConfig(num_pchs=1, num_rows=256))
        blas = PimBlas(system)
        rng = np.random.default_rng(1)
        a, b = [(rng.standard_normal(2000) * 0.1).astype(np.float16) for _ in range(2)]
        blas.add(a, b)
        blas.mul(a, b)  # different microkernel: must repopulate the CRF
        assert system.microkernels.misses >= 2
        out = blas.add(a, b)  # back to ADD: CRF reprogrammed correctly
        assert np.array_equal(out, (a + b).astype(np.float16))

