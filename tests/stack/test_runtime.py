"""Tests for the PIM runtime (executor, operator caching)."""

import numpy as np
import pytest

from repro.dram.controller import SchedulerPolicy
from repro.stack.runtime import PimSystem, SystemConfig


def rand(shape, seed):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * 0.1).astype(np.float16)


class TestSystemAssembly:
    def test_device_is_pim(self):
        from repro.pim.device import PimPseudoChannel

        system = PimSystem(SystemConfig(num_pchs=2, num_rows=64))
        assert isinstance(system.device.pch(0), PimPseudoChannel)

    def test_driver_attached(self):
        system = PimSystem(SystemConfig(num_pchs=2, num_rows=64))
        assert system.driver.rows_total == 64 - 6

    def test_policy_configurable(self):
        system = PimSystem(
            SystemConfig(num_pchs=1, num_rows=64, policy=SchedulerPolicy.FCFS)
        )
        assert system.controllers[0].policy is SchedulerPolicy.FCFS


class TestOperatorCache:
    def test_gemv_operator_cached_by_weights(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        w = rand((128, 64), 0)
        op1 = system.executor.gemv_operator(w)
        op1.load_weights(w)
        op2 = system.executor.gemv_operator(w)
        assert op1 is op2

    def test_different_weights_different_operators(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a, b = rand((128, 64), 1), rand((128, 64), 2)
        assert system.executor.gemv_operator(a) is not system.executor.gemv_operator(b)

    def test_cached_gemv_pins_source_array(self):
        """The cache key uses ``id(w)``, which is only sound while the
        cached kernel keeps the caller's array alive: a dropped array's
        id could be recycled by a same-shape allocation and silently hit
        the stale entry."""
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        w = rand((128, 64), 7)
        op = system.executor.gemv_operator(w)
        assert op.source_weights is w

    def test_elementwise_cached_by_op_and_length(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        k1 = system.executor.elementwise_operator("add", 1000)
        k2 = system.executor.elementwise_operator("add", 1000)
        k3 = system.executor.elementwise_operator("add", 2000)
        assert k1 is k2 and k1 is not k3

    def test_launch_counter(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        a, b = rand(1000, 3), rand(1000, 4)
        system.executor.elementwise("add", a, b)
        system.executor.elementwise("mul", a, b)
        assert system.executor.launch_count == 2

    def test_gemv_invocation_through_executor(self):
        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        w, x = rand((128, 64), 5), rand(64, 6)
        y, report = system.executor.gemv(w, x)
        gold = w.astype(np.float32) @ x.astype(np.float32)
        assert np.abs(y - gold).max() < 1e-3
        # Second call reuses staged weights; the device state still gives
        # the same answer.
        y2, _ = system.executor.gemv(w, x)
        assert np.array_equal(y, y2)

    def test_failed_staging_returns_the_kernels_rows(self):
        """A dead channel fails load_weights; the half-built kernel's rows
        go back to the driver before the fault propagates."""
        from repro.errors import PimChannelError
        from repro.faults import FaultConfig

        system = PimSystem(
            SystemConfig(simulate_pchs=1, faults=FaultConfig(failed_channels=(0,)))
        )
        free = system.driver.rows_free
        w, x = rand((64, 96), 7), rand(96, 8)
        for _ in range(3):
            with pytest.raises(PimChannelError):
                system.executor.gemv(w, x)
            assert system.driver.rows_free == free
