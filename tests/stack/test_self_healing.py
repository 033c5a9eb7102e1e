"""Self-healing serving: retry, quarantine, scrub, and host fallback.

The acceptance invariant of the fault-tolerance layer: under an injected
single-channel hard failure plus random single-bit storage flips, every
submitted request still completes *bit-exactly* against the host golden
path, the profile reports what healing happened, and no channels remain
leased after ``close()``.
"""

import numpy as np
import pytest

from repro.errors import PimChannelError, PimError
from repro.faults import FaultConfig
from repro.stack.api import Request, ServerConfig
from repro.stack.blas import (
    add_reference,
    gemv_reference,
    mul_reference,
)
from repro.stack.runtime import PimSystem, SystemConfig
from repro.stack.server import PimServer

BASE = SystemConfig(num_pchs=4, num_rows=256, simulate_pchs=1, ecc=True)


def rand(shape, seed, scale=0.25):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float16)


def _submit_mixed(server, w, count=12, seed=3):
    """Interleaved gemv/add/mul submissions; returns (handle, golden)."""
    pairs = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            x = rand(w.shape[1], seed + 10 + i)
            handle = server.submit(Request("gemv", weights=w, a=x))
            gold = gemv_reference(w, x, server.sys.num_pchs)
        elif kind == 1:
            a, b = rand(192, seed + 10 + i), rand(192, seed + 40 + i)
            handle = server.submit(Request("add", a=a, b=b))
            gold = add_reference(a, b)
        else:
            a, b = rand(192, seed + 10 + i), rand(192, seed + 40 + i)
            handle = server.submit(Request("mul", a=a, b=b))
            gold = mul_reference(a, b)
        pairs.append((handle, gold))
    return pairs


class TestAcceptance:
    def test_channel_failure_plus_bit_flips_bit_exact(self):
        """The headline scenario: one dead channel + random flips."""
        config = BASE.replace(
            faults=FaultConfig(
                bit_flip_rate=1e-4,
                check_flip_rate=1e-4,
                failed_channels=(0,),
                seed=7,
            ),
        )
        system = PimSystem(config)
        server = PimServer(
            system, ServerConfig(lanes=2, max_batch=4, scrub_interval=1)
        )
        pairs = _submit_mixed(server, rand((48, 80), 3))
        profile = server.run()
        server.close()

        for handle, gold in pairs:
            assert handle.result is not None
            assert np.array_equal(handle.result, gold)
        assert 0 in profile.quarantined_channels
        assert profile.retries >= 1
        assert profile.scrubs >= 1
        assert not system.driver.channels_leased
        # Quarantined ≠ leased: the dead channel is out of both pools.
        assert 0 not in system.driver.channels_free

    def test_lane_death_falls_back_to_host(self):
        """Both channels of a lane dead → whole batches served by host."""
        config = BASE.replace(
            faults=FaultConfig(failed_channels=(0, 1), seed=7)
        )
        system = PimSystem(config)
        with PimServer(
            system, ServerConfig(lanes=2, max_batch=4)
        ) as server:
            pairs = _submit_mixed(server, rand((48, 80), 3))
            profile = server.run()
        assert profile.fallbacks > 0
        for handle, gold in pairs:
            assert np.array_equal(handle.result, gold)
        fell_back = [h for h, _ in pairs if h.fallback]
        assert fell_back

    def test_data_error_retry_path(self):
        """Heavy flips with no scrubbing force uncorrectable retries."""
        config = BASE.replace(
            faults=FaultConfig(
                bit_flip_rate=2e-3, check_flip_rate=2e-3, seed=11
            ),
        )
        system = PimSystem(config)
        with PimServer(
            system, ServerConfig(lanes=2, max_batch=4, scrub_interval=0)
        ) as server:
            pairs = _submit_mixed(server, rand((48, 80), 3), count=15)
            profile = server.run()
        assert profile.retries + profile.fallbacks > 0
        for handle, gold in pairs:
            assert np.array_equal(handle.result, gold)


class TestClose:
    def test_close_releases_everything_after_midbatch_crash(self):
        """A non-PIM error escapes run(); close() still frees all leases."""
        system = PimSystem(BASE)
        server = PimServer(system, ServerConfig(lanes=2, max_batch=4))
        _submit_mixed(server, rand((48, 80), 3))

        def boom(lane, batch):
            raise RuntimeError("simulator bug")

        server._execute = boom
        with pytest.raises(RuntimeError, match="simulator bug"):
            server.run()
        server.close()
        server.close()  # idempotent
        assert not system.driver.channels_leased
        assert sorted(system.driver.channels_free) == [0, 1, 2, 3]

    def test_context_exit_with_quarantine_leaves_no_leases(self):
        config = BASE.replace(
            faults=FaultConfig(failed_channels=(2,), seed=1)
        )
        system = PimSystem(config)
        with PimServer(system, ServerConfig(lanes=2, max_batch=4)) as server:
            pairs = _submit_mixed(server, rand((48, 80), 3), count=6)
            server.run()
        assert not system.driver.channels_leased
        assert 2 in system.driver.channels_quarantined
        for handle, gold in pairs:
            assert np.array_equal(handle.result, gold)

    def test_submit_after_close_raises(self):
        system = PimSystem(BASE)
        server = PimServer(system, ServerConfig(lanes=1, max_batch=2))
        server.close()
        with pytest.raises(PimError):
            server.submit(Request("add", a=rand(64, 0), b=rand(64, 1)))


class TestScrubbing:
    def test_scrub_between_batches_repairs_flips(self):
        config = BASE.replace(
            faults=FaultConfig(bit_flip_rate=5e-5, seed=13),
        )
        system = PimSystem(config)
        with PimServer(
            system, ServerConfig(lanes=2, max_batch=4, scrub_interval=1)
        ) as server:
            pairs = _submit_mixed(server, rand((48, 80), 3), count=12)
            profile = server.run()
        assert profile.scrubs >= 1
        assert profile.faults_injected > 0
        assert profile.scrub_corrected + profile.ecc_corrected > 0
        for handle, gold in pairs:
            assert np.array_equal(handle.result, gold)

    def test_driver_scrub_reports_double_bit_without_raising(self):
        system = PimSystem(BASE)
        block = system.driver.alloc_rows(1)
        row = block.row(0)
        bank = system.device.pch(0).banks[0]
        data = np.arange(32, dtype=np.uint8)
        bank.poke(row, 0, data)
        bank.flip_bit(row, 0)
        bank.flip_bit(row, 1)  # two flips in one word: uncorrectable
        result = system.driver.scrub()
        assert (0, 0, row) in result.uncorrectable
        assert result.uncorrectable_words == len(result.uncorrectable)

    def test_quarantined_channels_are_skipped(self):
        system = PimSystem(BASE)
        lease = system.driver.alloc_channels(2)
        system.driver.quarantine_channels([lease.channels[0]])
        block = system.driver.alloc_rows(1)
        row = block.row(0)
        quarantined = lease.channels[0]
        bank = system.device.pch(quarantined).banks[0]
        bank.poke(row, 0, np.arange(32, dtype=np.uint8))
        bank.flip_bit(row, 3)
        before = bank.ecc_stats.corrected
        system.driver.scrub()
        assert bank.ecc_stats.corrected == before


class TestChannelRecovery:
    def test_reset_channel_clears_stranded_state(self):
        """A mid-kernel abort leaves PIM mode armed; reset disarms it."""
        system = PimSystem(BASE)
        controller = system.controllers[0]
        pch = system.device.pch(0)
        pch.pim_op_mode = 1
        controller.reset_channel()
        assert pch.pim_op_mode == 0
        for bank in pch.banks:
            assert bank.open_row is None

    def test_failed_access_names_the_channel(self):
        config = BASE.replace(faults=FaultConfig(failed_channels=(3,)))
        system = PimSystem(config)
        with pytest.raises(PimChannelError) as err:
            system.device.pch(3).banks[0].peek(0, 0)
        assert err.value.channels == (3,)
