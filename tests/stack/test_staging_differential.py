"""Staging differential: every block leg of the kernels equals its
column-at-a-time run.

``ElementwiseKernel._scatter`` / ``_gather_result`` and
``GemvKernel.load_weights`` move whole ``(banks, n, 32)`` blocks; the
per-column loops they replaced live in :mod:`tests.stack.staging_reference`.
Each case builds two fresh systems, runs production code on one and the
reference loop on the other, and requires equal results and equal device
images — every materialised row of every bank, and under ECC every check
array and every SEC-DED counter.
"""

from functools import partial

import numpy as np
import pytest

from repro.stack.kernels import ElementwiseKernel, GemvKernel
from repro.stack.runtime import PimSystem, SystemConfig

from .staging_reference import (
    bank_image,
    gather_by_site,
    load_weights_by_column,
    scatter_by_site,
)


def _device_image(system):
    return [bank_image(bank) for pch in system.device.pchs for bank in pch.banks]


def _system(ecc):
    return PimSystem(SystemConfig(num_pchs=4, num_rows=128, ecc=ecc))


def _values(length, seed):
    return np.random.default_rng(seed).standard_normal(length).astype(np.float16)


# All four channels, a 2-of-4 serving lane, a single channel.
CHANNEL_SETS = [None, (1, 3), (2,)]
# 17: one padded block group; 10000: ``seq_per_unit > in_cols`` on every
# channel set (4096 already needs a second row on one channel).
LENGTHS = [17, 1024, 4096, 10000]


@pytest.mark.parametrize("ecc", [False, True], ids=["plain", "ecc"])
@pytest.mark.parametrize("channels", CHANNEL_SETS, ids=["all", "lane", "one"])
@pytest.mark.parametrize("length", LENGTHS)
class TestElementwiseLegs:
    @pytest.mark.parametrize("op", ["add", "mul", "relu", "bn"])
    def test_invocation_equals_the_per_block_loop(self, op, length, channels, ecc):
        """A whole sampled invocation — operand staging, the timed slot,
        the functional-result store of the others (``first_slot`` /
        ``col_offset``) and the result gather — with production legs vs
        ``site()`` loops."""
        a, b = _values(length, 1), _values(length, 2)

        def run(by_site):
            system = _system(ecc)
            kernel = ElementwiseKernel(system, op, length, channels=channels)
            if by_site:
                kernel._scatter = partial(scatter_by_site, kernel)
                kernel._gather_result = partial(gather_by_site, kernel)
            result, _ = kernel(a, b, (1.5, 0.25), simulate_pchs=1)
            return result.tobytes(), _device_image(system)

        assert run(by_site=False) == run(by_site=True)

    def test_each_leg_alone(self, length, channels, ecc):
        block_sys, loop_sys = _system(ecc), _system(ecc)
        block = ElementwiseKernel(block_sys, "add", length, channels=channels)
        loop = ElementwiseKernel(loop_sys, "add", length, channels=channels)
        plan = block.plan
        assert (plan.seq_per_unit > plan.in_cols) == (
            length == 10000 or (length == 4096 and channels == (2,))
        )
        legs = [
            dict(),
            dict(odd=True),
            dict(col_offset=plan.in_cols, first_slot=min(1, plan.num_pchs - 1)),
        ]
        for seed, leg in enumerate(legs):
            padded = block._padded(_values(length, seed))
            block._scatter(padded, **leg)
            scatter_by_site(loop, padded, **leg)
            assert _device_image(block_sys) == _device_image(loop_sys)
        got, want = block._gather_result(), gather_by_site(loop)
        assert got.tobytes() == want.tobytes()
        assert _device_image(block_sys) == _device_image(loop_sys)
        assert np.array_equal(gather_by_site(block), got)  # and crosswise


@pytest.mark.parametrize("ecc", [False, True], ids=["plain", "ecc"])
@pytest.mark.parametrize(
    "m, n, channels",
    [
        (128, 512, None),  # four weight rows per tile
        (200, 96, None),  # padding in both dimensions
        (200, 96, (1, 3)),  # a 2-of-4 lane: two passes per channel
    ],
    ids=["128x512", "200x96", "200x96-lane"],
)
def test_load_weights_equals_the_five_deep_loop(m, n, channels, ecc):
    w = np.random.default_rng(m + n).standard_normal((m, n)).astype(np.float16)
    block_sys, loop_sys = _system(ecc), _system(ecc)
    block = GemvKernel(block_sys, m, n, channels=channels)
    loop = GemvKernel(loop_sys, m, n, channels=channels)
    assert block.plan.passes == (2 if channels else 1)
    block.load_weights(w)
    load_weights_by_column(loop, w)
    image = _device_image(block_sys)
    assert image == _device_image(loop_sys)
    if ecc:
        plan = block.plan
        words = plan.num_slices * plan.tiles * plan.chunks * 8 * 8 * 4
        assert sum(stats[0] for *_, stats in image) == words
