"""Tests for the PIM memory manager and Fig. 15 layout helpers."""

import numpy as np
import pytest

from repro.host.memmap import AddressMap
from repro.stack.memory import (
    MicrokernelCache,
    PimLayout,
    aligned_size,
    chunk_locations,
    pad_vector,
)


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
        from repro.stack.kernels import GemvKernel
        from repro.stack.runtime import PimSystem, SystemConfig

        system = PimSystem(SystemConfig(num_pchs=1, num_rows=128))
        rng = np.random.default_rng(0)
        w = (rng.standard_normal((128, 64)) * 0.1).astype(np.float16)
        kernel = GemvKernel(system, 128, 64)
        kernel.load_weights(w)
        kernel((rng.standard_normal(64) * 0.1).astype(np.float16))
        first = system.device.pch(0).cmd_counts.copy()
        kernel((rng.standard_normal(64) * 0.1).astype(np.float16))
        second = system.device.pch(0).cmd_counts
        # The second call issues fewer extra writes than the first did in
        # total (4 CRF columns saved), and the cache records the hit.
        assert system._microkernel_cache.hits >= 1

    def test_different_kernels_reprogram(self):
        from repro.stack.runtime import PimSystem, SystemConfig
        from repro.stack.blas import PimBlas

        system = PimSystem(SystemConfig(num_pchs=1, num_rows=256))
        blas = PimBlas(system)
        rng = np.random.default_rng(1)
        a, b = [(rng.standard_normal(2000) * 0.1).astype(np.float16) for _ in range(2)]
        blas.add(a, b)
        blas.mul(a, b)  # different microkernel: must repopulate the CRF
        assert system._microkernel_cache.misses >= 2
        out, _ = blas.add(a, b)  # back to ADD: CRF reprogrammed correctly
        assert np.array_equal(out, (a + b).astype(np.float16))


class TestPadding:
    def test_aligned_size(self):
        assert aligned_size(128) == 128
        assert aligned_size(129) == 256
        assert aligned_size(1) == 128
        assert aligned_size(0) == 0

    def test_pad_vector(self):
        v = np.arange(130, dtype=np.float16)
        padded = pad_vector(v)
        assert padded.size == 256
        assert np.array_equal(padded[:130], v)
        assert (padded[130:] == 0).all()

    def test_pad_exact_is_copy(self):
        v = np.ones(128, dtype=np.float16)
        padded = pad_vector(v)
        assert padded is not v
        assert np.array_equal(padded, v)


class TestPimLayout:
    def test_alignment_enforced(self):
        amap = AddressMap()
        with pytest.raises(ValueError):
            PimLayout(amap, base=64, num_elements=128)

    def test_chunk_bank_locality(self):
        """The Fig. 15(a) mapping keeps every 256 B chunk in one bank row."""
        amap = AddressMap()
        layout = PimLayout(amap, base=0, num_elements=1024)
        assert layout.chunks_are_bank_local()

    def test_bank_interleaved_map_breaks_locality(self):
        """With bank bits below the column bits, chunks straddle banks and
        PIM-friendly placement is impossible without rearrangement."""
        amap = AddressMap(
            field_order=(
                "offset", "bg", "ba", "col_low", "ch", "pch", "col_high", "row",
            )
        )
        layout = PimLayout(amap, base=0, num_elements=1024)
        assert not layout.chunks_are_bank_local()

    def test_chunk_count(self):
        amap = AddressMap()
        layout = PimLayout(amap, base=0, num_elements=300)
        assert layout.padded_elements == 384
        assert layout.num_chunks == 3

    def test_consecutive_chunks_rotate_pchs(self):
        amap = AddressMap()
        layout = PimLayout(amap, base=0, num_elements=16 * 128)
        locs = chunk_locations(layout)
        pchs = [p for p, *_ in locs]
        assert pchs[:4] == [0, 1, 2, 3]

    def test_chunk_address_bounds(self):
        amap = AddressMap()
        layout = PimLayout(amap, base=0, num_elements=128)
        layout.chunk_address(0)
        with pytest.raises(IndexError):
            layout.chunk_address(1)
        with pytest.raises(IndexError):
            layout.element_address(128)

    def test_fig15_add_example(self):
        """Fig. 15(b): operands a and b at aligned bases land at the same
        in-bank coordinates of different rows (here: strided by whole
        chunks), so one lock-step command stream serves both."""
        amap = AddressMap()
        chunk = amap.pim_chunk_bytes
        a = PimLayout(amap, base=0, num_elements=2048)
        b = PimLayout(amap, base=a.num_chunks * chunk, num_elements=2048)
        addr_a = a.chunk_address(0)
        addr_b = b.chunk_address(0)
        assert addr_a.col == addr_b.col  # same column coordinates
