"""The PIM device driver (Section V-A).

During boot the driver reserves the PIM memory space, marks it uncacheable
(so every access in the region reaches DRAM as a command — no cache sits
between the host and the PIM units), and hands out *physically contiguous*
blocks so PIM kernels never worry about virtual-to-physical translation.

The model allocates in units of **row sets**: one row index taken across
every bank of every pseudo-channel.  That is the natural PIM granularity —
an AB-mode command touches the same row of all banks, so data placed in one
row set is reachable by one lock-step command stream.  The register-mapped
rows at the top of the address space (the grey PIM_CONF region of Fig. 3)
are never allocatable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

from ..errors import PimAllocationError
from ..pim.device import PimHbmDevice

__all__ = [
    "RowSetRange",
    "ChannelSet",
    "PimDeviceDriver",
    "PimAllocationError",
    "ScrubResult",
]


@dataclass(frozen=True)
class RowSetRange:
    """A contiguous range of row sets ``[start, stop)`` owned by one client."""

    start: int
    stop: int

    @property
    def num_rows(self) -> int:
        return self.stop - self.start

    def row(self, index: int) -> int:
        """Absolute row index of the ``index``-th row set in the block."""
        if not 0 <= index < self.num_rows:
            raise IndexError(f"row-set index {index} out of range")
        return self.start + index


@dataclass(frozen=True)
class ChannelSet:
    """A disjoint set of pseudo-channels leased to one serving lane.

    Channel independence (Section VIII) is what makes this sound: each
    pseudo-channel has its own controller and mode FSM, so kernels running
    on disjoint channel sets never observe each other — the property the
    request-serving engine exploits to pipeline operators.
    """

    channels: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.channels)

    def __iter__(self):
        return iter(self.channels)


@dataclass
class ScrubResult:
    """Outcome of one background-scrub pass over the allocated region."""

    rows_scanned: int = 0
    words_checked: int = 0
    corrected: int = 0
    #: ``(channel, bank, row)`` triples whose scrub found a double-bit
    #: error the code cannot repair.
    uncorrectable: List[Tuple[int, int, int]] = field(default_factory=list)

    @property
    def uncorrectable_words(self) -> int:
        """Number of locations reported uncorrectable this pass."""
        return len(self.uncorrectable)


class PimDeviceDriver:
    """Reserves and allocates the PIM memory region of a device."""

    def __init__(self, device: PimHbmDevice):
        self.device = device
        self.memory_map = device.memory_map
        # Everything below the register rows is the driver's pool.
        self._limit = self.memory_map.first_reserved_row
        self._cursor = 0
        self._allocations: List[RowSetRange] = []
        # Freed blocks, kept sorted by start and coalesced; allocations
        # first-fit from here before bumping the cursor.
        self._free_list: List[RowSetRange] = []
        # Channel leases: channel index -> True while leased to a lane.
        self._leased_channels: set = set()
        # Channels retired after a hard failure: never offered again.
        self._quarantined_channels: set = set()
        # Set by PimSystem when exec_mode="fused": the system's compiled
        # traces, read by observers (they are keyed by content, so no
        # lease or quarantine touches them).
        self.trace_cache = None
        self.uncacheable = True  # the whole region bypasses the cache
        # Observability hooks (repro.obs): scrub passes and quarantine
        # decisions are recorded when attached; None costs one test.
        self.tracer = None
        self.metrics = None

    @property
    def rows_total(self) -> int:
        return self._limit

    @property
    def rows_free(self) -> int:
        reclaimed = sum(b.num_rows for b in self._free_list)
        return self._limit - self._cursor + reclaimed

    def bytes_per_row_set(self) -> int:
        """Capacity of one row set across the whole device."""
        cfg = self.device.config
        from ..dram.pseudochannel import BANKS_PER_PCH

        return cfg.bank_config.row_bytes * BANKS_PER_PCH * cfg.num_pchs

    def alloc_rows(self, count: int) -> RowSetRange:
        """Allocate ``count`` physically contiguous row sets."""
        if count <= 0:
            raise PimAllocationError("allocation must be positive")
        # First fit from the free list (rows reclaimed by operator-cache
        # eviction), splitting the block if it is larger than needed.
        for i, candidate in enumerate(self._free_list):
            if candidate.num_rows >= count:
                block = RowSetRange(candidate.start, candidate.start + count)
                if candidate.num_rows == count:
                    self._free_list.pop(i)
                else:
                    self._free_list[i] = RowSetRange(
                        candidate.start + count, candidate.stop
                    )
                self._allocations.append(block)
                return block
        if self._cursor + count > self._limit:
            raise PimAllocationError(
                f"requested {count} row sets, only {self.rows_free} free"
            )
        block = RowSetRange(self._cursor, self._cursor + count)
        self._cursor += count
        self._allocations.append(block)
        return block

    def alloc_bytes(self, nbytes: int) -> RowSetRange:
        """Allocate enough row sets to hold ``nbytes``."""
        per_row = self.bytes_per_row_set()
        rows = -(-nbytes // per_row)
        return self.alloc_rows(rows)

    def free(self, block: RowSetRange) -> None:
        """Return a block to the pool (operator-cache eviction path)."""
        try:
            self._allocations.remove(block)
        except ValueError:
            raise PimAllocationError(f"block {block} was not allocated")
        self._free_list.append(block)
        self._free_list.sort(key=lambda b: b.start)
        # Coalesce neighbours so long-running serving sessions don't
        # fragment the region.
        merged: List[RowSetRange] = []
        for b in self._free_list:
            if merged and merged[-1].stop == b.start:
                merged[-1] = RowSetRange(merged[-1].start, b.stop)
            else:
                merged.append(b)
        # A block touching the bump cursor is given back to the cursor.
        if merged and merged[-1].stop == self._cursor:
            self._cursor = merged[-1].start
            merged.pop()
        self._free_list = merged

    def reset(self) -> None:
        """Free everything (bump allocator, per-process teardown)."""
        self._cursor = 0
        self._allocations.clear()
        self._free_list.clear()
        self._leased_channels.clear()
        self._quarantined_channels.clear()

    def allocated_rows(self) -> Iterator[int]:
        """Every row-set index currently owned by some client.

        The fault injector and the scrubber walk exactly these: freed
        blocks may hold stale corruption, but nothing will ever read them
        before an allocation re-writes them.
        """
        for block in self._allocations:
            yield from range(block.start, block.stop)

    # -- channel-set leases -----------------------------------------------------

    @property
    def num_channels(self) -> int:
        return len(self.device)

    @property
    def channels_free(self) -> List[int]:
        return [
            p
            for p in range(self.num_channels)
            if p not in self._leased_channels
            and p not in self._quarantined_channels
        ]

    @property
    def channels_leased(self) -> Tuple[int, ...]:
        """Channels currently leased to serving lanes, sorted."""
        return tuple(sorted(self._leased_channels))

    @property
    def channels_quarantined(self) -> Tuple[int, ...]:
        """Channels retired after hard failures, never offered again."""
        return tuple(sorted(self._quarantined_channels))

    def alloc_channels(self, count: int) -> ChannelSet:
        """Lease ``count`` pseudo-channels to one serving lane.

        Lanes hold disjoint sets; kernels bound to a lane only touch its
        controllers, so independent operators pipeline across lanes.
        """
        free = self.channels_free
        if count <= 0:
            raise PimAllocationError("channel lease must be positive")
        if count > len(free):
            raise PimAllocationError(
                f"requested {count} channels, only {len(free)} free"
            )
        leased = tuple(free[:count])
        self._leased_channels.update(leased)
        return ChannelSet(leased)

    def release_channels(self, channel_set: ChannelSet) -> None:
        """Return a leased channel set to the pool."""
        for p in channel_set:
            if p not in self._leased_channels:
                raise PimAllocationError(f"channel {p} was not leased")
        self._leased_channels.difference_update(channel_set.channels)

    def quarantine_channels(self, channels: Sequence[int]) -> None:
        """Retire leased channels after a hard failure.

        Quarantined channels are neither leased nor free: they never
        appear in :attr:`channels_free` again, so no future lane can lease
        them.  Only currently-leased channels can be quarantined (the
        failure was observed by the lane holding the lease).
        """
        for p in channels:
            if p not in self._leased_channels:
                raise PimAllocationError(
                    f"channel {p} is not leased; cannot quarantine"
                )
        self._leased_channels.difference_update(channels)
        self._quarantined_channels.update(channels)
        if self.tracer is not None:
            for p in channels:
                self.tracer.event("quarantine", category="driver", channel=p)
        if self.metrics is not None:
            self.metrics.counter(
                "driver.channels.quarantined",
                "channels retired after hard failures",
            ).inc(len(channels))

    def restore_channels(self, channels: Sequence[int]) -> None:
        """Return quarantined channels to the free pool (after repair)."""
        for p in channels:
            if p not in self._quarantined_channels:
                raise PimAllocationError(f"channel {p} is not quarantined")
        self._quarantined_channels.difference_update(channels)

    # -- background scrub ---------------------------------------------------------

    def scrub(self) -> ScrubResult:
        """One scrub pass: walk allocated rows, repair single-bit errors.

        Visits every allocated row set on every healthy channel whose
        banks carry an ECC engine (:class:`~repro.dram.ecc.EccBank`),
        correcting single-bit errors *and* re-encoding their check bytes —
        which is what stops independent single-bit upsets from aging into
        uncorrectable double-bit words.  Uncorrectable locations are
        reported, not raised; plain banks make this a no-op.
        """
        result = ScrubResult()
        rows = sorted(self.allocated_rows())
        if not rows:
            return result
        for pch in range(self.num_channels):
            if pch in self._quarantined_channels:
                continue
            for bank_index, bank in enumerate(self.device.pch(pch).banks):
                scrub_row = getattr(bank, "scrub_row", None)
                if scrub_row is None or bank.is_failed:
                    continue
                for row in rows:
                    words, corrected, uncorrectable = scrub_row(row)
                    if words:
                        result.rows_scanned += 1
                    result.words_checked += words
                    result.corrected += corrected
                    if uncorrectable:
                        result.uncorrectable.append((pch, bank_index, row))
        if self.tracer is not None and result.words_checked:
            self.tracer.event(
                "scrub",
                category="driver",
                rows=result.rows_scanned,
                corrected=result.corrected,
                uncorrectable=result.uncorrectable_words,
            )
        if self.metrics is not None:
            self.metrics.counter(
                "driver.scrub.passes", "background scrub passes"
            ).inc()
            self.metrics.counter(
                "driver.scrub.corrected", "single-bit errors repaired"
            ).inc(result.corrected)
            self.metrics.counter(
                "driver.scrub.uncorrectable", "double-bit words reported"
            ).inc(result.uncorrectable_words)
        return result

    def check_row(self, row: int) -> None:
        """Raise if ``row`` is outside the allocatable PIM region."""
        if row >= self._limit:
            raise PimAllocationError(
                f"row {row} is inside the reserved register region"
            )
