"""Seeded fault injection across banks, ECC arrays, and register files.

All randomness flows from one ``numpy`` generator seeded by
:attr:`FaultConfig.seed`, and every walk iterates channels, banks, and
rows in sorted order — two systems built from the same config and driven
by the same workload observe byte-identical fault patterns, which is what
lets the self-healing tests assert bit-exact recovery deterministically.

Three fault classes are modelled:

* **storage bit flips** — stored data bits (and, separately, ECC check
  bits) of *allocated, materialised* rows flip with a per-bit-per-epoch
  probability.  With :class:`~repro.dram.ecc.EccBank` banks these are the
  events SEC-DED corrects (single) or detects (double).
* **register faults** — a GRF/SRF/CRF word of one execution unit is
  corrupted.  The next launch on a channel whose CRF was struck loads the
  program again: a launch loads the CRF wherever a unit's differs from
  the microkernel's image.
* **channel hard failure** — every bank of a pseudo-channel starts
  raising :class:`~repro.errors.PimChannelError` on data access,
  modelling a dead channel the serving layer must quarantine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from ..errors import PimChannelError

__all__ = ["FaultConfig", "FaultInjector", "FaultStats"]


@dataclass(frozen=True)
class FaultConfig:
    """The fault model of one system, set on ``SystemConfig.faults``.

    Rates are per-bit (storage) or per-unit (registers) probabilities per
    injection epoch; the serving engine runs one epoch between batches.
    """

    #: Per stored data bit, per epoch, probability of flipping.
    bit_flip_rate: float = 0.0
    #: Per stored ECC check bit, per epoch, probability of flipping.
    check_flip_rate: float = 0.0
    #: Per execution unit, per epoch, probability of one register upset.
    register_fault_rate: float = 0.0
    #: Pseudo-channels hard-failed at system construction.
    failed_channels: Tuple[int, ...] = ()
    #: Seed of the injector's random generator.
    seed: int = 0

    @property
    def active(self) -> bool:
        """Whether this config injects any fault at all."""
        return bool(
            self.bit_flip_rate > 0.0
            or self.check_flip_rate > 0.0
            or self.register_fault_rate > 0.0
            or self.failed_channels
        )


@dataclass
class FaultStats:
    """Running counts of everything an injector has done."""

    bit_flips: int = 0
    check_flips: int = 0
    register_faults: int = 0
    crf_faults: int = 0
    channels_failed: List[int] = field(default_factory=list)
    epochs: int = 0
    # -- worker-tier / latency fault classes (the chaos harness drives
    #    these through the fabric's worker protocol; see repro.chaos) --
    # Pipe payloads corrupted in transit (caught by the CRC32 check).
    pipe_corruptions: int = 0
    # Shared-memory result frames corrupted in place (caught by the
    # router's per-descriptor CRC32 check; see repro.stack.shm).
    shm_corruptions: int = 0
    # Serve rounds stalled past the router's reply timeout (wedges) or
    # delayed short of it, so the router waits them out (slowdowns).
    wedges: int = 0
    slowdowns: int = 0

    @property
    def total(self) -> int:
        """All injected faults (flips + register upsets + dead channels)."""
        return (
            self.bit_flips
            + self.check_flips
            + self.register_faults
            + len(self.channels_failed)
            + self.pipe_corruptions
            + self.shm_corruptions
            + self.wedges
            + self.slowdowns
        )


class FaultInjector:
    """Applies a :class:`FaultConfig` to a live system, deterministically.

    Constructed by :class:`~repro.stack.runtime.PimSystem` when its config
    carries an active fault model; ``config.failed_channels`` are failed
    immediately, while bit flips and register faults are injected one
    epoch at a time by :meth:`tick` (the serving engine calls it between
    batches).
    """

    def __init__(self, system, config: FaultConfig):
        self.sys = system
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.stats = FaultStats()
        for pch in config.failed_channels:
            self.fail_channel(pch)

    # -- hard failures ----------------------------------------------------------

    def fail_channel(self, pch: int) -> None:
        """Hard-fail one pseudo-channel: every data access raises."""
        if not 0 <= pch < self.sys.num_pchs:
            raise PimChannelError(
                f"cannot fail channel {pch}: device has {self.sys.num_pchs}",
                channels=(pch,),
            )
        for bank in self.sys.device.pch(pch).banks:
            bank.fail(pch)
        if pch not in self.stats.channels_failed:
            self.stats.channels_failed.append(pch)

    def is_failed(self, pch: int) -> bool:
        """Whether channel ``pch`` has been hard-failed."""
        return pch in self.stats.channels_failed

    # -- soft faults ------------------------------------------------------------

    def tick(self) -> int:
        """Run one injection epoch; returns the number of new faults."""
        before = self.stats.total
        self.inject_storage_faults()
        self.corrupt_registers()
        self.stats.epochs += 1
        return self.stats.total - before

    def _allocated_rows(self) -> List[int]:
        return sorted(self.sys.driver.allocated_rows())

    def inject_storage_faults(self) -> int:
        """Flip stored data/check bits of allocated rows; returns count.

        Only rows both *allocated* by the driver and *materialised* in a
        bank's sparse store are eligible — an unallocated or never-written
        row holds no live data, so a flip there could never be observed.
        """
        cfg = self.config
        if cfg.bit_flip_rate <= 0.0 and cfg.check_flip_rate <= 0.0:
            return 0
        allocated = set(self._allocated_rows())
        if not allocated:
            return 0
        flipped = 0
        for pch in range(self.sys.num_pchs):
            if self.is_failed(pch):
                continue
            for bank in self.sys.device.pch(pch).banks:
                rows = sorted(set(bank.materialized_rows()) & allocated)
                row_bits = bank.config.row_bytes * 8
                for row in rows:
                    if cfg.bit_flip_rate > 0.0:
                        count = int(self.rng.binomial(row_bits, cfg.bit_flip_rate))
                        for bit in self.rng.integers(0, row_bits, size=count):
                            bank.flip_bit(row, int(bit))
                        self.stats.bit_flips += count
                        flipped += count
                    if cfg.check_flip_rate > 0.0 and hasattr(bank, "flip_check_bit"):
                        # One check byte per 8-byte word: row_bytes check bits.
                        check_bits = bank.config.row_bytes
                        count = int(
                            self.rng.binomial(check_bits, cfg.check_flip_rate)
                        )
                        for bit in self.rng.integers(0, check_bits, size=count):
                            bank.flip_check_bit(row, int(bit))
                        self.stats.check_flips += count
                        flipped += count
        return flipped

    def flip_random_bits(self, count: int) -> int:
        """Flip exactly ``count`` stored data bits, scripted-chaos style.

        Unlike the rate-driven :meth:`inject_storage_faults`, this is the
        deterministic "flip N bits *now*" primitive the chaos harness
        schedules at a simulated instant.  Targets are drawn (seeded)
        from the allocated, materialised rows — the same eligibility rule
        as the rate path; returns the number of bits actually flipped
        (0 when no live row exists to strike).
        """
        allocated = set(self._allocated_rows())
        targets = []
        for pch in range(self.sys.num_pchs):
            if self.is_failed(pch):
                continue
            for bank in self.sys.device.pch(pch).banks:
                for row in sorted(set(bank.materialized_rows()) & allocated):
                    targets.append((bank, row))
        if not targets:
            return 0
        flipped = 0
        for _ in range(int(count)):
            bank, row = targets[int(self.rng.integers(0, len(targets)))]
            bit = int(self.rng.integers(0, bank.config.row_bytes * 8))
            bank.flip_bit(row, bit)
            self.stats.bit_flips += 1
            flipped += 1
        return flipped

    def corrupt_blob(self, blob: bytes) -> bytes:
        """Flip one seeded bit of a pipe payload (latency-tier fault).

        Models in-transit corruption of a worker<->router message: the
        CRC32 the sender computed no longer matches, so the receiver's
        checksum verification must catch it (see
        :mod:`repro.stack.fabric`).  Counts under
        ``stats.pipe_corruptions``.
        """
        corrupted = bytearray(blob)
        if corrupted:
            index = int(self.rng.integers(0, len(corrupted)))
            corrupted[index] ^= 1 << int(self.rng.integers(0, 8))
        self.stats.pipe_corruptions += 1
        return bytes(corrupted)

    def corrupt_shm(self, view: memoryview) -> None:
        """Flip one seeded bit of a shared-memory frame, in place.

        Models in-segment corruption of a result tensor *after* the
        reply's control payload (descriptor CRCs included) was built and
        checksummed — the control blob still verifies, so only the
        router's per-descriptor CRC32 check (see
        :meth:`repro.stack.shm.SegmentCache.read`) can catch it.  Counts
        under ``stats.shm_corruptions``.
        """
        if len(view):
            index = int(self.rng.integers(0, len(view)))
            view[index] ^= 1 << int(self.rng.integers(0, 8))
        self.stats.shm_corruptions += 1

    def corrupt_registers(self) -> int:
        """Corrupt one register word per struck execution unit.

        A corrupted kernel never executes silently: the next launch on the
        channel loads the CRF, since a launch loads it wherever a unit's
        CRF differs from the microkernel's image.
        """
        rate = self.config.register_fault_rate
        if rate <= 0.0:
            return 0
        struck = 0
        for pch in range(self.sys.num_pchs):
            if self.is_failed(pch):
                continue
            for unit in self.sys.device.pch(pch).units:
                if self.rng.random() >= rate:
                    continue
                regs = unit.regs
                kind = ("crf", "grf", "srf")[int(self.rng.integers(0, 3))]
                if kind == "crf":
                    index = int(self.rng.integers(0, len(regs.crf)))
                    bit = int(self.rng.integers(0, 32))
                    regs.flip_bit("crf", index, bit)
                    self.stats.crf_faults += 1
                elif kind == "grf":
                    half = ("grf_a", "grf_b")[int(self.rng.integers(0, 2))]
                    array = getattr(regs, half)
                    index = int(self.rng.integers(0, array.shape[0]))
                    bit = int(self.rng.integers(0, array.shape[1] * 16))
                    regs.flip_bit(half, index, bit)
                else:
                    half = ("srf_m", "srf_a")[int(self.rng.integers(0, 2))]
                    array = getattr(regs, half)
                    index = int(self.rng.integers(0, array.shape[0]))
                    bit = int(self.rng.integers(0, 16))
                    regs.flip_bit(half, index, bit)
                self.stats.register_faults += 1
                struck += 1
        return struck
