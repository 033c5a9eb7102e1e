"""JEDEC HBM2 timing parameters.

All parameters are expressed in cycles of the command/address (CA) clock
(1 tCK).  The HBM2 CA clock runs at the external clock frequency
(1.0-1.2 GHz per Table V); data is transferred DDR, so a 256-bit (32 B)
pseudo-channel access completes as a burst of 4 64-bit beats in 2 tCK.

The values below follow JESD235 and the 20nm HBM2 die the paper builds on
[Sohn et al., JSSC 2017].  They are deliberately configurable: the paper's
Section III-B argument that AB-mode compute bandwidth scales with
``num_banks * tCCD_S / tCCD_L`` (×8, not ×16) is exercised directly by tests
that vary ``tccd_s``/``tccd_l``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = [
    "TimingParams",
    "HBM2_1GHZ",
    "HBM2_1P2GHZ",
    "DDR4_3200",
    "LPDDR4_4266",
    "GDDR6_14",
    "DRAM_FAMILIES",
]


@dataclass(frozen=True)
class TimingParams:
    """DRAM timing parameters in CA-clock cycles (tCK), plus the period.

    Attributes:
        tck_ns: CA clock period in nanoseconds.
        trcd: ACT to internal RD/WR delay.
        trp: PRE to ACT delay (same bank).
        tras: ACT to PRE delay (same bank).
        trc: ACT to ACT delay (same bank), normally tras + trp.
        tccd_s: column-to-column delay, different bank groups.
        tccd_l: column-to-column delay, same bank group.
        trrd_s: ACT to ACT, different bank groups.
        trrd_l: ACT to ACT, same bank group.
        tfaw: four-activate window.
        twr: write recovery (end of write burst to PRE).
        trtp: read to PRE delay.
        twtr: end of write burst to read command (bus turnaround).
        trtw: read command to write command (bus turnaround).
        cl: read (CAS) latency.
        cwl: write (CAS write) latency.
        burst_cycles: cycles occupied on the data bus by one column burst.
        trefi: average refresh interval.
        trfc: refresh cycle time.
    """

    tck_ns: float = 1.0
    trcd: int = 14
    trp: int = 14
    tras: int = 34
    trc: int = 48
    tccd_s: int = 2
    tccd_l: int = 4
    trrd_s: int = 4
    trrd_l: int = 6
    tfaw: int = 16
    twr: int = 16
    trtp: int = 5
    twtr: int = 8
    trtw: int = 4
    cl: int = 14
    cwl: int = 4
    burst_cycles: int = 2
    trefi: int = 3900
    trfc: int = 350

    def scaled_to(self, freq_ghz: float) -> "TimingParams":
        """Same cycle counts at a different CA clock frequency."""
        return replace(self, tck_ns=1.0 / freq_ghz)

    @property
    def ab_bandwidth_factor(self) -> float:
        """On-chip bandwidth gain of AB mode over the off-chip interface.

        num_banks_per_unit-pair banks transfer per command but the cadence
        slows from tCCD_S to tCCD_L; with 8 operating banks per pCH this is
        the paper's x4 on-chip/off-chip ratio (Table V).
        """
        return 8 * self.tccd_s / self.tccd_l


HBM2_1GHZ = TimingParams()
HBM2_1P2GHZ = TimingParams().scaled_to(1.2)

# -- other JEDEC DRAM families -----------------------------------------------
#
# Section III: "Although it is illustrated based on HBM2 in this paper, it is
# applicable to any standard DRAM such as DDR, LPDDR, and GDDR DRAM with a
# few changes."  These presets carry representative timing at each family's
# command clock so the cross-family study (benchmarks/bench_dram_families.py)
# can quantify what bank-level PIM buys on each substrate.  Cycle counts are
# derived from typical datasheet nanosecond values at the stated tCK.

# DDR4-3200: 1.6 GHz command clock, tCK 0.625 ns.
DDR4_3200 = TimingParams(
    tck_ns=0.625,
    trcd=22, trp=22, tras=52, trc=74,
    tccd_s=4, tccd_l=8,
    trrd_s=8, trrd_l=10, tfaw=34,
    twr=24, trtp=12, twtr=12, trtw=8,
    cl=22, cwl=16, burst_cycles=4,
    trefi=12480, trfc=560,
)

# LPDDR4X-4266: 2.13 GHz command clock, tCK 0.469 ns; mobile-class core
# timings are slower in cycles.
LPDDR4_4266 = TimingParams(
    tck_ns=0.469,
    trcd=39, trp=39, tras=91, trc=130,
    tccd_s=8, tccd_l=8,  # LPDDR4 has no bank groups: a single tCCD
    trrd_s=22, trrd_l=22, tfaw=85,
    twr=39, trtp=17, twtr=22, trtw=14,
    cl=36, cwl=18, burst_cycles=8,
    trefi=8300, trfc=594,
)

# GDDR6-14Gbps: 1.75 GHz command clock, tCK 0.571 ns.
GDDR6_14 = TimingParams(
    tck_ns=0.571,
    trcd=25, trp=25, tras=56, trc=81,
    tccd_s=2, tccd_l=4,
    trrd_s=8, trrd_l=10, tfaw=40,
    twr=28, trtp=4, twtr=9, trtw=5,
    cl=25, cwl=8, burst_cycles=4,
    trefi=6650, trfc=490,
)

DRAM_FAMILIES = {
    "HBM2": HBM2_1P2GHZ,
    "DDR4-3200": DDR4_3200,
    "LPDDR4X-4266": LPDDR4_4266,
    "GDDR6-14": GDDR6_14,
}
