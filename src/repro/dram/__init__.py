"""HBM2 DRAM functional and timing simulator (the baseline substrate).

Exposes the pieces a user composes: timing parameters, banks,
pseudo-channels, devices, and the JEDEC-compliant memory controller.
"""

from .bank import Bank, BankConfig, BankState, TimingViolation
from .commands import Command, CommandType
from .controller import (
    MemOp,
    MemoryController,
    Request,
    ScheduleResult,
    SchedulerPolicy,
)
from .device import DeviceConfig, HbmDevice, PCHS_PER_DEVICE
from .ecc import EccBank, EccStats, UncorrectableError, peek_block, poke_block
from .pseudochannel import BANK_GROUPS, BANKS_PER_GROUP, BANKS_PER_PCH, PseudoChannel
from .timing import (
    DDR4_3200,
    DRAM_FAMILIES,
    GDDR6_14,
    HBM2_1GHZ,
    HBM2_1P2GHZ,
    LPDDR4_4266,
    TimingParams,
)

__all__ = [
    "Bank",
    "BankConfig",
    "BankState",
    "TimingViolation",
    "Command",
    "CommandType",
    "MemOp",
    "MemoryController",
    "Request",
    "ScheduleResult",
    "SchedulerPolicy",
    "DeviceConfig",
    "HbmDevice",
    "PCHS_PER_DEVICE",
    "EccBank",
    "EccStats",
    "UncorrectableError",
    "peek_block",
    "poke_block",
    "BANK_GROUPS",
    "BANKS_PER_GROUP",
    "BANKS_PER_PCH",
    "PseudoChannel",
    "HBM2_1GHZ",
    "HBM2_1P2GHZ",
    "DDR4_3200",
    "LPDDR4_4266",
    "GDDR6_14",
    "DRAM_FAMILIES",
    "TimingParams",
]
