"""Durability layer: write-ahead request journal and crash recovery.

The journal records every accepted :class:`~repro.stack.api.Request` and
every terminal outcome in a CRC32-framed, segment-rotated write-ahead
log (:mod:`repro.journal.wal`), and :func:`repro.journal.recovery.recover`
turns a journal directory left behind by a killed router back into
exactly one bit-exact terminal outcome per journaled request.
"""

from .wal import (
    DEFAULT_SEGMENT_BYTES,
    JournalWriter,
    iter_records,
    list_segments,
    read_records,
)
from .recovery import RecoveryReport, recover

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "JournalWriter",
    "RecoveryReport",
    "iter_records",
    "list_segments",
    "read_records",
    "recover",
]
