"""CRC32-framed, segment-rotated write-ahead log for the serving stack.

Record format — one frame per record, appended to the newest segment::

    +----------------+----------------+----------------------+
    | u32 length (LE)| u32 crc32 (LE) | pickled record bytes |
    +----------------+----------------+----------------------+

``length`` is the payload byte count and ``crc32`` covers exactly those
bytes, so a reader can always tell a torn tail write (the crash model:
the process died mid-``write``) from a complete record.  Segments are
named ``wal-00000001.seg``, ``wal-00000002.seg``, ... and rotate once
the current one crosses ``segment_bytes``, keeping any single file small
enough to scan cheaply and letting retention policies drop whole
prefixes.

Torn-tail tolerance is the load-bearing property: a bad frame (short
header, short payload, CRC mismatch) at the tail of the *newest* segment
ends the scan silently — that is the expected wreckage of a SIGKILL.
The same damage anywhere else means the journal cannot be trusted and
raises :class:`~repro.errors.PimJournalError` instead of quietly
dropping acknowledged records.

Two record kinds matter to recovery (see :mod:`repro.journal.recovery`):

* ``{"kind": "accepted", "rid", "trace_id", "request"}`` — appended at
  admission, before the request is placed, with the frozen
  :class:`~repro.stack.api.Request` itself.  (Journals written before
  carry a ``digest`` too, a sha1 of the pickled request that recovery
  never read; they recover alike.)
* ``{"kind": "outcome", "rid", "trace_id", "outcome", "shard",
  "result"}`` — appended when the request reaches a terminal outcome;
  carries the result bytes so recovery can restore terminal requests
  bit-exactly without re-executing them.

A ``{"kind": "meta", ...}`` record written at journal open carries the
session's ``SystemConfig``/``ServerConfig`` so ``recover(journal_dir)``
can rebuild a matching fabric without extra arguments.
"""

from __future__ import annotations

import os
import pickle
import struct
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..errors import PimJournalError
import zlib

__all__ = [
    "DEFAULT_SEGMENT_BYTES",
    "JournalWriter",
    "iter_records",
    "list_segments",
    "read_records",
    "segment_path",
]

_HEADER = struct.Struct("<II")

#: Rotation threshold: a segment that has crossed this many bytes is
#: closed and the next append opens a fresh one.  Small enough that a
#: torn tail never risks more than ~1 MiB of scan, large enough that a
#: serve-bench run stays in a handful of files.
DEFAULT_SEGMENT_BYTES = 1 << 20

_PREFIX = "wal-"
_SUFFIX = ".seg"


def segment_path(journal_dir: str, index: int) -> str:
    """Path of segment ``index`` (1-based) under ``journal_dir``."""
    return os.path.join(journal_dir, f"{_PREFIX}{index:08d}{_SUFFIX}")


def list_segments(journal_dir: str) -> List[str]:
    """Existing segment paths under ``journal_dir``, in append order."""
    try:
        names = os.listdir(journal_dir)
    except FileNotFoundError:
        return []
    except OSError as exc:
        raise PimJournalError(f"cannot list journal {journal_dir!r}: {exc}")
    return [
        os.path.join(journal_dir, name)
        for name in sorted(names)
        if name.startswith(_PREFIX) and name.endswith(_SUFFIX)
    ]


class JournalWriter:
    """Appends framed records to the newest segment of a journal.

    ``sync=True`` makes every append flush *and* fsync before returning
    (``ServerConfig.journal_sync``) — durable against machine death, not
    just process death, at the cost of one fsync per record.  The writer
    continues an existing journal (new appends land after its last intact
    frame), so recovery can append its own outcome records to the same
    directory and make a second ``recover()`` a no-op.
    """

    def __init__(
        self,
        journal_dir: str,
        *,
        sync: bool = False,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ):
        self.journal_dir = journal_dir
        self.sync = bool(sync)
        self.segment_bytes = int(segment_bytes)
        if self.segment_bytes < len(_HEADER.pack(0, 0)) + 1:
            raise PimJournalError(
                f"segment_bytes={segment_bytes} cannot hold a single frame"
            )
        try:
            os.makedirs(journal_dir, exist_ok=True)
        except OSError as exc:
            raise PimJournalError(
                f"cannot create journal directory {journal_dir!r}: {exc}"
            )
        existing = list_segments(journal_dir)
        intact = 0
        if existing:
            self._index = int(os.path.basename(existing[-1])[len(_PREFIX):-len(_SUFFIX)])
            path = existing[-1]
            # Appended after, a torn tail would be mid-journal: cut it off.
            intact = max((end for _, end in _iter_segment(path, final=True)), default=0)
        else:
            self._index = 1
            path = segment_path(journal_dir, self._index)
        try:
            self._file = open(path, "ab")
            self._file.truncate(intact)
        except OSError as exc:
            raise PimJournalError(f"cannot open segment {path!r}: {exc}")
        self._size = intact
        self.appended = 0

    def append(self, record: Dict[str, Any]) -> None:
        """Frame and append one record; honours rotation and ``sync``."""
        if self._file is None:
            raise PimJournalError("journal writer is closed")
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        frame = _HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        if self._size > 0 and self._size + len(frame) > self.segment_bytes:
            self._rotate()
        try:
            self._file.write(frame)
            self._file.flush()
            if self.sync:
                os.fsync(self._file.fileno())
        except OSError as exc:
            raise PimJournalError(
                f"append to journal {self.journal_dir!r} failed: {exc}"
            )
        self._size += len(frame)
        self.appended += 1

    def _rotate(self) -> None:
        self._file.close()
        self._index += 1
        path = segment_path(self.journal_dir, self._index)
        try:
            self._file = open(path, "ab")
        except OSError as exc:
            raise PimJournalError(f"cannot open segment {path!r}: {exc}")
        self._size = self._file.tell()

    # -- record constructors ----------------------------------------------------

    def append_meta(self, system_config: Any, server_config: Any) -> None:
        """Record the session's configs so ``recover()`` needs no args."""
        self.append(
            {
                "kind": "meta",
                "system_config": system_config,
                "server_config": server_config,
            }
        )

    def append_accepted(self, rid: int, request: Any) -> None:
        """Record one admission, before placement."""
        self.append(
            {
                "kind": "accepted",
                "rid": int(rid),
                "trace_id": getattr(request, "trace_id", None),
                "request": request,
            }
        )

    def append_outcome(
        self,
        rid: int,
        trace_id: Optional[str],
        outcome: str,
        shard: int,
        result: Any,
    ) -> None:
        """Record one terminal outcome, result bytes included."""
        self.append(
            {
                "kind": "outcome",
                "rid": int(rid),
                "trace_id": trace_id,
                "outcome": str(outcome),
                "shard": int(shard),
                "result": result,
            }
        )

    def close(self) -> None:
        """Flush and close the current segment. Idempotent."""
        if self._file is not None:
            try:
                self._file.flush()
                if self.sync:
                    os.fsync(self._file.fileno())
            except OSError:
                pass
            self._file.close()
            self._file = None

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _iter_segment(path: str, final: bool) -> Iterator[Tuple[Dict[str, Any], int]]:
    """Yield each record of one segment with the offset its frame ends at.

    ``final`` marks the newest segment: damage at its tail is the
    expected crash wreckage and ends the scan; damage anywhere else
    raises :class:`~repro.errors.PimJournalError`.
    """
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise PimJournalError(f"cannot read segment {path!r}: {exc}")
    offset = 0
    header = _HEADER.size
    while offset < len(data):
        torn = f"torn record at {os.path.basename(path)}+{offset}"
        if offset + header > len(data):
            if final:
                return
            raise PimJournalError(f"{torn}: truncated header mid-journal")
        length, crc = _HEADER.unpack_from(data, offset)
        payload = data[offset + header : offset + header + length]
        if len(payload) < length:
            if final:
                return
            raise PimJournalError(f"{torn}: truncated payload mid-journal")
        if zlib.crc32(payload) != crc:
            if final and offset + header + length == len(data):
                return
            raise PimJournalError(f"{torn}: CRC32 mismatch mid-journal")
        try:
            record = pickle.loads(payload)
        except Exception as exc:
            if final and offset + header + length == len(data):
                return
            raise PimJournalError(f"{torn}: unpicklable record ({exc})")
        offset += header + length
        yield record, offset


def iter_records(journal_dir: str) -> Iterator[Dict[str, Any]]:
    """Yield every intact record of a journal, in append order.

    Torn-tail tolerant (see :func:`_iter_segment`); an empty or missing
    directory yields nothing.
    """
    segments = list_segments(journal_dir)
    for i, path in enumerate(segments):
        for record, _ in _iter_segment(path, final=(i == len(segments) - 1)):
            yield record


def read_records(journal_dir: str) -> List[Dict[str, Any]]:
    """Every intact record of a journal, in append order, as a list."""
    return list(iter_records(journal_dir))
