"""WAL framing: append/scan round trips, rotation, and the torn-tail rule.

The hypothesis property is the satellite acceptance check: append N
records, crash at *any* byte offset (emulated by truncating the final
segment), and recovery loses only the record the crash tore — every
frame wholly below the cut comes back intact and in order.
"""

import os
import pickle
import shutil
import struct
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PimJournalError
from repro.journal.wal import (
    DEFAULT_SEGMENT_BYTES,
    JournalWriter,
    iter_records,
    list_segments,
    read_records,
    request_digest,
    segment_path,
)


def _records(n):
    return [{"kind": "accepted", "rid": i, "blob": bytes([i]) * (i + 1)}
            for i in range(n)]


def _write(journal_dir, records, **kwargs):
    with JournalWriter(str(journal_dir), **kwargs) as writer:
        for record in records:
            writer.append(record)


class TestRoundTrip:
    def test_append_then_read_preserves_records_in_order(self, tmp_path):
        records = _records(5)
        _write(tmp_path, records)
        assert read_records(str(tmp_path)) == records

    def test_reopen_continues_the_last_segment(self, tmp_path):
        _write(tmp_path, _records(3))
        _write(tmp_path, [{"kind": "outcome", "rid": 9}])
        assert len(list_segments(str(tmp_path))) == 1
        scanned = read_records(str(tmp_path))
        assert len(scanned) == 4
        assert scanned[-1] == {"kind": "outcome", "rid": 9}

    def test_rotation_splits_segments_and_scan_spans_them(self, tmp_path):
        records = _records(20)
        _write(tmp_path, records, segment_bytes=256)
        segments = list_segments(str(tmp_path))
        assert len(segments) > 1
        assert segments == sorted(segments)
        assert read_records(str(tmp_path)) == records

    def test_sync_mode_round_trips(self, tmp_path):
        _write(tmp_path, _records(2), sync=True)
        assert read_records(str(tmp_path)) == _records(2)

    def test_missing_directory_scans_empty(self, tmp_path):
        assert read_records(str(tmp_path / "nope")) == []
        assert list_segments(str(tmp_path / "nope")) == []

    def test_request_digest_is_content_addressed(self):
        a = {"op": "gemv", "x": 1}
        assert request_digest(a) == request_digest({"op": "gemv", "x": 1})
        assert request_digest(a) != request_digest({"op": "gemv", "x": 2})

    def test_unwritable_directory_raises_journal_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(PimJournalError):
            JournalWriter(str(blocker / "journal"))


class TestTornTail:
    def test_truncated_final_record_is_dropped_silently(self, tmp_path):
        records = _records(4)
        _write(tmp_path, records)
        path = segment_path(str(tmp_path), 1)
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        assert read_records(str(tmp_path)) == records[:3]

    def test_corrupt_byte_at_exact_tail_is_dropped(self, tmp_path):
        records = _records(3)
        _write(tmp_path, records)
        path = segment_path(str(tmp_path), 1)
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.seek(size - 1)
            byte = handle.read(1)
            handle.seek(size - 1)
            handle.write(bytes([byte[0] ^ 0xFF]))
        assert read_records(str(tmp_path)) == records[:2]

    def test_corruption_before_the_tail_raises(self, tmp_path):
        records = _records(3)
        _write(tmp_path, records)
        path = segment_path(str(tmp_path), 1)
        frame0 = 8 + len(pickle.dumps(records[0], pickle.HIGHEST_PROTOCOL))
        with open(path, "r+b") as handle:
            handle.seek(frame0 + 10)  # inside record 1's frame, not the tail
            byte = handle.read(1)
            handle.seek(frame0 + 10)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(PimJournalError):
            read_records(str(tmp_path))

    def test_damage_in_a_non_final_segment_raises(self, tmp_path):
        _write(tmp_path, _records(20), segment_bytes=256)
        first = list_segments(str(tmp_path))[0]
        with open(first, "r+b") as handle:
            handle.truncate(os.path.getsize(first) - 1)
        with pytest.raises(PimJournalError):
            read_records(str(tmp_path))


@given(
    count=st.integers(min_value=1, max_value=8),
    cut_seed=st.integers(min_value=0, max_value=1_000_000),
)
@settings(max_examples=25, deadline=None)
def test_crash_at_any_byte_offset_loses_only_the_torn_record(count, cut_seed):
    """Property (satellite): truncating the WAL at *any* byte offset
    recovers exactly the records whose frames lie wholly below the cut —
    a torn tail never loses an earlier record and never fabricates one."""
    journal_dir = tempfile.mkdtemp(prefix="repro-wal-prop-")
    try:
        records = _records(count)
        _write(journal_dir, records)
        path = segment_path(journal_dir, 1)
        size = os.path.getsize(path)
        cut = cut_seed % (size + 1)
        with open(path, "r+b") as handle:
            handle.truncate(cut)
        # Frame layout: [u32 length][u32 crc32][payload] per record.
        intact = 0
        offset = 0
        for record in records:
            offset += 8 + len(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
            if offset <= cut:
                intact += 1
        assert read_records(journal_dir) == records[:intact]
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)


def test_iter_records_matches_read_records(tmp_path):
    records = _records(6)
    _write(tmp_path, records, segment_bytes=128)
    assert list(iter_records(str(tmp_path))) == read_records(str(tmp_path))


def frame_starts(data):
    """Offsets of the frames of an intact segment's bytes."""
    starts, offset = [], 0
    while offset < len(data):
        starts.append(offset)
        offset += 8 + struct.unpack_from("<I", data, offset)[0]
    return starts


@given(count=st.integers(min_value=1, max_value=6))
@settings(max_examples=10, deadline=None)
def test_a_reopened_writer_appends_after_the_last_intact_frame(count):
    """Tear the last frame at every byte: a writer opened on the journal
    cuts the torn tail off before it appends, so the journal reads back as
    the intact records plus the new one — appended after the tear, the
    tear would be mid-journal and every later scan would raise."""
    journal_dir = tempfile.mkdtemp(prefix="repro-wal-tear-")
    try:
        records = _records(count)
        _write(journal_dir, records)
        path = segment_path(journal_dir, 1)
        with open(path, "rb") as handle:
            data = handle.read()
        for cut in range(frame_starts(data)[-1] + 1, len(data)):
            with open(path, "wb") as handle:
                handle.write(data[:cut])
            appended = {"kind": "outcome", "rid": cut}
            _write(journal_dir, [appended])
            assert read_records(journal_dir) == records[:-1] + [appended]
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
