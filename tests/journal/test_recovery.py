"""Crash-consistent recovery: restore, replay, dedupe, and tagging.

Journals are produced the way production produces them — a journaling
:class:`~repro.stack.server.PimServer` session — then recovered with
:func:`repro.journal.recover`.  A "crash" is a session that accepted
requests but never ran (the server closed with the WAL holding accepted
records and no outcomes), which is exactly the state a SIGKILLed router
leaves behind.
"""

import hashlib
import pickle
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.invariants import golden_reference
from repro.errors import PimJournalError
from repro.journal import JournalWriter, read_records, recover
from repro.journal.wal import list_segments, segment_path
from repro.stack import (
    PimServer,
    PimSystem,
    Request,
    ServerConfig,
    SystemConfig,
)

from .test_wal import frame_starts

WORKERS = 2


def _config(trace=False):
    return SystemConfig(
        num_pchs=2, num_rows=256, simulate_pchs=1, trace=trace
    )


def _requests(count=4):
    rng = np.random.default_rng(5)
    weights = (rng.standard_normal((16, 8)) * 0.25).astype(np.float16)
    return [
        Request(
            "gemv",
            weights=weights,
            a=(rng.standard_normal(8) * 0.25).astype(np.float16),
            arrival_ns=float(i) * 1000.0,
            trace_id=f"req-{i}",
        )
        for i in range(count)
    ]


def _session(journal_dir, requests, crash, trace=False):
    """One journaling server session; ``crash=True`` closes before run()."""
    config = _config(trace=trace)
    system = PimSystem(config)
    server_config = ServerConfig(
        lanes=2, max_batch=8, journal_dir=str(journal_dir)
    )
    handles = []
    with PimServer(system, server_config) as server:
        for request in requests:
            handles.append(server.submit(request))
        if not crash:
            server.run()
    return handles


class TestRestore:
    def test_completed_session_restores_without_replay(self, tmp_path):
        requests = _requests()
        originals = _session(tmp_path, requests, crash=False)
        report = recover(str(tmp_path), workers=WORKERS)
        assert report.replayed == 0
        assert report.restored == len(requests)
        by_rid = {h.request_id: h for h in report.handles}
        for original in originals:
            restored = by_rid[original.request_id]
            assert restored.outcome == original.outcome.value
            assert np.array_equal(restored.result, original.result)

    def test_restored_entries_are_tagged_and_excluded_from_goodput(
        self, tmp_path
    ):
        _session(tmp_path, _requests(), crash=False)
        report = recover(str(tmp_path), workers=WORKERS)
        assert report.profile.recovered == len(report.handles)
        assert all(stats.recovered for stats in report.profile.requests)
        assert report.profile.goodput_rps() == 0.0
        assert "recovered (journal)" in "\n".join(report.profile.render())


class TestReplay:
    def test_crashed_session_replays_bit_exactly(self, tmp_path):
        requests = _requests()
        _session(tmp_path, requests, crash=True)
        report = recover(str(tmp_path), workers=WORKERS)
        assert report.replayed == len(requests)
        assert report.restored == 0
        config = _config()
        for handle in report.handles:
            assert handle.outcome == "completed"
            golden = golden_reference(handle.request, config.num_pchs)
            assert np.array_equal(handle.result, golden)

    def test_recovery_is_idempotent(self, tmp_path):
        requests = _requests()
        _session(tmp_path, requests, crash=True)
        first = recover(str(tmp_path), workers=WORKERS)
        second = recover(str(tmp_path), workers=WORKERS)
        assert first.replayed == len(requests)
        assert second.replayed == 0
        assert second.restored == len(requests)
        for a, b in zip(first.handles, second.handles):
            assert a.request_id == b.request_id
            assert a.outcome == b.outcome
            assert np.array_equal(a.result, b.result)

    def test_replay_spans_are_tagged_recovered(self, tmp_path):
        _session(tmp_path, _requests(), crash=True, trace=True)
        report = recover(str(tmp_path), workers=WORKERS)
        assert report.tracer is not None
        assert report.tracer.spans
        assert all(
            span.attrs.get("recovered") is True
            for span in report.tracer.spans
        )

    def test_replay_profile_excludes_restored_entries(self, tmp_path):
        requests = _requests()
        _session(tmp_path, requests, crash=True)
        report = recover(str(tmp_path), workers=WORKERS)
        assert len(report.replay_profile.requests) == len(requests)
        assert report.replay_profile.recovered == len(requests)


class TestOlderJournals:
    def test_accepted_records_with_a_digest_still_recover(self, tmp_path):
        """A journal written while the accepted record also carried
        ``digest`` — a sha1 of the pickled request, which recovery never
        read — recovers alike: the request with a journaled outcome is
        restored, the rest are replayed, all bit-exact."""
        requests = _requests()
        num_pchs = _config().num_pchs
        with JournalWriter(str(tmp_path)) as writer:
            writer.append_meta(_config(), ServerConfig(lanes=2, max_batch=8))
            for rid, request in enumerate(requests):
                blob = pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
                writer.append({
                    "kind": "accepted", "rid": rid, "trace_id": request.trace_id,
                    "digest": hashlib.sha1(blob).hexdigest(), "request": request,
                })
            writer.append_outcome(
                0, requests[0].trace_id, "completed", 0,
                golden_reference(requests[0], num_pchs),
            )
        report = recover(str(tmp_path), workers=WORKERS)
        assert (report.restored, report.replayed) == (1, len(requests) - 1)
        for handle in report.handles:
            assert handle.outcome == "completed"
            want = golden_reference(requests[handle.request_id], num_pchs)
            assert np.array_equal(handle.result, want)


class TestDedupe:
    def test_duplicate_trace_id_admissions_collapse(self, tmp_path):
        request = _requests(1)[0]
        with JournalWriter(str(tmp_path)) as writer:
            writer.append_meta(_config(), ServerConfig(lanes=2, max_batch=8))
            writer.append_accepted(0, request)
            writer.append_accepted(1, request)  # client resubmitted
            writer.append_outcome(
                1, request.trace_id, "completed", 0,
                np.ones(4, dtype=np.float16),
            )
        report = recover(str(tmp_path), workers=WORKERS)
        assert report.deduped == 1
        assert len(report.handles) == 1
        handle = report.handles[0]
        # First admission is canonical, but the duplicate's journaled
        # outcome still terminates it.
        assert handle.request_id == 0
        assert handle.outcome == "completed"
        assert report.replayed == 0

    def test_requests_without_trace_id_never_dedupe(self, tmp_path):
        request = _requests(1)[0].replace(trace_id=None)
        with JournalWriter(str(tmp_path)) as writer:
            writer.append_meta(_config(), ServerConfig(lanes=2, max_batch=8))
            writer.append_accepted(0, request)
            writer.append_accepted(1, request)
            for rid in (0, 1):
                writer.append_outcome(
                    rid, None, "completed", 0, np.ones(4, dtype=np.float16)
                )
        report = recover(str(tmp_path), workers=WORKERS)
        assert report.deduped == 0
        assert len(report.handles) == 2


class TestScanErrors:
    def test_unknown_record_kind_raises(self, tmp_path):
        with JournalWriter(str(tmp_path)) as writer:
            writer.append({"kind": "bogus"})
        with pytest.raises(PimJournalError):
            recover(str(tmp_path), workers=WORKERS)

    def test_missing_directory_raises_naming_it(self, tmp_path):
        missing = tmp_path / "never-journaled"
        with pytest.raises(PimJournalError, match="never-journaled"):
            recover(str(missing), workers=WORKERS)
        assert not missing.exists()

    def test_report_renders(self, tmp_path):
        _session(tmp_path, _requests(2), crash=False)
        report = recover(str(tmp_path), workers=WORKERS)
        text = "\n".join(report.render())
        assert "records scanned" in text
        assert "outcome completed" in text
        assert report.trace_rids["req-0"] == 0

    def test_recovery_appends_outcomes_under_original_rids(self, tmp_path):
        requests = _requests(3)
        _session(tmp_path, requests, crash=True)
        recover(str(tmp_path), workers=WORKERS)
        outcomes = [
            r for r in read_records(str(tmp_path)) if r["kind"] == "outcome"
        ]
        assert sorted(r["rid"] for r in outcomes) == [0, 1, 2]


@pytest.fixture(scope="module")
def served_segment(tmp_path_factory):
    """The one segment of a served three-request session, as bytes."""
    journal_dir = tmp_path_factory.mktemp("served")
    _session(journal_dir, _requests(3), crash=False)
    (segment,) = list_segments(str(journal_dir))
    with open(segment, "rb") as handle:
        return handle.read()


@given(tear=st.integers(min_value=0, max_value=10**6))
@settings(max_examples=10, deadline=None)
def test_recovering_a_torn_outcome_twice(served_segment, tear):
    """The last outcome record torn at any byte: recovery replays its
    request and journals the outcome after the last intact frame, so a
    second recovery restores everything, replays nothing and appends
    nothing."""
    data = served_segment
    last = frame_starts(data)[-1]
    cut = last + 1 + tear % (len(data) - last - 1)
    journal_dir = tempfile.mkdtemp(prefix="repro-torn-")
    try:
        with open(segment_path(journal_dir, 1), "wb") as handle:
            handle.write(data[:cut])
        first = recover(journal_dir, workers=WORKERS)
        records = len(read_records(journal_dir))
        second = recover(journal_dir, workers=WORKERS)
        assert (first.replayed, first.restored) == (1, 2)
        assert (second.replayed, second.restored) == (0, 3)
        assert len(read_records(journal_dir)) == records
        for a, b in zip(first.handles, second.handles):
            assert (a.request_id, a.outcome) == (b.request_id, b.outcome)
            assert np.array_equal(a.result, b.result)
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)
