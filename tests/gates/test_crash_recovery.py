"""The crash gate: SIGKILL a journaling ``serve-bench`` mid-run, recover.

The child is a real ``python -m repro serve-bench --journal DIR``,
killed as soon as the journal on disk holds an admitted request — the
instant recovery must handle: requests admitted, outcomes missing,
possibly a torn record at the tail.
"""

import os
import subprocess
import sys
import time

import numpy as np

from repro.errors import PimJournalError
from repro.journal import JournalWriter, read_records, recover
from repro.obs import diff_span_trees


def accepted_on_disk(journal):
    """Admitted requests in every WAL under ``journal`` so far."""
    total = 0
    for name in os.listdir(journal) if os.path.isdir(journal) else ():
        try:
            records = read_records(os.path.join(journal, name))
        except PimJournalError:  # a frame mid-write
            continue
        total += sum(1 for r in records if r["kind"] == "accepted")
    return total


def without_outcomes(wal, into):
    """A copy of ``wal`` with every outcome dropped: its stream replayed
    from scratch stands for a run that was never interrupted."""
    with JournalWriter(into) as writer:
        for record in read_records(wal):
            if record["kind"] != "outcome":
                writer.append(record)
    return into


def test_a_sigkilled_serve_bench_recovers_like_an_uninterrupted_run(tmp_path):
    """For every WAL the child left: recovery terminates each journaled
    request, with the outcome and result bytes of a full replay of the
    same stream; two full replays agree on profile and span tree; and
    the kill left work to replay.
    Fails when ``JournalWriter.append`` leaves frames in the file buffer
    (drop ``self._file.flush()`` and open the segment with a 16 MiB
    buffer): the killed session's admissions never reach the disk."""
    journal = str(tmp_path / "journal")
    child = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve-bench",
         "--journal", journal, "--seed", "7"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not accepted_on_disk(journal):
            assert child.poll() is None, "serve-bench exited unjournaled"
            assert time.monotonic() < deadline
            time.sleep(0.01)
    finally:
        child.kill()  # SIGKILL: no atexit, no journal close
        child.wait()

    replayed = 0
    for name in sorted(os.listdir(journal)):
        wal = os.path.join(journal, name)
        report = recover(wal)
        if not report.handles:  # killed before this session admitted any
            continue
        replayed += report.replayed
        assert all(h.outcome is not None for h in report.handles)
        traced = report.config.replace(trace=True)
        full_a, full_b = (
            recover(without_outcomes(wal, str(tmp_path / f"{name}-{run}")), config=traced)
            for run in "ab"
        )
        uninterrupted = {h.request.trace_id: h for h in full_a.handles}
        for handle in report.handles:
            other = uninterrupted[handle.request.trace_id]
            assert handle.outcome == other.outcome
            assert np.array_equal(handle.result, other.result)
        assert full_a.replay_profile.render() == full_b.replay_profile.render()
        assert diff_span_trees(full_a.tracer, full_b.tracer) is None
    assert replayed > 0
