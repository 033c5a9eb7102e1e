"""Crash-consistent recovery: journal directory in, terminal outcomes out.

:func:`recover` rebuilds the state a killed router left behind:

1. **Scan** the journal (torn-tail tolerant, see :mod:`.wal`) into
   accepted records and terminal outcome records.
2. **Dedupe** accepted records by ``trace_id`` — the first admission of
   a trace id is canonical, later duplicates (a client that resubmitted
   across the crash) are dropped, so recovery is idempotent.
3. **Restore** every request whose terminal outcome was journaled: the
   outcome record carries the result bytes, so the handle comes back
   bit-exact without re-execution.  Its profile entry is synthesised
   with ``recovered=True`` and ``batch_size=0`` — restored work must
   never inflate goodput.
4. **Replay** every journaled-but-unterminated request through a fresh
   :class:`~repro.stack.fabric.PimFabric` (journaling stripped — the
   recovery session appends its own outcome records under the original
   rids), then remap the fresh rids back to the journaled ones so
   handles and profile entries keep their original identity.

Every profile entry and every span the recovery session produces is
tagged ``recovered=True``; a second ``recover()`` over the same
directory restores everything and replays nothing.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..errors import PimJournalError
from ..stack.api import Request, ServerConfig
from ..stack.fabric import FabricHandle, PimFabric
from ..stack.profiler import RequestStats, ServingProfile
from ..stack.runtime import SystemConfig
from .wal import JournalWriter, read_records

__all__ = ["RecoveryReport", "recover"]


@dataclass
class RecoveryReport:
    """What one :func:`recover` pass found, restored, and replayed."""

    journal_dir: str
    #: One handle per journaled request (post-dedupe), ascending rid;
    #: every one carries a terminal outcome and (when served) a result.
    handles: List[FabricHandle]
    #: Recovery-session profile: synthesised entries for restored
    #: requests plus real entries for replayed ones, all ``recovered``.
    profile: ServingProfile
    #: Tracer of the replay fabric (None when nothing was replayed and
    #: no tracer was supplied); recovery spans carry ``recovered=True``.
    tracer: Optional[Any]
    #: Intact journal records scanned (accepted + outcome + meta).
    records: int
    #: Requests whose terminal outcome was restored from the journal.
    restored: int
    #: Requests replayed through the fresh fabric.
    replayed: int
    #: Duplicate accepted records dropped by trace_id dedupe.
    deduped: int
    #: trace_id -> canonical rid, for callers correlating by trace.
    trace_rids: Dict[str, int] = field(default_factory=dict)
    #: Just the replay-session slice of ``profile`` (no synthesised
    #: restored entries) — what a caller resuming a half-served workload
    #: merges into its own running totals without double counting.
    replay_profile: ServingProfile = field(default_factory=ServingProfile)
    #: The geometry the journaled requests were served under.
    config: SystemConfig = field(default_factory=SystemConfig)
    server_config: ServerConfig = field(default_factory=ServerConfig)

    def outcomes(self) -> Dict[str, int]:
        """Terminal outcome histogram over the recovered handles."""
        counts: Dict[str, int] = {}
        for handle in self.handles:
            counts[handle.outcome] = counts.get(handle.outcome, 0) + 1
        return counts

    def render(self) -> List[str]:
        """Human-readable recovery report, one line per fact."""
        lines = [
            f"recovery of {self.journal_dir}",
            f"  records scanned    : {self.records}",
            f"  requests journaled : {len(self.handles)} "
            f"(+{self.deduped} deduped by trace_id)",
            f"  restored terminal  : {self.restored}",
            f"  replayed           : {self.replayed}",
        ]
        outcomes = self.outcomes()
        for outcome in sorted(outcomes):
            lines.append(f"  outcome {outcome:<12} : {outcomes[outcome]}")
        return lines


def _dedupe_key(rid: int, trace_id: Optional[str]) -> Tuple:
    # Requests without a trace id cannot be correlated across
    # resubmission: each admission stays its own request.
    return ("trace", trace_id) if trace_id else ("rid", rid)


def recover(
    journal_dir: str,
    *,
    config: Optional[SystemConfig] = None,
    server_config: Optional[ServerConfig] = None,
    workers: int = 2,
    tracer: Optional[Any] = None,
    start_method: Optional[str] = None,
    journal_outcomes: bool = True,
) -> RecoveryReport:
    """Recover one journal directory into terminal outcomes.

    ``config``/``server_config`` default to the journal's own ``meta``
    record (every journaling server writes one at open), so the common
    call is just ``recover(journal_dir)``.  ``journal_outcomes=True``
    appends the replayed outcomes back to the same journal under their
    original rids, making a second pass restore-only.  A directory that
    does not exist is a :class:`~repro.errors.PimJournalError`, not an
    empty journal: nothing was recovered from it.
    """
    if not os.path.isdir(journal_dir):
        raise PimJournalError(f"no journal directory at {journal_dir!r}")
    records = read_records(journal_dir)
    meta: Dict[str, Any] = {}
    accepted: List[Dict[str, Any]] = []
    outcome_of: Dict[int, Dict[str, Any]] = {}
    for record in records:
        kind = record.get("kind")
        if kind == "meta":
            meta = record
        elif kind == "accepted":
            accepted.append(record)
        elif kind == "outcome":
            outcome_of[record["rid"]] = record
        else:
            raise PimJournalError(f"unknown journal record kind {kind!r}")

    if config is None:
        config = meta.get("system_config") or SystemConfig()
    if server_config is None:
        server_config = meta.get("server_config") or ServerConfig()
    # The recovery fabric must not journal its own admissions: its rids
    # restart at zero and would collide with the journaled ones.  The
    # outcome records recovery owes the journal are appended below,
    # under the original rids.
    server_config = server_config.replace(
        journal_dir=None, journal_sync=False
    )

    # Dedupe: first admission of a trace id wins; remember every rid a
    # key was admitted under so a duplicate's journaled outcome still
    # terminates the canonical rid.
    canonical: Dict[Tuple, Dict[str, Any]] = {}
    rids_of: Dict[Tuple, List[int]] = {}
    deduped = 0
    for record in accepted:
        key = _dedupe_key(record["rid"], record.get("trace_id"))
        if key in canonical:
            deduped += 1
        else:
            canonical[key] = record
        rids_of.setdefault(key, []).append(record["rid"])

    entries: List[Tuple[Dict[str, Any], Optional[Dict[str, Any]]]] = []
    for key, record in canonical.items():
        terminal = None
        for rid in rids_of[key]:
            if rid in outcome_of:
                terminal = outcome_of[rid]
                break
        entries.append((record, terminal))
    entries.sort(key=lambda pair: pair[0]["rid"])

    profile = ServingProfile()
    replay_profile = ServingProfile()
    handles: List[FabricHandle] = []
    pending: List[Dict[str, Any]] = []
    for record, terminal in entries:
        if terminal is None:
            pending.append(record)
            continue
        request: Request = record["request"]
        handle = FabricHandle(record["rid"], request)
        handle.result = terminal.get("result")
        handle.outcome = terminal["outcome"]
        handle.shard = terminal.get("shard", -1)
        handles.append(handle)
        profile.record(
            RequestStats(
                request_id=record["rid"],
                op=request.op,
                arrival_ns=request.arrival_ns,
                start_ns=request.arrival_ns,
                finish_ns=request.arrival_ns,
                batch_size=0,
                lane=-1,
                shard=handle.shard if handle.shard is not None else -1,
                priority=request.priority,
                outcome=handle.outcome,
                trace_id=request.trace_id,
                recovered=True,
            )
        )

    replay_tracer = tracer
    replayed = 0
    if pending:
        fabric = PimFabric(
            config,
            workers=workers,
            server_config=server_config,
            tracer=tracer,
            start_method=start_method,
        )
        replay_tracer = fabric.tracer
        span_base = len(replay_tracer.spans) if replay_tracer else 0
        event_base = len(replay_tracer.events) if replay_tracer else 0
        try:
            rid_of: Dict[int, int] = {}
            fresh: List[FabricHandle] = []
            for record in pending:
                handle = fabric.submit(record["request"])
                rid_of[handle.request_id] = record["rid"]
                fresh.append(handle)
            replay_profile = fabric.run()
        finally:
            fabric.close()
        for handle in fresh:
            handle.request_id = rid_of[handle.request_id]
            handles.append(handle)
        replayed = len(fresh)
        replay_profile.relabel(rid_of, recovered=True)
        profile.merge(replay_profile)
        if replay_tracer is not None:
            for span in replay_tracer.spans[span_base:]:
                span.attrs["recovered"] = True
            for event in replay_tracer.events[event_base:]:
                event.attrs["recovered"] = True
        if journal_outcomes:
            with JournalWriter(journal_dir) as writer:
                for handle in sorted(fresh, key=lambda h: h.request_id):
                    writer.append_outcome(
                        handle.request_id,
                        handle.request.trace_id,
                        handle.outcome,
                        -1 if handle.shard is None else handle.shard,
                        handle.result,
                    )

    handles.sort(key=lambda h: h.request_id)
    trace_rids = {
        h.request.trace_id: h.request_id
        for h in handles
        if h.request.trace_id
    }
    return RecoveryReport(
        journal_dir=journal_dir,
        handles=handles,
        profile=profile,
        tracer=replay_tracer,
        records=len(records),
        restored=len(handles) - replayed,
        replayed=replayed,
        deduped=deduped,
        trace_rids=trace_rids,
        replay_profile=replay_profile,
        config=config,
        server_config=server_config,
    )
