"""Trace and metrics exporters.

Three output formats cover the usual consumers:

* **Chrome / Perfetto** (:func:`chrome_trace`, :func:`write_chrome_trace`)
  — the JSON-object flavour of the Trace Event Format.  Complete (``X``)
  events carry spans, instant (``i``) events carry tracer events;
  ``pid`` is the pseudo-channel a span ran on (device work) or the
  serving-layer pseudo-process, ``tid`` is the serving lane.  Load the
  file at ``chrome://tracing`` or https://ui.perfetto.dev.
* **JSONL span log** (:func:`write_span_jsonl`) — one JSON object per
  span/event, flat, for ad-hoc ``jq``/pandas analysis.
* **text** (:func:`render_timeline`) — an ASCII span timeline for
  terminals and ``benchmarks/report.py``.

:func:`validate_chrome_trace` checks an emitted file against the trace
event schema (the subset Chrome actually requires); the end-to-end
gates run it on the trace of the ``python -m repro trace`` workload.
"""

from __future__ import annotations

import json
from typing import Any, Dict, IO, List, Union

from .tracer import Span, TraceEvent, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_span_jsonl",
    "render_timeline",
    "validate_chrome_trace",
]

#: pid used for spans that did not run on any particular pseudo-channel
#: (the serving layer: request / dispatch / host spans).
SERVING_PID = 1000

#: pid base for fabric shards: a shard-tagged item lands in process
#: ``SHARD_PID_BASE + shard`` (named ``shard<N>``), so a merged
#: multi-worker trace shows one Chrome process row per shard.
SHARD_PID_BASE = 2000


def _pid(item: Union[Span, TraceEvent]) -> int:
    if item.shard is not None:
        return SHARD_PID_BASE + item.shard
    return SERVING_PID if item.channel is None else item.channel


def _tid(item: Union[Span, TraceEvent]) -> int:
    return 0 if item.lane is None else item.lane


def chrome_trace(tracer: Tracer) -> Dict[str, Any]:
    """The tracer's content as a Chrome Trace Event Format object.

    Single-process traces keep the historical pid scheme (pseudo-channel
    pid for device spans, ``SERVING_PID`` for the serving layer).  Spans
    a :class:`~repro.stack.fabric.PimFabric` merged from its workers
    carry a ``shard`` tag and land one Chrome process per shard
    (pid = ``SHARD_PID_BASE + shard``, tid = serving lane).
    """
    events: List[Dict[str, Any]] = []
    pids = {SERVING_PID: "serving"}
    for span in tracer.spans:
        if span.shard is not None:
            pids.setdefault(SHARD_PID_BASE + span.shard, f"shard{span.shard}")
        elif span.channel is not None:
            pids.setdefault(span.channel, f"pch{span.channel}")
    for pid in sorted(pids):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": pids[pid]},
            }
        )
    for span in tracer.spans:
        args = {"span_id": span.span_id, "parent_id": span.parent_id}
        args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": span.category or "span",
                "ph": "X",
                "ts": span.start_ns / 1000.0,  # Chrome wants microseconds
                "dur": span.duration_ns / 1000.0,
                "pid": _pid(span),
                "tid": _tid(span),
                "args": args,
            }
        )
    for event in tracer.events:
        args = dict(event.attrs)
        if event.parent_id is not None:
            args["parent_id"] = event.parent_id
        events.append(
            {
                "name": event.name,
                "cat": event.category or "event",
                "ph": "i",
                "ts": event.at_ns / 1000.0,
                "s": "t",  # thread-scoped instant
                "pid": _pid(event),
                "tid": _tid(event),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ns"}


def write_chrome_trace(tracer: Tracer, path: str) -> Dict[str, Any]:
    """Write the Chrome trace JSON to ``path``; returns the object."""
    obj = chrome_trace(tracer)
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return obj


def write_span_jsonl(tracer: Tracer, path_or_file: Union[str, IO]) -> int:
    """Flat JSONL: one object per span, then one per event.

    Returns the number of lines written.
    """
    own = isinstance(path_or_file, str)
    fh = open(path_or_file, "w") if own else path_or_file
    lines = 0
    try:
        for span in tracer.spans:
            fh.write(
                json.dumps(
                    {
                        "type": "span",
                        "span_id": span.span_id,
                        "parent_id": span.parent_id,
                        "name": span.name,
                        "cat": span.category,
                        "start_ns": span.start_ns,
                        "end_ns": span.end_ns,
                        "lane": span.lane,
                        "channel": span.channel,
                        "shard": span.shard,
                        "attrs": span.attrs,
                    }
                )
                + "\n"
            )
            lines += 1
        for event in tracer.events:
            fh.write(
                json.dumps(
                    {
                        "type": "event",
                        "parent_id": event.parent_id,
                        "name": event.name,
                        "cat": event.category,
                        "at_ns": event.at_ns,
                        "lane": event.lane,
                        "channel": event.channel,
                        "shard": event.shard,
                        "attrs": event.attrs,
                    }
                )
                + "\n"
            )
            lines += 1
    finally:
        if own:
            fh.close()
    return lines


# -- Chrome trace-event schema validation -------------------------------------

_REQUIRED_X = ("name", "ph", "ts", "pid", "tid")
_VALID_PH = {"X", "B", "E", "i", "I", "M", "C"}


def validate_chrome_trace(path_or_obj: Union[str, Dict]) -> List[str]:
    """Validate a trace file/object against the Chrome trace-event schema.

    Returns a list of violations (empty = valid).  Checks the structural
    subset chrome://tracing requires: a ``traceEvents`` array whose
    entries carry ``name``/``ph``/``ts``/``pid``/``tid`` with the right
    types, ``X`` events a non-negative ``dur``, instant events a valid
    scope, and args JSON-serialisable objects.
    """
    problems: List[str] = []
    if isinstance(path_or_obj, str):
        try:
            with open(path_or_obj) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as err:
            return [f"unreadable trace file: {err}"]
    else:
        obj = path_or_obj
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a traceEvents array"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents must be an array"]
    if not events:
        problems.append("traceEvents is empty")
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in _VALID_PH:
            problems.append(f"{where}: invalid ph {ph!r}")
            continue
        if ph == "M":
            continue  # metadata events only need name/pid
        for key in _REQUIRED_X:
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: name must be a string")
        for key in ("ts", "dur"):
            if key in event and not isinstance(event[key], (int, float)):
                problems.append(f"{where}: {key} must be a number")
        for key in ("pid", "tid"):
            if key in event and not isinstance(event[key], int):
                problems.append(f"{where}: {key} must be an integer")
        if ph == "X":
            if event.get("dur", 0) < 0:
                problems.append(f"{where}: negative dur")
            if "dur" not in event:
                problems.append(f"{where}: X event missing dur")
        if ph in ("i", "I") and event.get("s", "t") not in ("g", "p", "t"):
            problems.append(f"{where}: invalid instant scope {event.get('s')!r}")
        if "args" in event and not isinstance(event["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems


# -- ASCII rendering ----------------------------------------------------------


def render_timeline(
    tracer: Tracer, width: int = 72, max_spans: int = 40
) -> List[str]:
    """An ASCII span timeline: one bar per span, indented by depth.

    Spans are ordered by start time; each line shows the span's bar on a
    common horizontal time axis plus its name and duration.  ``max_spans``
    bounds the output (deepest-first truncation keeps the request-level
    picture intact).
    """
    spans = sorted(tracer.spans, key=lambda s: (s.start_ns, s.span_id))
    if not spans:
        return ["(no spans recorded)"]
    depth: Dict[int, int] = {}
    for span in tracer.spans:
        depth[span.span_id] = (
            0 if span.parent_id is None else depth.get(span.parent_id, 0) + 1
        )
    if len(spans) > max_spans:
        # Drop the deepest spans first until the budget fits, but never
        # the top level — slice whatever still overflows.
        for level in sorted(set(depth.values()), reverse=True):
            if len(spans) <= max_spans or level == 0:
                break
            spans = [s for s in spans if depth[s.span_id] < level]
        spans = spans[:max_spans]
    t0 = min(s.start_ns for s in spans)
    t1 = max(s.end_ns for s in spans)
    extent = max(t1 - t0, 1e-9)
    label_width = max(len(_timeline_label(s, depth)) for s in spans)
    lines = [
        f"  span timeline ({(t1 - t0) / 1000.0:.1f} us total, "
        f"{len(tracer.spans)} spans, showing {len(spans)})"
    ]
    for span in spans:
        left = int((span.start_ns - t0) / extent * (width - 1))
        length = max(1, int(span.duration_ns / extent * width))
        length = min(length, width - left)
        bar = " " * left + "#" * length
        label = _timeline_label(span, depth)
        lines.append(
            f"  {label:<{label_width}s} |{bar:<{width}s}| "
            f"{span.duration_ns / 1000.0:8.1f}us"
        )
    return lines


def _timeline_label(span: Span, depth: Dict[int, int]) -> str:
    prefix = "  " * depth.get(span.span_id, 0)
    where = ""
    if span.channel is not None:
        where = f"@pch{span.channel}"
    elif span.lane is not None:
        where = f"@lane{span.lane}"
    return f"{prefix}{span.name}{where}"

