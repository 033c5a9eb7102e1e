"""Exporter tests: Chrome trace, JSONL, timeline, validator, tree diff."""

import json

import pytest

from repro.obs import (
    Tracer,
    chrome_trace,
    render_timeline,
    validate_chrome_trace,
    write_chrome_trace,
    write_span_jsonl,
)
from repro.obs.export import SERVING_PID

from ..reference.span_trees import diff_span_trees, span_tree_lines


def small_trace():
    tracer = Tracer()
    request = tracer.begin("request:gemv", category="request", lane=0)
    kernel = tracer.begin("kernel:gemv", category="kernel", lane=0)
    tracer.record("drain", 10.0, 40.0, category="device", channel=2)
    tracer.event("retry", at_ns=15.0, category="retry", lane=0)
    tracer.finish(kernel, 5.0, 45.0)
    tracer.finish(request, 0.0, 50.0, outcome="completed")
    return tracer


class TestChromeTrace:
    def test_structure(self):
        obj = chrome_trace(small_trace())
        assert obj["displayTimeUnit"] == "ns"
        events = obj["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        # One process per pid: the serving layer plus pch2.
        assert {e["args"]["name"] for e in meta} == {"serving", "pch2"}
        assert len(spans) == 3 and len(instants) == 1

    def test_pid_tid_mapping(self):
        obj = chrome_trace(small_trace())
        by_name = {e["name"]: e for e in obj["traceEvents"] if e["ph"] == "X"}
        assert by_name["drain"]["pid"] == 2  # device span -> channel pid
        assert by_name["request:gemv"]["pid"] == SERVING_PID
        assert by_name["request:gemv"]["tid"] == 0  # lane

    def test_timestamps_in_microseconds(self):
        obj = chrome_trace(small_trace())
        drain = next(
            e for e in obj["traceEvents"] if e["name"] == "drain"
        )
        assert drain["ts"] == pytest.approx(0.010)
        assert drain["dur"] == pytest.approx(0.030)

    def test_args_carry_span_identity_and_attrs(self):
        obj = chrome_trace(small_trace())
        request = next(
            e for e in obj["traceEvents"] if e["name"] == "request:gemv"
        )
        assert request["args"]["outcome"] == "completed"
        assert request["args"]["parent_id"] is None

    def test_write_round_trips_and_validates(self, tmp_path):
        path = str(tmp_path / "trace.json")
        written = write_chrome_trace(small_trace(), path)
        with open(path) as fh:
            assert json.load(fh) == written
        assert validate_chrome_trace(path) == []


class TestJsonl:
    def test_one_line_per_span_and_event(self, tmp_path):
        tracer = small_trace()
        path = str(tmp_path / "spans.jsonl")
        lines = write_span_jsonl(tracer, path)
        assert lines == len(tracer.spans) + len(tracer.events)
        rows = [json.loads(l) for l in open(path)]
        assert sum(1 for r in rows if r["type"] == "span") == 3
        assert rows[-1]["type"] == "event" and rows[-1]["name"] == "retry"


class TestValidator:
    def test_flags_structural_problems(self):
        assert validate_chrome_trace({"nope": 1})
        assert validate_chrome_trace({"traceEvents": {}})
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []}
        )[0]

    def test_flags_bad_events(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "Q", "ts": 0, "pid": 0, "tid": 0},
                {"name": "b", "ph": "X", "ts": 0, "pid": 0, "tid": 0},
                {"name": "c", "ph": "X", "ts": 0, "dur": -1, "pid": 0,
                 "tid": 0},
                {"name": "d", "ph": "i", "ts": 0, "pid": 0, "tid": 0,
                 "s": "z"},
                {"name": "e", "ph": "X", "ts": 0, "dur": 1, "pid": 0,
                 "tid": 0, "args": 7},
            ]
        }
        problems = "\n".join(validate_chrome_trace(bad))
        assert "invalid ph" in problems
        assert "missing dur" in problems
        assert "negative dur" in problems
        assert "invalid instant scope" in problems
        assert "args must be an object" in problems

    def test_unreadable_file(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert "unreadable" in validate_chrome_trace(missing)[0]


class TestTimeline:
    def test_renders_bars_with_depth_indent(self):
        lines = render_timeline(small_trace())
        assert "3 spans" in lines[0]
        assert any("request:gemv@lane0" in l for l in lines)
        assert any("    drain@pch2" in l for l in lines)

    def test_truncation_never_drops_top_level(self):
        tracer = Tracer()
        for i in range(12):
            request = tracer.begin(f"request:{i}", category="request")
            tracer.record("drain", i, i + 1, category="device", channel=0)
            tracer.finish(request, i, i + 1)
        lines = render_timeline(tracer, max_spans=10)
        shown = [l for l in lines[1:] if "|" in l]
        assert len(shown) == 10
        assert all("request:" in l for l in shown)

    def test_empty_tracer(self):
        assert render_timeline(Tracer()) == ["(no spans recorded)"]


class TestTreeDiff:
    def test_identical_trees_diff_clean(self):
        assert diff_span_trees(small_trace(), small_trace()) is None

    def test_first_divergence_reported_with_path(self):
        a, b = small_trace(), small_trace()
        b.spans[0].end_ns += 1.0  # the drain leaf (recorded first)
        diverged = diff_span_trees(a, b)
        assert diverged is not None
        assert "drain" in diverged

    def test_missing_subtree_reported(self):
        a, b = small_trace(), Tracer()
        b_root = b.begin("request:gemv", category="request", lane=0)
        b.finish(b_root, 0.0, 50.0)
        diverged = diff_span_trees(a, b)
        assert diverged is not None

    def test_tree_lines_indent_by_depth(self):
        lines = span_tree_lines(small_trace())
        assert lines[0].startswith("request:gemv[request]")
        assert lines[1].startswith("  kernel:gemv[kernel]")
        assert lines[2].startswith("    drain[device] pch2")
