"""Observability: hierarchical tracing + metrics for the simulated stack.

See ``docs/ARCHITECTURE.md`` (Observability) for the span hierarchy and
``docs/API.md`` for the knobs.  Everything here is pure bookkeeping on
the simulated clock — no wall-clock timestamps anywhere.
"""

from .tracer import Span, TraceEvent, Tracer, span_children, span_roots
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    DEFAULT_BUCKETS_NS,
)
from .export import (
    chrome_trace,
    write_chrome_trace,
    write_span_jsonl,
    render_timeline,
    validate_chrome_trace,
)

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "span_children",
    "span_roots",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS_NS",
    "chrome_trace",
    "write_chrome_trace",
    "write_span_jsonl",
    "render_timeline",
    "validate_chrome_trace",
]
