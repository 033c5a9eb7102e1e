"""Span trees as text, and the first place two of them part.

The determinism and replay tests compare two tracers' span trees
structurally: :func:`diff_span_trees` walks both in tree order and names
the first span whose name, category, lane, channel or interval (to
1e-3 ns) differs, or that only one tree has; :func:`span_tree_lines`
renders one tree as indented text.
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs import Span, Tracer, span_children


def span_tree_lines(tracer: Tracer) -> List[str]:
    """The span tree as indented text (names, intervals, placement)."""
    children = span_children(tracer.spans)
    lines: List[str] = []

    def walk(parent_id: Optional[int], indent: int) -> None:
        for span in children.get(parent_id, []):
            where = (
                f" pch{span.channel}" if span.channel is not None
                else f" lane{span.lane}" if span.lane is not None
                else ""
            )
            lines.append(
                f"{'  ' * indent}{span.name}[{span.category}]{where} "
                f"{span.start_ns:.1f}..{span.end_ns:.1f}"
            )
            walk(span.span_id, indent + 1)

    walk(None, 0)
    return lines


def _tree_key(span: Span):
    return (
        span.name,
        span.category,
        span.lane,
        span.channel,
        round(span.start_ns, 3),
        round(span.end_ns, 3),
    )


def diff_span_trees(a: Tracer, b: Tracer) -> Optional[str]:
    """First divergence between two tracers' span trees (None if equal).

    Compares the trees structurally — name, category, lane, channel, and
    interval (to 1e-3 ns) of every span, in tree order — which is what
    the determinism regression asserts: two identically-seeded runs must
    produce byte-identical trace trees.
    """
    children_a = span_children(a.spans)
    children_b = span_children(b.spans)

    def walk(pa: Optional[int], pb: Optional[int], path: str) -> Optional[str]:
        kids_a = children_a.get(pa, [])
        kids_b = children_b.get(pb, [])
        for i in range(max(len(kids_a), len(kids_b))):
            here = f"{path}/{i}"
            if i >= len(kids_a):
                return f"{here}: only in second trace: {_tree_key(kids_b[i])}"
            if i >= len(kids_b):
                return f"{here}: only in first trace: {_tree_key(kids_a[i])}"
            ka, kb = _tree_key(kids_a[i]), _tree_key(kids_b[i])
            if ka != kb:
                return f"{here}: {ka} != {kb}"
            deeper = walk(kids_a[i].span_id, kids_b[i].span_id, here)
            if deeper is not None:
                return deeper
        return None

    return walk(None, None, "")
