"""Span recorder of the traced pass: names, parent links, self time.

The benchmark wraps each call into a layer of ``repro`` in a span from
*outside* the program (spans inside ``src/`` are a later change).  Spans
stay in memory and are written to ``out/trace-<workload>.json`` when the
child exits; ``run.py --report`` prints the per-layer table from such a
file without re-running anything.

A span is a plain dict ``{id, name, parent, op, start, end}``: ``parent``
is the id of the span that caused it (``None`` for a root) and ``op`` is
shared by every span of one benchmark operation.  A span's **self time**
is its duration minus the part of its interval that its direct children
cover (overlapping children are counted once).
"""

from __future__ import annotations

import contextlib
import statistics
import time

__all__ = ["Tracer", "self_times", "layer_table", "format_table"]


class Tracer:
    """In-memory span list with a parent stack for synchronous code.

    Concurrent (asyncio) callers interleave, so a stack cannot name their
    parent: they pass ``parent=`` to :meth:`begin` themselves.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def begin(self, name: str, parent: int | None = None,
              op: int | None = None) -> int:
        """Open a span and return its id (pair with :meth:`end`)."""

        if op is None and parent is not None:
            op = self.spans[parent]["op"]
        span = {"id": len(self.spans), "name": name, "parent": parent,
                "op": op, "start": 0.0, "end": 0.0}
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span["id"]

    def end(self, span_id: int) -> float:
        """Close a span; returns its duration in seconds."""

        now = time.perf_counter()
        span = self.spans[span_id]
        span["end"] = now
        return now - span["start"]

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        """Span around a ``with`` body; nests under the enclosing one."""

        parent = self._stack[-1] if self._stack else None
        span_id = self.begin(name, parent=parent, op=op)
        self._stack.append(span_id)
        try:
            yield span_id
        finally:
            self.end(span_id)
            self._stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time in seconds of every span, keyed by span id."""

    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    result = {}
    for span in spans:
        lo, hi = span["start"], span["end"]
        covered = 0.0
        edge = lo
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, edge), min(end, hi)
            if end > start:
                covered += end - start
                edge = end
        result[span["id"]] = (hi - lo) - covered
    return result


def layer_table(spans: list[dict]) -> list[dict]:
    """One row per span name: count, median duration and median self time
    (milliseconds), ordered by name.  The layer is the name's prefix."""

    own = self_times(spans)
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    rows = []
    for name in sorted(by_name):
        group = by_name[name]
        rows.append({
            "name": name,
            "layer": name.split(".", 1)[0],
            "count": len(group),
            "median_ms": 1e3 * statistics.median(
                s["end"] - s["start"] for s in group),
            "self_ms": 1e3 * statistics.median(own[s["id"]] for s in group),
        })
    return rows


def format_table(rows: list[dict]) -> str:
    """The per-layer table as aligned text."""

    lines = [f"{'span':<32}{'count':>7}{'median ms':>13}{'self ms':>13}"]
    for row in rows:
        lines.append(f"{row['name']:<32}{row['count']:>7}"
                     f"{row['median_ms']:>13.4f}{row['self_ms']:>13.4f}")
    return "\n".join(lines)
