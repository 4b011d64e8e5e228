"""In-memory span recorder for the traced benchmark run.

One root span per operation (``op``) and one child span per call into a
layer of the program, recorded from *outside* the program: the workload
code in :mod:`workloads` wraps each public call.  Counts read at the
same boundary (triples loaded, plans considered, tuples shipped) ride
on the span as attributes, so ratios are taken where the work happens.
Spans stay in memory and are written as JSON lines when the workload
ends; the untraced run uses :data:`NULL_SPAN` and records nothing.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional


class Span:
    """One timed call into a layer; a context manager."""

    __slots__ = ("name", "span_id", "parent_id", "op_id", "start", "end", "attrs", "_recorder")

    def __init__(self, recorder: "Recorder", name: str, span_id: int,
                 parent: Optional["Span"], attrs: Dict[str, Any]) -> None:
        self._recorder = recorder
        self.name = name
        self.span_id = span_id
        self.parent_id = parent.span_id if parent is not None else None
        #: shared by every span of one operation (the root names it)
        self.op_id = parent.op_id if parent is not None else attrs.pop("op_id", None)
        self.attrs = attrs
        self.start = 0.0
        self.end = 0.0

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        self._recorder._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = time.perf_counter()
        self._recorder._stack.pop()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "op_id": self.op_id,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class _NullSpan:
    """What the untraced run gets: no clock read, nothing stored."""

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


NULL_SPAN = _NullSpan()


def null_span(name: str, **attrs: Any) -> _NullSpan:
    """Drop-in for :meth:`Recorder.span` when tracing is off."""
    return NULL_SPAN


class Recorder:
    """Collects the spans of one workload run (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, **attrs: Any) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(self, name, len(self.spans) + 1, parent, attrs)
        self.spans.append(span)
        return span

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")


def children_seconds(spans: Iterable[Span]) -> Dict[int, float]:
    """Seconds of each span covered by its direct children, by span id.

    A layer's self time is its duration minus this.  Children of one
    parent never overlap here (one thread, strictly nested), so the
    covered part is the plain sum.
    """
    covered: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] = covered.get(span.parent_id, 0.0) + span.duration
    return covered
