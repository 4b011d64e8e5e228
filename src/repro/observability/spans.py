"""Span-based tracing primitives: :class:`Tracer`, :class:`Span`.

A *span* is one timed region of work — an optimize call, one
enumeration pass, one executed operator — with monotonic start/end
times (``time.perf_counter`` relative to the owning tracer's epoch),
key/value attributes, point-in-time *events* (fault injections,
plan-cache hits, JGR set-cover rounds), and a parent link that makes
the collected spans a forest.

Design constraints, in order:

* **zero-dependency** — standard library only;
* **zero-cost when disabled** — instrumented code talks to the module
  through :mod:`repro.observability.runtime`, which hands out the
  shared :data:`NULL_SPAN` when no tracer is active, so the disabled
  path is one context-variable read per *phase* (never per candidate
  plan);
* **thread- and process-safe collection** — span recording takes a
  lock and span nesting is tracked per thread; worker processes (the
  :mod:`repro.core.memo_shard` pool) build their own tracer, serialize
  it with :meth:`Tracer.to_payload`, and the driver merges payloads
  deterministically with :meth:`Tracer.adopt` (stable id remapping,
  one *track* per worker).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .metrics import MetricsRegistry

#: attribute values are expected to be JSON-serializable primitives
AttrValue = Any


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (e.g. one fault)."""

    name: str
    timestamp: float  #: seconds since the owning tracer's epoch
    attributes: Dict[str, AttrValue] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, AttrValue]:
        """Serialize for JSON-lines export / cross-process transport."""
        return {
            "name": self.name,
            "timestamp": self.timestamp,
            "attributes": dict(self.attributes),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, AttrValue]) -> "SpanEvent":
        """Rebuild an event serialized with :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            timestamp=float(data["timestamp"]),
            attributes=dict(data.get("attributes", {})),
        )


class Span:
    """One timed region of work, usable as a context manager.

    Spans are created (and started) by :meth:`Tracer.span`; leaving the
    ``with`` block ends them.  ``set`` attaches attributes, ``event``
    records a timestamped point annotation.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "track",
        "start",
        "end",
        "attributes",
        "events",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        track: str,
        start: float,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.track = track
        self.start = start
        self.end: Optional[float] = None
        self.attributes: Dict[str, AttrValue] = {}
        self.events: List[SpanEvent] = []
        self._tracer = tracer

    # -- recording ------------------------------------------------------
    def set(self, **attributes: AttrValue) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attributes.update(attributes)
        return self

    def event(self, name: str, **attributes: AttrValue) -> None:
        """Record a point-in-time event inside this span."""
        timestamp = self._tracer.now() if self._tracer is not None else self.start
        self.events.append(SpanEvent(name, timestamp, dict(attributes)))

    # -- context manager -----------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._tracer is not None:
            self._tracer.end_span(self)

    # -- derived --------------------------------------------------------
    @property
    def duration(self) -> float:
        """Span length in seconds (0.0 while the span is still open)."""
        return 0.0 if self.end is None else self.end - self.start

    # -- transport ------------------------------------------------------
    def to_dict(self) -> Dict[str, AttrValue]:
        """Serialize for JSON-lines export / cross-process transport."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "track": self.track,
            "start": self.start,
            "end": self.end,
            "attributes": dict(self.attributes),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, AttrValue]) -> "Span":
        """Rebuild a span serialized with :meth:`to_dict`."""
        span = cls(
            name=str(data["name"]),
            span_id=int(data["span_id"]),
            parent_id=None if data["parent_id"] is None else int(data["parent_id"]),
            track=str(data.get("track", "main")),
            start=float(data["start"]),
        )
        span.end = None if data.get("end") is None else float(data["end"])
        span.attributes = dict(data.get("attributes", {}))
        span.events = [SpanEvent.from_dict(e) for e in data.get("events", [])]
        return span

    def __repr__(self) -> str:
        state = f"{self.duration * 1000:.3f}ms" if self.end is not None else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


class NullSpan:
    """The shared no-op span: every recording method does nothing.

    Handed out by :func:`repro.observability.runtime.span` when no
    tracer is active, so the disabled tracing path costs one context
    variable read and nothing else.
    """

    __slots__ = ()

    def set(self, **attributes: AttrValue) -> "NullSpan":
        """No-op (tracing disabled)."""
        return self

    def event(self, name: str, **attributes: AttrValue) -> None:
        """No-op (tracing disabled)."""

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


#: the singleton no-op span (identity-comparable: ``sp is NULL_SPAN``)
NULL_SPAN = NullSpan()


class Tracer:
    """Collects spans (and a metrics registry) for one session.

    All recording is thread-safe; span nesting (parent assignment) is
    per-thread.  Worker *processes* cannot share a tracer — they build
    their own and the driver merges with :meth:`adopt`.
    """

    def __init__(
        self,
        track: str = "main",
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.track = track
        self._clock = clock
        self.epoch = clock()
        self._lock = threading.Lock()
        self._spans: List[Span] = []  #: guarded-by: _lock
        self._next_id = 1  #: guarded-by: _lock
        self._stacks = threading.local()
        self.metrics = MetricsRegistry()

    # -- clock ----------------------------------------------------------
    def now(self) -> float:
        """Monotonic seconds since this tracer's epoch."""
        return self._clock() - self.epoch

    # -- span lifecycle -------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = []
            self._stacks.stack = stack
        return stack

    def span(self, name: str, **attributes: AttrValue) -> Span:
        """Start a child span of the current span; use with ``with``."""
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        start = self.now()
        with self._lock:
            span = Span(name, self._next_id, parent_id, self.track, start, self)
            self._next_id += 1
            self._spans.append(span)
        if attributes:
            span.attributes.update(attributes)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close *span* (and any forgotten descendants above it)."""
        stack = self._stack()
        end = self.now()
        while stack:
            top = stack.pop()
            if top.end is None:
                top.end = end
            if top is span:
                return
        if span.end is None:  # ended from another thread: just stamp it
            span.end = end

    def current_span(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def open_span_names(self) -> Tuple[str, ...]:
        """Names of this thread's open spans, outermost first.

        The governance layer attaches this to :class:`QueryAborted` so
        an abort report shows where in the pipeline the query stopped.
        """
        return tuple(span.name for span in self._stack())

    # -- collection -----------------------------------------------------
    @property
    def spans(self) -> Tuple[Span, ...]:
        """All recorded spans, in creation (= span id) order."""
        with self._lock:
            return tuple(self._spans)

    def finished_spans(self) -> Tuple[Span, ...]:
        """Recorded spans that have ended, in creation order."""
        with self._lock:
            return tuple(span for span in self._spans if span.end is not None)

    def roots(self) -> Tuple[Span, ...]:
        """Spans with no parent, in creation order."""
        return tuple(span for span in self.spans if span.parent_id is None)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- cross-process merge -------------------------------------------
    def to_payload(self) -> Dict[str, AttrValue]:
        """Serialize this tracer for transport out of a worker process."""
        return {
            "track": self.track,
            "spans": [span.to_dict() for span in self.finished_spans()],
            "metrics": self.metrics.snapshot(),
        }

    def adopt(
        self,
        payload: Dict[str, AttrValue],
        track: str,
        parent: Optional[Span] = None,
        rebase_to: Optional[float] = None,
    ) -> List[Span]:
        """Merge a worker tracer's payload into this tracer.

        Ids are remapped deterministically (in payload order, offset by
        this tracer's id counter), the worker's roots are re-parented
        under *parent*, every span lands on *track*, and timestamps are
        shifted so the worker's epoch maps to *rebase_to* (default: the
        parent's start, else 0).  Worker counters/histograms are merged
        into :attr:`metrics`.
        """
        base = rebase_to
        if base is None:
            base = parent.start if parent is not None else 0.0
        adopted: List[Span] = []
        id_map: Dict[int, int] = {}
        with self._lock:
            for data in payload.get("spans", []):
                span = Span.from_dict(data)
                old_id = span.span_id
                span.span_id = self._next_id
                self._next_id += 1
                id_map[old_id] = span.span_id
                if span.parent_id is not None and span.parent_id in id_map:
                    span.parent_id = id_map[span.parent_id]
                else:
                    span.parent_id = parent.span_id if parent is not None else None
                span.track = track
                span.start += base
                if span.end is not None:
                    span.end += base
                for event in span.events:
                    event.timestamp += base
                span._tracer = self
                self._spans.append(span)
                adopted.append(span)
        self.metrics.merge(payload.get("metrics", {}))
        return adopted

    def __repr__(self) -> str:
        return f"Tracer(track={self.track!r}, spans={len(self)})"


def validate_span_tree(spans: Iterator[Span] | Tuple[Span, ...] | List[Span]) -> List[str]:
    """Well-formedness check; returns a list of problems (empty = ok).

    Checks: unique span ids, no orphan parents, every closed span has
    ``end >= start``, children lie inside their parent (same-track
    only: cross-track parents — adopted worker roots — overlap their
    driver-side parent by construction but run on different clocks),
    and same-track siblings do not overlap.
    """
    spans = list(spans)
    problems: List[str] = []
    by_id: Dict[int, Span] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span id {span.span_id} ({span.name})")
        by_id[span.span_id] = span
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        if span.end is not None and span.end < span.start:
            problems.append(f"{span.name}#{span.span_id}: end before start")
        if span.parent_id is not None and span.parent_id not in by_id:
            problems.append(f"{span.name}#{span.span_id}: orphan parent {span.parent_id}")
            continue
        children.setdefault(span.parent_id, []).append(span)
    epsilon = 1e-9
    for parent_id, group in children.items():
        parent = by_id.get(parent_id) if parent_id is not None else None
        for span in group:
            if parent is None or span.track != parent.track:
                continue
            if span.start < parent.start - epsilon:
                problems.append(
                    f"{span.name}#{span.span_id}: starts before parent {parent.name}"
                )
            if span.end is not None and parent.end is not None:
                if span.end > parent.end + epsilon:
                    problems.append(
                        f"{span.name}#{span.span_id}: ends after parent {parent.name}"
                    )
        # same-track siblings must be sequential (single-threaded stages)
        by_track: Dict[str, List[Span]] = {}
        for span in group:
            by_track.setdefault(span.track, []).append(span)
        for siblings in by_track.values():
            ordered = sorted(siblings, key=lambda s: (s.start, s.span_id))
            for left, right in zip(ordered, ordered[1:]):
                if left.end is not None and left.end > right.start + epsilon:
                    problems.append(
                        f"siblings overlap: {left.name}#{left.span_id} and "
                        f"{right.name}#{right.span_id}"
                    )
    return problems
