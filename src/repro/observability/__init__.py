"""Zero-dependency observability: span tracing, metrics, exporters.

The subsystem has four small parts:

* :mod:`.spans` — :class:`Tracer` / :class:`Span`: monotonic nested
  spans with attributes and events, thread-safe collection, and a
  deterministic cross-process merge for the optimizer's worker pool;
* :mod:`.metrics` — :class:`MetricsRegistry`: typed counters and
  histograms with the same snapshot/merge transport;
* :mod:`.runtime` — ambient activation: instrumented code calls
  :func:`~repro.observability.runtime.span` /
  :func:`~repro.observability.runtime.event` /
  :func:`~repro.observability.runtime.count`, which no-op unless a
  tracer is :func:`~repro.observability.runtime.activate`\\ d;
* :mod:`.export` — JSON-lines, Chrome trace-event (Perfetto), and a
  terminal flame summary, plus the trace validator and span-coverage
  measure CI gates on.

Tracing is a property of an optimizer *session*: pass ``trace=True``
in :class:`repro.OptimizeOptions` and read ``session.tracer``.  See
``docs/OBSERVABILITY.md`` for the span taxonomy and how spans map back
to the paper's algorithms and cost model.
"""

from .export import (
    flame_summary,
    span_coverage,
    spans_from_jsonl,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)
from .metrics import Counter, Histogram, MetricsRegistry
from .runtime import (
    activate,
    count,
    current_tracer,
    event,
    is_active,
    metrics,
    span,
)
from .spans import NULL_SPAN, NullSpan, Span, SpanEvent, Tracer, validate_span_tree

__all__ = [
    "Tracer",
    "Span",
    "SpanEvent",
    "NullSpan",
    "NULL_SPAN",
    "validate_span_tree",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "activate",
    "current_tracer",
    "is_active",
    "span",
    "event",
    "count",
    "metrics",
    "to_jsonl",
    "spans_from_jsonl",
    "to_chrome_trace",
    "validate_chrome_trace",
    "flame_summary",
    "span_coverage",
]
