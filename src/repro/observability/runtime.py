"""Ambient tracer activation: how instrumented code finds the tracer.

Instrumentation sites throughout the optimizer and the engine do not
take a tracer parameter — they ask this module for the *active* tracer
(a :class:`contextvars.ContextVar`, so activation is safe under
threads and nested sessions).  When no tracer is active every helper
is a no-op: :func:`span` returns the shared
:data:`~repro.observability.spans.NULL_SPAN`, :func:`event` /
:func:`count` return immediately, and :func:`metrics` returns ``None``
so hot loops can hoist the check out of the loop body.

Typical instrumentation::

    from ..observability import runtime as obs

    with obs.span("enumerate", algorithm=self.algorithm_name) as sp:
        ...
        sp.set(plans_considered=stats.plans_considered)

Sessions activate their tracer with :func:`activate`; the pool workers
of the cooperative search (:mod:`repro.core.cooperative`) activate a
private tracer and ship it back to the driver with their one reply.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Union

from .metrics import MetricsRegistry, Number
from .spans import NULL_SPAN, NullSpan, Span, Tracer

_ACTIVE: ContextVar[Optional[Tracer]] = ContextVar(
    "repro_active_tracer", default=None
)

#: what :func:`span` hands back — a real span or the shared no-op
SpanLike = Union[Span, NullSpan]


def current_tracer() -> Optional[Tracer]:
    """The tracer active in this context, or ``None``."""
    return _ACTIVE.get()


def is_active() -> bool:
    """True when a tracer is active (instrumentation will record)."""
    return _ACTIVE.get() is not None


@contextmanager
def activate(tracer: Tracer) -> Iterator[Tracer]:
    """Make *tracer* the active tracer for the dynamic extent."""
    token = _ACTIVE.set(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.reset(token)


def span(name: str, **attributes: object) -> SpanLike:
    """Start a span on the active tracer (no-op span when inactive)."""
    tracer = _ACTIVE.get()
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attributes)


def event(name: str, **attributes: object) -> None:
    """Record an event on the innermost open span, if tracing is active.

    With no open span the event is attached to nothing and dropped
    (events describe a moment *within* some phase; all instrumented
    phases open a span first).
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        return
    current = tracer.current_span()
    if current is not None:
        current.event(name, **attributes)


def count(name: str, amount: Number = 1) -> None:
    """Increment counter *name* on the active registry (no-op otherwise)."""
    tracer = _ACTIVE.get()
    if tracer is not None:
        tracer.metrics.counter(name).inc(amount)


def metrics() -> Optional[MetricsRegistry]:
    """The active registry, or ``None`` — hoist this out of hot loops."""
    tracer = _ACTIVE.get()
    return tracer.metrics if tracer is not None else None
