"""Typed metrics registry: counters and histograms.

The registry complements spans: spans answer *where did the time go*,
metrics answer *how often / how much* of what no returned object
reports — Rule 1/2 pruning hits, JGR rounds, TD-Auto's choices,
governance aborts.  A count that a typed result object reports (plans
considered, tuples shipped, plan-cache hits, …) lives on that object and
reaches the trace as span attributes, never here.  Everything is
standard-library, thread-safe, and mergeable across worker processes
via :meth:`MetricsRegistry.snapshot` / :meth:`MetricsRegistry.merge`
(the same transport the tracer uses for spans).

Naming convention (see ``docs/OBSERVABILITY.md``): dotted lowercase,
prefixed by subsystem — ``optimizer.auto.*``, ``pruning.*``, ``jgr.*``,
``governance.*``, ``engine.*``.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Union

Number = Union[int, float]


class Counter:
    """A monotonically increasing value (e.g. ``jgr.rounds``)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        """Add *amount* (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment {amount}")
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """Running count/sum/min/max of observed values (e.g. span seconds)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total: float = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: Number) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.4g})"


class MetricsRegistry:
    """Get-or-create registry of named counters and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}  #: guarded-by: _lock
        self._histograms: Dict[str, Histogram] = {}  #: guarded-by: _lock

    # -- accessors ------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter registered under *name* (created on first use)."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram registered under *name* (created on first use)."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    def names(self) -> List[str]:
        """Every registered instrument name, sorted."""
        with self._lock:
            return sorted(set(self._counters) | set(self._histograms))

    # -- transport ------------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """A JSON-serializable dump (sorted keys, deterministic)."""
        with self._lock:
            return {
                "counters": {
                    name: self._counters[name].value
                    for name in sorted(self._counters)
                },
                "histograms": {
                    name: {
                        "count": h.count,
                        "total": h.total,
                        "min": h.min,
                        "max": h.max,
                    }
                    for name, h in sorted(self._histograms.items())
                },
            }

    def merge(self, snapshot: Dict[str, Dict[str, object]]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry.

        Counters add, histograms combine count/total/min/max.
        """
        for name, value in sorted(snapshot.get("counters", {}).items()):
            self.counter(name).inc(value)  # type: ignore[arg-type]
        for name, data in sorted(snapshot.get("histograms", {}).items()):
            histogram = self.histogram(name)
            incoming_count = int(data.get("count", 0))  # type: ignore[union-attr]
            if incoming_count <= 0:
                continue
            histogram.count += incoming_count
            histogram.total += float(data.get("total", 0.0))  # type: ignore[union-attr, arg-type]
            for bound, pick in (("min", min), ("max", max)):
                incoming = data.get(bound)  # type: ignore[union-attr]
                if incoming is None:
                    continue
                current = getattr(histogram, bound)
                setattr(
                    histogram,
                    bound,
                    float(incoming)
                    if current is None
                    else pick(current, float(incoming)),
                )

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self.names())} instruments)"
