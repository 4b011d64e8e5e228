"""Query lifecycle governance: deadlines, budgets, cancellation, aborts.

The ROADMAP's north star is a long-lived service under concurrent
traffic, where a query must never be allowed to run away with the
process.  This module is the vocabulary that the whole pipeline —
enumeration, parallel search, execution — speaks to enforce that:

* :class:`Deadline` — an absolute point on a monotonic clock; checked
  cooperatively at operator and division boundaries.
* :class:`QueryBudget` — the per-query resource envelope: a deadline,
  an intermediate-row budget (the memory-ceiling stand-in: every tuple
  an operator produces is charged against it), a query-wide retry
  budget on top of the per-operator :class:`~repro.engine.recovery.RetryPolicy`,
  a shared :class:`CancellationToken`, and the ``anytime`` flag that
  turns a mid-search deadline into graceful degradation instead of an
  error.
* :class:`QueryAborted` — the structured abort taxonomy
  (:class:`AbortCause`): which budget broke, where (phase + operator),
  with the attempt history, partial metrics, and open span trace
  attached, so a service front-end can classify failures without
  parsing messages.

Clock discipline: this is the *one* module in ``core/`` / ``engine/`` /
``baselines/`` / ``experiments/`` allowed to read the wall clock for
control flow (``time.monotonic``);
LINT005 (:mod:`repro.analysis.lint.rules`) enforces that everything
else goes through a :class:`Deadline`.  Tests substitute
:class:`ManualClock` / :class:`SteppingClock` to make expiry
deterministic — a deadline is data, not an ambient side effect.

Everything here is zero-cost-off: a query with no budget never
constructs any of these objects, and budget checks start with a single
``is None`` test.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional, Protocol, Tuple

if TYPE_CHECKING:  # pragma: no cover - engine imports core, never the reverse
    from ..engine.faults import FaultEvent
    from ..engine.metrics import ExecutionMetrics


class Clock(Protocol):
    """Anything with a monotonic ``now()`` — the deadline time source."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        ...  # pragma: no cover - protocol


class MonotonicClock:
    """The production clock: ``time.monotonic`` (sanctioned use, LINT005)."""

    def now(self) -> float:
        """Current monotonic time in seconds."""
        return time.monotonic()


class ManualClock:
    """A clock tests drive by hand; ``now()`` never moves on its own."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start

    def now(self) -> float:
        """Current manual time."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move the clock forward by *seconds*."""
        if seconds < 0:
            raise ValueError(f"cannot advance a clock backwards ({seconds})")
        self._now += seconds


class SteppingClock(ManualClock):
    """A manual clock that advances a fixed *step* per ``now()`` call.

    Deadline checks happen at deterministic code points (division
    ticks, operator boundaries), so with a stepping clock "time runs
    out after the N-th check" is exactly reproducible — the chaos
    harness uses this to force mid-search and mid-execution expiry
    without real sleeps.
    """

    def __init__(self, start: float = 0.0, step: float = 1.0) -> None:
        super().__init__(start)
        if step < 0:
            raise ValueError(f"step must be >= 0, got {step}")
        self.step = step
        self.calls = 0

    def now(self) -> float:
        """Current time; advances by :attr:`step` as a side effect."""
        value = self._now
        self._now += self.step
        self.calls += 1
        return value


#: the process-wide production clock every real deadline reads
CLOCK: Clock = MonotonicClock()


@dataclass(frozen=True)
class Deadline:
    """An absolute expiry point on a monotonic clock.

    Construct with :meth:`after`; pass explicitly wherever expiry must
    be checked.  ``seconds`` keeps the originally requested allowance
    for error messages.
    """

    expires_at: float
    seconds: float
    clock: Clock = field(default_factory=lambda: CLOCK, compare=False)

    @classmethod
    def after(cls, seconds: float, clock: Optional[Clock] = None) -> "Deadline":
        """A deadline *seconds* from now on *clock* (default: real time)."""
        if seconds < 0:
            raise ValueError(f"deadline seconds must be >= 0, got {seconds}")
        source = clock if clock is not None else CLOCK
        return cls(
            expires_at=source.now() + seconds, seconds=seconds, clock=source
        )

    @property
    def expired(self) -> bool:
        """Whether the deadline has passed (reads the clock)."""
        return self.clock.now() > self.expires_at

    def remaining(self) -> float:
        """Seconds left before expiry; 0.0 once expired (never negative)."""
        return max(0.0, self.expires_at - self.clock.now())


class CancellationToken:
    """A thread-safe flag shared between a driver and its workers.

    Cooperative: code polls :attr:`cancelled` at safe points; nothing
    is interrupted pre-emptively.  The first :meth:`cancel` wins — its
    reason sticks; later calls are no-ops.
    """

    def __init__(self) -> None:
        self._event = threading.Event()
        self._lock = threading.Lock()
        self._reason = ""  #: guarded-by: _lock

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    @property
    def reason(self) -> str:
        """The first cancel's reason (empty while not cancelled)."""
        with self._lock:
            return self._reason

    def cancel(self, reason: str = "cancelled") -> None:
        """Request cancellation (idempotent; the first reason sticks).

        The lock makes first-cancel-wins atomic: without it two
        concurrent cancels can both pass the not-set check and the
        *losing* reason can stick while the event fires.
        """
        with self._lock:
            if not self._event.is_set():
                self._reason = reason
                self._event.set()

    def __repr__(self) -> str:
        state = f"cancelled: {self.reason!r}" if self.cancelled else "active"
        return f"CancellationToken({state})"


class AbortCause(Enum):
    """Why a query was aborted — the error taxonomy of ``QueryAborted``."""

    DEADLINE = "deadline"
    ROW_BUDGET = "row-budget"
    RETRY_EXHAUSTED = "retry-exhausted"
    CANCELLED = "cancelled"


class QueryAborted(RuntimeError):
    """A query stopped by governance, with structured context attached.

    Unlike a bare error message, the exception carries everything a
    service front-end needs to classify and report the abort: the
    :class:`AbortCause`, the query id, the lifecycle phase
    (``"optimize"`` / ``"execute"``), the operator that was running,
    the fault-event attempt history, the partial
    :class:`~repro.engine.metrics.ExecutionMetrics` accumulated so far,
    and the names of the spans open at abort time.
    """

    def __init__(
        self,
        message: str,
        *,
        cause: AbortCause,
        query_id: str = "",
        phase: str = "",
        operator: str = "",
        attempts: Tuple["FaultEvent", ...] = (),
        partial_metrics: Optional["ExecutionMetrics"] = None,
        trace: Tuple[str, ...] = (),
    ) -> None:
        super().__init__(message)
        self.cause = cause
        self.query_id = query_id
        self.phase = phase
        self.operator = operator
        self.attempts = tuple(attempts)
        self.partial_metrics = partial_metrics
        self.trace = tuple(trace)

    def describe(self) -> str:
        """A multi-line, human-readable abort report."""
        lines = [f"query aborted: {self.args[0]}"]
        lines.append(f"  cause: {self.cause.value}")
        if self.query_id:
            lines.append(f"  query: {self.query_id}")
        if self.phase:
            lines.append(f"  phase: {self.phase}")
        if self.operator:
            lines.append(f"  operator: {self.operator}")
        if self.trace:
            lines.append(f"  open spans: {' > '.join(self.trace)}")
        if self.attempts:
            lines.append(f"  attempt history ({len(self.attempts)} faults):")
            for event in self.attempts:
                lines.append(f"    - {event}")
        if self.partial_metrics is not None:
            summary = self.partial_metrics.summary()
            rendered = ", ".join(
                f"{key}={value}" for key, value in summary.items()
            )
            lines.append(f"  partial metrics: {rendered}")
        return "\n".join(lines)


class AnytimeExpiry(Exception):
    """Internal control flow: the deadline fired under ``anytime=True``.

    Caught by the enumerator's entry point, which degrades to the best
    complete plan found so far instead of propagating an error.  Never
    escapes :meth:`TopDownEnumerator.optimize`.
    """


@dataclass
class QueryBudget:
    """The resource envelope one query lives inside.

    All limits are optional; an all-``None`` budget (with ``anytime``
    off and no token) is indistinguishable from no budget.  The
    mutable counters (:attr:`rows_charged`, :attr:`retries_charged`)
    accumulate across the query's whole lifecycle — a budget handed to
    both the optimizer and the executor is charged by both, which is
    the point: the budget belongs to the *query*, not to a phase.
    """

    #: wall-clock (or test-clock) expiry for the whole lifecycle
    deadline: Optional[Deadline] = None
    #: ceiling on Σ intermediate rows produced (memory stand-in)
    row_budget: Optional[int] = None
    #: query-wide cap on retries, across all operators (the per-operator
    #: cap stays with :class:`~repro.engine.recovery.RetryPolicy`)
    retry_budget: Optional[int] = None
    #: shared cooperative cancel flag (driver-side for process pools)
    cancellation: Optional[CancellationToken] = None
    #: degrade to best-plan-so-far on optimizer deadline instead of
    #: raising (execution deadlines always abort — there is no partial
    #: answer to degrade to)
    anytime: bool = False
    #: identifier stamped onto every abort this budget raises
    query_id: str = ""
    rows_charged: int = 0
    retries_charged: int = 0

    def __post_init__(self) -> None:
        if self.row_budget is not None and self.row_budget < 0:
            raise ValueError(f"row_budget must be >= 0, got {self.row_budget}")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )

    # ------------------------------------------------------------------
    # checks (each raises QueryAborted on breach)
    # ------------------------------------------------------------------
    def check_cancelled(self, phase: str, operator: str = "") -> None:
        """Raise :class:`QueryAborted` if the token has been cancelled."""
        token = self.cancellation
        if token is not None and token.cancelled:
            raise QueryAborted(
                f"cancelled: {token.reason}",
                cause=AbortCause.CANCELLED,
                query_id=self.query_id,
                phase=phase,
                operator=operator,
            )

    def deadline_expired(self) -> bool:
        """Whether the deadline exists and has passed."""
        return self.deadline is not None and self.deadline.expired

    def check_deadline(self, phase: str, operator: str = "") -> None:
        """Raise :class:`QueryAborted` if the deadline has passed."""
        if self.deadline is not None and self.deadline.expired:
            raise QueryAborted(
                f"deadline of {self.deadline.seconds:g}s exceeded",
                cause=AbortCause.DEADLINE,
                query_id=self.query_id,
                phase=phase,
                operator=operator,
            )

    def charge_rows(self, rows: int, phase: str = "execute", operator: str = "") -> None:
        """Charge *rows* produced tuples; raise on row-budget breach."""
        if self.row_budget is None:
            return
        self.rows_charged += rows
        if self.rows_charged > self.row_budget:
            raise QueryAborted(
                f"row budget of {self.row_budget} exceeded "
                f"({self.rows_charged} intermediate rows)",
                cause=AbortCause.ROW_BUDGET,
                query_id=self.query_id,
                phase=phase,
                operator=operator,
            )

    def charge_retry(self, phase: str = "execute", operator: str = "") -> None:
        """Charge one retry; raise on query-wide retry-budget breach."""
        if self.retry_budget is None:
            return
        self.retries_charged += 1
        if self.retries_charged > self.retry_budget:
            raise QueryAborted(
                f"query retry budget of {self.retry_budget} exhausted",
                cause=AbortCause.RETRY_EXHAUSTED,
                query_id=self.query_id,
                phase=phase,
                operator=operator,
            )

    def __repr__(self) -> str:
        limits = []
        if self.deadline is not None:
            limits.append(f"deadline={self.deadline.seconds:g}s")
        if self.row_budget is not None:
            limits.append(f"rows<={self.row_budget}")
        if self.retry_budget is not None:
            limits.append(f"retries<={self.retry_budget}")
        if self.cancellation is not None:
            limits.append(repr(self.cancellation))
        if self.anytime:
            limits.append("anytime")
        label = ", ".join(limits) if limits else "unlimited"
        return f"QueryBudget({label})"
