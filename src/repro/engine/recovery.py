"""Fault recovery: bounded retries, backoff pricing, stage recovery.

This is the *recovery* half of the fault-tolerance subsystem
(:mod:`repro.engine.faults` is the injection half).  It mirrors how the
paper's Hadoop substrate actually survives failures:

* **transient fault** — the task's output is lost; the attempt is
  re-executed after a backoff.  The wasted attempt's data cost and the
  simulated backoff are charged to the operator's ``recovery_cost``,
  which the executor prices into the plan's critical path (a retried
  task stretches its stage barrier).
* **fail-stop crash** — the worker is marked dead and its partition is
  re-routed to the next live worker *from the durable replica* the
  partitioning retains (HDFS keeps block replicas; our stand-in is the
  original per-worker graph, which recovery never mutates).  In-flight
  build tables — the outputs of already-finished stages whose join has
  not started consuming them, durable in HDFS terms — migrate the dead
  worker's slice to the same survivor, so only the lost worker's
  lineage is touched and every other worker's work is preserved.
  Recovery cost = replica re-scan
  (``α`` per triple) + intermediate re-shipping (``β_repartition`` per
  row) + backoff.
* **straggler** — the operator still succeeds, but the slow worker's
  share of the stage is stretched by the slowdown factor; the extra
  time is charged as recovery cost (speculative execution would cap
  it; we price the uncapped pessimistic case).

Retries are bounded by :class:`RetryPolicy`; exhausting them raises
:class:`FaultToleranceError`, the simulated analogue of a Hadoop job
abort.

There is **one** fault protocol, for every engine:
:meth:`RecoveryManager.negotiate` is the only draw loop.  The executor
calls it once per operator while the plan is being opened (scans when
they open, joins once their build sides are drained and before their
probe flows — plan post-order), so every fault is resolved *between*
streams, never while one is flowing.  Fail-stops are applied to the
cluster on the spot and migrate the build tables registered in flight;
the part of the price that depends on the operator's eventual tuple
counts (wasted attempts, the straggler stretch) is deferred to
:meth:`FaultOutcome.apply`.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from ..core.cost import CostParameters
from ..core.governance import AbortCause, QueryAborted, QueryBudget
from ..observability import runtime as obs
from .faults import FaultEvent, FaultInjector, FaultKind
from .columnar import EncodedRelation, union_all
from .metrics import OperatorMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports nothing here)
    from .cluster import Cluster

#: one in-flight build side: worker slot -> the rows that worker holds
BuildTables = Dict[int, EncodedRelation]


@dataclass
class FaultOutcome:
    """The resolved fault history of one operator, priced lazily.

    Produced by :meth:`RecoveryManager.negotiate` before the operator's
    rows flow: the draw loop is resolved *eagerly* (fail-stops applied
    to the cluster, backoff and re-route costs fixed), while the parts
    of the recovery price that depend on the operator's eventual tuple
    counts — wasted transient attempts and the straggler stretch — are
    deferred to :meth:`apply`, called once the plan has drained and the
    operator's metrics are final.
    """

    retries: int = 0
    faults_injected: int = 0
    #: backoff waits + fail-stop re-routes + quarantines, priced eagerly
    fixed_cost: float = 0.0
    #: transient attempts whose output was lost; each costs one full
    #: ``simulated_cost`` of the operator when finalized
    wasted_attempts: int = 0
    #: the straggler that ended the draw loop, if any
    straggler: Optional[FaultEvent] = None
    #: live workers when the straggler hit (its share denominator)
    live_size: int = 1

    def apply(self, op: OperatorMetrics, parameters: CostParameters) -> None:
        """Stamp this outcome onto *op* using its final tuple counts."""
        op.retries = self.retries
        op.faults_injected = self.faults_injected
        recovery = self.fixed_cost
        if self.wasted_attempts:
            recovery += self.wasted_attempts * op.simulated_cost(parameters)
        if self.straggler is not None:
            # Table I prices scans at zero, but a straggling scan still
            # delays its stage: fall back to its I/O (α × tuples_read)
            base = op.simulated_cost(parameters)
            if base <= 0.0:
                base = parameters.alpha * op.tuples_read
            share = base / max(self.live_size, 1)
            recovery += (self.straggler.slowdown - 1.0) * share
        op.recovery_cost = recovery


class FaultToleranceError(QueryAborted):
    """Raised when an operator exhausts its retry budget (job abort).

    A :class:`~repro.core.governance.QueryAborted` with cause
    ``RETRY_EXHAUSTED``, so front-ends classify it with the rest of the
    abort taxonomy; it carries the operator identity and the full
    per-attempt :class:`~repro.engine.faults.FaultEvent` history.  The
    message-only constructor form stays supported for back-compat.
    """

    def __init__(
        self,
        message: str,
        *,
        operator: str = "",
        attempts: Tuple[FaultEvent, ...] = (),
        query_id: str = "",
    ) -> None:
        super().__init__(
            message,
            cause=AbortCause.RETRY_EXHAUSTED,
            query_id=query_id,
            phase="execute",
            operator=operator,
            attempts=attempts,
        )


class CircuitBreaker:
    """Quarantine workers that keep faulting (deterministic window).

    The window is a count of recent fault *events*, not a wall-clock
    interval, so seeded chaos runs trip it reproducibly: a worker
    appearing ``threshold`` times among the last ``window`` recorded
    faults opens its breaker.  The recovery manager drains an
    open-breaker worker exactly like a fail-stop (replica re-route), so
    a flaky-but-alive worker stops eating retries.  ``reset()`` closes
    every breaker — :class:`~repro.engine.executor.Executor` registers
    it as a :meth:`~repro.engine.cluster.Cluster.heal` listener.
    """

    def __init__(self, threshold: int = 3, window: int = 16) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if window < threshold:
            raise ValueError(
                f"window ({window}) must be >= threshold ({threshold})"
            )
        self.threshold = threshold
        self.window = window
        self._lock = threading.Lock()
        self._recent: Deque[int] = deque(maxlen=window)  #: guarded-by: _lock
        self._open: Set[int] = set()  #: guarded-by: _lock
        #: cumulative breaker openings (survives :meth:`reset`); written
        #: only under the lock, read lock-free (int reads are atomic)
        self.trips = 0

    @property
    def open_workers(self) -> List[int]:
        """Workers currently quarantined, ascending."""
        with self._lock:
            return sorted(self._open)

    def state(self, worker: int) -> str:
        """``"open"`` (quarantined) or ``"closed"`` for *worker*."""
        with self._lock:
            return "open" if worker in self._open else "closed"

    def record_fault(self, worker: int) -> bool:
        """Record one fault against *worker*; True if this trips it.

        Window append + count + trip happen under one lock acquisition
        so two threads recording the same worker's faults cannot both
        observe a below-threshold count (lost trip) or double-count the
        cumulative ``trips``.
        """
        with self._lock:
            if worker in self._open:
                return False
            self._recent.append(worker)
            if sum(1 for w in self._recent if w == worker) >= self.threshold:
                self._trip_locked(worker)
                return True
            return False

    def trip(self, worker: int) -> None:
        """Open *worker*'s breaker (idempotent)."""
        with self._lock:
            self._trip_locked(worker)

    def _trip_locked(self, worker: int) -> None:
        # caller holds self._lock (the analyzer proves every call site)
        if worker not in self._open:
            self._open.add(worker)
            self.trips += 1

    def reset(self) -> None:
        """Close every breaker and forget the event window."""
        with self._lock:
            self._recent.clear()
            self._open.clear()

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(threshold={self.threshold}, window={self.window}, "
            f"open={self.open_workers}, trips={self.trips})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff, priced in cost units.

    The ``retry``-th backoff (1-based) costs
    ``backoff_base * backoff_multiplier ** (retry - 1)`` simulated cost
    units — the same currency as Table I, so backoff waits land on the
    critical path alongside data movement.
    """

    max_retries: int = 3
    backoff_base: float = 50.0
    backoff_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )

    def backoff_cost(self, retry: int) -> float:
        """Simulated cost of the *retry*-th backoff wait (1-based)."""
        return self.backoff_base * self.backoff_multiplier ** (retry - 1)

    def total_backoff(self, retries: int) -> float:
        """Σ backoff cost over the first *retries* retries."""
        return sum(self.backoff_cost(k) for k in range(1, retries + 1))

    # ------------------------------------------------------------------
    # analytic expectations (used by the MapReduce simulator)
    # ------------------------------------------------------------------
    def expected_attempts(self, fault_rate: float) -> float:
        """E[times a task runs] when each attempt fails w.p. *fault_rate*.

        Truncated at ``max_retries`` retries: attempt ``k+1`` happens
        exactly when the first ``k`` attempts all failed, so the
        expectation is ``Σ_{k=0..max_retries} fault_rate**k``.
        """
        if fault_rate <= 0.0:
            return 1.0
        return sum(fault_rate**k for k in range(self.max_retries + 1))

    def expected_backoff(self, fault_rate: float) -> float:
        """E[total backoff cost] under per-attempt failure *fault_rate*.

        The ``k``-th backoff is paid exactly when the first ``k``
        attempts all failed (probability ``fault_rate**k``).
        """
        if fault_rate <= 0.0:
            return 0.0
        return sum(
            (fault_rate**k) * self.backoff_cost(k)
            for k in range(1, self.max_retries + 1)
        )


DEFAULT_RETRY_POLICY = RetryPolicy()


class RecoveryManager:
    """Stage-level recovery driver for one :meth:`Executor.execute` run.

    The executor passes every operator through :meth:`negotiate`,
    handing over the registry of *in-flight* build tables (drained but
    not yet consumed by their join) so a fail-stop can migrate the dead
    worker's slices in one place.
    """

    def __init__(
        self,
        cluster: "Cluster",
        injector: FaultInjector,
        policy: RetryPolicy,
        parameters: CostParameters,
        budget: Optional[QueryBudget] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.cluster = cluster
        self.injector = injector
        self.policy = policy
        self.parameters = parameters
        self.budget = budget
        self.breaker = breaker
        self.workers_failed = 0

    def negotiate(self, label: str, inflight: List[BuildTables]) -> FaultOutcome:
        """Resolve one operator's fault draws before its rows flow.

        Draws until an attempt succeeds (or a straggler ends the loop,
        or the retry budget is exhausted).  Fail-stops and quarantines
        are applied to the cluster *immediately* and migrate the dead
        worker's slice of every table in *inflight*; the operator then
        runs on the final degraded layout, which is result-invariant:
        :meth:`~repro.engine.cluster.Cluster.fail_worker` preserves the
        global triple set.  Count-dependent pricing is deferred to
        :meth:`FaultOutcome.apply`.
        """
        outcome = FaultOutcome()
        attempts: List[FaultEvent] = []
        budget = self.budget
        query_id = budget.query_id if budget is not None else ""
        while True:
            if budget is not None:
                # a retry storm must not outlive the query's envelope
                budget.check_cancelled(phase="execute", operator=label)
                budget.check_deadline(phase="execute", operator=label)
            fault = self.injector.draw(
                label, outcome.retries, self.cluster.live_workers
            )
            if fault is None:
                return outcome
            outcome.faults_injected += 1
            attempts.append(fault)
            obs.event(
                "fault",
                kind=fault.kind.value,
                worker=fault.worker,
                operator=label,
                attempt=outcome.retries + 1,
            )
            obs.count("engine.recovery.faults")
            if fault.kind is FaultKind.STRAGGLER:
                outcome.straggler = fault
                outcome.live_size = self.cluster.live_size
                return outcome
            tripped = (
                self.breaker is not None
                and self.breaker.record_fault(fault.worker)
            )
            outcome.retries += 1
            if budget is not None:
                # the query-wide retry budget sits on top of the
                # per-operator policy and breaches first when smaller
                budget.charge_retry(phase="execute", operator=label)
            if outcome.retries > self.policy.max_retries:
                raise FaultToleranceError(
                    f"{label}: retry budget ({self.policy.max_retries}) "
                    f"exhausted; last fault was {fault}",
                    operator=label,
                    attempts=tuple(attempts),
                    query_id=query_id,
                )
            obs.event("retry", operator=label, retry=outcome.retries)
            obs.count("engine.recovery.retries")
            outcome.fixed_cost += self.policy.backoff_cost(outcome.retries)
            if fault.kind is FaultKind.TRANSIENT:
                if tripped:
                    outcome.fixed_cost += self._quarantine(
                        fault.worker, label, inflight
                    )
                # the attempt's output was lost: its full data cost is
                # charged as wasted work once the counts are final
                outcome.wasted_attempts += 1
            else:
                outcome.fixed_cost += self._recover_fail_stop(
                    fault.worker, inflight
                )
                if tripped:
                    # the crash already drained it; the open breaker
                    # just keeps the quarantine visible in reports
                    self._note_trip(fault.worker, label)

    # ------------------------------------------------------------------
    # circuit breaker
    # ------------------------------------------------------------------
    def _quarantine(
        self, worker: int, label: str, inflight: List[BuildTables]
    ) -> float:
        """Drain a tripped-but-alive worker like a fail-stop; return cost."""
        if not self.cluster.is_live(worker) or self.cluster.live_size <= 1:
            # already dead, or the last replica holder: nothing to drain
            return 0.0
        self._note_trip(worker, label)
        return self._recover_fail_stop(worker, inflight)

    def _note_trip(self, worker: int, label: str) -> None:
        obs.event("governance.circuit_open", worker=worker, operator=label)
        obs.count("governance.circuit_trips")

    # ------------------------------------------------------------------
    # fault-specific recovery
    # ------------------------------------------------------------------
    def _recover_fail_stop(
        self, worker: int, inflight: List[BuildTables]
    ) -> float:
        """Kill *worker*, migrate its lineage to a survivor; return the cost."""
        target, triples_rerouted = self.cluster.fail_worker(worker)
        rows_moved = 0
        for distributed in inflight:
            lost = distributed[worker]
            if len(lost):
                # merged, not appended: the survivor may hold the same rows
                distributed[target] = union_all([distributed[target], lost])
                rows_moved += len(lost)
            # the dead slot keeps its schema so later unions still match
            distributed[worker] = lost.empty_like()
        self.workers_failed += 1
        return (
            self.parameters.alpha * triples_rerouted
            + self.parameters.beta_repartition * rows_moved
        )
