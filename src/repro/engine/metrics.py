"""Execution metrics: what the simulated cluster measures.

Each operator records tuples read (I/O), tuples shipped over the
network, and tuples produced; :class:`ExecutionMetrics` aggregates them
and derives a *simulated time* by pricing the actual (not estimated)
tuple counts with the paper's cost model — the per-plan critical path
of Eq. 3 — so "query processing time" in the Table V reproduction is a
deterministic function of the real data movement the plan caused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.cost import CostParameters
from ..core.plans import JoinAlgorithm


@dataclass
class OperatorMetrics:
    """One executed operator's actual tuple counts.

    ``retries``/``faults_injected``/``recovery_cost`` stay at their
    zero defaults unless a fault injector was active: ``retries``
    counts failed attempts that were re-run, ``faults_injected`` counts
    every fault that hit the operator (including stragglers, which
    don't retry), and ``recovery_cost`` is the priced overhead —
    backoff waits, wasted attempts, replica re-scans, lineage
    re-shipping, and straggler delay — the fault handling added on top
    of :meth:`simulated_cost`.
    """

    operator: str
    algorithm: str
    tuples_read: int = 0
    tuples_shipped: int = 0
    tuples_produced: int = 0
    wall_seconds: float = 0.0
    retries: int = 0
    faults_injected: int = 0
    recovery_cost: float = 0.0
    #: ``tuples_shipped`` attributed to the scan predicates under each
    #: shipped input ("?x" for variable predicates).  An input covering
    #: several predicates credits its full count to each of them, so
    #: the breakdown can sum to more than ``tuples_shipped`` — it
    #: answers "which predicates' data moved", not "how do the bytes
    #: split".
    shipped_by_predicate: Dict[str, int] = field(default_factory=dict)

    def simulated_cost(self, parameters: CostParameters) -> float:
        """Price this operator with Table I using actual counts."""
        if self.algorithm == "scan":
            return 0.0
        algorithm = JoinAlgorithm(self.algorithm)
        io = parameters.alpha * self.tuples_read
        if algorithm is JoinAlgorithm.LOCAL:
            transfer = 0.0
        elif algorithm is JoinAlgorithm.BROADCAST:
            # tuples_shipped already accounts for the ×n fan-out
            transfer = parameters.beta_broadcast * self.tuples_shipped
        else:
            transfer = parameters.beta_repartition * self.tuples_shipped
        gamma = {
            JoinAlgorithm.LOCAL: parameters.gamma_local,
            JoinAlgorithm.BROADCAST: parameters.gamma_broadcast,
            JoinAlgorithm.REPARTITION: parameters.gamma_repartition,
        }[algorithm]
        return io + transfer + gamma * self.tuples_produced

    def total_cost(self, parameters: CostParameters) -> float:
        """Data cost plus the recovery surcharge this operator paid."""
        return self.simulated_cost(parameters) + self.recovery_cost


@dataclass
class ExecutionMetrics:
    """Aggregated metrics for one executed plan.

    The fault fields are only populated (and only surface in
    :meth:`summary`) when the executor ran with an active fault
    injector; fault-free execution reports exactly what it always did.
    """

    operators: List[OperatorMetrics] = field(default_factory=list)
    result_rows: int = 0
    wall_seconds: float = 0.0
    critical_path_cost: float = 0.0
    fault_injection_enabled: bool = False
    workers_failed: int = 0
    #: the :class:`~repro.core.governance.AbortCause` value when this
    #: run was stopped by governance (empty for completed runs)
    abort_cause: str = ""
    #: seconds from execution start until the first distinct result row
    #: was available: stamped when the sink admits its first row (with
    #: an ``executor.first_row`` span event); an empty result
    #: reconciles it to ``wall_seconds``.
    first_row_seconds: Optional[float] = None
    #: high-water mark of rows in batches handed over on the chunked
    #: probe spine and not yet consumed (engines with a ``chunk_size``
    #: only; bounded by chunk_size × pipeline depth).  Operator working
    #: state — build tables, the sink's dedup set — is deliberately
    #: outside this accounting: the bound is about what pipelining
    #: buffers *between* operators.
    peak_buffered_rows: int = 0
    #: True when a LIMIT ran on bounded batches (execution stopped as
    #: soon as the limit was reached, instead of truncating the full
    #: result)
    limit_pushdown: bool = False

    @property
    def total_tuples_read(self) -> int:
        """Σ tuples read across all operators."""
        return sum(op.tuples_read for op in self.operators)

    @property
    def total_tuples_shipped(self) -> int:
        """Σ tuples moved over the (simulated) network."""
        return sum(op.tuples_shipped for op in self.operators)

    @property
    def total_tuples_produced(self) -> int:
        """Σ tuples produced across all operators."""
        return sum(op.tuples_produced for op in self.operators)

    @property
    def shipped_by_predicate(self) -> Dict[str, int]:
        """Per-predicate shipped-tuples attribution, merged over operators.

        See :attr:`OperatorMetrics.shipped_by_predicate` for the
        attribution rule (an operator may credit one shipment to
        several predicates).  Empty when nothing was shipped.
        """
        merged: Dict[str, int] = {}
        for op in self.operators:
            for predicate, count in op.shipped_by_predicate.items():
                merged[predicate] = merged.get(predicate, 0) + count
        return merged

    @property
    def total_retries(self) -> int:
        """Σ failed attempts that were re-run across all operators."""
        return sum(op.retries for op in self.operators)

    @property
    def total_faults_injected(self) -> int:
        """Σ faults injected across all operators."""
        return sum(op.faults_injected for op in self.operators)

    @property
    def total_recovery_cost(self) -> float:
        """Σ priced recovery overhead across all operators."""
        return sum(op.recovery_cost for op in self.operators)

    def summary(self) -> Dict[str, object]:
        """The headline numbers as a flat dictionary.

        Values are numeric except ``abort_cause`` (a string), which
        only appears when governance stopped the run.
        """
        data: Dict[str, object] = {
            "result_rows": self.result_rows,
            "tuples_read": self.total_tuples_read,
            "tuples_shipped": self.total_tuples_shipped,
            "tuples_produced": self.total_tuples_produced,
            "wall_seconds": self.wall_seconds,
            "simulated_time": self.critical_path_cost,
        }
        breakdown = self.shipped_by_predicate
        if breakdown:
            data["shipped_by_predicate"] = dict(
                sorted(breakdown.items(), key=lambda kv: (-kv[1], kv[0]))
            )
        if self.first_row_seconds is not None:
            data["first_row_seconds"] = self.first_row_seconds
        if self.peak_buffered_rows:
            data["peak_buffered_rows"] = self.peak_buffered_rows
        if self.limit_pushdown:
            data["limit_pushdown"] = True
        if self.fault_injection_enabled:
            data["faults_injected"] = self.total_faults_injected
            data["retries"] = self.total_retries
            data["workers_failed"] = self.workers_failed
            data["recovery_cost"] = self.total_recovery_cost
        if self.abort_cause:
            data["abort_cause"] = self.abort_cause
        return data
