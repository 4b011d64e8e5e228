"""The plan executor: one pull-based operator pipeline over dictionary ids.

Every plan node *opens* into a generator of **batches** — a batch maps
worker slots to the id rows that worker holds
(:class:`~repro.engine.columnar.EncodedRelation`) — and the executor
drains the root through one sink, which decodes each batch's projected
rows into the result as it admits them — the only terms a run makes.
Distribution is a property of the join
operator, not of the driver:

* **scan** — each worker matches the pattern against its local graph;
* **local join** — each worker joins its own rows, no data moves
  (correct exactly when the optimizer proved the subquery local);
* **broadcast join** — the build inputs are collected and replicated to
  every worker holding the probe input;
* **repartition join** — every input row is rehashed to the worker
  owning its join-variable binding, then joined there.

A join streams its *probe* child (the one the optimizer estimates
largest) and holds the others as per-worker *build tables*.  An engine
supplies the scan and join access paths and :attr:`Engine.chunk_size`:
``None`` makes every operator emit exactly once (whole per-worker
relations flow from operator to operator), a number bounds the batches
on the plan's probe spine, which is what gives an early first row, a
``LIMIT`` that stops the pull, and bounded inter-operator buffering.
Nothing else differs between engines — counters, governance, fault
handling and spans come from the same lines.

The executor records actual tuple movement per operator and prices the
plan's critical path with the paper's cost model (Eq. 3 over measured
counts), which is the "query processing time" the Table V reproduction
reports alongside wall-clock time.

Execution is optionally *fault-tolerant*: given a
:class:`~repro.engine.faults.FaultInjector`, every operator passes one
boundary where seeded faults may fire while the plan is being opened
(:meth:`~repro.engine.recovery.RecoveryManager.negotiate`: scans when
they open, joins once their build sides are drained, i.e. plan
post-order).  Crashed workers' partitions are re-routed, build tables
still waiting for their probe are migrated, and the recovery overhead
is priced into the critical path.  A layout change *while a scan is
emitting* (nothing the executor does itself; a chaos test may) is
caught by the cluster's layout ``epoch``: the plan is replayed on the
degraded layout and the sink's set semantics absorb the re-emitted
rows.  Without an injector (or with ``fault_rate=0``) none of this
costs anything.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import nsmallest
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..core.cost import CostParameters, PAPER_PARAMETERS
from ..core.governance import QueryAborted, QueryBudget
from ..core.plans import JoinAlgorithm, JoinNode, PlanNode, ScanNode
from ..observability import runtime as obs
from ..observability.spans import NULL_SPAN
from ..rdf.terms import Variable
from ..sparql.ast import BGPQuery
from .base import Engine, resolve_engine
from .cluster import Cluster
from .columnar import EncodedRelation, union_all
from .faults import FaultInjector
from .metrics import ExecutionMetrics, OperatorMetrics
from .recovery import (
    DEFAULT_RETRY_POLICY,
    CircuitBreaker,
    FaultOutcome,
    RecoveryManager,
    RetryPolicy,
)
from .relations import Relation, Row

#: what flows between operators: worker slot -> that worker's id columns.
#: A yielded batch belongs to its consumer, which adopts its relations
#: or clears it when done.
Batch = Dict[int, EncodedRelation]
BatchStream = Iterator[Batch]


def plan_depth(plan: PlanNode) -> int:
    """Operators on the longest root-to-leaf path (the pipeline depth).

    ``metrics.peak_buffered_rows`` is bounded by
    ``chunk_size × plan_depth(plan)``: at most one in-flight batch per
    stage of the probe spine, and the spine is no longer than the
    deepest root-to-leaf operator path.
    """
    children = getattr(plan, "children", ())
    if not children:
        return 1
    return 1 + max(plan_depth(child) for child in children)


def _subtree_predicates(node: PlanNode) -> List[str]:
    """Sorted predicate labels of the scans under *node*.

    Variable predicates label as ``"?<name>"``.  Used to attribute one
    shipped input's tuple count to the predicates whose data it
    carries (see ``OperatorMetrics.shipped_by_predicate``).
    """
    labels = {
        f"?{leaf.pattern.predicate.name}"
        if isinstance(leaf.pattern.predicate, Variable)
        else str(leaf.pattern.predicate)
        for leaf in node.leaves()
        if leaf.pattern is not None
    }
    return sorted(labels)


class ExecutionError(RuntimeError):
    """Raised when a plan cannot be executed (malformed node)."""


class _LayoutChanged(Exception):
    """A scan saw ``cluster.epoch`` move while it was emitting."""

    def __init__(self, operator: str) -> None:
        super().__init__(operator)
        self.operator = operator


@dataclass
class _Operator:
    """One opened plan node: its metrics record and its batch stream."""

    op: OperatorMetrics
    variables: FrozenSet[Variable] = frozenset()
    stream: BatchStream = iter(())
    children: Sequence["_Operator"] = ()
    #: this operator's negotiated faults (fault injection only)
    outcome: Optional[FaultOutcome] = None
    span: "obs.SpanLike" = NULL_SPAN
    #: priced critical path of the subtree, set by ``Executor._settle``
    critical: float = 0.0


def _rows(batch: Batch) -> int:
    return sum(map(len, batch.values()))


class Executor:
    """Executes plans against a :class:`Cluster`.

    Relations are columns of dictionary ids from the scans to the sink
    (:class:`~repro.engine.columnar.EncodedRelation`); the sink decodes
    them into the returned :class:`~repro.engine.relations.Relation`.
    ``engine`` is a name from :data:`~repro.engine.base.ENGINES` or a
    ready :class:`~repro.engine.base.Engine` instance (that is how a
    chunk size is set, and a subclass with its own access paths need
    not be in the table):

    * ``"columnar"`` (the default) — indexed fragment scans, every
      operator emits once.
    * ``"pipelined"`` — the same access paths with batches of at most
      ``chunk_size`` rows on the probe spine: identical result rows,
      bounded inter-operator buffering, early first row and ``LIMIT``
      pushdown.

    Both execute the *same* plans through the *same* operators and
    return the rows of :func:`~repro.engine.relations.evaluate_reference`.
    Bounded batches never count fewer tuples than one batch per
    operator, and differ only where a repartition join sits on the
    probe spine: it re-produces a row whose cross-worker duplicates
    arrive in different batches (replayed work is real work).

    With a fault injector, a cluster that loses workers stays degraded
    after :meth:`execute` returns (as a real cluster would); call
    :meth:`Cluster.heal` or build a fresh cluster to restore it.
    """

    def __init__(
        self,
        cluster: Cluster,
        parameters: CostParameters = PAPER_PARAMETERS,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: RetryPolicy = DEFAULT_RETRY_POLICY,
        engine: Union[str, Engine] = "columnar",
        circuit_breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.engine, self._impl = resolve_engine(engine)
        self.cluster = cluster
        self.parameters = parameters
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy
        #: opt-in worker quarantine (changes seeded fault trajectories,
        #: so it is never on by default); closes again when the cluster
        #: heals
        self.circuit_breaker = circuit_breaker
        if circuit_breaker is not None:
            cluster.add_heal_listener(circuit_breaker.reset)
        self._multi_join = self._impl.join
        # per-execute() state, reset at the top of every run
        self._recovery: Optional[RecoveryManager] = None
        self._budget: Optional[QueryBudget] = None
        self._metrics = ExecutionMetrics()
        #: id(plan node) -> its opened operator, in registration order
        #: (plan post-order: children before parents)
        self._operators: Dict[int, _Operator] = {}
        #: id(join node) -> its build tables, from the moment they are
        #: drained until the join starts consuming them; a fail-stop
        #: migrates the dead worker's slice in each of them
        self._inflight: Dict[int, List[Batch]] = {}
        self._buffered = 0
        #: seconds already attributed to some operator (see _own_time)
        self._timed = 0.0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: PlanNode,
        query: Optional[BGPQuery] = None,
        budget: Optional[QueryBudget] = None,
        limit: Optional[int] = None,
    ) -> Tuple[Relation, ExecutionMetrics]:
        """Run *plan*; return the (deduplicated, projected) result.

        When *query* is given and has a projection, every batch is
        projected onto it as the sink admits it.

        A *limit* caps the result at that many rows: the sink stops
        pulling once it holds at least *limit* distinct rows and keeps
        the *limit* smallest by N-Triples text.  With bounded batches that
        stops execution early (``metrics.limit_pushdown`` is set); when
        every operator emits once it is a deterministic truncation of
        the full result.  The two may keep different rows — a LIMIT
        without ORDER BY never promises which.

        A *budget* is checked once per emitted batch — per operator
        when operators emit once, per chunk otherwise: the batch's rows
        are charged against its row budget, its deadline and
        cancellation token are polled, and the recovery manager charges
        every retry against its query-wide retry budget.  A breach
        raises :class:`~repro.core.governance.QueryAborted` enriched
        with the partial metrics, the fault-event attempt history, and
        the open span trace — execution never degrades partially, there
        is no partial answer to degrade to.
        """
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0, got {limit}")
        metrics = ExecutionMetrics()
        if self.fault_injector is not None and self.fault_injector.active:
            self.fault_injector.reset()  # replay from the seed every run
            self._recovery = RecoveryManager(
                self.cluster,
                self.fault_injector,
                self.retry_policy,
                self.parameters,
                budget=budget,
                breaker=self.circuit_breaker,
            )
            metrics.fault_injection_enabled = True
        else:
            self._recovery = None
        self._budget = budget
        self._metrics = metrics
        self._operators = {}
        self._inflight = {}
        self._buffered = 0
        self._timed = 0.0
        chunk = self._impl.chunk_size
        with obs.span(
            "execute",
            workers=self.cluster.size,
            fault_injection=metrics.fault_injection_enabled,
            engine=self.engine,
        ) as sp:
            started = time.perf_counter()
            try:
                result = self._run(plan, query, limit, chunk, started)
            except QueryAborted as abort:
                self._settle()
                metrics.wall_seconds = time.perf_counter() - started
                self._enrich_abort(abort, metrics, query)
                raise
            metrics.critical_path_cost = self._settle()
            if limit is not None and len(result) > limit:
                kept = nsmallest(limit, result.rows, key=lambda row: tuple(map(str, row)))
                result = Relation(result.variables, set(kept))
            metrics.limit_pushdown = limit is not None and chunk is not None
            metrics.wall_seconds = time.perf_counter() - started
            metrics.result_rows = len(result)
            if metrics.first_row_seconds is None:
                # an empty result: that there is no row is known at the end
                metrics.first_row_seconds = metrics.wall_seconds
            if self._recovery is not None:
                metrics.workers_failed = self._recovery.workers_failed
            if sp is not NULL_SPAN:
                sp.set(
                    result_rows=metrics.result_rows,
                    operators=len(metrics.operators),
                    simulated_time=metrics.critical_path_cost,
                    wall_seconds=metrics.wall_seconds,
                    workers_failed=metrics.workers_failed,
                )
                registry = obs.metrics()
                if registry is not None:
                    registry.histogram("engine.simulated_time").observe(
                        metrics.critical_path_cost
                    )
        return result, metrics

    # ------------------------------------------------------------------
    # the driver: open the plan, drain the root, replay on a layout change
    # ------------------------------------------------------------------
    def _run(
        self,
        plan: PlanNode,
        query: Optional[BGPQuery],
        limit: Optional[int],
        chunk: Optional[int],
        started: float,
    ) -> Relation:
        #: the sink: the distinct rows admitted so far, over `kept`, as terms
        #: (ids and terms are one-to-one: decoding before dedup keeps every count)
        admitted: Set[Row] = set()
        kept: Optional[List[Variable]] = None
        while True:
            try:
                root = self._open(plan, chunk)
                if kept is None:
                    kept = sorted(root.variables, key=lambda v: v.name)
                    if query is not None and query.projection:
                        kept = [v for v in kept if v in query.projection]
                self._drain(root.stream, kept, admitted, limit, started)
                return Relation(kept, admitted)
            except _LayoutChanged as moved:
                # replay on the degraded layout: the operators keep
                # their records (replayed work is real work) and the
                # sink's set semantics absorb the re-emitted rows
                obs.event(
                    "executor.stream_restart",
                    operator=moved.operator,
                    epoch=self.cluster.epoch,
                )
                self._inflight.clear()

    def _drain(
        self,
        stream: BatchStream,
        kept: List[Variable],
        admitted: Set[Row],
        limit: Optional[int],
        started: float,
    ) -> None:
        """The sink: project and decode each batch, dedup, stop at ``limit`` rows."""
        metrics = self._metrics
        try:
            # no budget poll: each batch was charged and polled by its
            # producer's _pump
            while limit is None or len(admitted) < limit:
                batch = next(stream, None)
                if batch is None:
                    break
                for relation in batch.values():
                    admitted.update(relation.term_tuples(kept))
                batch.clear()  # consumed
                if metrics.first_row_seconds is None and admitted:
                    first = time.perf_counter() - started
                    metrics.first_row_seconds = first
                    obs.event(
                        "executor.first_row", seconds=first, engine=self.engine
                    )
        finally:
            stream.close()  # halts every upstream operator still suspended

    def _settle(self) -> float:
        """Finalize the operators from their final counts; price the plan.

        Stamps every negotiated fault outcome and every operator span,
        and returns the critical path (Eq. 3 over measured counts plus
        recovery) of the last operator registered — the root, once the
        plan opened.
        """
        critical = 0.0
        self._metrics.operators = [o.op for o in self._operators.values()]
        for operator in self._operators.values():
            op = operator.op
            if operator.outcome is not None:
                operator.outcome.apply(op, self.parameters)
            below = max((child.critical for child in operator.children), default=0.0)
            critical = operator.critical = below + op.total_cost(self.parameters)
            if operator.span is not NULL_SPAN:
                priced = {} if op.algorithm == "scan" else {
                    "simulated_cost": op.simulated_cost(self.parameters)
                }
                operator.span.set(
                    operator=op.operator,
                    tuples_read=op.tuples_read,
                    tuples_shipped=op.tuples_shipped,
                    tuples_produced=op.tuples_produced,
                    wall_seconds=op.wall_seconds,
                    retries=op.retries,
                    faults_injected=op.faults_injected,
                    recovery_cost=op.recovery_cost,
                    **priced,
                )
        return critical

    # ------------------------------------------------------------------
    # governance
    # ------------------------------------------------------------------
    def _govern(self, op: OperatorMetrics, rows: int) -> None:
        """One per-batch budget check (no budget → no-op)."""
        budget = self._budget
        if budget is None:
            return
        budget.charge_rows(rows, phase="execute", operator=op.operator)
        budget.check_deadline(phase="execute", operator=op.operator)
        budget.check_cancelled(phase="execute", operator=op.operator)

    def _enrich_abort(
        self,
        abort: QueryAborted,
        metrics: ExecutionMetrics,
        query: Optional[BGPQuery],
    ) -> None:
        """Attach execution context to an abort on its way out."""
        metrics.abort_cause = abort.cause.value
        if self._recovery is not None:
            metrics.workers_failed = self._recovery.workers_failed
        if abort.partial_metrics is None:
            abort.partial_metrics = metrics
        if not abort.query_id and query is not None:
            abort.query_id = query.name or ""
        if not abort.attempts and self._recovery is not None:
            abort.attempts = tuple(self._recovery.injector.events)
        if not abort.trace:
            tracer = obs.current_tracer()
            if tracer is not None:
                abort.trace = tracer.open_span_names()
        obs.count("governance.aborts")
        obs.event(
            "governance.abort",
            cause=abort.cause.value,
            phase=abort.phase,
            operator=abort.operator,
        )

    # ------------------------------------------------------------------
    # the operator protocol: open(node, chunk) -> schema + batch stream
    # ------------------------------------------------------------------
    def _open(self, node: PlanNode, chunk: Optional[int]) -> _Operator:
        if isinstance(node, ScanNode):
            return self._open_scan(node, chunk)
        if isinstance(node, JoinNode):
            return self._open_join(node, chunk)
        raise ExecutionError(f"unknown plan node type {type(node).__name__}")

    def _record(self, node: PlanNode, label: str, algorithm: str) -> _Operator:
        """The node's operator record — its existing one when a replay re-opens it."""
        return self._operators.get(id(node)) or _Operator(
            OperatorMetrics(operator=label, algorithm=algorithm)
        )

    def _negotiate(self, operator: _Operator) -> None:
        """This operator's fault boundary (crossed once, also across replays)."""
        if self._recovery is None or operator.outcome is not None:
            return
        inflight = [
            table
            for tables in self._inflight.values()
            for table in tables
            if table is not None
        ]
        operator.outcome = self._recovery.negotiate(operator.op.operator, inflight)

    @contextmanager
    def _own_time(self, op: OperatorMetrics) -> Iterator[None]:
        """Add the enclosed time to *op*, net of operators nested in it."""
        started, nested = time.perf_counter(), self._timed
        try:
            yield
        finally:
            own = time.perf_counter() - started - (self._timed - nested)
            op.wall_seconds += own
            self._timed += own

    def _pump(
        self, op: OperatorMetrics, body: BatchStream, chunk: Optional[int]
    ) -> BatchStream:
        """Drive one operator's body: what every emitted batch goes through.

        Own time, the produced count, the budget (rows charged, deadline
        and cancellation polled — once per batch) and, on the chunked
        spine, the buffered-rows accounting: a batch is buffered from
        the moment it is yielded until its consumer comes back for the
        next one (or closes the stream).
        """
        metrics = self._metrics
        try:
            while True:
                with self._own_time(op):
                    batch = next(body, None)
                if batch is None:
                    return
                rows = _rows(batch)
                op.tuples_produced += rows
                self._govern(op, rows)
                if chunk is None:
                    # whole relations handed to their consumer are its
                    # working state, not inter-operator buffering
                    yield batch
                    continue
                self._buffered += rows
                if self._buffered > metrics.peak_buffered_rows:
                    metrics.peak_buffered_rows = self._buffered
                try:
                    yield batch
                finally:
                    self._buffered -= rows
        finally:
            body.close()

    @staticmethod
    def _slices(batch: Batch, chunk: Optional[int]) -> BatchStream:
        """Re-slice *batch* into batches of at most *chunk* rows.

        Unbounded: the batch itself, every slot, even when empty (the
        operator emits exactly once).  Bounded: one slot per batch,
        empty slots dropped, relations that already fit adopted as they
        are.
        """
        if chunk is None:
            yield batch
            return
        for slot, relation in batch.items():
            if len(relation) <= chunk:
                if len(relation):
                    yield {slot: relation}
                continue
            # a chunk is a slice of every column, cut when it is pulled:
            # a consumer that stops pulling stops the scan
            for start in range(0, len(relation), chunk):
                yield {slot: relation._slice(start, start + chunk)}

    # -- scan -------------------------------------------------------------
    def _open_scan(self, node: ScanNode, chunk: Optional[int]) -> _Operator:
        if node.pattern is None:
            raise ExecutionError("scan node carries no pattern")
        operator = self._record(node, f"scan[{node.pattern_index}]", "scan")
        self._operators[id(node)] = operator
        operator.variables = frozenset(node.pattern.variables())
        with obs.span("scan", pattern=node.pattern_index) as operator.span:
            with self._own_time(operator.op):
                self._negotiate(operator)
        operator.stream = self._pump(
            operator.op, self._scan(node, operator.op, chunk), chunk
        )
        return operator

    def _scan(
        self, node: ScanNode, op: OperatorMetrics, chunk: Optional[int]
    ) -> BatchStream:
        """Each worker's matches, slot by slot, re-sliced to *chunk* rows.

        Raises :class:`_LayoutChanged` when the cluster's layout epoch
        moved while this scan was emitting: what it handed out so far
        came from a layout that no longer exists.
        """
        cluster = self.cluster
        epoch = cluster.epoch
        whole: Batch = {}
        for slot, relation in enumerate(self._impl.scan(cluster, node.pattern)):
            if cluster.epoch != epoch:
                raise _LayoutChanged(op.operator)
            op.tuples_read += len(relation)
            if chunk is None:
                whole[slot] = relation
            else:
                yield from self._slices({slot: relation}, chunk)
        if cluster.epoch != epoch:
            raise _LayoutChanged(op.operator)
        if chunk is None:
            yield whole

    # -- join -------------------------------------------------------------
    def _open_join(self, node: JoinNode, chunk: Optional[int]) -> _Operator:
        operator = self._record(node, self._label(node), node.algorithm.value)
        op = operator.op
        # the probe (streamed) child is the one the optimizer estimates
        # largest; ties break on the lowest child index.  Every other
        # child is a build side: opened unchunked — its consumer holds
        # all its rows anyway — and drained before the next sibling
        # opens, its single batch adopted as the per-worker build tables
        # (index-aligned with the children; None at the probe).
        sizes = [child.cardinality for child in node.children]
        probe = max(range(len(sizes)), key=lambda i: (sizes[i], -i))
        tables: List[Optional[Batch]] = []
        self._inflight[id(node)] = tables
        children: List[_Operator] = []
        with obs.span(
            "join", algorithm=node.algorithm.value, arity=node.arity
        ) as operator.span, self._own_time(op):
            # no budget poll: each batch drained here was charged and
            # polled by its producer's _pump
            for index, child in enumerate(node.children):
                opened = self._open(child, chunk if index == probe else None)
                children.append(opened)
                if index == probe:
                    tables.append(None)
                else:
                    (table,) = opened.stream  # unchunked: emits exactly once
                    op.tuples_read += _rows(table)
                    tables.append(table)
            # registered after the children: plan post-order
            self._operators.setdefault(id(node), operator)
            operator.children = children
            operator.variables = frozenset().union(*(c.variables for c in children))
            variable: Optional[Variable] = None
            if node.algorithm is JoinAlgorithm.REPARTITION:
                variable = node.join_variable or self._common_variable(children)
                if not all(variable in child.variables for child in children):
                    raise ExecutionError(
                        f"repartition input lacks join variable {variable}"
                    )
            self._negotiate(operator)
        operator.stream = self._pump(
            op,
            self._join(node, op, children[probe], probe, tables, variable, chunk),
            chunk,
        )
        return operator

    def _join(
        self,
        node: JoinNode,
        op: OperatorMetrics,
        probe: _Operator,
        probe_index: int,
        tables: List[Optional[Batch]],
        variable: Optional[Variable],
        chunk: Optional[int],
    ) -> BatchStream:
        """Stream the probe child through the build tables.

        Runs from the first pull on: the build tables leave the
        in-flight registry (no fault is negotiated while a stream is
        flowing), are placed where the algorithm wants them — LOCAL
        leaves them on their worker, BROADCAST collects each once and
        replicates it, REPARTITION routes every row to the slot owning
        its binding — and every probe batch's slot is then joined with
        the tables of that slot.
        """
        self._inflight.pop(id(node), None)
        cluster = self.cluster
        broadcast = node.algorithm is JoinAlgorithm.BROADCAST
        repartition = node.algorithm is JoinAlgorithm.REPARTITION
        # LOCAL joins ship nothing, so nothing is attributed
        predicates = (
            [_subtree_predicates(child) for child in node.children]
            if broadcast or repartition
            else []
        )

        def ship(index: int, moved: int) -> None:
            op.tuples_shipped += moved
            for predicate in predicates[index]:
                op.shipped_by_predicate[predicate] = (
                    op.shipped_by_predicate.get(predicate, 0) + moved
                )

        # no budget poll: _pump polls once this operator's first batch is out
        for index, table in enumerate(tables):
            if table is None:
                continue
            if broadcast:
                # replicating layouts hold a row on several workers
                collected = union_all(list(table.values()))
                ship(index, len(collected) * cluster.live_size)
                tables[index] = dict.fromkeys(range(cluster.size), collected)
            elif repartition:
                ship(index, _rows(table))
                tables[index] = self._rehash(table, variable)
        views: Dict[int, Optional[List[Optional[Batch]]]] = {}  # by slot of the last batch
        try:
            for batch in probe.stream:
                rows = _rows(batch)
                op.tuples_read += rows
                if repartition:
                    ship(probe_index, rows)
                    batch = self._rehash(batch, variable)
                if views.keys() != batch.keys():  # a slot's first batch: joined per call
                    views = dict.fromkeys(batch)
                elif None in views.values():  # its second in a row: views of larger tables
                    views = {s: [{s: t[s]._retained()} if t and len(t[s]) > len(batch[s])
                                 else t for t in tables] for s in batch}
                joined = {
                    slot: self._multi_join(
                        [
                            piece if index == probe_index else table[slot]
                            for index, table in enumerate(views[slot] or tables)
                        ]
                    )
                    for slot, piece in batch.items()
                    if len(piece) or chunk is None  # emitting once: every slot
                }
                batch.clear()  # consumed: free the probe rows before handing on
                yield from self._slices(joined, chunk)
        finally:
            probe.stream.close()

    def _rehash(self, batch: Batch, variable: Variable) -> Batch:
        """Move every row of *batch* to the slot owning its *variable* binding.

        The workers' rows are united first — two may hold the same row, and
        it may reach its slot only once — then the key column is routed at
        once and each slot's share is one mask.
        """
        moved = union_all(list(batch.values()))
        batch.clear()  # the source-keyed relations are dropped here
        # reads the cluster's *current* liveness state at call time
        owners = self.cluster.route_ids(moved.keys([variable]))
        return {
            slot: moved._select(list(map(slot.__eq__, owners)))
            for slot in range(self.cluster.size)
        }

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _common_variable(children: Sequence[_Operator]) -> Variable:
        shared = set(children[0].variables)
        for child in children[1:]:
            shared &= set(child.variables)
        if not shared:
            raise ExecutionError("repartition join without a shared variable")
        return sorted(shared, key=lambda v: v.name)[0]

    @staticmethod
    def _label(node: JoinNode) -> str:
        variable = f"?{node.join_variable.name}" if node.join_variable else "?"
        return f"{node.algorithm.value}-join({node.arity}) on {variable}"

