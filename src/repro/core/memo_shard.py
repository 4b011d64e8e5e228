"""Memo-sharded parallel plan search: popcount tiers + work stealing.

Trummer & Koch's shared-nothing parallelization allocates *all* DP
subproblems across workers, so every connected subquery is still solved
exactly once — the property Algorithm 1's memo gives the serial search.
This module implements that scheme for TD-CMD / TD-CMDP (the function
that decides between it and the serial search, on the enumerator the
session built, is :func:`repro.core.parallel.search`):

* the connected-subquery space is partitioned into **popcount tiers**
  (tier k = every connected subquery with k patterns), grown
  breadth-first from the singletons — every connected subquery of size
  k extends one of size k-1, so the tiers are exactly the DP levels;
* a **persistent worker pool** solves one tier at a time.  The driver
  broadcasts the previous tier's solved ``{bitset: cost}`` entries to
  every worker first, so each worker's child-cost lookups always hit a
  complete lower-tier memo — the only state the cost recursion needs,
  because a subquery's candidate set (and the cardinalities involved)
  is a pure function of its bitset;
* within a tier, entries are chunked onto per-worker work queues;
  a worker that drains its own queue **steals** a chunk from the most
  loaded sibling (driver-mediated, counted per worker), so skewed
  division spaces no longer leave workers idle;
* workers return *choice descriptors* (winning operator, parts,
  variable), never plan objects; the driver rebuilds the final plan
  bottom-up through the same :class:`~repro.core.cost.PlanBuilder`
  arithmetic, which keeps the cost — and the plan — bit-identical to
  the serial search (same candidate order, same strict ``<``
  tie-break, same float operations).

Governance: the driver polls its :class:`~repro.core.governance.QueryBudget`
every scheduler tick and ships the *remaining* deadline seconds to the
workers (re-anchored per process: clocks do not cross process
boundaries).  On expiry with ``anytime`` set, the driver degrades to a
complete plan assembled from the finished tiers: a greedy disjoint
cover of the query by the largest solved entries (singletons guarantee
the cover exists), merged with binary repartition joins by
:func:`~repro.core.enumeration.greedy_fallback_plan`.
"""

from __future__ import annotations

import multiprocessing as mp
import queue as queue_module
import time
import traceback
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..observability import runtime as obs
from ..observability.spans import Span, Tracer
from .enumeration import (
    EnumerationStats,
    OptimizationResult,
    OptimizationTimeout,
    SubqueryRecord,
    TopDownEnumerator,
    greedy_fallback_plan,
)
from .governance import Deadline, QueryBudget
from .local_query import LocalQueryIndex
from .optimizer import make_builder
from .plans import PlanNode
from . import bitset as bs

#: scheduler poll interval while waiting on worker results
_POLL_SECONDS = 0.05
#: target chunks per worker per tier (keeps stealing worthwhile)
_CHUNKS_PER_WORKER = 4
#: hard ceiling on entries per chunk (bounds sync latency on huge tiers)
_MAX_CHUNK = 64
#: chunks pushed to a worker before its first completion comes back
_PREFETCH = 2
#: below this many non-singleton entries sharding is pure overhead
_MIN_ENTRIES = 4


class _TierExpired(Exception):
    """Internal: a deadline fired mid-tier (driver- or worker-side)."""

    def __init__(self, tiers_done: int) -> None:
        super().__init__()
        self.tiers_done = tiers_done


def subquery_tiers(join_graph: Any) -> List[List[int]]:
    """All connected subqueries, grouped (and sorted) by popcount.

    ``tiers[k]`` holds every connected subquery with k patterns, in
    ascending bitset order; ``tiers[0]`` is empty and ``tiers[n]`` is
    ``[full]`` for a connected query.  Grown breadth-first: every
    connected set of size k is a connected set of size k-1 plus one
    neighboring pattern (every connected subgraph has a non-cut
    vertex), so the frontier walk is exhaustive.
    """
    n = join_graph.size
    tiers: List[List[int]] = [[] for _ in range(n + 1)]
    if n == 0:
        return tiers
    tiers[1] = [bs.bit(i) for i in range(n)]
    for k in range(2, n + 1):
        grown = set()
        for bits in tiers[k - 1]:
            for i in bs.iter_bits(join_graph.neighbors(bits)):
                grown.add(bits | bs.bit(i))
        tiers[k] = sorted(grown)
    return tiers


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: a worker's report for one solved entry:
#: (bits, cost, choice, plans, divisions, shorts, reads)
_SolvedEntry = Tuple[int, float, Tuple[Any, ...], int, int, int, int]


class _WorkerState:
    """Per-process solve context: builder, enumerator, lower-tier memo."""

    def __init__(self, payload: Tuple[Any, ...]) -> None:
        (
            query,
            statistics,
            enumerator_class,
            partitioning,
            parameters,
            deadline_remaining,
            _trace,
        ) = payload
        self.builder = make_builder(query, statistics, parameters=parameters)
        self.local_index = LocalQueryIndex(self.builder.join_graph, partitioning)
        # deadlines do not cross process boundaries; re-anchor the
        # remaining allowance on this process's monotonic clock (a
        # strict budget: the enumerator's poll raises OptimizationTimeout)
        budget = (
            QueryBudget(deadline=Deadline.after(deadline_remaining))
            if deadline_remaining is not None
            else None
        )
        self.enumerator: TopDownEnumerator = enumerator_class(
            self.builder.join_graph,
            self.builder,
            local_index=self.local_index,
            budget=budget,
        )
        #: solved costs for every lower-tier entry (synced per tier)
        self.costs: Dict[int, float] = {}
        #: the costing loop's view of them: ``(cardinality, cost)`` plan
        #: stubs, made on a part's first read
        self.memo: Dict[int, PlanNode] = {}

    def _lower_tier_plan(self, bits: int, is_local: bool) -> PlanNode:
        """What the serial search's memo holds for a division part.

        The costing loop reads only a child's cardinality and cost, and
        both are functions of the bitset alone: a singleton child's
        plan is a scan, whose cardinality is the pattern cardinality;
        any larger child's plan carries the estimator's subquery
        cardinality; the cost was solved one tier down.  No plan object
        is needed, so the stub is a bare :class:`PlanNode`.
        """
        estimator = self.builder.estimator
        if bits & (bits - 1):
            cardinality = estimator.cardinality(bits)
        else:
            cardinality = estimator.pattern_cardinality(bs.lowest_index(bits))
        stub = PlanNode(bits=bits, cardinality=cardinality, cost=self.costs[bits])
        self.memo[bits] = stub
        return stub

    def solve(self, bits: int) -> _SolvedEntry:
        """One serial ``BestPlanGen`` call, without recursion.

        This *is* the serial costing loop
        (:meth:`~repro.core.enumeration.TopDownEnumerator._search`):
        same candidate order, seed handling, strict ``<`` tie-break and
        float arithmetic, which is what makes the merged search
        bit-identical to serial.  Only the memo differs: child costs
        come from :attr:`costs` (the complete lower-tier memo) instead
        of recursive calls.

        Returns ``(bits, cost, choice, plans, divisions, shorts, reads)``
        where *choice* reconstructs the winning plan: ``("l",)`` for the
        flat local plan, ``("j", operator, parts, variable)`` for a join.
        """
        enumerator = self.enumerator
        enumerator._check_deadline()
        record = SubqueryRecord()
        # a child read is a hit on the stub memo or the stub's creation
        reads_before = enumerator.stats.memo_hits + len(self.memo)
        cost, seed, choice = enumerator._search(
            bits,
            self.local_index.is_local(bits),
            record,
            self.memo,
            self._lower_tier_plan,
        )
        reads = enumerator.stats.memo_hits + len(self.memo) - reads_before
        if choice is None and seed is None:
            raise ValueError(f"no connected division for subquery {bits:#x}")
        return (
            bits,
            cost,
            ("l",) if choice is None else ("j",) + choice,
            record.plans_considered,
            record.divisions_enumerated,
            record.local_short_circuits,
            reads,
        )


def _worker_main(
    worker_id: int, payload: Tuple[Any, ...], task_q: Any, result_q: Any
) -> None:
    """One pool process: sync tiers, solve chunks, report results."""
    tracer: Optional[Tracer] = None
    span = None
    try:
        trace = payload[-1]
        state = _WorkerState(payload)
        if trace:
            tracer = Tracer(track=f"worker-{worker_id}")
        result_q.put(("ready", worker_id, time.perf_counter()))
        chunks_done = 0
        entries_done = 0
        scope = obs.activate(tracer) if tracer is not None else None
        if scope is not None:
            scope.__enter__()
            span = tracer.span("worker", worker_id=worker_id)
        while True:
            message = task_q.get()
            kind = message[0]
            if kind == "stop":
                break
            if kind == "tier":
                state.costs.update(message[1])
                continue
            _, chunk_id, entry_bits = message
            started = time.perf_counter()
            results: List[_SolvedEntry] = []
            expired = False
            try:
                for bits in entry_bits:
                    results.append(state.solve(bits))
            except OptimizationTimeout:
                expired = True
            elapsed = time.perf_counter() - started
            chunks_done += 1
            entries_done += len(results)
            status = "expired" if expired else "done"
            result_q.put((status, worker_id, chunk_id, results, elapsed))
        if span is not None:
            span.set(chunks=chunks_done, entries=entries_done)
            span.__exit__(None, None, None)
            span = None
        if scope is not None:
            scope.__exit__(None, None, None)
        result_q.put(
            ("trace", worker_id, tracer.to_payload() if tracer is not None else None)
        )
    except Exception:  # pragma: no cover - surfaced driver-side
        result_q.put(("error", worker_id, traceback.format_exc()))


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
class _ShardDriver:
    """Tier-synchronous scheduler over a persistent worker pool.

    Shards the search the *serial* enumerator would run across *jobs*
    workers: query, statistics, partitioning, cost parameters and budget
    are the enumerator's own, and every worker rebuilds an enumerator
    of the same class from them.
    """

    def __init__(
        self, serial: TopDownEnumerator, jobs: int, tiers: List[List[int]]
    ) -> None:
        self.jobs = jobs
        self.builder = serial.builder
        self.algorithm_name = serial.algorithm_name
        self.tiers = tiers
        self.budget = serial.budget
        deadline = self.budget.deadline if self.budget is not None else None
        self.tracer = obs.current_tracer()
        self.payload = (
            serial.join_graph.query,
            serial.builder.estimator.catalog,
            type(serial),
            serial.local_index.partitioning,
            serial.builder.parameters,
            deadline.remaining() if deadline is not None else None,
            self.tracer is not None,
        )
        # solved state + accounting: deliberately unlocked.  Every
        # field below is touched only by the driver thread — workers are
        # *processes* and all cross-process traffic flows through the
        # mp queues, so there is no shared-memory access to guard.  If a
        # future server shares one driver across threads, declare these
        # `#: guarded-by:` and add the lock (concurrency audit, PR 8).
        self.costs: Dict[int, float] = {}
        self.choices: Dict[int, Tuple[Any, ...]] = {}
        self.solved_by_worker = [0] * jobs
        self.busy_seconds = [0.0] * jobs
        self.per_worker_steals = [0] * jobs
        self.steals = 0
        self.plans = self.divisions = self.shorts = self.reads = 0
        self.worker_started: List[Optional[float]] = [None] * jobs
        self.traces: Dict[int, Optional[Dict[str, Any]]] = {}
        # pool
        self._ctx = mp.get_context()
        self._result_q = self._ctx.Queue()
        self._task_qs = [self._ctx.Queue() for _ in range(jobs)]
        self._procs: List[Any] = []

    # -- pool lifecycle -------------------------------------------------
    def start(self) -> None:
        self.spawn_started = time.perf_counter()
        for index in range(self.jobs):
            process = self._ctx.Process(
                target=_worker_main,
                args=(index, self.payload, self._task_qs[index], self._result_q),
                daemon=True,
            )
            process.start()
            self._procs.append(process)

    def shutdown(self, graceful: bool) -> None:
        """Stop the pool; on a graceful stop, collect worker traces."""
        try:
            if graceful:
                for task_q in self._task_qs:
                    task_q.put(("stop",))
                want_traces = self.tracer is not None
                stop_by = time.perf_counter() + 5.0
                while (
                    want_traces
                    and len(self.traces) < self.jobs
                    and time.perf_counter() < stop_by
                ):
                    try:
                        message = self._result_q.get(timeout=_POLL_SECONDS)
                    except queue_module.Empty:
                        continue
                    if message[0] == "trace":
                        self.traces[message[1]] = message[2]
            for process in self._procs:
                process.join(timeout=0.1 if not graceful else 1.0)
            for process in self._procs:
                if process.is_alive():
                    process.terminate()
            for process in self._procs:
                process.join(timeout=1.0)
        finally:
            for task_q in self._task_qs:
                task_q.close()
                task_q.cancel_join_thread()
            self._result_q.close()
            self._result_q.cancel_join_thread()

    # -- scheduling -----------------------------------------------------
    def run(self) -> None:
        """Solve every tier; fills :attr:`costs` / :attr:`choices`."""
        join_graph = self.builder.join_graph
        n = join_graph.size
        updates: List[Tuple[int, float]] = []
        for bits in self.tiers[1]:
            index = bs.lowest_index(bits)
            self.costs[bits] = 0.0
            self.choices[bits] = ("s", index)
            updates.append((bits, 0.0))
        for k in range(2, n + 1):
            entries = self.tiers[k]
            if not entries:
                continue
            with obs.span(
                "parallel.tier", tier=k, entries=len(entries)
            ) as tier_span:
                tier_steals = self._run_tier(k, entries, updates)
                tier_span.set(steals=tier_steals)
            updates = sorted((bits, self.costs[bits]) for bits in entries)

    def _run_tier(
        self, k: int, entries: List[int], updates: List[Tuple[int, float]]
    ) -> int:
        jobs = self.jobs
        for task_q in self._task_qs:
            task_q.put(("tier", updates))
        chunk_size = min(
            _MAX_CHUNK, max(1, -(-len(entries) // (jobs * _CHUNKS_PER_WORKER)))
        )
        chunks = [
            entries[i : i + chunk_size] for i in range(0, len(entries), chunk_size)
        ]
        queues: List[deque[int]] = [deque() for _ in range(jobs)]
        for chunk_id in range(len(chunks)):
            queues[chunk_id % jobs].append(chunk_id)
        steals_before = self.steals
        completed = 0
        for worker in range(jobs):
            for _ in range(_PREFETCH):
                self._dispatch(worker, queues, chunks)
        while completed < len(chunks):
            self._check_budget(k)
            try:
                message = self._result_q.get(timeout=_POLL_SECONDS)
            except queue_module.Empty:
                self._check_liveness()
                continue
            kind = message[0]
            if kind == "ready":
                self.worker_started[message[1]] = message[2]
            elif kind == "error":
                raise RuntimeError(
                    f"memo-shard worker {message[1]} failed:\n{message[2]}"
                )
            elif kind in ("done", "expired"):
                _, worker, _chunk_id, results, elapsed = message
                self._merge_results(worker, results, elapsed)
                if kind == "expired":
                    raise _TierExpired(tiers_done=k - 1)
                completed += 1
                self._dispatch(worker, queues, chunks)
            elif kind == "trace":  # late trace from a prior shutdown race
                self.traces[message[1]] = message[2]
        return self.steals - steals_before

    def _dispatch(
        self, worker: int, queues: List[deque[int]], chunks: List[List[int]]
    ) -> None:
        if queues[worker]:
            chunk_id = queues[worker].popleft()
        else:
            victim = max(range(self.jobs), key=lambda v: len(queues[v]))
            if not queues[victim]:
                return
            # steal from the tail of the most loaded sibling's queue
            chunk_id = queues[victim].pop()
            self.steals += 1
            self.per_worker_steals[worker] += 1
        self._task_qs[worker].put(("chunk", chunk_id, chunks[chunk_id]))

    def _merge_results(
        self, worker: int, results: Sequence[_SolvedEntry], elapsed: float
    ) -> None:
        self.busy_seconds[worker] += elapsed
        self.solved_by_worker[worker] += len(results)
        for bits, cost, choice, plans, divisions, shorts, reads in results:
            self.costs[bits] = cost
            self.choices[bits] = choice
            self.plans += plans
            self.divisions += divisions
            self.shorts += shorts
            self.reads += reads

    def _check_budget(self, tier: int) -> None:
        budget = self.budget
        if budget is not None:
            budget.check_cancelled(phase="optimize")
            if budget.deadline_expired():
                raise _TierExpired(tiers_done=tier - 1)

    def _check_liveness(self) -> None:
        for index, process in enumerate(self._procs):
            if not process.is_alive():
                raise RuntimeError(
                    f"memo-shard worker {index} died unexpectedly "
                    f"(exit code {process.exitcode})"
                )

    # -- results --------------------------------------------------------
    def reconstruct(self, bits: int, cache: Dict[int, PlanNode]) -> PlanNode:
        """Rebuild the plan for *bits* from the recorded choices.

        Uses the driver's own builder, so the float arithmetic — and
        therefore the plan cost — is exactly what the serial search
        would have produced for the same choices.
        """
        plan = cache.get(bits)
        if plan is not None:
            return plan
        choice = self.choices[bits]
        if choice[0] == "s":
            plan = self.builder.scan(choice[1])
        elif choice[0] == "l":
            plan = self.builder.local_join_plan(bits)
        else:
            _, operator, parts, variable = choice
            children = [self.reconstruct(part, cache) for part in parts]
            plan = self.builder.join(operator, children, variable)
        cache[bits] = plan
        return plan

    def degraded_plan(self, tiers_done: int) -> Tuple[PlanNode, str, str]:
        """A complete plan from the finished tiers (anytime expiry).

        Greedily covers the query with the largest solved entries
        (disjoint, deterministic tie-break by bitset); the singleton
        tier is always solved, so a cover always exists.  The cover's
        memoized plans are then merged by the greedy fallback planner
        (binary repartition joins), so the result is complete,
        Cartesian-product-free, and verifier-clean.
        """
        full = self.builder.join_graph.full
        remaining = full
        cover: List[int] = []
        for bits in sorted(self.costs, key=lambda b: (-bs.popcount(b), b)):
            if bits & remaining == bits:
                cover.append(bits)
                remaining &= ~bits
                if not remaining:
                    break
        cache: Dict[int, PlanNode] = {}
        frontier = [self.reconstruct(bits, cache) for bits in cover]
        if len(frontier) == 1:
            plan = frontier[0]
        else:
            plan = greedy_fallback_plan(self.builder, frontier=frontier)
        total_tiers = self.builder.join_graph.size
        reason = (
            f"deadline: merged {len(cover)} sharded plans from "
            f"{tiers_done}/{total_tiers} finished tiers"
        )
        label = f"{self.algorithm_name}[parallel x{self.jobs}][anytime]"
        return plan, label, reason

    def stats(self, wall_seconds: float) -> EnumerationStats:
        """Merged serial-equivalent counters plus scheduler telemetry.

        Counter identity with serial holds whenever the serial search
        expands the full connected-subquery space (every unpartitioned
        query); with partitioning + Rule 3 the tiers are a superset of
        the serial traversal (entries below local queries are priced as
        flat local plans the serial search never requests), so
        ``subqueries_expanded`` / ``plans_considered`` may exceed the
        serial counts there.  ``memo_hits`` is reconstructed from child
        cost reads: the serial traversal performs one ``get_best_plan``
        per child reference plus one for the root, and misses exactly
        once per entry.  ``speedup`` divides the summed worker seconds
        by the wall time *minus pool spin-up*: process forking is a
        fixed platform cost, and charging it to the search would
        understate small-query speedups.
        """
        singletons = len(self.tiers[1])
        solved = singletons + sum(self.solved_by_worker)
        started = [s for s in self.worker_started if s is not None]
        startup = 0.0
        if started:
            startup = max(0.0, min(started) - self.spawn_started)
        startup = min(startup, wall_seconds)
        search_wall = wall_seconds - startup
        max_share = max(self.solved_by_worker) if self.solved_by_worker else 0
        min_share = min(self.solved_by_worker) if self.solved_by_worker else 0
        return EnumerationStats(
            plans_considered=self.plans,
            divisions_enumerated=self.divisions,
            subqueries_expanded=solved,
            memo_hits=max(0, self.reads + 1 - solved),
            local_short_circuits=self.shorts,
            workers=self.jobs,
            per_worker_subqueries=list(self.solved_by_worker),
            per_worker_seconds=list(self.busy_seconds),
            speedup=(sum(self.busy_seconds) / search_wall) if search_wall > 0 else 0.0,
            steals=self.steals,
            per_worker_steals=list(self.per_worker_steals),
            worker_balance=(min_share / max_share) if max_share else 0.0,
            pool_startup_seconds=startup,
        )

    def adopt_traces(self, parallel_span: Any, dispatch_at: float) -> None:
        if self.tracer is None:
            return
        parent = parallel_span if isinstance(parallel_span, Span) else None
        for index in range(self.jobs):
            payload = self.traces.get(index)
            if payload is not None:
                self.tracer.adopt(
                    payload,
                    track=f"worker-{index}",
                    parent=parent,
                    rebase_to=dispatch_at,
                )


    def search(self, started: float) -> OptimizationResult:
        """Run the sharded search: pool up, every tier, merge, pool down.

        *started* is the caller's ``perf_counter`` reading from before
        it built the tiers, so ``elapsed_seconds`` covers that too.
        """
        join_graph = self.builder.join_graph
        label = f"{self.algorithm_name}[parallel x{self.jobs}]"
        degraded_reason = ""
        with obs.span(
            "parallel.search",
            jobs=self.jobs,
            algorithm=self.algorithm_name.lower(),
            tiers=join_graph.size,
            entries=sum(len(tier) for tier in self.tiers),
        ) as parallel_span:
            dispatch_at = self.tracer.now() if self.tracer is not None else 0.0
            self.start()
            graceful = True
            try:
                try:
                    self.run()
                    plan = self.reconstruct(join_graph.full, {})
                except _TierExpired as expiry:
                    # only a budget with a deadline can expire a tier
                    budget = self.budget
                    assert budget is not None and budget.deadline is not None
                    if not budget.anytime:
                        raise OptimizationTimeout(
                            f"{self.algorithm_name} exceeded "
                            f"{budget.deadline.seconds:g}s"
                        ) from None
                    plan, label, degraded_reason = self.degraded_plan(
                        expiry.tiers_done
                    )
                except BaseException:
                    graceful = False
                    raise
            finally:
                self.shutdown(graceful)
            wall = time.perf_counter() - self.spawn_started
            self.adopt_traces(parallel_span, dispatch_at)
            parallel_span.set(wall_seconds=wall, steals=self.steals)
        stats = self.stats(wall)
        if degraded_reason:
            stats.degraded = True
            stats.degradation_reason = degraded_reason
            obs.event("governance.degraded", algorithm=label, reason=degraded_reason)
            obs.count("governance.anytime_plans")
        obs.count("parallel.steals", self.steals)
        obs.gauge("parallel.worker_balance", stats.worker_balance)
        stats.flush_to_metrics()
        return OptimizationResult(
            plan=plan,
            algorithm=label,
            stats=stats,
            elapsed_seconds=time.perf_counter() - started,
        )
