"""Memo-sharded parallel plan search: popcount tiers over a process pool.

Trummer & Koch's shared-nothing parallelization allocates *all* DP
subproblems across workers, so every connected subquery is still solved
exactly once — the property Algorithm 1's memo gives the serial search.
This module implements that scheme for TD-CMD / TD-CMDP (the function
that decides between it and the serial search is
:func:`repro.core.parallel.search`):

* the connected-subquery space is partitioned into **popcount tiers**
  (tier k = every connected subquery with k patterns, grown
  breadth-first from the singletons), which are exactly the DP levels;
* **one pool per process** of *jobs* forked workers, one duplex pipe
  each, is forked by the first sharded search and lent to one search at
  a time (a search that finds it lent out runs serially).  A worker
  exits after ``_IDLE_SECONDS`` without a search; a cancelled, expired
  or failed search discards the pool and the next one forks a new one;
* per search the driver sends each worker one payload (query,
  statistics, enumerator class, partitioning, cost parameters,
  remaining deadline) to build its own enumerator from; per tier it
  sends each worker the lower tier's solved ``{bitset: cost}`` entries
  plus its static share ``entries[w::jobs]`` and reads one reply.  A
  subquery's candidates are a pure function of its bitset, so the
  complete lower-tier memo is all the cost recursion needs;
* workers return *choice descriptors* (winning operator, parts,
  variable) and, once per reply, what their enumerator's
  :class:`~repro.core.enumeration.EnumerationStats` counted since the
  last one (the driver sums these deltas).  The driver rebuilds the
  plan bottom-up through its own
  :class:`~repro.core.cost.PlanBuilder`: same candidate order, strict
  ``<`` tie-break and float operations, so cost and plan are
  bit-identical to the serial search.

Governance: the driver polls its :class:`~repro.core.governance.QueryBudget`
while it waits and ships the *remaining* deadline seconds to the workers
(clocks do not cross processes).  On expiry with ``anytime`` set it
degrades to a complete plan: a greedy disjoint cover of the query by
the largest solved entries, merged by
:func:`~repro.core.enumeration.greedy_fallback_plan`.
"""

from __future__ import annotations

import contextvars
import multiprocessing as mp
import os
import threading
import time
import traceback
from contextlib import nullcontext
from multiprocessing.connection import wait as wait_connections
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from ..observability import runtime as obs
from ..observability.spans import Span, Tracer
from .enumeration import (
    EnumerationStats,
    OptimizationResult,
    OptimizationTimeout,
    TopDownEnumerator,
    greedy_fallback_plan,
)
from .governance import Deadline, QueryBudget
from .local_query import LocalQueryIndex
from .optimizer import make_builder
from .plans import PlanNode
from . import bitset as bs

#: driver poll interval (budget and liveness) while it waits on replies
_POLL_SECONDS = 0.05
#: a pool worker exits after this long without a message between
#: searches, so no worker outlives the process's last search by more
_IDLE_SECONDS = 1.0


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
#: one solved entry: (bits, cost, choice)
_SolvedEntry = Tuple[int, float, Tuple[Any, ...]]


class _WorkerState:
    """One search in one worker: builder, enumerator, lower-tier memo."""

    def __init__(self, payload: Tuple[Any, ...], worker_id: int) -> None:
        query, statistics, search_class, partitioning, parameters, remaining, trace = (
            payload
        )
        self.builder = make_builder(query, statistics, parameters=parameters)
        self.local_index = LocalQueryIndex(self.builder.join_graph, partitioning)
        # deadlines do not cross process boundaries; re-anchor the
        # remaining allowance on this process's monotonic clock (a
        # strict budget: the enumerator's poll raises OptimizationTimeout)
        budget = None
        if remaining is not None:
            budget = QueryBudget(deadline=Deadline.after(remaining))
        self.enumerator: TopDownEnumerator = search_class(
            self.builder.join_graph, self.builder, self.local_index, budget
        )
        #: every lower-tier entry as the costing loop reads it: a
        #: ``(cardinality, cost)`` plan stub, synced per tier
        self.memo: Dict[int, PlanNode] = {}
        #: a traced search records one ``worker`` span, shipped back
        #: with the last tier's reply
        self.tracer: Optional[Tracer] = None
        self.span: Optional[Span] = None
        if trace:
            self.tracer = Tracer(track=f"worker-{worker_id}")
            self.span = self.tracer.span("worker", worker_id=worker_id)
        self.entries = 0

    def sync(self, updates: Sequence[Tuple[int, float]]) -> None:
        """Stub what the serial search's memo holds for each solved entry.

        The costing loop reads only a child's cardinality and cost, and
        both are functions of the bitset alone: every plan carries the
        estimator's subquery cardinality (a scan's is its pattern's);
        the cost was solved one tier down.  No plan object is needed, so
        the stub is a bare :class:`PlanNode`.  The memo is complete for
        every tier below the one being solved, so the costing loop never
        meets an unsolved part here and bounds nothing.
        """
        cardinality = self.builder.estimator.cardinality
        memo = self.memo
        for bits, cost in updates:
            memo[bits] = PlanNode(bits=bits, cardinality=cardinality(bits), cost=cost)

    def _unsolved(self, bits: int, is_local: bool) -> PlanNode:
        raise KeyError(f"subquery {bits:#x} is not in a lower tier")

    def solve(self, bits: int) -> _SolvedEntry:
        """One serial ``BestPlanGen`` call, without recursion.

        This *is* the serial costing loop
        (:meth:`~repro.core.enumeration.TopDownEnumerator._search`):
        same candidate order, seed handling, strict ``<`` tie-break and
        float arithmetic, which is what makes the merged search
        bit-identical to serial.  Only the memo differs: child costs
        come from :attr:`memo` (the complete lower-tier memo) instead
        of recursive calls.

        Returns ``(bits, cost, choice)`` where *choice* reconstructs the
        winning plan: ``("l",)`` for the flat local plan, ``("j",
        operator, parts, variable)`` for a join.  The work is counted
        where the serial search counts it, in the enumerator's
        ``stats`` (every child read is a ``memo_hits`` on the complete
        stub memo).
        """
        enumerator = self.enumerator
        enumerator._check_deadline()
        cost, seed, choice = enumerator._search(
            bits, self.local_index.is_local(bits), self.memo, self._unsolved
        )
        if choice is None and seed is None:
            raise ValueError(f"no connected division for subquery {bits:#x}")
        return bits, cost, ("l",) if choice is None else ("j",) + choice

    def solve_tier(
        self, updates: Sequence[Tuple[int, float]], share: Sequence[int], last: bool
    ) -> Tuple[
        str, List[_SolvedEntry], EnumerationStats, float, Optional[Dict[str, Any]]
    ]:
        """``(status, results, counted, seconds, trace)`` for one tier's
        *share*: *counted* is the enumerator's stats since the last
        reply, *trace* the span payload after a traced search's last
        tier."""
        started = time.perf_counter()
        self.sync(updates)
        results: List[_SolvedEntry] = []
        status = "done"
        with obs.activate(self.tracer) if self.tracer is not None else nullcontext():
            try:
                for bits in share:
                    results.append(self.solve(bits))
            except OptimizationTimeout:
                status = "expired"
        self.entries += len(results)
        counted, self.enumerator.stats = self.enumerator.stats, EnumerationStats()
        trace = None
        if last and self.tracer is not None and self.span is not None:
            self.span.set(entries=self.entries).__exit__(None, None, None)
            trace = self.tracer.to_payload()
        return status, results, counted, time.perf_counter() - started, trace


def _worker_main(worker_id: int, conn: Any) -> None:
    """A pool process, in a fresh context: no tracer of the forking thread."""
    contextvars.Context().run(_serve, worker_id, conn)


def _serve(worker_id: int, conn: Any) -> None:
    """Serve ``("search", payload)`` / ``("tier", updates, share, last)``
    messages until idle for ``_IDLE_SECONDS`` between searches; mid-search
    the worker waits as long as its driver lives."""
    parent = os.getppid()
    state: Optional[_WorkerState] = None
    try:
        conn.send(("ready", time.perf_counter()))
        while True:
            if not conn.poll(_IDLE_SECONDS):
                if state is None or os.getppid() != parent:
                    return
                continue
            message = conn.recv()
            if message[0] == "search":
                state = _WorkerState(message[1], worker_id)
                continue
            assert state is not None
            _, updates, share, last = message
            conn.send(state.solve_tier(updates, share, last))
            if last:
                state = None
    except Exception:  # pragma: no cover - surfaced driver-side
        conn.send(("error", traceback.format_exc()))


# ----------------------------------------------------------------------
# the process's pools
# ----------------------------------------------------------------------
class _Pool:
    """*jobs* forked workers, one duplex pipe each (a worker forked before
    a failed fork idles out on its own)."""

    def __init__(self, jobs: int) -> None:
        context = mp.get_context()
        self.conns: List[Any] = []
        self.procs: List[Any] = []
        for index in range(jobs):
            conn, child = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(index, child),
                name=f"memo-shard-{index}-of-{jobs}",
                daemon=True,
            )
            process.start()
            child.close()  # so the worker's exit reads as EOF here
            self.conns.append(conn)
            self.procs.append(process)
        self.last_sent = time.perf_counter()

    def send(self, index: int, message: Tuple[Any, ...]) -> None:
        try:
            self.conns[index].send(message)
        except OSError:
            raise RuntimeError(f"memo-shard worker {index} is gone") from None
        self.last_sent = time.perf_counter()

    def reusable(self) -> bool:
        """Alive and far from its idle exit (a worker's idle clock starts
        after it read the last message)."""
        return time.perf_counter() - self.last_sent < _IDLE_SECONDS / 2 and all(
            process.is_alive() for process in self.procs
        )

    def stop(self) -> None:
        for process in self.procs:
            _end(process)
        for conn in self.conns:
            conn.close()


def _end(process: Any) -> None:
    """Terminate one worker and reap it."""
    process.terminate()
    process.join(timeout=1.0)


class _PoolTable:
    """This process's pools, one per worker count, each lent to one
    search at a time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: Dict[int, _Pool] = {}  #: guarded-by: _lock
        self._lent: Set[int] = set()  #: guarded-by: _lock

    def borrow(self, jobs: int) -> Optional[_Pool]:
        """The pool of *jobs* workers, forked unless one is reusable;
        ``None`` while another search holds it."""
        with self._lock:
            if jobs in self._lent:
                return None
            self._lent.add(jobs)
            pool = self._idle.pop(jobs, None)
        try:
            if pool is not None and not pool.reusable():
                pool.stop()
                pool = None
            return pool or _Pool(jobs)
        except BaseException:
            self.give_back(jobs, None)
            raise

    def give_back(self, jobs: int, pool: Optional[_Pool], keep: bool = False) -> None:
        if pool is not None and not keep:
            pool.stop()
        with self._lock:
            self._lent.discard(jobs)
            if pool is not None and keep:
                self._idle[jobs] = pool


_POOLS = _PoolTable()


def _forget_pools() -> None:
    """In a forked child: the parent's pools are not this process's."""
    global _POOLS
    _POOLS = _PoolTable()


os.register_at_fork(after_in_child=_forget_pools)


# ----------------------------------------------------------------------
# driver side
# ----------------------------------------------------------------------
class _ShardDriver:
    """Tier-synchronous scheduler over the process's worker pool.

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
        # solved state + accounting: unlocked, touched only by the
        # thread that runs this search (the pool is lent to one search
        # at a time; workers are processes and reach it through pipes)
        self.costs: Dict[int, float] = {}
        self.choices: Dict[int, Tuple[Any, ...]] = {}
        self.solved_by_worker = [0] * jobs
        self.busy_seconds = [0.0] * jobs
        #: the workers' stats deltas, summed
        self.counted = EnumerationStats()
        self.worker_started: List[Optional[float]] = [None] * jobs
        self.traces: Dict[int, Optional[Dict[str, Any]]] = {}
        self.spawn_started = time.perf_counter()
        self.pool: Optional[_Pool] = None

    # -- pool lifecycle -------------------------------------------------
    def start(self) -> bool:
        """Borrow the process's pool of *jobs* workers (forked on first
        use); ``False`` while another search holds it."""
        self.spawn_started = time.perf_counter()
        self.pool = _POOLS.borrow(self.jobs)
        return self.pool is not None

    def shutdown(self, graceful: bool) -> None:
        """Return the pool: kept after a complete search, else stopped."""
        pool, self.pool = self.pool, None
        if pool is not None:
            _POOLS.give_back(self.jobs, pool, keep=graceful)

    # -- scheduling -----------------------------------------------------
    def run(self) -> None:
        """Solve every tier; fills :attr:`costs` / :attr:`choices`."""
        assert self.pool is not None
        n = self.builder.join_graph.size
        for worker in range(self.jobs):
            self.pool.send(worker, ("search", self.payload))
        updates: List[Tuple[int, float]] = []
        for bits in self.tiers[1]:
            self.costs[bits] = 0.0
            self.choices[bits] = ("s", bs.lowest_index(bits))
            updates.append((bits, 0.0))
        for k in range(2, n + 1):
            entries = self.tiers[k]
            with obs.span("parallel.tier", tier=k, entries=len(entries)):
                self._run_tier(k, entries, updates)
            updates = [(bits, self.costs[bits]) for bits in entries]

    def _run_tier(self, k: int, entries: List[int], updates: List[Any]) -> None:
        """One message to every worker, one reply from every worker."""
        pool = self.pool
        assert pool is not None
        last = k == self.builder.join_graph.size
        for worker in range(self.jobs):
            pool.send(worker, ("tier", updates, entries[worker :: self.jobs], last))
        waiting = {conn: worker for worker, conn in enumerate(pool.conns)}
        while waiting:
            self._check_budget(k)
            ready: List[Any] = wait_connections(list(waiting), timeout=_POLL_SECONDS)
            if not ready:
                self._check_liveness()
            for conn in ready:
                worker = waiting[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(f"memo-shard worker {worker} died") from None
                if message[0] == "ready":  # a freshly forked worker
                    self.worker_started[worker] = message[1]
                    continue
                if message[0] == "error":
                    raise RuntimeError(f"memo-shard worker {worker}:\n{message[1]}")
                status, results, counted, elapsed, trace = message
                self._merge_results(worker, results, counted, elapsed)
                if status == "expired":
                    raise _TierExpired(tiers_done=k - 1)
                if trace is not None:
                    self.traces[worker] = trace
                del waiting[conn]

    def _merge_results(
        self,
        worker: int,
        results: Sequence[_SolvedEntry],
        counted: EnumerationStats,
        elapsed: float,
    ) -> None:
        self.busy_seconds[worker] += elapsed
        self.solved_by_worker[worker] += len(results)
        for bits, cost, choice in results:
            self.costs[bits] = cost
            self.choices[bits] = choice
        total = self.counted
        total.plans_considered += counted.plans_considered
        total.divisions_enumerated += counted.divisions_enumerated
        total.divisions_bounded += counted.divisions_bounded
        total.memo_hits += counted.memo_hits
        total.local_short_circuits += counted.local_short_circuits

    def _check_budget(self, tier: int) -> None:
        budget = self.budget
        if budget is not None:
            budget.check_cancelled(phase="optimize")
            if budget.deadline_expired():
                raise _TierExpired(tiers_done=tier - 1)

    def _check_liveness(self) -> None:
        assert self.pool is not None
        for index, process in enumerate(self.pool.procs):
            if not process.is_alive():
                raise RuntimeError(f"memo-shard worker {index} died")

    # -- results --------------------------------------------------------
    def reconstruct(self, bits: int, cache: Dict[int, PlanNode]) -> PlanNode:
        """Rebuild the plan for *bits* from the recorded choices, with
        the driver's own builder: the serial search's float arithmetic."""
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
        (disjoint, ties by bitset; the singletons guarantee a cover),
        merged by the greedy fallback planner (binary repartition
        joins): complete, Cartesian-product-free and verifier-clean.
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
        """The workers' summed counters plus pool telemetry.

        A worker's memo holds every lower tier, so it bounds nothing:
        without partitioning the counters are the search space
        (:meth:`TopDownEnumerator.search_space`), not the bounded
        serial search's smaller counts, less the repeated binary
        divisions TD-CMDP skips.  With partitioning + Rule 3 the
        tiers are a superset of the serial traversal (entries below
        local queries are priced as flat local plans), so
        ``subqueries_expanded`` / ``plans_considered`` may exceed that
        space there.  ``memo_hits`` is rebuilt from child cost reads:
        one per child reference plus one for the root, minus one miss
        per entry.  ``speedup`` divides the summed worker seconds by the
        wall time minus pool spin-up (zero on a reused pool).
        """
        singletons = len(self.tiers[1])
        solved = singletons + sum(self.solved_by_worker)
        started = [s for s in self.worker_started if s is not None]
        startup = max(0.0, min(started) - self.spawn_started) if started else 0.0
        startup = min(startup, wall_seconds)
        search_wall = wall_seconds - startup
        max_share = max(self.solved_by_worker) if self.solved_by_worker else 0
        min_share = min(self.solved_by_worker) if self.solved_by_worker else 0
        counted = self.counted
        return EnumerationStats(
            plans_considered=counted.plans_considered,
            divisions_enumerated=counted.divisions_enumerated,
            divisions_bounded=counted.divisions_bounded,
            subqueries_expanded=solved,
            memo_hits=max(0, counted.memo_hits + 1 - solved),
            local_short_circuits=counted.local_short_circuits,
            workers=self.jobs,
            per_worker_subqueries=list(self.solved_by_worker),
            per_worker_seconds=list(self.busy_seconds),
            speedup=(sum(self.busy_seconds) / search_wall) if search_wall > 0 else 0.0,
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
        """Run the sharded search on the borrowed pool, then return it.

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
            complete = False
            try:
                self.run()
                complete = True
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
            finally:
                self.shutdown(complete)
            wall = time.perf_counter() - self.spawn_started
            self.adopt_traces(parallel_span, dispatch_at)
            stats = self.stats(wall)
            if degraded_reason:
                stats.degraded = True
                stats.degradation_reason = degraded_reason
                obs.event(
                    "governance.degraded", algorithm=label, reason=degraded_reason
                )
            parallel_span.set(wall_seconds=wall, **stats.summary())
        return OptimizationResult(
            plan=plan,
            algorithm=label,
            stats=stats,
            elapsed_seconds=time.perf_counter() - started,
        )
