"""``jobs``: the process's worker pool, the cooperative bounded plan
search that splits the root across it, and the batches that share it.

:class:`~repro.core.session.Optimizer` is the only caller: at ``jobs > 1``
it hands this module what runs *after* it has resolved statistics,
consulted its plan cache and built the algorithm.  Following Trummer &
Koch, the workers run the unmodified serial optimizer, on one persistent
forked pool per process and worker count, lent to one caller at a time;
a search or a batch that finds it lent to another thread runs in process
instead.

* **Intra-query** — :func:`search` runs a TD-CMD / TD-CMDP search (also
  TD-Auto's choice of one) cooperatively, or as it is; cost and plan are
  the serial search's.
* **Inter-query** — :func:`run_batch` hands the cache misses of
  :meth:`Optimizer.optimize_many <repro.core.session.Optimizer.optimize_many>`
  to the workers in chunks, one serial optimization each, so per-query
  results are the serial ones by construction.

The cooperative search (docs/ALGORITHMS.md, "Cooperative search (`jobs
> 1`)"): every worker runs the bounded serial search of TD-CMD /
TD-CMDP with two hooks (:class:`_Cooperative`): of the root's division
stream, worker *w* of *k* keeps position *i* when ``i % k == w``; and a
subquery missing from its memo is read from the pool's
:class:`_CostTable` as a ``(cardinality, cost)`` stub if this search
published it, else solved and published.  A subquery's solve depends on
its bitset alone, so whichever worker publishes it publishes the serial
search's cost and choice.  The bound reads floors alone (``_search``'s
*floors*), so the counters a worker keeps (the root's, and each
subquery's it publishes first) do not depend on timing; a duplicate
solve is counted apart.

The table: one float64 cost and one uint32 search generation per
bitset, 2^20 slots (12 MiB virtual) of a shared anonymous mapping made
before the fork and touched only by the workers.  A search bumps the
generation instead of clearing it; a publish writes cost, then
generation, under the pool's lock, and a reader re-reads the cost under
the lock, so weak memory ordering cannot hand it a stale cost.

The driver (:class:`_CooperativeDriver`) sends each worker one payload
and reads one reply through :meth:`_Pool.exchange`, the wait loop a
batch's chunks go through too; the lowest ``(cost, root position)``
candidate is the serial search's first strict minimum, rebuilt through
the driver's own :class:`~repro.core.cost.PlanBuilder`.  It polls its
budget while it waits and ships the *remaining* deadline; on an anytime
expiry the workers' best complete root candidates merge the same way,
else the greedy plan answers.  A worker exits after ``_IDLE_SECONDS``
without a message; a cancelled, expired or failed search or batch
discards the pool.
"""

from __future__ import annotations

import contextvars
import itertools
import mmap
import multiprocessing as mp
import os
import threading
import time
import traceback
from contextlib import nullcontext
from functools import partial
from multiprocessing.connection import wait as wait_connections
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..observability import runtime as obs
from ..observability.spans import Span, Tracer
from ..rdf.terms import Variable
from ..sparql.ast import BGPQuery
from .auto import AutonomousOptimizer
from .enumeration import (
    CartesianProductError,
    EnumerationStats,
    OptimizationResult,
    OptimizationTimeout,
    TopDownEnumerator,
    greedy_fallback_plan,
)
from .governance import AnytimeExpiry, CancellationToken, Deadline, QueryBudget
from .join_graph import JoinGraph
from .local_query import LocalQueryIndex
from .optimizer import make_builder
from .plans import JoinAlgorithm, PlanNode
from .session import OptimizeOptions, Optimizer
from . import bitset as bs

#: the measured break-even, in non-singleton connected subqueries:
#: below it a ``jobs=2`` search is slower than the serial one
#: (docs/PERFORMANCE.md, "When it pays off")
_BREAK_EVEN = 300
#: driver poll interval (budget and liveness) while it waits on replies
_POLL_SECONDS = 0.05
#: a pool worker exits after this long without a search, so no worker
#: outlives the process's last search by more
_IDLE_SECONDS = 1.0
#: the largest query the shared table indexes by bitset
TABLE_PATTERNS = 20
_SLOTS = 1 << TABLE_PATTERNS
#: the counters a worker's reply carries and the driver sums
_COUNTERS = ("plans_considered", "divisions_enumerated", "divisions_bounded",
             "subqueries_expanded", "memo_hits", "local_short_circuits",
             "duplicate_solves")

#: how a worker's choice rebuilds a subquery's plan: ``("l",)`` the flat
#: local plan, ``("j", operator, parts, variable)`` a join
_Choice = Tuple[Any, ...]
#: a worker's best root candidate: (cost, root stream position, choice)
_Candidate = Tuple[float, int, _Choice]
#: one element of the ``divisions`` stream: (parts, variable, operators)
_Division = Tuple[Tuple[int, ...], Variable, Sequence[JoinAlgorithm]]


# ----------------------------------------------------------------------
# the two entries: one search, one batch
# ----------------------------------------------------------------------
def search(algorithm: Any, jobs: int) -> OptimizationResult:
    """Run *algorithm* (what the session built) with *jobs* workers.

    TD-Auto hands ``jobs`` to the variant it chose and relabels its
    result.  The one place that decides whether a search pools: only a
    :class:`~.enumeration.TopDownEnumerator` (TD-CMD, TD-CMDP) with a
    Cartesian-product-free plan, no Rule-3 local short-circuit at the
    root, at most :data:`TABLE_PATTERNS` patterns and at least
    ``_BREAK_EVEN`` non-singleton connected subqueries runs
    cooperatively, with the serial search's cost and plan (the label
    gains ``[parallel xN]``); anything else, and a search that finds the
    pool lent, runs ``algorithm.optimize()``.  The search's budget
    governs either way: the remaining deadline travels to the workers;
    the driver polls the cancellation token and abandons the pool on
    cancel.  An expiring anytime deadline yields the workers' best
    complete root candidate, else the greedy plan.
    """
    if isinstance(algorithm, AutonomousOptimizer):
        return algorithm.relabel(search(algorithm.choose(), jobs))
    started = time.perf_counter()
    if isinstance(algorithm, TopDownEnumerator):
        join_graph = algorithm.join_graph
        full = join_graph.full
        # Rule 3 answers a local root immediately; nothing to parallelize
        if (
            join_graph.size <= TABLE_PATTERNS
            and join_graph.is_connected(full)
            and not (
                algorithm.local_short_circuit and algorithm.local_index.is_local(full)
            )
            and _connected_at_least(join_graph, _BREAK_EVEN)
        ):
            driver = _CooperativeDriver(algorithm, jobs)
            if driver.start():
                return driver.search(started)
    result: OptimizationResult = algorithm.optimize()
    return result


def _connected_at_least(join_graph: JoinGraph, limit: int) -> bool:
    """Whether *join_graph* has *limit* non-singleton connected
    subqueries, counted only that far.

    Grown breadth-first by popcount (a dict keeps each level in a
    deterministic order): every connected set of k patterns is one of
    k-1 plus a neighbouring pattern.
    """
    level: Dict[int, None] = dict.fromkeys(bs.bit(i) for i in range(join_graph.size))
    counted = 0
    while level:
        grown: Dict[int, None] = {}
        for bits in level:
            for i in bs.iter_bits(join_graph.neighbors(bits)):
                grown[bits | bs.bit(i)] = None
            if counted + len(grown) >= limit:
                return True
        counted += len(grown)
        level = grown
    return False


def run_batch(
    payloads: Sequence[Tuple[BGPQuery, OptimizeOptions]],
    jobs: int,
    cancellation: Optional[CancellationToken],
) -> Optional[List[OptimizationResult]]:
    """One serial session per ``(query, options)`` payload, in payload
    order, on the pool of *jobs* workers; ``None`` while the pool is
    lent to another thread's search.

    Payloads travel in chunks (about four per worker), so a large batch
    of small queries is not bound by per-item pickling.  Tokens do not
    cross process boundaries, so the driver polls the token; a cancel,
    an item's error (re-raised as it is) or a dead worker discards the
    pool.
    """
    pool = _POOLS.borrow(jobs)
    if pool is None:
        return None
    size = max(1, len(payloads) // (jobs * 4))
    chunks = [("batch", payloads[start : start + size]) for start in range(0, len(payloads), size)]
    poll = partial(QueryBudget(cancellation=cancellation).check_cancelled, phase="optimize")
    complete = False
    try:
        replies = pool.exchange(chunks, poll)
        complete = True
    finally:
        _POOLS.give_back(jobs, pool, keep=complete)
    return [result for index in range(len(chunks)) for result in replies[index][1]]


class _Reply(NamedTuple):
    """A worker's one message per search."""

    status: str  #: "done", or "expired" (its deadline fired)
    candidate: Optional[_Candidate]
    choices: Dict[int, _Choice]  #: every subquery it solved
    counted: EnumerationStats
    seconds: float
    trace: Optional[Dict[str, Any]]


class _CostTable:
    """The pool's shared ``{bitset: (cost, generation)}`` table."""

    def __init__(self, lock: Any) -> None:
        # MAP_SHARED | MAP_ANONYMOUS: zero pages until a worker writes
        self.memory = mmap.mmap(-1, _SLOTS * 12)
        self.lock = lock
        self.costs: Any = None
        self.generations: Any = None

    def attach(self) -> None:
        """Map the two columns (in a worker: the driver never does)."""
        view = memoryview(self.memory)
        self.costs = view[: _SLOTS * 8].cast("d")
        self.generations = view[_SLOTS * 8 :].cast("I")

    def read(self, bits: int, generation: int) -> Optional[float]:
        """The cost published for *bits* in *generation*, else ``None``."""
        if self.generations[bits] != generation:
            return None
        with self.lock:
            cost: float = self.costs[bits]
        return cost

    def publish(self, bits: int, generation: int, cost: float) -> bool:
        """Publish *cost* for *bits* unless *generation* has one already:
        ``True`` for the first publish."""
        with self.lock:
            if self.generations[bits] == generation:
                return False
            self.costs[bits] = cost
            self.generations[bits] = generation
        return True


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Cooperative(TopDownEnumerator):
    """The hooks a pool worker adds to the session's enumerator class
    (mixed in ahead of it, so ``super()`` is the serial search).

    Each loop bounds on floors alone and counts into stats of its own:
    a function of its bitset (the root's, of the share), kept in
    :attr:`counted` only if this worker publishes the subquery first.
    """

    def prepare(
        self, table: _CostTable, generation: int, worker: int, workers: int
    ) -> None:
        # record the root's best complete candidate, as an anytime search does
        self._anytime = True
        self.table = table
        self.generation = generation
        self.worker = worker
        self.workers = workers
        #: root stream position of each kept root division
        self.positions: Dict[Tuple[Tuple[int, ...], Variable], int] = {}
        #: what this worker solved (and published)
        self.choices: Dict[int, _Choice] = {}
        #: the root's loop and every loop this worker published first
        self.counted = EnumerationStats()
        # every worker starts from the scans; a shared memo would count them once
        for index in range(self.join_graph.size):
            self._memo[1 << index] = self.builder.scan(index)
        if worker == 0:
            self.counted.subqueries_expanded += self.join_graph.size

    def divisions(self, bits: int) -> Iterator[_Division]:
        stream = super().divisions(bits)
        return stream if bits != self._root_bits else self._root_share(stream)

    def _root_share(self, stream: Iterator[_Division]) -> Iterator[_Division]:
        positions, workers, worker = self.positions, self.workers, self.worker
        for position, division in enumerate(stream):
            if position % workers == worker:
                positions.setdefault((division[0], division[1]), position)
                yield division

    def get_best_plan(self, bits: int, is_local: bool) -> PlanNode:
        """GetBestPlan over the shared table (``_search`` calls it on a
        local miss): a stub if this search published *bits*, else
        solved here."""
        memo = self._memo
        plan = memo.get(bits)
        if plan is not None:
            return plan
        cost = self.table.read(bits, self.generation)
        if cost is None:
            if not is_local:
                is_local = self.local_index.is_local(bits)
            cost = self._solve(bits, is_local)
        # the costing loop reads only a child's cardinality and cost
        cardinality = self.builder.estimator.cardinality(bits)
        plan = memo[bits] = PlanNode(bits=bits, cardinality=cardinality, cost=cost)
        return plan

    def _solve(self, bits: int, is_local: bool) -> float:
        """BestPlanGen, keeping the winner's choice instead of its plan,
        then publish; the loop's counters count only if this was the
        first publish (or the search stopped inside it)."""
        self._check_deadline()
        parent, own, counted = self.stats, EnumerationStats(), self.counted
        self.stats = own
        first = True
        try:
            cost, seed, choice = self._search(bits, is_local, self._memo, self.get_best_plan, True)
            if choice is None and seed is None:
                raise CartesianProductError(f"no connected division for subquery {bits:#x}")
            self.choices[bits] = ("l",) if choice is None else ("j",) + choice
            first = self.table.publish(bits, self.generation, cost)
        finally:
            self.stats = parent
            if first:
                own.subqueries_expanded += 1
                own.memo_hits -= 1  # its first lookup was no hit
                for name in _COUNTERS:
                    setattr(counted, name, getattr(counted, name) + getattr(own, name))
            else:
                counted.duplicate_solves += 1
        return cost

    def search_root(self) -> None:
        """This worker's share of the root (BestPlanGen at the root)."""
        self._check_deadline()
        self.stats = self.counted
        self.stats.subqueries_expanded += 1
        root = self._root_bits
        self._search(root, self.local_index.is_local(root), self._memo, self.get_best_plan, True)

    def root_candidate(self) -> Optional[_Candidate]:
        """The best complete root candidate the share found (so far)."""
        choice = self._root_choice
        if choice is not None:
            cost = self._join_choice(choice).cost
            return cost, self.positions[(choice[1], choice[2])], ("j",) + choice
        seed = self._root_seed
        return None if seed is None else (seed.cost, -1, ("l",))


def _run_share(
    table: _CostTable, payload: Tuple[Any, ...], worker: int, workers: int
) -> _Reply:
    """One search's share in one worker."""
    started = time.perf_counter()
    (query, statistics, search_class, partitioning, parameters, remaining,
     traced, generation) = payload
    builder = make_builder(query, statistics, parameters=parameters)
    # deadlines do not cross process boundaries: re-anchor the remaining
    # allowance on this process's monotonic clock
    budget = None if remaining is None else QueryBudget(deadline=Deadline.after(remaining))
    cls = type(f"Cooperative{search_class.__name__}", (_Cooperative, search_class), {})
    local_index = LocalQueryIndex(builder.join_graph, partitioning)
    enumerator: _Cooperative = cls(builder.join_graph, builder, local_index, budget)
    enumerator.prepare(table, generation, worker, workers)
    tracer = Tracer(track=f"worker-{worker}") if traced else None
    status = "done"
    with obs.activate(tracer) if tracer is not None else nullcontext():
        with obs.span("worker", worker_id=worker) as span:
            try:
                enumerator.search_root()
            except (AnytimeExpiry, OptimizationTimeout):
                status = "expired"
            span.set(entries=len(enumerator.choices))
    return _Reply(
        status,
        enumerator.root_candidate(),
        enumerator.choices,
        enumerator.counted,
        time.perf_counter() - started,
        None if tracer is None else tracer.to_payload(),
    )


def _worker_main(worker: int, workers: int, conn: Any, table: _CostTable) -> None:
    """A pool process, in a fresh context: no tracer of the forking thread."""
    contextvars.Context().run(_serve, worker, workers, conn, table)


def _serve(worker: int, workers: int, conn: Any, table: _CostTable) -> None:
    """Answer ``("search", payload)`` and ``("batch", chunk)`` messages
    until idle for ``_IDLE_SECONDS``; a batch runs one serial session
    per ``(query, options)`` item.  A message's exception is its reply,
    ``("raised", error, traceback)``, re-raised as it is in the driver;
    any other failure ends the process, which the driver sees die."""
    table.attach()
    while conn.poll(_IDLE_SECONDS):
        kind, payload = conn.recv()
        try:
            if kind == "search":
                reply: Any = _run_share(table, payload, worker, workers)
            else:
                reply = ("done", [Optimizer(options).optimize(query) for query, options in payload])
        except Exception as error:
            reply = ("raised", error, traceback.format_exc())
        conn.send(reply)


# ----------------------------------------------------------------------
# the process's pools
# ----------------------------------------------------------------------
class _Pool:
    """*jobs* forked workers, one duplex pipe each, and their table (a
    worker forked before a failed fork idles out on its own)."""

    def __init__(self, jobs: int) -> None:
        # fork: the table's mapping is inherited, never pickled
        context = mp.get_context("fork")
        self.table = _CostTable(context.Lock())
        self.generation = 0
        self.conns: List[Any] = []
        self.procs: List[Any] = []
        for index in range(jobs):
            conn, child = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(index, jobs, child, self.table),
                name=f"cooperative-{index}-of-{jobs}",
                daemon=True,
            )
            process.start()
            child.close()  # so the worker's exit reads as EOF here
            self.conns.append(conn)
            self.procs.append(process)
        #: no later than any worker's last answer, which starts its idle clock
        self.last_active = time.perf_counter()

    def exchange(
        self, messages: Sequence[Tuple[Any, ...]], poll: Callable[[], Optional[bool]]
    ) -> Dict[int, Any]:
        """The one wait loop, of a search and of a batch: send *messages*,
        at most one in flight per worker (two queued sends on a duplex
        pipe can deadlock), the next to whichever worker replies; return
        the replies by message index.  *poll* runs before every wait: it
        raises to abort, or returns ``True`` to stop with the replies so
        far."""
        replies: Dict[int, Any] = {}
        queue = iter(enumerate(messages))
        busy: Dict[Any, Tuple[int, int]] = {}  #: conn -> (worker, message index)
        answered: Dict[int, float] = {}

        def hand(worker: int) -> None:
            for index, message in itertools.islice(queue, 1):
                try:
                    self.conns[worker].send(message)
                except OSError:
                    raise RuntimeError(f"cooperative worker {worker} is gone") from None
                busy[self.conns[worker]] = (worker, index)

        for worker in range(len(self.conns)):
            hand(worker)
        while busy and not poll():
            ready: List[Any] = wait_connections(list(busy), timeout=_POLL_SECONDS)
            if not ready:  # only a busy worker's exit is a death: an idle one times out
                for conn, process in zip(self.conns, self.procs):
                    if conn in busy and not process.is_alive():
                        raise RuntimeError(f"cooperative worker {busy[conn][0]} died")
            for conn in ready:
                worker, index = busy.pop(conn)
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    raise RuntimeError(f"cooperative worker {worker} died") from None
                answered[worker] = time.perf_counter()
                if reply[0] == "raised":  # the worker's traceback as the cause
                    raise reply[1] from RuntimeError(reply[2])
                replies[index] = reply
                hand(worker)
        if len(answered) == len(self.conns):
            # every worker's idle clock restarted: the oldest one counts
            self.last_active = min(answered.values())
        return replies

    def reusable(self) -> bool:
        """Alive, far from its idle exit (a worker's idle clock starts
        after it answered the last message) and with generations to
        spare."""
        return (
            time.perf_counter() - self.last_active < _IDLE_SECONDS / 2
            and self.generation < 0xFFFFFFFF
            and all(process.is_alive() for process in self.procs)
        )

    def stop(self) -> None:
        for process in self.procs:
            process.terminate()
            process.join(timeout=1.0)
        for conn in self.conns:
            conn.close()
        self.table.memory.close()


class _PoolTable:
    """This process's pools, one per worker count, each lent to one
    caller at a time."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: Dict[int, _Pool] = {}  #: guarded-by: _lock
        self._lent: Set[int] = set()  #: guarded-by: _lock

    def borrow(self, jobs: int) -> Optional[_Pool]:
        """The pool of *jobs* workers, forked unless one is reusable;
        ``None`` while it is lent."""
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
class _CooperativeDriver:
    """One cooperative search over the process's worker pool.

    Runs the search the *serial* enumerator would run: query,
    statistics, partitioning, cost parameters and budget are the
    enumerator's own, and every worker rebuilds an enumerator of the
    same class from them.
    """

    def __init__(self, serial: TopDownEnumerator, jobs: int) -> None:
        self.jobs = jobs
        self.builder = serial.builder
        self.algorithm_name = serial.algorithm_name
        self.budget = serial.budget
        self.tracer = obs.current_tracer()
        deadline = self.budget.deadline if self.budget is not None else None
        self.payload = (
            serial.join_graph.query,
            serial.builder.estimator.catalog,
            type(serial),
            serial.local_index.partitioning,
            serial.builder.parameters,
            deadline.remaining() if deadline is not None else None,
            self.tracer is not None,
        )
        # touched only by the thread that runs this search (the pool is
        # lent to one caller at a time; workers reach it through pipes)
        self.replies: Dict[int, _Reply] = {}
        self.worker_started: List[Optional[float]] = [None] * jobs
        self.spawn_started = time.perf_counter()
        self.pool: Optional[_Pool] = None

    def start(self) -> bool:
        """Borrow the pool of *jobs* workers: ``False`` while it is lent."""
        self.spawn_started = time.perf_counter()
        self.pool = _POOLS.borrow(self.jobs)
        if self.pool is not None:  # a reused pool was last active before: zero startup
            self.worker_started = [self.pool.last_active] * self.jobs
        return self.pool is not None

    def run(self) -> bool:
        """Send the payload, read the replies: ``True`` if every worker
        finished its share.  An expired anytime search stops waiting two
        poll intervals after its own deadline (the workers' is the same)."""
        pool = self.pool
        assert pool is not None
        pool.generation += 1
        message = ("search", self.payload + (pool.generation,))
        budget = self.budget or QueryBudget()
        expired_at: Optional[float] = None

        def poll() -> bool:
            nonlocal expired_at
            budget.check_cancelled(phase="optimize")
            if expired_at is None and budget.deadline_expired():
                self._raise_unless_anytime()
                expired_at = time.perf_counter()
            return expired_at is not None and time.perf_counter() - expired_at > 2 * _POLL_SECONDS

        self.replies = pool.exchange([message] * self.jobs, poll)
        if any(reply.status == "expired" for reply in self.replies.values()):
            self._raise_unless_anytime()
        return len(self.replies) == self.jobs and all(
            reply.status == "done" for reply in self.replies.values()
        )

    def _raise_unless_anytime(self) -> None:
        budget = self.budget
        assert budget is not None and budget.deadline is not None
        if not budget.anytime:
            raise OptimizationTimeout(
                f"{self.algorithm_name} exceeded {budget.deadline.seconds:g}s"
            )

    # -- results --------------------------------------------------------
    def best_plan(self) -> Optional[PlanNode]:
        """The lowest ``(cost, position)`` candidate whose subqueries
        some worker reported, rebuilt with the driver's own builder."""
        choices: Dict[int, _Choice] = {}
        for reply in self.replies.values():
            choices.update(reply.choices)
        full = self.builder.join_graph.full
        for _, _, choice in sorted(
            reply.candidate for reply in self.replies.values() if reply.candidate
        ):
            choices[full] = choice
            try:
                return self._rebuild(full, choices, {})
            except KeyError:  # a part solved by a worker that never replied
                continue
        return None

    def _rebuild(
        self, bits: int, choices: Dict[int, _Choice], cache: Dict[int, PlanNode]
    ) -> PlanNode:
        plan = cache.get(bits)
        if plan is not None:
            return plan
        if not bits & (bits - 1):
            plan = self.builder.scan(bs.lowest_index(bits))
        else:
            choice = choices[bits]
            if choice[0] == "l":
                plan = self.builder.local_join_plan(bits)
            else:
                _, operator, parts, variable = choice
                children = [self._rebuild(part, choices, cache) for part in parts]
                plan = self.builder.join(operator, children, variable)
        cache[bits] = plan
        return plan

    def stats(self, wall_seconds: float) -> EnumerationStats:
        """The workers' summed counters plus pool telemetry: the work
        counters of one memo shared by the workers; each worker's share
        (with its ``duplicate_solves``) what it solved.  ``speedup``
        divides the summed worker seconds by the wall time minus pool
        spin-up (zero on a reused pool)."""
        replies = [self.replies.get(w) for w in range(self.jobs)]
        per_worker = [EnumerationStats() if r is None else r.counted for r in replies]
        seconds = [0.0 if r is None else r.seconds for r in replies]
        total = EnumerationStats(
            **{name: sum(getattr(s, name) for s in per_worker) for name in _COUNTERS}
        )
        shares = [s.subqueries_expanded + s.duplicate_solves for s in per_worker]
        started = [s for s in self.worker_started if s is not None]
        startup = max(0.0, min(started) - self.spawn_started) if started else 0.0
        startup = min(startup, wall_seconds)
        search_wall = wall_seconds - startup
        total.workers = self.jobs
        total.per_worker_subqueries = shares
        total.per_worker_seconds = seconds
        total.speedup = sum(seconds) / search_wall if search_wall > 0 else 0.0
        total.worker_balance = min(shares) / max(shares) if max(shares) else 0.0
        total.pool_startup_seconds = startup
        return total

    def adopt_traces(self, parallel_span: Any, dispatch_at: float) -> None:
        if self.tracer is None:
            return
        parent = parallel_span if isinstance(parallel_span, Span) else None
        for index in range(self.jobs):
            reply = self.replies.get(index)
            if reply is not None and reply.trace is not None:
                self.tracer.adopt(
                    reply.trace,
                    track=f"worker-{index}",
                    parent=parent,
                    rebase_to=dispatch_at,
                )

    def search(self, started: float) -> OptimizationResult:
        """Run the cooperative search on the borrowed pool, then return it.

        *started* is the caller's ``perf_counter`` reading from before
        it decided to pool, so ``elapsed_seconds`` covers that too.
        """
        label = f"{self.algorithm_name}[parallel x{self.jobs}]"
        reason = ""
        with obs.span(
            "parallel.search",
            jobs=self.jobs,
            algorithm=self.algorithm_name.lower(),
            patterns=self.builder.join_graph.size,
        ) as parallel_span:
            dispatch_at = self.tracer.now() if self.tracer is not None else 0.0
            complete = False
            try:
                complete = self.run()
                plan = self.best_plan()
            finally:
                pool, self.pool = self.pool, None
                assert pool is not None
                _POOLS.give_back(self.jobs, pool, keep=complete)
            if not complete:
                if plan is not None:
                    label += "[anytime]"
                    reason = "deadline: best complete root candidate of the workers"
                else:
                    plan = greedy_fallback_plan(self.builder)
                    label += "[anytime-greedy]"
                    reason = "deadline: no complete candidate; greedy fallback"
            assert plan is not None
            wall = time.perf_counter() - self.spawn_started
            self.adopt_traces(parallel_span, dispatch_at)
            stats = self.stats(wall)
            if reason:
                stats.degraded = True
                stats.degradation_reason = reason
                obs.event("governance.degraded", algorithm=label, reason=reason)
            parallel_span.set(wall_seconds=wall, **stats.summary())
        return OptimizationResult(
            plan=plan,
            algorithm=label,
            stats=stats,
            elapsed_seconds=time.perf_counter() - started,
        )
