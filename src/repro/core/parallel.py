"""Throughput-oriented parallel plan search (process-pool based).

Two complementary parallelization layers, following Trummer & Koch's
observation that query-optimization search spaces split cleanly across
shared-nothing workers:

* **Inter-query** — :func:`optimize_many` drives a *batch* of
  independent optimization calls through a process pool.  This is the
  server scenario: a stream of queries arrives and each worker runs the
  ordinary serial algorithm, so per-query results (plan, cost, stats)
  are bit-identical to serial execution by construction.

* **Intra-query** — :func:`optimize_query_parallel` parallelizes a
  single TD-CMD / TD-CMDP search: the full DP memo is partitioned into
  popcount tiers and scheduled across a persistent worker pool with
  per-tier work queues and work stealing (see :mod:`.memo_shard`).
  Every DP subproblem is solved exactly once, so the work scales down
  with the worker count, and because every candidate's cost is
  computed by the same arithmetic in every worker, the merged plan cost
  is bit-identical to the serial search.

The merged :class:`~repro.core.enumeration.EnumerationStats` carry the
serial counters (see :meth:`.memo_shard._ShardDriver.stats` for the one
documented superset case), the worker count, per-worker subquery
counts/wall times, steals and the achieved speedup.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import Any, Iterable, List, Optional, Sequence, Tuple, Union

from ..partitioning.base import PartitioningMethod
from ..rdf.dataset import Dataset
from ..sparql.ast import BGPQuery
from .cardinality import StatisticsCatalog
from .cost import CostParameters, PAPER_PARAMETERS
from .enumeration import (
    CartesianProductError,
    OptimizationResult,
    TopDownEnumerator,
)
from .governance import AbortCause, CancellationToken, QueryAborted, QueryBudget
from .local_query import LocalQueryIndex
from .memo_shard import _MIN_ENTRIES, _ShardDriver, subquery_tiers
from .optimizer import (
    ALGORITHMS,
    PARALLELIZABLE_ALGORITHMS,
    make_builder,
    resolve_statistics,
)
from .plan_cache import PlanCache
from .session import OptimizeOptions, Optimizer

#: how often the driver polls the cancellation token while a pool runs
_CANCEL_POLL_SECONDS = 0.05

#: one optimization request: a query, optionally paired with statistics
#: (tuples and objects with ``query``/``statistics`` attributes, e.g.
#: :class:`~repro.workloads.generators.WorkloadQuery`, are accepted)
RequestLike = Union[BGPQuery, Tuple[BGPQuery, Optional[StatisticsCatalog]], Any]


def default_jobs() -> int:
    """Worker-count default: ``REPRO_JOBS`` if set, else available CPUs.

    The environment override pins worker counts in CI, so benchmark
    baselines and chaos episodes do not vary with runner core count.
    """
    override = os.environ.get("REPRO_JOBS")
    if override:
        try:
            value = int(override)
        except ValueError:
            raise ValueError(
                f"REPRO_JOBS must be an integer, got {override!r}"
            ) from None
        return max(1, value)
    try:
        return len(os.sched_getaffinity(0))  # type: ignore[attr-defined]
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# intra-query parallel search
# ----------------------------------------------------------------------
def optimize_query_parallel(
    query: BGPQuery,
    algorithm: str = "td-cmd",
    jobs: int = 2,
    statistics: Optional[StatisticsCatalog] = None,
    dataset: Optional[Dataset] = None,
    partitioning: Optional[PartitioningMethod] = None,
    parameters: CostParameters = PAPER_PARAMETERS,
    seed: int = 0,
    budget: Optional[QueryBudget] = None,
) -> OptimizationResult:
    """Optimize one query with the DP memo sharded across workers.

    Only ``td-cmd`` and ``td-cmdp`` are supported — their search is
    driven entirely by the ``divisions`` hook and the memo table, which
    is what gets sharded (see :mod:`.memo_shard`).  Plan cost is
    identical to the serial search.  This is the one place that decides
    *shard or serial*: one job, a Rule-3 local short-circuit at the
    root, or a connected-subquery space too small to shard profitably
    runs the serial enumerator on the same builder, local index and
    budget.

    With a *budget*, the remaining deadline allowance travels to every
    worker (re-anchored on the worker's clock); the cancellation token
    stays driver-side — the driver polls it while the pool runs and
    abandons it on cancel, since tokens do not cross process
    boundaries.  An expiring anytime deadline yields a complete plan
    merged from the finished tiers.
    """
    key = algorithm.lower()
    if key not in PARALLELIZABLE_ALGORITHMS:
        raise ValueError(
            f"intra-query parallel search supports {PARALLELIZABLE_ALGORITHMS}, "
            f"not {algorithm!r}"
        )
    started = time.perf_counter()
    if budget is not None:
        budget.check_cancelled(phase="optimize")
    statistics = resolve_statistics(query, statistics, dataset, seed)
    builder = make_builder(query, statistics, parameters=parameters)
    join_graph = builder.join_graph
    if not join_graph.is_connected(join_graph.full):
        raise CartesianProductError(
            "query is disconnected; Cartesian-product-free plans do not exist"
        )
    local_index = LocalQueryIndex(join_graph, partitioning)
    serial: TopDownEnumerator = ALGORITHMS[key](
        join_graph, builder, local_index=local_index, budget=budget
    )
    # Rule 3 answers a local root immediately; nothing to parallelize
    if jobs > 1 and not (
        serial.local_short_circuit and local_index.is_local(join_graph.full)
    ):
        tiers = subquery_tiers(join_graph)
        if sum(len(tier) for tier in tiers[2:]) >= _MIN_ENTRIES:
            workers = min(jobs, max(len(tier) for tier in tiers[2:]))
            if workers > 1:
                return _ShardDriver(serial, key, workers, tiers).search(started)
    return serial.optimize()


# ----------------------------------------------------------------------
# inter-query (batch) parallel optimization
# ----------------------------------------------------------------------
def _normalize_request(
    item: RequestLike,
) -> Tuple[BGPQuery, Optional[StatisticsCatalog]]:
    """Accept a query, a (query, statistics) pair, or a workload record."""
    if isinstance(item, BGPQuery):
        return item, None
    if isinstance(item, tuple):
        query, statistics = item
        return query, statistics
    query = getattr(item, "query", None)
    if isinstance(query, BGPQuery):
        return query, getattr(item, "statistics", None)
    raise TypeError(
        f"cannot interpret {type(item).__name__} as an optimization request"
    )


def _run_cancellable(
    payloads: Sequence[tuple],
    worker: Any,
    max_workers: int,
    cancellation: CancellationToken,
) -> List[Any]:
    """Drive *worker* over *payloads*, polling a driver-side cancel token.

    Tokens do not cross process boundaries, so cancellation is enforced
    here: between completions the driver re-checks the token and, once
    it fires, abandons the pool (``shutdown(wait=False)`` — queued work
    is cancelled, running workers are orphaned rather than joined) so
    the abort surfaces within one poll interval.  Results come back in
    payload order.
    """
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        futures = [pool.submit(worker, payload) for payload in payloads]
        not_done = set(futures)
        while not_done:
            done, not_done = wait_futures(
                not_done,
                timeout=_CANCEL_POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                future.result()  # surface worker errors promptly
            if cancellation.cancelled and not_done:
                reason = cancellation.reason
                raise QueryAborted(
                    f"cancelled: {reason}" if reason else "cancelled",
                    cause=AbortCause.CANCELLED,
                    phase="optimize",
                )
        return [future.result() for future in futures]
    finally:
        # wait=False: a cancelled pool must not join still-running workers
        pool.shutdown(wait=False, cancel_futures=True)


def _batch_worker(payload: Tuple[Any, ...]) -> OptimizationResult:
    """Optimize one query serially (executed inside a pool process)."""
    query, statistics, algorithm, partitioning, parameters, deadline_seconds = payload
    session = Optimizer(
        OptimizeOptions(
            algorithm=algorithm,
            statistics=statistics,
            partitioning=partitioning,
            parameters=parameters,
            deadline_seconds=deadline_seconds,
        )
    )
    return session.optimize(query)


def optimize_many(
    items: Iterable[RequestLike],
    algorithm: str = "td-auto",
    jobs: Optional[int] = None,
    dataset: Optional[Dataset] = None,
    partitioning: Optional[PartitioningMethod] = None,
    parameters: CostParameters = PAPER_PARAMETERS,
    deadline_seconds: Optional[float] = None,
    seed: int = 0,
    plan_cache: Optional[PlanCache] = None,
    cancellation: Optional[CancellationToken] = None,
) -> List[OptimizationResult]:
    """Optimize a batch of queries across a process pool.

    Results are returned in input order.  Each query runs through an
    ordinary serial :class:`~repro.core.session.Optimizer` session
    inside a worker (every query under its own *deadline_seconds*), so
    every per-query result is identical to a serial call; the pool buys
    wall-clock throughput, not different answers.  Statistics are
    resolved in the driver (per item, then *dataset*, then the random
    seed) so workers never re-scan data.

    With *plan_cache* set, lookups happen in the driver before dispatch
    — repeated queries never reach the pool — and fresh results are
    stored on completion.  ``jobs`` defaults to the machine's available
    CPUs; ``jobs=1`` (or a batch of one) skips the pool entirely.

    A *cancellation* token stops the batch promptly: the serial path
    re-checks it before every query, and the pool path polls it between
    completions (see :func:`_run_cancellable`), raising
    :class:`QueryAborted` with :attr:`AbortCause.CANCELLED`.
    """
    requests = [_normalize_request(item) for item in items]
    resolved = [
        (query, resolve_statistics(query, statistics, dataset, seed))
        for query, statistics in requests
    ]
    algorithm = algorithm.lower()
    jobs = default_jobs() if jobs is None else max(1, jobs)
    results: List[Optional[OptimizationResult]] = [None] * len(resolved)
    pending: List[int] = []
    for index, (query, statistics) in enumerate(resolved):
        if plan_cache is not None:
            hit = plan_cache.lookup(
                query, statistics, algorithm, parameters, partitioning
            )
            if hit is not None:
                results[index] = hit
                continue
        pending.append(index)
    payloads = [
        (
            resolved[index][0],
            resolved[index][1],
            algorithm,
            partitioning,
            parameters,
            deadline_seconds,
        )
        for index in pending
    ]
    if jobs <= 1 or len(pending) <= 1:
        for index, payload in zip(pending, payloads):
            if cancellation is not None and cancellation.cancelled:
                reason = cancellation.reason
                raise QueryAborted(
                    f"cancelled: {reason}" if reason else "cancelled",
                    cause=AbortCause.CANCELLED,
                    query_id=resolved[index][0].name or "",
                    phase="optimize",
                )
            results[index] = _batch_worker(payload)
    elif cancellation is not None:
        workers = min(jobs, len(pending))
        for index, result in zip(
            pending, _run_cancellable(payloads, _batch_worker, workers, cancellation)
        ):
            results[index] = result
    else:
        workers = min(jobs, len(pending))
        chunksize = max(1, len(pending) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for index, result in zip(
                pending, pool.map(_batch_worker, payloads, chunksize=chunksize)
            ):
                results[index] = result
    if plan_cache is not None:
        for index in pending:
            query, statistics = resolved[index]
            plan_cache.store(
                query, statistics, algorithm, results[index], parameters, partitioning
            )
    return [result for result in results if result is not None]
