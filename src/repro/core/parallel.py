"""Process pools behind the session: the pooling decision and the batch pool.

:class:`~repro.core.session.Optimizer` is the only entry to both; this
module holds what runs *after* the session has resolved statistics,
consulted its plan cache and built the enumerator.  Following Trummer &
Koch's observation that workers can run the unmodified serial
optimizer, neither half builds anything of its own:

* **Intra-query** — :func:`search` takes the TD-CMD / TD-CMDP
  enumerator the session built and either runs it cooperatively on the
  process's worker pool (every worker runs the bounded serial search
  over its share of the root, and all share one cost table — see
  :mod:`.memo_shard`) or runs it as it is.  A subquery's solve depends
  on its bitset alone and the driver takes the serial search's first
  cheapest root candidate, so cost and plan are bit-identical to the
  serial search.

* **Inter-query** — :func:`run_batch` drives the cache misses of
  :meth:`Optimizer.optimize_many <repro.core.session.Optimizer.optimize_many>`
  through a pool of serial sessions (the server scenario: independent
  queries, one ordinary serial optimization each), so per-query results
  are bit-identical to serial execution by construction.
"""

from __future__ import annotations

import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor
from concurrent.futures import wait as wait_futures
from typing import Dict, List, Optional, Sequence, Tuple

from ..sparql.ast import BGPQuery
from .enumeration import OptimizationResult, TopDownEnumerator
from .governance import AbortCause, CancellationToken, QueryAborted
from .join_graph import JoinGraph
from .memo_shard import TABLE_PATTERNS, _CooperativeDriver
from .session import OptimizeOptions, Optimizer
from . import bitset as bs

#: how often the driver polls the cancellation token while a pool runs
_CANCEL_POLL_SECONDS = 0.05
#: the measured break-even, in non-singleton connected subqueries:
#: below it a ``jobs=2`` search is slower than the serial one
#: (docs/PERFORMANCE.md, "When it pays off")
_BREAK_EVEN = 300


# ----------------------------------------------------------------------
# intra-query: a cooperative search, or the search in process
# ----------------------------------------------------------------------
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


def search(enumerator: TopDownEnumerator, jobs: int) -> OptimizationResult:
    """Run *enumerator*'s search cooperatively on *jobs* pool workers.

    The one place that decides *pool or in process*: a query with no
    Cartesian-product-free plan, a Rule-3 local short-circuit at the
    root, more patterns than :data:`~.memo_shard.TABLE_PATTERNS`, fewer
    than ``_BREAK_EVEN`` non-singleton connected subqueries, or a pool
    lent to another thread's search runs ``enumerator.optimize()``;
    otherwise :mod:`.memo_shard` runs it, with that call's cost and plan
    (the label gains ``[parallel xN]``).  The enumerator's budget
    governs either way: the remaining deadline travels to the workers;
    the driver polls the cancellation token and abandons the pool on
    cancel.  An expiring anytime deadline yields the workers' best
    complete root candidate, else the greedy plan.
    """
    started = time.perf_counter()
    join_graph = enumerator.join_graph
    full = join_graph.full
    # Rule 3 answers a local root immediately; nothing to parallelize
    if (
        join_graph.size <= TABLE_PATTERNS
        and join_graph.is_connected(full)
        and not (
            enumerator.local_short_circuit and enumerator.local_index.is_local(full)
        )
        and _connected_at_least(join_graph, _BREAK_EVEN)
    ):
        driver = _CooperativeDriver(enumerator, jobs)
        if driver.start():
            return driver.search(started)
    return enumerator.optimize()


# ----------------------------------------------------------------------
# inter-query: a pool of serial sessions
# ----------------------------------------------------------------------
def _batch_worker(
    chunk: Sequence[Tuple[BGPQuery, OptimizeOptions]]
) -> List[OptimizationResult]:
    """Optimize a chunk of queries serially (executed inside a pool process)."""
    return [Optimizer(options).optimize(query) for query, options in chunk]


def run_batch(
    payloads: Sequence[Tuple[BGPQuery, OptimizeOptions]],
    jobs: int,
    cancellation: Optional[CancellationToken],
) -> List[OptimizationResult]:
    """One serial session per ``(query, options)`` payload, *jobs* at a time.

    Results come back in payload order.  Payloads travel in chunks
    (about four per worker), so a large batch of small queries is not
    bound by per-item pickling.  Tokens do not cross process boundaries,
    so cancellation is enforced here: every poll interval the driver
    re-checks the token and, once it fires, abandons the pool
    (``shutdown(wait=False)`` — queued work is cancelled, running
    workers are orphaned rather than joined) so the abort surfaces
    within one poll interval.
    """
    workers = min(jobs, len(payloads))
    size = max(1, len(payloads) // (workers * 4))
    pool = ProcessPoolExecutor(max_workers=workers)
    futures = [
        pool.submit(_batch_worker, payloads[start : start + size])
        for start in range(0, len(payloads), size)
    ]
    not_done = set(futures)
    try:
        while not_done:
            done, not_done = wait_futures(
                not_done,
                timeout=_CANCEL_POLL_SECONDS,
                return_when=FIRST_COMPLETED,
            )
            for future in done:
                future.result()  # surface worker errors promptly
            if cancellation is not None and cancellation.cancelled and not_done:
                raise QueryAborted(
                    f"cancelled: {cancellation.reason}",
                    cause=AbortCause.CANCELLED,
                    phase="optimize",
                )
        return [result for future in futures for result in future.result()]
    finally:
        # a cancelled (or failed) pool must not join still-running workers
        pool.shutdown(wait=not not_done, cancel_futures=True)
