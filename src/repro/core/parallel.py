"""Process pools behind the session: the shard decision and the batch pool.

:class:`~repro.core.session.Optimizer` is the only entry to both; this
module holds what runs *after* the session has resolved statistics,
consulted its plan cache and built the enumerator.  Following Trummer &
Koch's observation that workers can run the unmodified serial
optimizer, neither half builds anything of its own:

* **Intra-query** — :func:`search` takes the TD-CMD / TD-CMDP
  enumerator the session built and either shards its DP memo across
  the process's worker pool (popcount tiers, one static share per
  worker per tier — see :mod:`.memo_shard`) or runs it as it is.  Every DP
  subproblem is solved exactly once and every candidate is costed by
  the same arithmetic in every worker, so the merged plan cost is
  bit-identical to the serial search.

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
from typing import List, Optional, Sequence, Tuple

from ..sparql.ast import BGPQuery
from .enumeration import OptimizationResult, TopDownEnumerator
from .governance import AbortCause, CancellationToken, QueryAborted
from .memo_shard import _ShardDriver, subquery_tiers
from .session import OptimizeOptions, Optimizer

#: how often the driver polls the cancellation token while a pool runs
_CANCEL_POLL_SECONDS = 0.05
#: the measured break-even, in non-singleton connected subqueries:
#: below it a ``jobs=2`` search is slower than the serial one
#: (docs/PERFORMANCE.md, "When it pays off")
_BREAK_EVEN = 300


# ----------------------------------------------------------------------
# intra-query: shard one search, or run it as it is
# ----------------------------------------------------------------------
def search(enumerator: TopDownEnumerator, jobs: int) -> OptimizationResult:
    """Run *enumerator*'s search, its DP memo sharded across *jobs* workers.

    This is the one place that decides *shard or serial*: a query with
    no Cartesian-product-free plan, a Rule-3 local short-circuit at the
    root, fewer than ``_BREAK_EVEN`` non-singleton connected subqueries,
    or a pool already lent to another thread's search runs
    ``enumerator.optimize()``; otherwise the memo is sharded (see
    :mod:`.memo_shard`) and the plan cost is identical to that call's.

    The enumerator's budget governs either way: the remaining deadline
    allowance travels to every worker (re-anchored on the worker's
    clock); the cancellation token stays driver-side — the driver polls
    it while the pool runs and abandons it on cancel, since tokens do
    not cross process boundaries.  An expiring anytime deadline yields
    a complete plan merged from the finished tiers.
    """
    started = time.perf_counter()
    join_graph = enumerator.join_graph
    full = join_graph.full
    # Rule 3 answers a local root immediately; nothing to parallelize
    if join_graph.is_connected(full) and not (
        enumerator.local_short_circuit and enumerator.local_index.is_local(full)
    ):
        tiers = subquery_tiers(join_graph)
        if sum(len(tier) for tier in tiers[2:]) >= _BREAK_EVEN:
            workers = min(jobs, max(len(tier) for tier in tiers[2:]))
            driver = _ShardDriver(enumerator, workers, tiers)
            if workers > 1 and driver.start():
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
