"""The two uses of ``jobs`` behind the session, on one process pool.

:class:`~repro.core.session.Optimizer` is the only entry to both; this
module holds what runs *after* the session has resolved statistics,
consulted its plan cache and built the enumerator.  Following Trummer &
Koch, the workers run the unmodified serial optimizer, on the
persistent forked pool of :mod:`.memo_shard` (one per process and worker
count, lent to one caller at a time); a search or a batch that finds it
lent to another thread runs in process instead.

* **Intra-query** — :func:`search` runs the TD-CMD / TD-CMDP enumerator
  cooperatively (every worker runs the bounded serial search over its
  share of the root, and all share one cost table) or as it is; cost and
  plan are the serial search's.
* **Inter-query** — :func:`run_batch` hands the cache misses of
  :meth:`Optimizer.optimize_many <repro.core.session.Optimizer.optimize_many>`
  to the workers in chunks, one serial optimization each, so per-query
  results are the serial ones by construction.
"""

from __future__ import annotations

import time
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..sparql.ast import BGPQuery
from .enumeration import OptimizationResult, TopDownEnumerator
from .governance import CancellationToken, QueryBudget
from .join_graph import JoinGraph
from . import memo_shard
from .session import OptimizeOptions, Optimizer
from . import bitset as bs

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

    The one place that decides whether a search pools: a query with no
    Cartesian-product-free plan, a Rule-3 local short-circuit at the
    root, more patterns than :data:`~.memo_shard.TABLE_PATTERNS` or
    fewer than ``_BREAK_EVEN`` non-singleton connected subqueries runs
    ``enumerator.optimize()``; otherwise :mod:`.memo_shard` runs it,
    with that call's cost and plan (the label gains ``[parallel xN]``).
    The enumerator's budget governs either way: the remaining deadline
    travels to the workers; the driver polls the cancellation token and
    abandons the pool on cancel.  An expiring anytime deadline yields
    the workers' best complete root candidate, else the greedy plan.
    """
    started = time.perf_counter()
    join_graph = enumerator.join_graph
    full = join_graph.full
    # Rule 3 answers a local root immediately; nothing to parallelize
    if (
        join_graph.size <= memo_shard.TABLE_PATTERNS
        and join_graph.is_connected(full)
        and not (
            enumerator.local_short_circuit and enumerator.local_index.is_local(full)
        )
        and _connected_at_least(join_graph, _BREAK_EVEN)
    ):
        driver = memo_shard._CooperativeDriver(enumerator, jobs)
        if driver.start():
            return driver.search(started)
    return enumerator.optimize()


# ----------------------------------------------------------------------
# inter-query: serial sessions on the same pool
# ----------------------------------------------------------------------
def run_batch(
    payloads: Sequence[Tuple[BGPQuery, OptimizeOptions]],
    jobs: int,
    cancellation: Optional[CancellationToken],
) -> List[OptimizationResult]:
    """One serial session per ``(query, options)`` payload, in payload
    order, on the pool of *jobs* workers.

    Payloads travel in chunks (about four per worker), so a large batch
    of small queries is not bound by per-item pickling.  Tokens do not
    cross process boundaries, so the driver polls the token; a cancel,
    an item's error (re-raised as it is) or a dead worker discards the
    pool.
    """
    pool = memo_shard._POOLS.borrow(jobs)
    if pool is None:
        return [
            Optimizer(replace(options, cancellation=cancellation)).optimize(query)
            for query, options in payloads
        ]
    size = max(1, len(payloads) // (jobs * 4))
    chunks = [("batch", payloads[start : start + size]) for start in range(0, len(payloads), size)]
    poll = partial(QueryBudget(cancellation=cancellation).check_cancelled, phase="optimize")
    complete = False
    try:
        replies = pool.exchange(chunks, poll)
        complete = True
    finally:
        memo_shard._POOLS.give_back(jobs, pool, keep=complete)
    return [result for index in range(len(chunks)) for result in replies[index][1]]
