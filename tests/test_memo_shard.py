"""Tests for the cooperative parallel search (core.cooperative).

Contracts:

* **the break-even count** — :func:`cooperative._connected_at_least`
  answers exactly whether a query has that many non-singleton connected
  subqueries (checked against a brute-force connectivity sweep);
* **equivalence** — cost, algorithm label (less its ``[parallel xN]``
  suffix) and plan signature equal the serial search's over generated
  BGPs × {td-cmd, td-cmdp} × {no partitioning, hash-so} × {random,
  uniform statistics} × ``jobs`` ∈ {2, 3}; uniform statistics give
  equal-cost root divisions, so the ``(cost, position)`` merge decides.
  The workers' summed expansions are at least the serial search's
  (every worker expands the root);
* **the shared table** — back-to-back searches on one pool never read an
  older search's entries, and a query the table cannot index searches
  in process;
* **governance** — an expiring anytime deadline yields a *complete*,
  labelled, verifier-clean degraded plan; without ``anytime`` it raises
  :class:`OptimizationTimeout`;
* **the pool** — searches below the break-even never touch it, later
  searches and ``optimize_many`` batches reuse it, it exits when idle,
  one caller holds it at a time (a batch that finds it lent runs in
  process), and a cancelled, expired or failed search or batch discards
  it.
"""

import multiprocessing
import os
import random
import signal
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import PlanVerifier, VerificationContext, verify_result
from repro.core import (
    OptimizeOptions,
    Optimizer,
    QueryAborted,
    StatisticsCatalog,
    cooperative,
    optimize,
)
from repro.core.enumeration import EnumerationStats, OptimizationTimeout, TopDownEnumerator
from repro.core.governance import CancellationToken, Deadline, QueryBudget
from repro.core.join_graph import JoinGraph
from repro.core.cooperative import (
    _IDLE_SECONDS,
    TABLE_PATTERNS,
    _CooperativeDriver,
    _Pool,
    _Reply,
)
from repro.core.optimizer import make_builder
from repro.core.plans import plan_signature
from repro.partitioning import (
    DynamicPartitioning,
    HashSubjectObject,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
)
from repro.workloads.generators import (
    chain_query,
    cycle_query,
    dense_query,
    star_query,
    tree_query,
)

from .test_parallel import small_batch


def sharded(query, algorithm, jobs, budget=None, **options):
    """One query through a ``jobs > 1`` session (the cooperative search)."""
    session = Optimizer(OptimizeOptions(algorithm=algorithm, jobs=jobs, **options))
    return session.optimize(query, budget)


def entries(query):
    """Non-singleton connected subqueries, by exhaustive enumeration:
    what the break-even counts."""
    join_graph = JoinGraph(query)
    return sum(
        1
        for bits in range(1, join_graph.full + 1)
        if bits & (bits - 1) and join_graph.is_connected(bits)
    )


class TestConnectedCount:
    @pytest.mark.parametrize(
        "query",
        [
            chain_query(5),
            cycle_query(6),
            star_query(5),
            tree_query(7, random.Random(1)),
            dense_query(7, random.Random(2)),
        ],
        ids=["chain5", "cycle6", "star5", "tree7", "dense7"],
    )
    def test_counts_exactly_the_connected_subqueries(self, query):
        join_graph = JoinGraph(query)
        count = entries(query)
        assert cooperative._connected_at_least(join_graph, count)
        assert not cooperative._connected_at_least(join_graph, count + 1)

    def test_chain_count(self):
        """A chain of n patterns has n-k+1 connected k-subqueries."""
        join_graph = JoinGraph(chain_query(6))
        assert cooperative._connected_at_least(join_graph, 5 + 4 + 3 + 2 + 1)
        assert not cooperative._connected_at_least(join_graph, 16)


def pool_pids(jobs=2):
    """Live workers of this process's pool of *jobs* (``None``: all pools)."""
    suffix = "" if jobs is None else f"-of-{jobs}"
    return sorted(
        process.pid
        for process in multiprocessing.active_children()
        if process.name.startswith("cooperative-") and process.name.endswith(suffix)
    )


def wait_for_no_pool(limit=_IDLE_SECONDS + 3.0):
    stop_by = time.monotonic() + limit
    while pool_pids(None) and time.monotonic() < stop_by:
        time.sleep(0.05)
    return pool_pids(None)


def no_pool(driver):
    raise AssertionError("a search that should run in process borrowed the pool")


def unsuffixed(label):
    return label.split("[parallel")[0]


@pytest.mark.usefixtures("shard_small")
class TestMemoShardEquivalence:
    """Serial ≡ cooperative: cost, label, plan, and verifier verdict."""

    PARTITIONERS = [
        None,
        HashSubjectObject(),
        SemanticHash(2),
        PathBMC(),
        UndirectedOneHop(),
        "dynamic",  # built per query: DynamicPartitioning needs hot queries
    ]

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        algorithm=st.sampled_from(["td-cmd", "td-cmdp"]),
        partitioner=st.sampled_from(range(len(PARTITIONERS))),
        seed=st.integers(min_value=0, max_value=7),
        shape=st.sampled_from(["cycle", "tree", "dense"]),
    )
    def test_cost_identity_and_verifier_clean(
        self, algorithm, partitioner, seed, shape
    ):
        rng = random.Random(seed)
        query = {
            "cycle": lambda: cycle_query(7),
            "tree": lambda: tree_query(8, rng),
            "dense": lambda: dense_query(7, rng),
        }[shape]()
        method = self.PARTITIONERS[partitioner]
        if method == "dynamic":
            method = DynamicPartitioning(HashSubjectObject(), [query])
        serial = optimize(
            query, algorithm=algorithm, partitioning=method, seed=seed
        )
        parallel = sharded(query, algorithm, 2, partitioning=method, seed=seed)
        assert parallel.cost == serial.cost  # bit-identical, not approx
        assert parallel.plan.describe() == serial.plan.describe()
        context = VerificationContext.for_query(
            query, partitioning=method, seed=seed
        )
        verify_result(parallel, context).raise_if_failed()

    SWEEP = {
        "chain": chain_query(9),
        "cycle": cycle_query(8),
        "star": star_query(7),
        "tree": tree_query(10, random.Random(3)),
        "dense": dense_query(8, random.Random(4)),
    }

    @pytest.mark.parametrize("jobs", [2, 3])
    @pytest.mark.parametrize("statistics", ["random", "uniform"])
    @pytest.mark.parametrize("layout", ["none", "hash-so"])
    @pytest.mark.parametrize("algorithm", ["td-cmd", "td-cmdp"])
    def test_sweep_matches_serial(self, algorithm, layout, statistics, jobs):
        method = HashSubjectObject() if layout == "hash-so" else None
        pooled = 0
        for shape, query in self.SWEEP.items():
            catalog = (
                StatisticsCatalog.from_random(query, random.Random(len(query)))
                if statistics == "random"
                else StatisticsCatalog.uniform(query)
            )
            options = dict(statistics=catalog, partitioning=method)
            serial = optimize(query, algorithm=algorithm, **options)
            result = sharded(query, algorithm, jobs, **options)
            assert result.cost == serial.cost, shape
            assert unsuffixed(result.algorithm) == serial.algorithm, shape
            assert plan_signature(result.plan) == plan_signature(serial.plan), shape
            assert (
                result.stats.subqueries_expanded >= serial.stats.subqueries_expanded
            ), shape
            if result.stats.workers > 1:
                assert result.algorithm == f"{serial.algorithm}[parallel x{jobs}]"
                pooled += 1
        assert pooled >= 3  # Rule 3 may answer a local root in process

    def test_small_query_declines_to_serial(self):
        """A search space too small to share runs the serial search."""
        query = chain_query(2)
        result = sharded(query, "td-cmd", 4)
        assert result.stats.workers == 1
        assert "[parallel" not in result.algorithm
        assert result.cost == optimize(query, algorithm="td-cmd").cost


@pytest.mark.usefixtures("shard_small")
class TestSharedTable:
    def test_an_older_generation_is_never_read(self):
        """Two searches over the same bitsets with different costs, back
        to back on one pool: the second must not read the first's."""
        query = dense_query(9, random.Random(6))
        results = []
        for seed in (1, 2):
            catalog = StatisticsCatalog.from_random(query, random.Random(seed))
            serial = optimize(query, algorithm="td-cmdp", statistics=catalog)
            result = sharded(query, "td-cmdp", 2, statistics=catalog)
            assert result.stats.workers == 2
            assert result.cost == serial.cost
            assert plan_signature(result.plan) == plan_signature(serial.plan)
            results.append(result)
        assert results[1].stats.pool_startup_seconds == 0.0  # the same pool
        assert results[0].cost != results[1].cost

    def test_a_query_beyond_the_table_searches_in_process(self, monkeypatch):
        assert sharded(chain_query(TABLE_PATTERNS), "td-cmdp", 2).stats.workers == 2
        monkeypatch.setattr(_CooperativeDriver, "start", no_pool)
        query = chain_query(TABLE_PATTERNS + 1)
        result = sharded(query, "td-cmdp", 2)
        assert result.stats.workers == 1
        assert result.algorithm == "TD-CMDP"
        assert result.cost == optimize(query, algorithm="td-cmdp").cost


@pytest.mark.usefixtures("shard_small")
class TestMemoShardGovernance:
    def _complete_and_clean(self, query, result):
        assert result.stats.degraded
        assert result.plan.bits == JoinGraph(query).full
        context = VerificationContext.for_query(query)
        PlanVerifier(context.with_profile(context.profile)).verify(
            result.plan
        ).raise_if_failed()

    def test_anytime_deadline_yields_complete_labelled_plan(self):
        """A deadline expired before any root candidate: the greedy plan
        answers the *whole* query, labelled and verifier-clean."""
        query = dense_query(10, random.Random(3))
        budget = QueryBudget(
            deadline=Deadline.after(0.0), anytime=True, query_id="q-any"
        )
        result = sharded(query, "td-cmdp", 2, budget)
        assert result.algorithm == "TD-CMDP[parallel x2][anytime-greedy]"
        assert "greedy fallback" in result.stats.degradation_reason
        self._complete_and_clean(query, result)

    def test_anytime_mid_search_merges_the_workers_candidates(self):
        """Expiry mid-search: the best complete root candidate the workers
        reported (else the greedy plan), complete and verifier-clean."""
        query = TestPoolLifecycle.LARGE
        budget = QueryBudget(deadline=Deadline.after(0.15), anytime=True)
        result = sharded(query, "td-cmdp", 2, budget)
        self._complete_and_clean(query, result)
        assert result.algorithm.startswith("TD-CMDP[parallel x2][anytime")
        assert result.cost >= optimize(query, algorithm="td-cmdp").cost

    def test_deadline_without_anytime_raises_timeout(self):
        query = dense_query(10, random.Random(3))
        budget = QueryBudget(deadline=Deadline.after(0.0), anytime=False)
        with pytest.raises(OptimizationTimeout):
            sharded(query, "td-cmdp", 2, budget)

    def test_generous_deadline_is_not_degraded(self):
        query = cycle_query(7)
        budget = QueryBudget(deadline=Deadline.after(600.0), anytime=True)
        result = sharded(query, "td-cmdp", 2, budget)
        assert not result.stats.degraded
        assert result.cost == optimize(query, algorithm="td-cmdp").cost


class TestBreakEven:
    """``cooperative.search`` pools only from ``_BREAK_EVEN`` non-singleton
    connected subqueries on (measured: docs/PERFORMANCE.md)."""

    def test_serial_below_the_break_even_without_the_pool(self, monkeypatch):
        query = cycle_query(18)
        assert entries(query) < cooperative._BREAK_EVEN
        monkeypatch.setattr(_CooperativeDriver, "start", no_pool)
        result = sharded(query, "td-cmdp", 2)
        serial = optimize(query, algorithm="td-cmdp")
        assert result.stats.workers == 1
        assert result.algorithm == "TD-CMDP"
        assert result.cost == serial.cost
        assert result.stats.plans_considered == serial.stats.plans_considered

    def test_sharded_at_the_break_even(self):
        query = cycle_query(19)
        assert entries(query) >= cooperative._BREAK_EVEN
        result = sharded(query, "td-cmdp", 2)
        serial = optimize(query, algorithm="td-cmdp")
        assert result.stats.workers == 2
        assert result.algorithm == "TD-CMDP[parallel x2]"
        assert result.cost == serial.cost
        assert result.plan.describe() == serial.plan.describe()


@pytest.mark.usefixtures("shard_small")
class TestPoolLifecycle:
    """One pool per process: reused, idle-exited, discarded on abort."""

    SMALL = dense_query(8, random.Random(4))
    #: pooled, a few hundred ms: long enough to abort mid-search
    LARGE = dense_query(14, random.Random(1))

    def test_consecutive_searches_share_the_workers(self):
        assert wait_for_no_pool() == []
        first = sharded(self.SMALL, "td-cmdp", 2)
        workers = pool_pids()
        second = sharded(self.SMALL, "td-cmdp", 2)
        assert len(workers) == 2
        assert pool_pids() == workers
        assert first.stats.pool_startup_seconds > 0.0
        assert second.stats.pool_startup_seconds == 0.0
        assert second.cost == first.cost == optimize(self.SMALL, algorithm="td-cmdp").cost

    def test_idle_workers_exit(self):
        sharded(self.SMALL, "td-cmdp", 2)
        assert len(pool_pids()) == 2
        time.sleep(_IDLE_SECONDS)
        assert wait_for_no_pool(limit=2.0) == []
        # the next search forks a new pool
        result = sharded(self.SMALL, "td-cmdp", 2)
        assert result.stats.workers == 2
        assert result.stats.pool_startup_seconds > 0.0

    def test_a_reply_restarts_the_idle_clock(self):
        """A worker's idle clock starts when it answers, so a pool's age
        counts from the last reply, not from the dispatch: a search
        longer than half the idle period leaves a reusable pool."""
        builder = make_builder(self.SMALL)
        driver = _CooperativeDriver(TopDownEnumerator(builder.join_graph, builder), 1)
        ours, theirs = multiprocessing.Pipe()
        pool = driver.pool = _Pool.__new__(_Pool)  # one pipe, no process
        pool.conns, pool.procs, pool.generation = [ours], [], 0
        reply = _Reply("done", None, {}, EnumerationStats(), 0.0, None)
        answer = threading.Timer(0.2, theirs.send, args=(reply,))
        dispatched = time.perf_counter()
        answer.start()
        try:
            assert driver.run()
        finally:
            answer.join(timeout=5.0)
            ours.close()
            theirs.close()
        assert pool.last_active - dispatched >= 0.2

    def _abort_discards_the_pool(self, abort, expected, budget=None):
        """Run LARGE with *abort* fired mid-search on a warm pool: the
        search raises *expected*, its workers are gone, and the next
        search forks new ones and returns the serial cost."""
        sharded(self.SMALL, "td-cmdp", 2)
        workers = pool_pids()
        assert len(workers) == 2
        timer = threading.Timer(0.1, abort, args=(workers,))
        timer.start()
        try:
            with pytest.raises(expected):
                sharded(self.LARGE, "td-cmdp", 2, budget)
        finally:
            timer.cancel()
        assert not set(pool_pids()) & set(workers)
        result = sharded(self.SMALL, "td-cmdp", 2)
        assert result.stats.workers == 2
        assert not set(pool_pids()) & set(workers)
        assert result.cost == optimize(self.SMALL, algorithm="td-cmdp").cost

    def test_cancel_discards_the_pool(self):
        token = CancellationToken()
        self._abort_discards_the_pool(
            lambda workers: token.cancel("test"),
            QueryAborted,
            QueryBudget(cancellation=token),
        )

    def test_deadline_without_anytime_discards_the_pool(self):
        self._abort_discards_the_pool(
            lambda workers: None,
            OptimizationTimeout,
            QueryBudget(deadline=Deadline.after(0.1)),
        )

    def test_killed_worker_discards_the_pool(self):
        self._abort_discards_the_pool(
            lambda workers: os.kill(workers[1], signal.SIGKILL), RuntimeError
        )

    def test_searches_and_batches_share_the_workers(self, monkeypatch):
        """One pool serves both uses of ``jobs``: a search, a batch and a
        search again run on the same two workers."""
        sent = []
        exchange = _Pool.exchange

        def recording_exchange(pool, messages, *args):
            sent.append((messages[0][0], sorted(process.pid for process in pool.procs)))
            return exchange(pool, messages, *args)

        monkeypatch.setattr(_Pool, "exchange", recording_exchange)
        sharded(self.SMALL, "td-cmdp", 2)
        workers = pool_pids()
        batch = Optimizer(OptimizeOptions(jobs=2)).optimize_many(small_batch())
        assert pool_pids() == workers
        sharded(self.SMALL, "td-cmdp", 2)
        assert len(workers) == 2
        assert pool_pids() == workers
        assert sent == [("search", workers), ("batch", workers), ("search", workers)]
        assert [result.cost for result in batch] == [
            optimize(query).cost for query in small_batch()
        ]

    def _abort_discards_the_batch_pool(self, abort, expected, **options):
        """A batch of dense-12 queries with *abort* fired mid-batch on a
        warm pool: it raises *expected* well before the batch could end,
        its workers are gone, and the next batch forks new ones and
        returns the serial costs."""
        queries = [dense_query(12, random.Random(seed)) for seed in range(8)]
        pooled = Optimizer(OptimizeOptions(algorithm="td-cmd", jobs=2, **options))
        pooled.optimize_many(small_batch())
        workers = pool_pids()
        assert len(workers) == 2
        timer = threading.Timer(0.2, abort, args=(workers,))
        timer.start()
        started = time.perf_counter()
        try:
            with pytest.raises(expected):
                pooled.optimize_many(queries)
        finally:
            timer.cancel()
        # the batch itself is ~0.5 s a query; the abort came at 0.2 s
        assert time.perf_counter() - started < 1.5
        assert not set(pool_pids()) & set(workers)
        fresh = Optimizer(OptimizeOptions(algorithm="td-cmd", jobs=2)).optimize_many(small_batch())
        assert len(pool_pids()) == 2
        assert not set(pool_pids()) & set(workers)
        assert [result.cost for result in fresh] == [
            optimize(query, algorithm="td-cmd").cost for query in small_batch()
        ]

    def test_cancel_discards_the_batch_pool(self):
        token = CancellationToken()
        self._abort_discards_the_batch_pool(
            lambda workers: token.cancel("test"), QueryAborted, cancellation=token
        )

    def test_killed_worker_discards_the_batch_pool(self):
        self._abort_discards_the_batch_pool(
            lambda workers: os.kill(workers[1], signal.SIGKILL), RuntimeError
        )

    def test_an_idle_worker_exiting_mid_batch_is_no_failure(self, monkeypatch):
        """A worker whose last chunk is done may idle out while another
        still works: only a busy worker's exit is a death, so the batch
        completes with the serial costs."""
        assert wait_for_no_pool() == []
        monkeypatch.setattr(cooperative, "_IDLE_SECONDS", 0.2)  # the fork inherits it
        # one chunk each: a dense-12 (~0.5 s) and a chain that idles out first
        queries = [dense_query(12, random.Random(0)), chain_query(3)]
        results = Optimizer(OptimizeOptions(algorithm="td-cmd", jobs=2)).optimize_many(queries)
        assert [result.cost for result in results] == [
            optimize(query, algorithm="td-cmd").cost for query in queries
        ]

    def test_a_batch_finding_the_pool_lent_runs_in_process(self, monkeypatch):
        """While a search holds the pool, a batch runs its items in
        process: no process starts, the lent pool's workers see nothing,
        the costs are serial."""
        sharded(self.SMALL, "td-cmdp", 2)
        lent = cooperative._POOLS.borrow(2)
        assert lent is not None

        def no_start(process):
            raise AssertionError("a batch that found the pool lent started a process")

        try:
            monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_start)
            generation, active = lent.generation, lent.last_active
            batch = Optimizer(OptimizeOptions(jobs=2)).optimize_many(small_batch())
            assert (lent.generation, lent.last_active) == (generation, active)
            assert pool_pids() == sorted(process.pid for process in lent.procs)
        finally:
            cooperative._POOLS.give_back(2, lent)
        assert [result.cost for result in batch] == [
            optimize(query).cost for query in small_batch()
        ]

    def test_one_search_at_a_time(self):
        """Two threads, one pool: whichever finds it lent out searches
        in process, and both results are the serial result — the pooled
        one with at least the serial search's expansions summed over its
        workers (each expands the root), the other with exactly the
        serial search's work."""
        query = dense_query(10, random.Random(2))
        serial = optimize(query, algorithm="td-cmdp")
        start = threading.Barrier(2)
        results = [None, None]

        def search(slot):
            start.wait()
            results[slot] = sharded(query, "td-cmdp", 2)

        threads = [threading.Thread(target=search, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in results:
            assert result.cost == serial.cost
            assert result.plan.describe() == serial.plan.describe()
            if result.stats.workers > 1:
                expanded = result.stats.subqueries_expanded
                assert expanded >= serial.stats.subqueries_expanded
                continue
            for name in ("plans_considered", "divisions_enumerated", "subqueries_expanded"):
                assert getattr(result.stats, name) == getattr(serial.stats, name)
