"""Tests for the memo-sharded parallel search (core.memo_shard).

Three contracts:

* **tiering** — :func:`subquery_tiers` enumerates exactly the connected
  subqueries, grouped by popcount (checked against a brute-force
  connectivity sweep);
* **equivalence** — the sharded search returns bit-identical plan costs
  and verifier-clean plans across algorithms × partitioners × seeds
  (hypothesis property test);
* **governance** — an expiring anytime deadline yields a *complete*,
  labelled, verifier-clean degraded plan assembled from finished tiers;
  without ``anytime`` it raises :class:`OptimizationTimeout`;
* **the pool** — searches below the break-even never touch it, later
  searches reuse it, it exits when idle, one search holds it at a time,
  and a cancelled, expired or failed search discards it.
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
from repro.core import OptimizeOptions, Optimizer, QueryAborted, optimize, parallel
from repro.core.enumeration import OptimizationTimeout, TopDownEnumerator
from repro.core.governance import CancellationToken, Deadline, QueryBudget
from repro.core.join_graph import JoinGraph
from repro.core.memo_shard import _IDLE_SECONDS, _ShardDriver, subquery_tiers
from repro.core.optimizer import make_builder
from repro.core.pruning import PrunedTopDownEnumerator
from repro.core import bitset as bs
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


def sharded(query, algorithm, jobs, budget=None, **options):
    """One query through a ``jobs > 1`` session (the sharded search)."""
    session = Optimizer(OptimizeOptions(algorithm=algorithm, jobs=jobs, **options))
    return session.optimize(query, budget)


def brute_force_connected(join_graph):
    """Every connected subquery bitset, by exhaustive enumeration."""
    return {
        bits
        for bits in range(1, join_graph.full + 1)
        if join_graph.is_connected(bits)
    }


class TestSubqueryTiers:
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
    def test_tiers_are_exactly_the_connected_subqueries(self, query):
        join_graph = JoinGraph(query)
        tiers = subquery_tiers(join_graph)
        flattened = {bits for tier in tiers for bits in tier}
        assert flattened == brute_force_connected(join_graph)
        for k, tier in enumerate(tiers):
            assert all(bs.popcount(bits) == k for bits in tier)
            assert tier == sorted(tier)  # deterministic schedule order
        assert tiers[0] == []
        assert tiers[len(query)] == [join_graph.full]

    def test_chain_tier_sizes(self):
        """A chain of n patterns has n-k+1 connected k-subqueries."""
        join_graph = JoinGraph(chain_query(6))
        tiers = subquery_tiers(join_graph)
        assert [len(tier) for tier in tiers[1:]] == [6, 5, 4, 3, 2, 1]


def entries(query):
    """Non-singleton connected subqueries: what the break-even counts."""
    return sum(len(tier) for tier in subquery_tiers(JoinGraph(query))[2:])


def pool_pids(jobs=2):
    """Live workers of this process's pool of *jobs* (``None``: all pools)."""
    suffix = "" if jobs is None else f"-of-{jobs}"
    return sorted(
        process.pid
        for process in multiprocessing.active_children()
        if process.name.startswith("memo-shard-") and process.name.endswith(suffix)
    )


def wait_for_no_pool(limit=_IDLE_SECONDS + 3.0):
    stop_by = time.monotonic() + limit
    while pool_pids(None) and time.monotonic() < stop_by:
        time.sleep(0.05)
    return pool_pids(None)


@pytest.mark.usefixtures("shard_small")
class TestMemoShardEquivalence:
    """Serial ≡ memo-sharded: cost, plan shape, and verifier verdict."""

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

    def test_small_query_declines_to_serial(self):
        """A search space too small to shard runs the serial search."""
        query = chain_query(2)
        result = sharded(query, "td-cmd", 4)
        assert result.stats.workers == 1
        assert "[parallel" not in result.algorithm
        assert result.cost == optimize(query, algorithm="td-cmd").cost


@pytest.mark.usefixtures("shard_small")
class TestMemoShardGovernance:
    def test_anytime_deadline_yields_complete_labelled_plan(self):
        """An expired deadline mid-search degrades to a complete plan
        merged from the finished tiers, labelled and verifier-clean."""
        query = dense_query(10, random.Random(3))
        budget = QueryBudget(
            deadline=Deadline.after(0.0), anytime=True, query_id="q-any"
        )
        result = sharded(query, "td-cmdp", 2, budget)
        assert result.stats.degraded
        assert "[anytime]" in result.algorithm
        assert "finished tiers" in result.stats.degradation_reason
        # the degraded plan still answers the *whole* query
        join_graph = JoinGraph(query)
        assert result.plan.bits == join_graph.full
        context = VerificationContext.for_query(query)
        report = PlanVerifier(
            context.with_profile(context.profile)
        ).verify(result.plan)
        report.raise_if_failed()

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
    """``parallel.search`` shards only from ``_BREAK_EVEN`` non-singleton
    connected subqueries on (measured: docs/PERFORMANCE.md)."""

    def test_serial_below_the_break_even_without_the_pool(self, monkeypatch):
        query = cycle_query(18)
        assert entries(query) < parallel._BREAK_EVEN

        def no_pool(driver):
            raise AssertionError("a search below the break-even borrowed the pool")

        monkeypatch.setattr(_ShardDriver, "start", no_pool)
        result = sharded(query, "td-cmdp", 2)
        serial = optimize(query, algorithm="td-cmdp")
        assert result.stats.workers == 1
        assert result.algorithm == "TD-CMDP"
        assert result.cost == serial.cost
        assert result.stats.plans_considered == serial.stats.plans_considered

    def test_sharded_at_the_break_even(self):
        query = cycle_query(19)
        assert entries(query) >= parallel._BREAK_EVEN
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
    #: sharded, a few hundred ms: long enough to abort mid-search
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

    def test_one_search_at_a_time(self):
        """Two threads, one pool: whichever finds it lent out searches
        serially, and both results are the serial result — the sharded
        one counting the serial search space with each binary division
        priced once, the other the serial search's own (bounded) work."""
        query = dense_query(10, random.Random(2))
        serial = optimize(query, algorithm="td-cmdp")
        space = Optimizer(OptimizeOptions(algorithm="td-cmdp")).search_space(query)
        # a worker bounds nothing, and skips the binary divisions an
        # earlier join variable already cut, as the serial search does
        # (docs/ALGORITHMS.md, "Each binary division once"); Table VII's
        # pass counts those repeats
        builder = make_builder(query)
        priced = TopDownEnumerator.search_space(
            PrunedTopDownEnumerator(builder.join_graph, builder)
        )
        assert priced.divisions_enumerated < space.divisions_enumerated
        assert priced.subqueries_expanded == space.subqueries_expanded
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
            expected = priced if result.stats.workers > 1 else serial.stats
            for name in ("plans_considered", "divisions_enumerated", "subqueries_expanded"):
                assert getattr(result.stats, name) == getattr(expected, name)
