"""Tests for the session's two uses of ``jobs`` (core.cooperative behind it).

The contract under test is *equivalence*: a pooled batch of
``Optimizer.optimize_many`` must return bit-identical plan costs and
enumeration counters to the serial optimizer, for every algorithm and
seed; the cooperative intra-query search of ``Optimizer.optimize``
bit-identical costs and plans, with at least the serial search's
expansions summed over its workers.
"""

import random
import subprocess
import sys
import textwrap
import threading
import time

import pytest

from repro.core import (
    ALGORITHMS,
    AbortCause,
    CancellationToken,
    CartesianProductError,
    OptimizationTimeout,
    OptimizeOptions,
    Optimizer,
    QueryAborted,
    StatisticsCatalog,
    TopDownEnumerator,
    make_builder,
    optimize,
)
from repro.core.cooperative import _CooperativeDriver, _Reply
from repro.core.enumeration import EnumerationStats
from repro.core.plan_cache import PlanCache
from repro.partitioning import HashSubjectObject, PathBMC
from repro.sparql import parse_query
from repro.workloads.generators import (
    chain_query,
    cycle_query,
    dense_query,
    star_query,
    tree_query,
)

ALL_ALGORITHMS = sorted(ALGORITHMS)
#: the algorithms whose search a ``jobs > 1`` session splits across workers
COOPERATIVE_ALGORITHMS = ("td-cmd", "td-cmdp")
WORK_COUNTERS = (
    "plans_considered",
    "divisions_enumerated",
    "divisions_bounded",
    "subqueries_expanded",
    "memo_hits",
    "local_short_circuits",
)


def session(algorithm="td-auto", **options):
    return Optimizer(OptimizeOptions(algorithm=algorithm, **options))


def small_batch():
    """A shape-diverse batch, small enough to optimize in milliseconds."""
    return [
        chain_query(5),
        cycle_query(5),
        star_query(4),
        tree_query(6, random.Random(1)),
        dense_query(6, random.Random(2)),
    ]


class TestOptimizeMany:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 7, 2017])
    def test_matches_serial_exactly(self, algorithm, seed):
        """Pooled batch results == serial results, per query, bit for bit."""
        queries = small_batch()
        serial = [optimize(q, algorithm=algorithm, seed=seed) for q in queries]
        batch = session(algorithm, jobs=2, seed=seed).optimize_many(queries)
        assert len(batch) == len(serial)
        for expected, got in zip(serial, batch):
            assert got.cost == expected.cost
            assert got.stats.plans_considered == expected.stats.plans_considered
            assert got.plan.describe() == expected.plan.describe()

    def test_preserves_input_order(self):
        queries = small_batch()
        results = session("td-cmd", jobs=2).optimize_many(queries)
        for query, result in zip(queries, results):
            serial = optimize(query, algorithm="td-cmd")
            assert result.cost == serial.cost

    def test_accepts_tuples_and_workload_records(self):
        """Queries, (query, stats) pairs, and workload records all work."""
        query = chain_query(4)
        stats = StatisticsCatalog.from_random(query, random.Random(5))

        class Record:
            """Anything exposing .query/.statistics (e.g. WorkloadQuery)."""

            def __init__(self, query, statistics):
                self.query = query
                self.statistics = statistics

        items = [query, (query, stats), Record(query, stats)]
        for jobs in (1, 2):
            results = session("td-cmd", jobs=jobs).optimize_many(items)
            assert len(results) == 3
            # items 1 and 2 share explicit statistics -> identical plans
            assert results[1].cost == results[2].cost
            assert results[1].cost == optimize(query, "td-cmd", stats).cost
            assert results[0].cost == optimize(query, "td-cmd").cost

    def test_rejects_garbage_items(self):
        for jobs in (1, 2):
            with pytest.raises(TypeError):
                session(jobs=jobs).optimize_many([chain_query(3), 42])

    def test_jobs_one_skips_the_pool(self):
        queries = small_batch()[:2]
        results = session("td-cmdp", jobs=1).optimize_many(queries)
        for query, result in zip(queries, results):
            assert result.cost == optimize(query, algorithm="td-cmdp").cost

    def test_deadline_seconds_bounds_every_query(self):
        """Each query of the batch runs under its own deadline, and a
        pool worker's timeout reaches the caller as the same type."""
        # far too large for 50 ms; two misses, so jobs=2 uses the pool
        queries = [dense_query(16, random.Random(seed)) for seed in (5, 6)]
        for jobs in (1, 2):
            with pytest.raises(OptimizationTimeout, match=r"exceeded 0\.05s"):
                session("td-cmdp", jobs=jobs, deadline_seconds=0.05).optimize_many(queries)

    def test_disconnected_query_rejected_in_a_pooled_batch(self):
        """A batch item's own error crosses the pool with its type."""
        query = parse_query(
            "SELECT * WHERE { ?a <http://e/p> ?b . ?c <http://e/q> ?d . }"
        )
        with pytest.raises(CartesianProductError):
            session("td-cmd", jobs=2).optimize_many([chain_query(4), query])

    def test_plan_cache_short_circuits_repeats(self):
        queries = small_batch()[:3]
        cache = PlanCache()
        pooled = session("td-cmd", jobs=2, plan_cache=cache)
        first = pooled.optimize_many(queries)
        assert cache.stats.misses == len(queries)
        assert cache.stats.stores == len(queries)
        second = pooled.optimize_many(queries)
        assert cache.stats.hits == len(queries)
        for cold, warm in zip(first, second):
            assert warm.cost == cold.cost
            assert warm.algorithm.endswith("+cache")

    def test_item_statistics_apply_to_that_item_only(self):
        """One query object, two catalogs in one batch: each item gets
        its own, and neither leaks into the session."""
        query = tree_query(6, random.Random(1))
        first, second = (
            StatisticsCatalog.from_random(query, random.Random(seed))
            for seed in (5, 6)
        )
        expected = [
            optimize(query, "td-cmd", statistics).cost
            for statistics in (first, second, None)
        ]
        assert len(set(expected)) == 3
        for jobs in (1, 2):
            pooled = session("td-cmd", jobs=jobs)
            results = pooled.optimize_many([(query, first), (query, second), query])
            assert [result.cost for result in results] == expected
            assert pooled.optimize(query).cost == expected[2]

    def test_corrupted_cache_entry_is_reoptimized_in_a_pooled_batch(self):
        """The verify gate on cache hits holds for batches too."""
        queries = small_batch()[:3]
        cache = PlanCache()
        pooled = session("td-cmdp", jobs=2, plan_cache=cache, verify=True)
        first = pooled.optimize_many(queries)
        for entry in cache._entries.values():
            entry["plan"]["cost"] += 100.0
        fresh = pooled.optimize_many(queries)
        assert cache.stats.invalidations == len(queries)
        for cold, again in zip(first, fresh):
            assert not again.algorithm.endswith("+cache")
            assert again.cost == cold.cost
        assert all(
            result.algorithm.endswith("+cache")
            for result in pooled.optimize_many(queries)
        )

    def test_cancelled_token_aborts_a_pooled_batch(self):
        """The driver polls the token between completions: the abort
        surfaces within poll intervals, not after the batch."""
        token = CancellationToken()
        queries = [dense_query(12, random.Random(seed)) for seed in range(8)]
        timer = threading.Timer(0.2, token.cancel, args=("shutting down",))
        timer.start()
        started = time.perf_counter()
        try:
            with pytest.raises(QueryAborted) as abort:
                session("td-cmd", jobs=2, cancellation=token).optimize_many(queries)
        finally:
            timer.cancel()
        assert abort.value.cause is AbortCause.CANCELLED
        assert "shutting down" in str(abort.value)
        # the batch itself is ~0.5 s a query; cancel came at 0.2 s
        assert time.perf_counter() - started < 1.5


@pytest.mark.usefixtures("shard_small")
class TestIntraQueryParallel:
    @pytest.mark.parametrize("algorithm", COOPERATIVE_ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_serial_exactly(self, algorithm, seed):
        """Parallel search == serial search: cost and plan.  Every worker
        expands the root and runs the bounded search over its share, so
        the summed expansions are at least the serial search's."""
        query = tree_query(9, random.Random(seed))
        serial = optimize(query, algorithm=algorithm, seed=seed)
        parallel = session(algorithm, jobs=3, seed=seed).optimize(query)
        assert parallel.stats.workers == 3
        assert parallel.cost == serial.cost
        assert parallel.plan.describe() == serial.plan.describe()
        assert parallel.stats.subqueries_expanded >= serial.stats.subqueries_expanded

    @pytest.mark.parametrize("algorithm", ["td-cmd", "td-cmdp"])
    def test_counts_repeat(self, algorithm):
        """The work counters are those of one memo the workers share, not
        of which worker got to a subquery first: three runs, one count."""
        query = dense_query(8, random.Random(3))
        counts = set()
        for _ in range(3):
            stats = session(algorithm, jobs=3, seed=3).optimize(query).stats
            assert stats.workers == 3
            counts.add(tuple(getattr(stats, name) for name in WORK_COUNTERS))
        assert len(counts) == 1

    def test_reports_worker_stats(self):
        query = cycle_query(7)
        result = session("td-cmd", jobs=3).optimize(query)
        assert result.stats.workers == 3
        assert len(result.stats.per_worker_subqueries) == 3
        assert len(result.stats.per_worker_seconds) == 3
        assert all(n > 0 for n in result.stats.per_worker_subqueries)
        assert result.stats.speedup > 0.0
        assert 0.0 < result.stats.worker_balance <= 1.0
        assert result.stats.steals >= 0
        assert "[parallel x3]" in result.algorithm

    def test_worker_balance_and_steals_in_summary(self):
        """The skew metrics reach summary() for multi-worker runs."""
        query = cycle_query(7)
        result = session("td-cmd", jobs=3).optimize(query)
        summary = result.stats.summary()
        assert "worker_balance" in summary
        assert "steals" in summary
        assert summary["duplicate_solves"] == result.stats.duplicate_solves
        assert summary["worker_balance"] == result.stats.worker_balance
        serial = optimize(query, algorithm="td-cmd")
        assert "worker_balance" not in serial.stats.summary()

    def test_partitioned_search_matches_serial(self):
        """Local-query detection (Rule 2/3) survives the parallel split."""
        query = star_query(5)
        method = HashSubjectObject()
        serial = optimize(query, algorithm="td-cmdp", partitioning=method)
        parallel = session("td-cmdp", jobs=2, partitioning=method).optimize(query)
        assert parallel.cost == serial.cost
        assert parallel.plan.describe() == serial.plan.describe()

    def test_rule3_short_circuit_falls_back_to_serial(self):
        """A root answered locally by Rule 3 has nothing to parallelize."""
        query = chain_query(3)
        method = PathBMC()  # chains are local under path partitioning
        result = session("td-cmdp", jobs=4, partitioning=method).optimize(query)
        serial = optimize(query, algorithm="td-cmdp", partitioning=method)
        assert result.cost == serial.cost
        assert result.stats.workers == 1
        assert "[parallel" not in result.algorithm

    def test_jobs_capped_by_search_space(self):
        """More workers than the space supports must not crash or distort."""
        query = chain_query(3)  # tiny search space
        serial = optimize(query, algorithm="td-cmd")
        result = session("td-cmd", jobs=64).optimize(query)
        assert result.cost == serial.cost
        assert result.stats.plans_considered == serial.stats.plans_considered

    def test_jobs_one_is_plain_serial(self):
        query = cycle_query(5)
        result = session("td-cmd", jobs=1).optimize(query)
        assert result.stats.workers == 1
        assert "[parallel" not in result.algorithm

    def test_disconnected_query_rejected(self):
        query = parse_query(
            "SELECT * WHERE { ?a <http://e/p> ?b . ?c <http://e/q> ?d . }"
        )
        with pytest.raises(CartesianProductError):
            session("td-cmd", jobs=2).optimize(query)


class TestMergeWorkerStats:
    """The pool-startup exclusion in the merged speedup (regression)."""

    @staticmethod
    def _stats(busy_seconds, wall_seconds, startup_seconds=None):
        """``_CooperativeDriver.stats`` after a pool that was never
        started: each worker busy for *busy_seconds*, five subqueries
        apiece, the first one ready *startup_seconds* after the spawn."""
        builder = make_builder(chain_query(4))
        serial = TopDownEnumerator(builder.join_graph, builder)
        jobs = len(busy_seconds)
        driver = _CooperativeDriver(serial, jobs)
        driver.spawn_started = 100.0
        if startup_seconds is not None:
            driver.worker_started[0] = 100.0 + startup_seconds
        for worker, seconds in enumerate(busy_seconds):
            counted = EnumerationStats(subqueries_expanded=5)
            driver.replies[worker] = _Reply("done", None, {}, counted, seconds, None)
        return driver.stats(wall_seconds)

    def test_speedup_excludes_pool_startup(self):
        """2 workers busy 0.25 s each over a 2 s wall of which 1.5 s was
        pool spin-up: speedup must be 0.5/0.5 = 1.0, not 0.5/2.0."""
        stats = self._stats([0.25, 0.25], wall_seconds=2.0, startup_seconds=1.5)
        assert stats.pool_startup_seconds == pytest.approx(1.5)
        assert stats.speedup == pytest.approx(1.0)

    def test_startup_clamped_to_wall(self):
        """A bogus startup beyond the wall must not produce a negative
        or infinite speedup."""
        stats = self._stats([0.1], wall_seconds=0.5, startup_seconds=9.0)
        assert stats.pool_startup_seconds == pytest.approx(0.5)
        assert stats.speedup == 0.0

    def test_duplicate_solves_count_as_work_not_as_expansions(self):
        """A worker's share is what it solved, duplicates included; the
        work counters sum only what each worker kept."""
        builder = make_builder(chain_query(4))
        driver = _CooperativeDriver(TopDownEnumerator(builder.join_graph, builder), 2)
        for worker, duplicates in enumerate((0, 5)):
            counted = EnumerationStats(subqueries_expanded=5, duplicate_solves=duplicates)
            driver.replies[worker] = _Reply("done", None, {}, counted, 0.1, None)
        stats = driver.stats(1.0)
        assert stats.subqueries_expanded == 10
        assert stats.duplicate_solves == 5
        assert stats.per_worker_subqueries == [5, 10]
        assert stats.worker_balance == pytest.approx(0.5)

    def test_zero_startup_matches_old_behavior(self):
        stats = self._stats([1.0, 1.0], wall_seconds=1.0)
        assert stats.pool_startup_seconds == 0.0
        assert stats.speedup == pytest.approx(2.0)
        assert stats.worker_balance == pytest.approx(1.0)


class TestOptimizeEntryPoint:
    @pytest.mark.usefixtures("shard_small")
    def test_jobs_routes_parallelizable_algorithms(self):
        query = cycle_query(6)
        serial = optimize(query, algorithm="td-cmd")
        parallel = Optimizer(OptimizeOptions(algorithm="td-cmd", jobs=2)).optimize(
            query
        )
        assert "[parallel x2]" in parallel.algorithm
        assert parallel.cost == serial.cost

    def test_td_auto_hands_jobs_to_the_variant_it_chose(self):
        """TD-Auto picks TD-CMD on a dense query under 14 patterns and
        that search is pooled: the result equals ``jobs=1`` to the bit."""
        query = dense_query(12, random.Random(5))
        serial = session("td-auto").optimize(query)
        parallel = session("td-auto", jobs=2).optimize(query)
        assert serial.algorithm == "TD-Auto[TD-CMD]"
        assert parallel.algorithm == "TD-Auto[TD-CMD][parallel x2]"
        assert parallel.stats.workers == 2
        assert parallel.cost == serial.cost
        assert parallel.plan.describe() == serial.plan.describe()
        assert parallel.stats.subqueries_expanded >= serial.stats.subqueries_expanded

    def test_jobs_ignored_for_serial_only_algorithms(self):
        """HGR and the baselines search serially whatever ``jobs``; so
        does TD-Auto when its choice is under the break-even."""
        query = cycle_query(6)
        for algorithm in sorted(set(ALGORITHMS) - set(COOPERATIVE_ALGORITHMS)):
            result = session(algorithm, jobs=4).optimize(query)
            assert "[parallel" not in result.algorithm
            assert result.stats.workers == 1
            assert result.cost == optimize(query, algorithm=algorithm).cost

    def test_jobs_1_never_imports_the_pool(self):
        """``multiprocessing`` and the pool module load only when a
        session with ``jobs > 1`` searches or batches: a ``jobs=1``
        process (the CLI's default) pays neither the import nor its
        memory."""
        script = textwrap.dedent(
            """
            import random, sys
            import repro
            from repro import OptimizeOptions, Optimizer
            from repro.workloads.generators import chain_query, dense_query

            session = Optimizer(OptimizeOptions(jobs=1))
            session.optimize(dense_query(10, random.Random(1)))
            session.optimize_many([chain_query(5), dense_query(8, random.Random(2))])
            loaded = [name for name in ("multiprocessing", "repro.core.cooperative")
                      if name in sys.modules]
            print(loaded)
            """
        )
        ran = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert ran.stdout.strip() == "[]", ran.stdout + ran.stderr
