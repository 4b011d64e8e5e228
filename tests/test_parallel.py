"""Tests for the process-pool parallel plan search (core.parallel).

The contract under test is *equivalence*: the batch pool and the
memo-sharded intra-query search must return bit-identical plan costs
(and bit-identical enumeration counters) to the serial optimizer, for
every algorithm and seed.
"""

import random

import pytest

from repro.core import (
    CartesianProductError,
    OptimizationTimeout,
    OptimizeOptions,
    Optimizer,
    PARALLELIZABLE_ALGORITHMS,
    StatisticsCatalog,
    TopDownEnumerator,
    default_jobs,
    make_builder,
    optimize,
    optimize_many,
    optimize_query_parallel,
)
from repro.core.memo_shard import _ShardDriver, subquery_tiers
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

ALL_ALGORITHMS = ["td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto"]


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
        batch = optimize_many(queries, algorithm=algorithm, jobs=2, seed=seed)
        assert len(batch) == len(serial)
        for expected, got in zip(serial, batch):
            assert got.cost == expected.cost
            assert got.stats.plans_considered == expected.stats.plans_considered
            assert got.plan.describe() == expected.plan.describe()

    def test_preserves_input_order(self):
        queries = small_batch()
        results = optimize_many(queries, algorithm="td-cmd", jobs=2)
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
        results = optimize_many(items, algorithm="td-cmd", jobs=1)
        assert len(results) == 3
        # items 1 and 2 share explicit statistics -> identical plans
        assert results[1].cost == results[2].cost

    def test_rejects_garbage_items(self):
        with pytest.raises(TypeError):
            optimize_many([42], jobs=1)

    def test_jobs_one_skips_the_pool(self):
        queries = small_batch()[:2]
        results = optimize_many(queries, algorithm="td-cmdp", jobs=1)
        for query, result in zip(queries, results):
            assert result.cost == optimize(query, algorithm="td-cmdp").cost

    def test_deadline_seconds_bounds_every_query(self):
        """Each query of the batch runs under its own deadline."""
        query = dense_query(16, random.Random(5))  # far too large for 50 ms
        with pytest.raises(OptimizationTimeout, match=r"exceeded 0\.05s"):
            optimize_many([query], algorithm="td-cmdp", jobs=1, deadline_seconds=0.05)

    def test_plan_cache_short_circuits_repeats(self):
        queries = small_batch()[:3]
        cache = PlanCache()
        first = optimize_many(queries, algorithm="td-cmd", jobs=2, plan_cache=cache)
        assert cache.stats.misses == len(queries)
        assert cache.stats.stores == len(queries)
        second = optimize_many(queries, algorithm="td-cmd", jobs=2, plan_cache=cache)
        assert cache.stats.hits == len(queries)
        for cold, warm in zip(first, second):
            assert warm.cost == cold.cost
            assert warm.algorithm.endswith("+cache")


class TestIntraQueryParallel:
    @pytest.mark.parametrize("algorithm", PARALLELIZABLE_ALGORITHMS)
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_matches_serial_exactly(self, algorithm, seed):
        """Parallel search == serial search: cost, plan and every counter
        except the traversal-dependent memo_hits."""
        query = tree_query(9, random.Random(seed))
        serial = optimize(query, algorithm=algorithm, seed=seed)
        parallel = optimize_query_parallel(
            query, algorithm=algorithm, jobs=3, seed=seed
        )
        assert parallel.cost == serial.cost
        assert parallel.plan.describe() == serial.plan.describe()
        assert parallel.stats.plans_considered == serial.stats.plans_considered
        assert (
            parallel.stats.divisions_enumerated
            == serial.stats.divisions_enumerated
        )
        assert (
            parallel.stats.subqueries_expanded == serial.stats.subqueries_expanded
        )

    def test_reports_worker_stats(self):
        query = cycle_query(7)
        result = optimize_query_parallel(query, algorithm="td-cmd", jobs=3)
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
        result = optimize_query_parallel(query, algorithm="td-cmd", jobs=3)
        summary = result.stats.summary()
        assert "worker_balance" in summary
        assert "steals" in summary
        assert summary["worker_balance"] == result.stats.worker_balance
        serial = optimize(query, algorithm="td-cmd")
        assert "worker_balance" not in serial.stats.summary()

    def test_partitioned_search_matches_serial(self):
        """Local-query detection (Rule 2/3) survives the parallel split."""
        query = star_query(5)
        method = HashSubjectObject()
        serial = optimize(query, algorithm="td-cmdp", partitioning=method)
        parallel = optimize_query_parallel(
            query, algorithm="td-cmdp", jobs=2, partitioning=method
        )
        assert parallel.cost == serial.cost
        assert parallel.plan.describe() == serial.plan.describe()

    def test_rule3_short_circuit_falls_back_to_serial(self):
        """A root answered locally by Rule 3 has nothing to parallelize."""
        query = chain_query(3)
        method = PathBMC()  # chains are local under path partitioning
        result = optimize_query_parallel(
            query, algorithm="td-cmdp", jobs=4, partitioning=method
        )
        serial = optimize(query, algorithm="td-cmdp", partitioning=method)
        assert result.cost == serial.cost
        assert result.stats.workers == 1
        assert "[parallel" not in result.algorithm

    def test_jobs_capped_by_search_space(self):
        """More workers than the space supports must not crash or distort."""
        query = chain_query(3)  # tiny search space
        serial = optimize(query, algorithm="td-cmd")
        result = optimize_query_parallel(query, algorithm="td-cmd", jobs=64)
        assert result.cost == serial.cost
        assert result.stats.plans_considered == serial.stats.plans_considered

    def test_jobs_one_is_plain_serial(self):
        query = cycle_query(5)
        result = optimize_query_parallel(query, algorithm="td-cmd", jobs=1)
        assert result.stats.workers == 1
        assert "[parallel" not in result.algorithm

    def test_unsupported_algorithm_rejected(self):
        query = chain_query(4)
        with pytest.raises(ValueError):
            optimize_query_parallel(query, algorithm="hgr-td-cmd", jobs=2)

    def test_disconnected_query_rejected(self):
        query = parse_query(
            "SELECT * WHERE { ?a <http://e/p> ?b . ?c <http://e/q> ?d . }"
        )
        with pytest.raises(CartesianProductError):
            optimize_query_parallel(query, algorithm="td-cmd", jobs=2)


class TestMergeWorkerStats:
    """The pool-startup exclusion in the merged speedup (regression)."""

    @staticmethod
    def _stats(busy_seconds, wall_seconds, startup_seconds=None):
        """``_ShardDriver.stats`` after a pool that was never started:
        each worker busy for *busy_seconds*, five entries apiece, the
        first one ready *startup_seconds* after the spawn."""
        builder = make_builder(chain_query(4))
        serial = TopDownEnumerator(builder.join_graph, builder)
        jobs = len(busy_seconds)
        driver = _ShardDriver(
            serial, "td-cmd", jobs, subquery_tiers(builder.join_graph)
        )
        try:
            driver.spawn_started = 100.0
            if startup_seconds is not None:
                driver.worker_started[0] = 100.0 + startup_seconds
            driver.busy_seconds = list(busy_seconds)
            driver.solved_by_worker = [5] * jobs
            return driver.stats(wall_seconds)
        finally:
            driver.shutdown(graceful=False)

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

    def test_zero_startup_matches_old_behavior(self):
        stats = self._stats([1.0, 1.0], wall_seconds=1.0)
        assert stats.pool_startup_seconds == 0.0
        assert stats.speedup == pytest.approx(2.0)
        assert stats.worker_balance == pytest.approx(1.0)


class TestOptimizeEntryPoint:
    def test_jobs_routes_parallelizable_algorithms(self):
        query = cycle_query(6)
        serial = optimize(query, algorithm="td-cmd")
        parallel = Optimizer(OptimizeOptions(algorithm="td-cmd", jobs=2)).optimize(
            query
        )
        assert "[parallel x2]" in parallel.algorithm
        assert parallel.cost == serial.cost

    def test_jobs_ignored_for_serial_only_algorithms(self):
        query = cycle_query(6)
        result = Optimizer(
            OptimizeOptions(algorithm="hgr-td-cmd", jobs=4)
        ).optimize(query)
        assert "[parallel" not in result.algorithm
        assert result.cost == optimize(query, algorithm="hgr-td-cmd").cost

    def test_default_jobs_is_positive(self):
        assert default_jobs() >= 1

    def test_default_jobs_honors_env_override(self, monkeypatch):
        """REPRO_JOBS pins the worker default for CI determinism."""
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("REPRO_JOBS", "0")
        assert default_jobs() == 1  # clamped to at least one worker
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            default_jobs()
        monkeypatch.delenv("REPRO_JOBS")
        assert default_jobs() >= 1
