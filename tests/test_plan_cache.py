"""Tests for the cross-query plan cache (core.plan_cache)."""

import random

import pytest

from repro.core import OptimizeOptions, Optimizer, StatisticsCatalog
from repro.core.cardinality import PatternStatistics
from repro.core.cost import CostParameters
from repro.core.plan_cache import PlanCache, canonical_variable_map, query_signature
from repro.core.plans import validate_plan
from repro.partitioning import HashSubjectObject
from repro.sparql import parse_query
from repro.workloads.generators import cycle_query, tree_query


@pytest.fixture
def query():
    return cycle_query(5)


@pytest.fixture
def statistics(query):
    return StatisticsCatalog.from_random(query, random.Random(0))


def cached_optimize(query, algorithm, statistics, plan_cache):
    """One query through a one-shot session that shares *plan_cache*."""
    session = Optimizer(
        OptimizeOptions(
            algorithm=algorithm, statistics=statistics, plan_cache=plan_cache
        )
    )
    return session.optimize(query)


def perturbed(statistics):
    """A copy of *statistics* with one cardinality changed."""
    entries = list(statistics.per_pattern)
    entries[0] = PatternStatistics(
        cardinality=entries[0].cardinality + 1.0, bindings=entries[0].bindings
    )
    return StatisticsCatalog(statistics.query, entries)


class TestSignature:
    def test_stable_for_identical_calls(self, query, statistics):
        key1, _ = query_signature(query, statistics, "td-cmd")
        key2, _ = query_signature(query, statistics, "td-cmd")
        assert key1 == key2

    def test_changes_with_statistics_fingerprint(self, query, statistics):
        key1, _ = query_signature(query, statistics, "td-cmd")
        key2, _ = query_signature(query, perturbed(statistics), "td-cmd")
        assert key1 != key2

    def test_changes_with_algorithm(self, query, statistics):
        key1, _ = query_signature(query, statistics, "td-cmd")
        key2, _ = query_signature(query, statistics, "td-cmdp")
        assert key1 != key2

    def test_changes_with_cost_parameters(self, query, statistics):
        key1, _ = query_signature(query, statistics, "td-cmd")
        key2, _ = query_signature(
            query, statistics, "td-cmd", parameters=CostParameters(alpha=0.5)
        )
        assert key1 != key2

    def test_changes_with_partitioning(self, query, statistics):
        key1, _ = query_signature(query, statistics, "td-cmd")
        key2, _ = query_signature(
            query, statistics, "td-cmd", partitioning=HashSubjectObject()
        )
        assert key1 != key2

    def test_invariant_under_variable_renaming(self):
        """Alpha-equivalent queries collapse to one signature."""
        q1 = parse_query(
            "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }"
        )
        q2 = parse_query(
            "SELECT * WHERE { ?left <http://e/p> ?mid . ?mid <http://e/q> ?right . }"
        )
        s1 = StatisticsCatalog.from_random(q1, random.Random(4))
        s2 = StatisticsCatalog.from_random(q2, random.Random(4))
        assert query_signature(q1, s1, "td-cmd")[0] == query_signature(
            q2, s2, "td-cmd"
        )[0]

    def test_canonical_map_follows_first_appearance(self):
        q = parse_query(
            "SELECT * WHERE { ?b <http://e/p> ?a . ?a <http://e/q> ?c . }"
        )
        assert canonical_variable_map(q) == {"b": "v0", "a": "v1", "c": "v2"}


class TestCacheBehavior:
    def test_hit_on_repeat(self, query, statistics):
        cache = PlanCache()
        first = cached_optimize(query, "td-cmd", statistics, cache)
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        second = cached_optimize(query, "td-cmd", statistics, cache)
        assert cache.stats.hits == 1
        assert second.algorithm.endswith("+cache")
        assert second.cost == first.cost
        assert second.plan.describe() == first.plan.describe()
        # the replayed stats are the original enumeration's counters
        assert second.stats.plans_considered == first.stats.plans_considered

    def test_miss_on_changed_statistics(self, query, statistics):
        cache = PlanCache()
        cached_optimize(query, "td-cmd", statistics, cache)
        cached_optimize(query, "td-cmd", perturbed(statistics), cache)
        assert cache.stats.hits == 0
        assert cache.stats.misses == 2
        assert len(cache) == 2

    def test_miss_on_different_algorithm(self, query, statistics):
        cache = PlanCache()
        cached_optimize(query, "td-cmd", statistics, cache)
        cached_optimize(query, "td-cmdp", statistics, cache)
        assert cache.stats.hits == 0 and len(cache) == 2

    def test_hit_across_variable_renaming(self):
        """A renamed repeat hits, and the replayed plan speaks the *new*
        query's variable names (rebuilt, not replayed verbatim)."""
        q1 = parse_query(
            "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }",
            name="orig",
        )
        q2 = parse_query(
            "SELECT * WHERE { ?a <http://e/p> ?b . ?b <http://e/q> ?c . }",
            name="renamed",
        )
        s1 = StatisticsCatalog.from_random(q1, random.Random(4))
        s2 = StatisticsCatalog.from_random(q2, random.Random(4))
        cache = PlanCache()
        first = cached_optimize(q1, "td-cmd", s1, cache)
        second = cached_optimize(q2, "td-cmd", s2, cache)
        assert cache.stats.hits == 1
        assert second.cost == first.cost
        validate_plan(second.plan, (1 << len(q2)) - 1)
        join_names = {
            node.join_variable.name
            for node in second.plan.joins()
            if node.join_variable is not None
        }
        assert join_names <= {"a", "b", "c"}
        assert {leaf.pattern for leaf in second.plan.leaves()} == set(q2)

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        queries = [tree_query(n, random.Random(n)) for n in (4, 5, 6)]
        catalogs = [
            StatisticsCatalog.from_random(q, random.Random(i))
            for i, q in enumerate(queries)
        ]
        for q, s in zip(queries, catalogs):
            cached_optimize(q, "td-cmd", s, cache)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # the oldest entry is gone; the newer two still hit
        assert cache.lookup(queries[0], catalogs[0], "td-cmd") is None
        assert cache.lookup(queries[1], catalogs[1], "td-cmd") is not None
        assert cache.lookup(queries[2], catalogs[2], "td-cmd") is not None

    def test_lookup_refreshes_lru_order(self, query, statistics):
        cache = PlanCache(capacity=2)
        other = tree_query(5, random.Random(9))
        other_stats = StatisticsCatalog.from_random(other, random.Random(9))
        cached_optimize(query, "td-cmd", statistics, cache)
        cached_optimize(other, "td-cmd", other_stats, cache)
        # touch the older entry, then overflow: the untouched one is evicted
        assert cache.lookup(query, statistics, "td-cmd") is not None
        third = tree_query(6, random.Random(10))
        third_stats = StatisticsCatalog.from_random(third, random.Random(10))
        cached_optimize(third, "td-cmd", third_stats, cache)
        assert cache.lookup(query, statistics, "td-cmd") is not None
        assert cache.lookup(other, other_stats, "td-cmd") is None

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_counters_and_hit_rate(self, query, statistics):
        cache = PlanCache()
        cached_optimize(query, "td-cmd", statistics, cache)
        cached_optimize(query, "td-cmd", statistics, cache)
        assert cache.stats.lookups == 2
        assert cache.stats.hit_rate == pytest.approx(0.5)
        assert "PlanCache(" in repr(cache)


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path, query, statistics):
        cache = PlanCache()
        first = cached_optimize(query, "td-cmd", statistics, cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        reloaded = PlanCache.load(path)
        assert len(reloaded) == 1
        hit = reloaded.lookup(query, statistics, "td-cmd")
        assert hit is not None
        assert hit.cost == first.cost
        assert hit.plan.describe() == first.plan.describe()

    def test_load_with_smaller_capacity_evicts_oldest(self, tmp_path):
        cache = PlanCache()
        queries = [tree_query(n, random.Random(n)) for n in (4, 5)]
        for i, q in enumerate(queries):
            s = StatisticsCatalog.from_random(q, random.Random(i))
            cached_optimize(q, "td-cmd", s, cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        reloaded = PlanCache.load(path, capacity=1)
        assert len(reloaded) == 1
        s1 = StatisticsCatalog.from_random(queries[1], random.Random(1))
        assert reloaded.lookup(queries[1], s1, "td-cmd") is not None
