"""Tests for the cross-query plan cache (core.plan_cache)."""

import json
import random
import subprocess
import sys
import textwrap
from dataclasses import asdict

import pytest

from repro.core import OptimizeOptions, Optimizer, StatisticsCatalog
from repro.core.cardinality import PatternStatistics
from repro.core.cost import PAPER_PARAMETERS, CostParameters
from repro.core.plan_cache import PlanCache, canonical_variable_map, query_signature
from repro.core.plans import validate_plan
from repro.partitioning import DynamicPartitioning, HashSubjectObject
from repro.partitioning.dynamic import structural_signature
from repro.rdf import save_ntriples, triple
from repro.rdf.terms import Variable
from repro.sparql import parse_query
from repro.sparql.ast import BGPQuery, TriplePattern
from repro.workloads.generators import cycle_query, generate_workload, tree_query


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


def alpha_renamed(query, statistics, rng):
    """*query* and its statistics with every variable renamed by a
    shuffled one-to-one map, so only first appearance can line the
    canonical names up."""
    names = sorted(v.name for v in query.variables())
    targets = [f"r{i}" for i in range(len(names))]
    rng.shuffle(targets)
    rename = {Variable(n): Variable(t) for n, t in zip(names, targets)}
    renamed = BGPQuery(
        [TriplePattern(*(rename.get(t, t) for t in tp.terms())) for tp in query],
        name=f"{query.name}-renamed",
    )
    entries = [
        PatternStatistics(
            s.cardinality, {rename[v]: count for v, count in s.bindings.items()}
        )
        for s in statistics.per_pattern
    ]
    return renamed, StatisticsCatalog(renamed, entries)


def canonical_payload(query, statistics, algorithm, partitioning=None):
    """What a key must spell out, built independently of
    :func:`query_signature` (as ``json.loads`` gives it back)."""
    mapping = canonical_variable_map(query)

    def spelled(term):
        return f"?{mapping[term.name]}" if isinstance(term, Variable) else str(term)

    return {
        "algorithm": algorithm,
        "parameters": asdict(PAPER_PARAMETERS),
        "partitioning": None if partitioning is None else repr(partitioning),
        "patterns": [
            {
                "terms": [spelled(term) for term in tp.terms()],
                "cardinality": s.cardinality,
                "bindings": sorted(
                    [mapping[v.name], count] for v, count in s.bindings.items()
                ),
            }
            for tp, s in zip(query, statistics.per_pattern)
        ],
    }


class TestKeyIsTheCanonicalText:
    """A key is the canonical JSON text of its payload, not a digest:
    two calls share a key exactly when their payloads are equal."""

    def test_exact_over_the_generated_workload(self):
        hot = cycle_query(4)
        layouts = [
            None,
            HashSubjectObject(),
            DynamicPartitioning(HashSubjectObject(), [hot], ["<http://e/q>"]),
        ]
        rng = random.Random(2017)
        keys, payloads = set(), set()
        workload = list(generate_workload(sizes=range(2, 11), statistics_draws=2))
        for item in workload:
            for partitioning in layouts:
                key, _ = query_signature(
                    item.query, item.statistics, "td-cmd", partitioning=partitioning
                )
                payload = canonical_payload(
                    item.query, item.statistics, "td-cmd", partitioning
                )
                assert json.loads(key) == payload
                assert key == json.dumps(payload, sort_keys=True, separators=(",", ":"))
                renamed = alpha_renamed(item.query, item.statistics, rng)
                assert query_signature(
                    *renamed, "td-cmd", partitioning=partitioning
                )[0] == key
                keys.add(key)
                payloads.add(json.dumps(payload, sort_keys=True))
        assert len(keys) == len(payloads) == len(workload) * len(layouts)

    def test_dynamic_fingerprint_is_its_payload(self, query):
        base = HashSubjectObject()
        chain = parse_query("SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }")
        renamed = parse_query("SELECT * WHERE { ?a <http://e/p> ?b . ?b <http://e/q> ?c . }")
        layout = DynamicPartitioning(base, [query, chain], ["<http://e/r>", "<http://e/p>"])
        signatures = sorted(structural_signature(q) for q in (query, chain))
        assert layout.fingerprint == "\n".join(signatures + ["<http://e/p>", "<http://e/r>"])
        assert repr(layout.fingerprint) in repr(layout)
        # the same hot shapes, listed in another order and named apart
        same = DynamicPartitioning(base, [renamed, query], ["<http://e/p>", "<http://e/r>"])
        assert repr(same) == repr(layout)


class TestNoDigestLibrary:
    def test_the_serving_path_never_imports_hashlib(self, tmp_path):
        """Load, all four partitioners, a cluster, a cached session (miss,
        store, hit, invalidate), a batch, an adaptation round, a cache
        file written and read back and a pooled search: OpenSSL's
        digest module is never loaded, and nor is its memory."""
        path = tmp_path / "data.nt"
        save_ntriples(
            [
                t
                for i in range(20)
                for t in (
                    triple(f"http://e/a{i}", "http://e/p", f"http://e/b{i}"),
                    triple(f"http://e/b{i}", "http://e/q", f"http://e/c{i}"),
                )
            ],
            path,
        )
        script = textwrap.dedent(
            """
            import sys
            if {"hashlib", "_hashlib"} & set(sys.modules):
                print("preloaded")
                raise SystemExit
            import random
            import repro
            from repro import OptimizeOptions, Optimizer, parse_query
            from repro.__main__ import PARTITIONINGS
            from repro.core import PlanCache, StatisticsCatalog
            from repro.engine import Cluster, Executor
            from repro.partitioning import AdaptiveCluster, DynamicPartitioning, HashSubjectObject
            from repro.partitioning.adaptive import COLOCATE, MigrationProposal
            from repro.partitioning.dynamic import structural_signature
            from repro.rdf import Dataset, load_ntriples
            from repro.workloads.generators import chain_query, dense_query

            data, saved = sys.argv[1:]
            dataset = Dataset(load_ntriples(data))
            query = parse_query(
                "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }")
            statistics = StatisticsCatalog.from_dataset(query, dataset)
            cache = PlanCache()
            for name, build in sorted(PARTITIONINGS.items()):
                method = build()
                cluster = Cluster(method.partition(dataset, 3))
                session = Optimizer(OptimizeOptions(
                    dataset=dataset, partitioning=method, plan_cache=cache))
                result = session.optimize(query)
                assert session.optimize(query).algorithm.endswith("+cache")
                rows = Executor(cluster).execute(result.plan, query)[0].rows
                assert len(rows) == 20, name
                assert cache.lookup(query, statistics, "td-cmd", partitioning=method) is None
                cache.store(query, statistics, "td-cmd", result, partitioning=method)
                assert cache.lookup(query, statistics, "td-cmd", partitioning=method)
                assert cache.invalidate(query, statistics, "td-cmd", partitioning=method)
            session.optimize_many([query, chain_query(4)])
            adaptive = AdaptiveCluster.build(dataset, HashSubjectObject(), 3)
            report = adaptive.apply([MigrationProposal(
                kind=COLOCATE, key=structural_signature(query), heat=1.0, query=query,
            )], replication_budget=1.0)
            method = adaptive.adapted_method()
            assert report.changed and isinstance(method, DynamicPartitioning)
            Optimizer(OptimizeOptions(
                dataset=dataset, partitioning=method, plan_cache=cache)).optimize(query)
            cache.save(saved)
            assert len(PlanCache.load(saved)) == len(cache)
            pooled = Optimizer(OptimizeOptions(algorithm="td-cmd", jobs=2)).optimize(
                dense_query(10, random.Random(1)))
            assert "[parallel x2]" in pooled.algorithm
            print(sorted({"hashlib", "_hashlib"} & set(sys.modules)))
            """
        )
        ran = subprocess.run(
            [sys.executable, "-c", script, str(path), str(tmp_path / "plans.json")],
            capture_output=True, text=True,
        )
        assert ran.returncode == 0, ran.stderr
        if ran.stdout.strip() == "preloaded":
            pytest.skip("the interpreter loads hashlib at start-up")
        assert ran.stdout.strip() == "[]", ran.stdout + ran.stderr


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

    def test_digest_keyed_entries_load_cold(self, tmp_path, query, statistics):
        """A file from before keys were text (a SHA-256 hex digest per
        entry) loads empty: such an entry is never hit again, so it takes
        no LRU slot; the first call misses and the second hits."""
        cache = PlanCache()
        cached_optimize(query, "td-cmd", statistics, cache)
        path = tmp_path / "cache.json"
        cache.save(path)
        (_, entry), = json.loads(path.read_text(encoding="utf-8"))["entries"]
        old = {"capacity": 4, "entries": [["0f3a9c" * 10 + "b7e2", entry]]}
        path.write_text(json.dumps(old), encoding="utf-8")
        reloaded = PlanCache.load(path)
        assert len(reloaded) == 0 and reloaded.capacity == 4
        cached_optimize(query, "td-cmd", statistics, reloaded)
        assert (reloaded.stats.misses, reloaded.stats.hits) == (1, 0)
        assert cached_optimize(query, "td-cmd", statistics, reloaded).algorithm.endswith("+cache")
        assert (reloaded.stats.misses, reloaded.stats.hits) == (1, 1)
