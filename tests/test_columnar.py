"""Columnar engine tests: dictionary encoding, indexed scans, and the
engine ≡ row-oracle equivalence across algorithms, partitioners, and
fault-injection seeds — counters pinned to what the deleted
``reference`` engine recorded."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import StatisticsCatalog, optimize
from repro.core.session import OptimizeOptions, Optimizer
from repro.engine import (
    Cluster,
    EncodedRelation,
    Executor,
    FaultInjector,
    RetryPolicy,
    evaluate_encoded,
    evaluate_reference,
    scan_pattern_encoded,
)
from repro.engine.columnar import union_all
from repro.engine.relations import Relation, greedy_multi_join, hash_join, scan_pattern
from repro.partitioning import (
    DynamicPartitioning,
    HashSubjectObject,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
)
from repro.rdf import (
    BlankNode,
    Dataset,
    EncodedGraph,
    IRI,
    Literal,
    TermDictionary,
    triple,
)
from repro.rdf.terms import Variable
from repro.rdf.triples import Triple
from repro.sparql.ast import BGPQuery, TriplePattern

ALGORITHMS = ["td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto"]


def make_partitioners(hot_query):
    """The five partitioning methods, dynamic co-locating *hot_query*."""
    return [
        HashSubjectObject(),
        SemanticHash(2),
        PathBMC(),
        UndirectedOneHop(),
        DynamicPartitioning(HashSubjectObject(), [hot_query]),
    ]


def random_dataset(rng: random.Random, vertices: int = 25, edges: int = 80) -> Dataset:
    predicates = [f"http://e/p{i}" for i in range(4)]
    triples = [
        triple(
            f"http://e/v{rng.randrange(vertices)}",
            rng.choice(predicates),
            f"http://e/v{rng.randrange(vertices)}",
        )
        for _ in range(edges)
    ]
    # a few literal objects so encoding covers more than IRIs
    triples += [
        Triple(
            IRI(f"http://e/v{rng.randrange(vertices)}"),
            IRI("http://e/label"),
            Literal(f"name-{i}"),
        )
        for i in range(5)
    ]
    return Dataset.from_triples(triples)


def random_connected_query(rng: random.Random, size: int) -> BGPQuery:
    predicates = [IRI(f"http://e/p{i}") for i in range(4)]
    variables = [Variable("x0")]
    patterns = []
    for i in range(size):
        anchor = rng.choice(variables)
        fresh = Variable(f"x{i + 1}")
        variables.append(fresh)
        if rng.random() < 0.5:
            patterns.append(TriplePattern(anchor, rng.choice(predicates), fresh))
        else:
            patterns.append(TriplePattern(fresh, rng.choice(predicates), anchor))
    return BGPQuery(patterns, name=f"random-{size}")


# ----------------------------------------------------------------------
# the counter sweep pinned by tests/data/engine_counters_golden.json
# ----------------------------------------------------------------------
COUNTERS_GOLDEN = Path(__file__).parent / "data" / "engine_counters_golden.json"
SWEEP_SEEDS = range(6)


def counter_sweep():
    """4 paper algorithms × 5 partitioners × 6 data seeds, no hypothesis.

    Yields ``(key, dataset, query, method, plan, fault_seed)``; query
    sizes cycle 3 / 4 / 5 with the data seed.
    """
    for seed in SWEEP_SEEDS:
        rng = random.Random(seed)
        dataset = random_dataset(rng)
        query = random_connected_query(rng, 3 + seed % 3)
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        for method_index, method in enumerate(make_partitioners(query)):
            for algorithm_index, algorithm in enumerate(ALGORITHMS):
                plan = optimize(
                    query,
                    algorithm=algorithm,
                    statistics=statistics,
                    partitioning=method,
                ).plan
                fault_seed = 100 * seed + 10 * method_index + algorithm_index
                key = f"{seed}/{method.name}/{algorithm}"
                yield key, dataset, query, method, plan, fault_seed


def run_sweep_plan(dataset, query, method, plan, engine, mode, fault_seed):
    """One sweep plan on a fresh 3-worker cluster; *mode* is clean / faulted."""
    cluster = Cluster.build(dataset, method, cluster_size=3)
    injector = FaultInjector(0.3, seed=fault_seed) if mode == "faulted" else None
    executor = Executor(
        cluster,
        fault_injector=injector,
        retry_policy=RetryPolicy(max_retries=64),
        engine=engine,
    )
    return executor.execute(plan, query)


def sweep_counters(metrics):
    """The five numbers the golden file records per plan and mode."""
    return [
        metrics.total_tuples_read,
        metrics.total_tuples_shipped,
        metrics.total_tuples_produced,
        metrics.critical_path_cost,
        metrics.workers_failed,
    ]


# ----------------------------------------------------------------------
# TermDictionary
# ----------------------------------------------------------------------
class TestTermDictionary:
    def test_dense_first_seen_ids(self):
        d = TermDictionary()
        a, b = IRI("http://e/a"), IRI("http://e/b")
        assert d.encode(a) == 0
        assert d.encode(b) == 1
        assert d.encode(a) == 0  # idempotent
        assert len(d) == 2
        assert d.decode(0) == a and d.decode(1) == b

    def test_lookup_never_interns(self):
        d = TermDictionary()
        assert d.lookup(IRI("http://e/unseen")) is None
        assert len(d) == 0

    def test_decode_rejects_negative_and_unknown(self):
        d = TermDictionary()
        with pytest.raises(IndexError):
            d.decode(-1)
        with pytest.raises(IndexError):
            d.decode(0)

    def test_same_dataset_same_ids(self):
        triples = [
            triple(f"http://e/v{i % 7}", f"http://e/p{i % 3}", f"http://e/v{i % 5}")
            for i in range(40)
        ]
        first = Dataset.from_triples(list(triples))
        second = Dataset.from_triples(list(triples))
        assert first.dictionary == second.dictionary
        for t in first.graph:
            assert first.dictionary.lookup(t.subject) == second.dictionary.lookup(
                t.subject
            )

    def test_save_load_round_trip_all_term_kinds(self, tmp_path):
        d = TermDictionary()
        terms = [
            IRI("http://e/iri"),
            Literal("plain"),
            Literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer"),
            Literal("bonjour", language="fr"),
            Literal('quo"ted\nnewline'),
            BlankNode("b0"),
        ]
        ids = [d.encode(t) for t in terms]
        path = tmp_path / "dict.json"
        d.save(path)
        loaded = TermDictionary.load(path)
        assert loaded == d
        for term, ident in zip(terms, ids):
            assert loaded.lookup(term) == ident
            assert loaded.decode(ident) == term

    def test_from_payload_rejects_foreign_format(self):
        with pytest.raises(ValueError):
            TermDictionary.from_payload({"format": "something-else", "terms": []})


# ----------------------------------------------------------------------
# Dataset integration (single-pass refresh, encoded graph cache)
# ----------------------------------------------------------------------
class TestDatasetEncoding:
    def test_refresh_feeds_dictionary_in_stats_pass(self):
        dataset = random_dataset(random.Random(7))
        for t in dataset.graph:
            assert dataset.dictionary.lookup(t.subject) is not None
            assert dataset.dictionary.lookup(t.predicate) is not None
            assert dataset.dictionary.lookup(t.object) is not None

    def test_refresh_keeps_existing_ids(self):
        dataset = random_dataset(random.Random(7))
        before = {
            t.subject: dataset.dictionary.lookup(t.subject) for t in dataset.graph
        }
        dataset.graph.add(triple("http://e/new", "http://e/p0", "http://e/v0"))
        dataset.refresh()
        for term, ident in before.items():
            assert dataset.dictionary.lookup(term) == ident
        assert dataset.dictionary.lookup(IRI("http://e/new")) is not None

    def test_encoded_graph_cached_and_invalidated(self):
        dataset = random_dataset(random.Random(7))
        first = dataset.encoded_graph()
        assert dataset.encoded_graph() is first
        assert len(first) == len(dataset.graph)
        dataset.refresh()
        assert dataset.encoded_graph() is not first


# ----------------------------------------------------------------------
# EncodedGraph scans
# ----------------------------------------------------------------------
SCAN_PATTERNS = [
    # every bound/unbound combination, plus repeated variables
    TriplePattern(Variable("s"), Variable("p"), Variable("o")),
    TriplePattern(IRI("http://e/v1"), Variable("p"), Variable("o")),
    TriplePattern(Variable("s"), IRI("http://e/p0"), Variable("o")),
    TriplePattern(Variable("s"), Variable("p"), IRI("http://e/v2")),
    TriplePattern(IRI("http://e/v1"), IRI("http://e/p0"), Variable("o")),
    TriplePattern(IRI("http://e/v1"), Variable("p"), IRI("http://e/v2")),
    TriplePattern(Variable("s"), IRI("http://e/p0"), IRI("http://e/v2")),
    TriplePattern(IRI("http://e/v1"), IRI("http://e/p0"), IRI("http://e/v2")),
    TriplePattern(Variable("x"), IRI("http://e/p0"), Variable("x")),
    TriplePattern(Variable("x"), Variable("p"), Variable("x")),
]


class TestEncodedScan:
    @pytest.mark.parametrize("pattern", SCAN_PATTERNS, ids=str)
    def test_scan_matches_reference(self, pattern):
        rng = random.Random(11)
        dataset = random_dataset(rng, vertices=10, edges=60)
        # add self-loops so repeated-variable patterns have matches
        dataset.graph.add(triple("http://e/v1", "http://e/p0", "http://e/v1"))
        dataset.refresh()
        encoded = dataset.encoded_graph()
        fast = scan_pattern_encoded(encoded, pattern).decode()
        slow = scan_pattern(dataset.graph, pattern)
        assert fast.variables == slow.variables
        assert fast.rows == slow.rows

    def test_unknown_constant_scans_empty(self):
        dataset = random_dataset(random.Random(3))
        pattern = TriplePattern(
            IRI("http://nowhere/x"), IRI("http://e/p0"), Variable("o")
        )
        relation = scan_pattern_encoded(dataset.encoded_graph(), pattern)
        assert len(relation) == 0
        # the unknown constant was not interned by the scan
        assert dataset.dictionary.lookup(IRI("http://nowhere/x")) is None

    def test_index_lookup_matches_triples(self):
        dataset = random_dataset(random.Random(4))
        encoded = dataset.encoded_graph()
        stored = set(encoded.triples())
        for pid in encoded.predicate_ids():
            index = encoded.index_for(pid)
            for s, o in zip(index.spo_subjects, index.spo_objects):
                assert (s, pid, o) in stored
                assert index.contains(s, o)
                assert o in index.objects_for(s)
                assert s in index.subjects_for(o)

    def test_add_ids_invalidates_indexes(self):
        dataset = random_dataset(random.Random(4))
        encoded = dataset.encoded_graph()
        pid = encoded.predicate_ids()[0]
        before = len(encoded.index_for(pid))
        s = dataset.dictionary.encode(IRI("http://e/fresh-subject"))
        o = dataset.dictionary.encode(IRI("http://e/fresh-object"))
        encoded.add_ids(s, pid, o)
        assert len(encoded.index_for(pid)) == before + 1
        assert encoded.index_for(pid).contains(s, o)


# ----------------------------------------------------------------------
# EncodedRelation operators
# ----------------------------------------------------------------------
class TestEncodedRelation:
    def test_project_identity_returns_self(self):
        d = TermDictionary()
        x, y = Variable("x"), Variable("y")
        relation = EncodedRelation([x, y], d, {(1, 2), (3, 4)})
        assert relation.project([y, x]) is relation

    def test_project_subset(self):
        d = TermDictionary()
        x, y = Variable("x"), Variable("y")
        relation = EncodedRelation([x, y], d, {(1, 2), (1, 4)})
        projected = relation.project([x])
        assert projected.variables == (x,)
        assert set(projected) == {(1,)} and len(projected) == 1

    def test_reference_project_identity_returns_self(self):
        x, y = Variable("x"), Variable("y")
        relation = Relation([x, y], {(IRI("http://e/a"), IRI("http://e/b"))})
        assert relation.project([y, x]) is relation

    def test_union_requires_matching_schema(self):
        d = TermDictionary()
        a = EncodedRelation([Variable("x")], d)
        b = EncodedRelation([Variable("y")], d)
        with pytest.raises(ValueError):
            union_all([a, b])

    def test_empty_like_keeps_schema_and_dictionary(self):
        d = TermDictionary()
        relation = EncodedRelation([Variable("x")], d, {(1,)})
        fresh = relation.empty_like()
        assert fresh.variables == relation.variables
        assert fresh.dictionary is d
        assert len(fresh) == 0


class TestGreedyMultiJoin:
    def test_picks_smallest_connected_not_first(self):
        def row(*values):
            return tuple(IRI(f"http://e/{v}") for v in values)

        x, y, z = Variable("x"), Variable("y"), Variable("z")
        start = Relation([x], {row(0)})
        big = Relation([x, y], {row(0, i) for i in range(5)})
        small = Relation([x, z], {row(0, i) for i in range(2)})
        joined_sizes = []

        def logging_join(left, right):
            joined_sizes.append(len(right))
            return hash_join(left, right)

        # big is listed before small: the old first-connected rule would
        # join big first; smallest-connected must take small (2 rows)
        result = greedy_multi_join([start, big, small], logging_join)
        assert joined_sizes == [2, 5]
        assert len(result) == 10

    def test_disconnected_inputs_fall_back_to_cartesian(self):
        def row(*values):
            return tuple(IRI(f"http://e/{v}") for v in values)

        a = Relation([Variable("a")], {row(i) for i in range(3)})
        b = Relation([Variable("b")], {row(i) for i in range(2)})
        result = greedy_multi_join([a, b], hash_join)
        assert len(result) == 6

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            greedy_multi_join([], hash_join)


# ----------------------------------------------------------------------
# engine selection plumbing
# ----------------------------------------------------------------------
class TestEngineSelection:
    def test_executor_rejects_unknown_engine(self):
        dataset = random_dataset(random.Random(1))
        cluster = Cluster.build(dataset, HashSubjectObject(), cluster_size=2)
        with pytest.raises(ValueError, match="unknown engine"):
            Executor(cluster, engine="vectorized")

    def test_options_reject_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            Optimizer(OptimizeOptions(engine="vectorized"))

    def test_options_accept_all_registered_engines(self):
        from repro.engine import ENGINES

        assert tuple(ENGINES) == ("columnar", "pipelined")
        for engine in ENGINES:
            assert Optimizer(OptimizeOptions(engine=engine)).options.engine == engine

    def test_options_accept_engine_instance(self):
        from repro.engine import PipelinedEngine

        instance = PipelinedEngine(chunk_size=8)
        assert Optimizer(OptimizeOptions(engine=instance)).options.engine is instance

    def test_reference_is_no_longer_an_engine(self):
        dataset = random_dataset(random.Random(1))
        cluster = Cluster.build(dataset, HashSubjectObject(), cluster_size=2)
        for build in (
            lambda: Executor(cluster, engine="reference"),
            lambda: Optimizer(OptimizeOptions(engine="reference")),
        ):
            with pytest.raises(ValueError, match="unknown engine") as exc:
                build()
            assert "columnar" in str(exc.value) and "pipelined" in str(exc.value)


# ----------------------------------------------------------------------
# columnar ≡ reference, exhaustively and property-based
# ----------------------------------------------------------------------
class TestColumnarEqualsReference:
    @pytest.mark.parametrize("engine", ["columnar", "pipelined"])
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("method_index", range(5))
    def test_all_algorithms_all_partitioners(self, algorithm, method_index, engine):
        rng = random.Random(42)
        dataset = random_dataset(rng)
        query = random_connected_query(rng, 3)
        method = make_partitioners(query)[method_index]
        reference = evaluate_reference(query, dataset.graph)
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        result = optimize(
            query, algorithm=algorithm, statistics=statistics, partitioning=method
        )
        cluster = Cluster.build(dataset, method, cluster_size=3)
        relation, metrics = Executor(cluster, engine=engine).execute(
            result.plan, query
        )
        assert relation.variables == reference.variables
        assert relation.rows == reference.rows
        assert metrics.result_rows == len(reference)

    def test_columnar_equals_reference_under_faults(self):
        """Every plan of the sweep, fault-free and with workers crashing
        mid-query: ``columnar`` reproduces the counters the deleted
        ``reference`` engine recorded (tests/data/engine_counters_golden.json)
        to the last digit, ``pipelined`` returns the same rows, and both
        equal ``evaluate_reference``."""
        golden = json.loads(COUNTERS_GOLDEN.read_text())
        assert golden["engine"] == "reference" and golden["commit"]
        recorded = golden["plans"]
        seen = 0
        for key, dataset, query, method, plan, fault_seed in counter_sweep():
            oracle = evaluate_reference(query, dataset.graph)
            for mode in ("clean", "faulted"):
                relation, metrics = run_sweep_plan(
                    dataset, query, method, plan, "columnar", mode, fault_seed
                )
                assert relation.variables == oracle.variables, (key, mode)
                assert relation.rows == oracle.rows, (key, mode)
                assert sweep_counters(metrics) == recorded[key][mode], (key, mode)
                relation, _ = run_sweep_plan(
                    dataset, query, method, plan, "pipelined", mode, fault_seed
                )
                assert relation.variables == oracle.variables, (key, mode)
                assert relation.rows == oracle.rows, (key, mode)
            seen += 1
        assert seen == len(recorded) == 4 * 5 * len(SWEEP_SEEDS)
        # the sweep is not vacuous: workers died, tuples moved
        assert any(entry["faulted"][4] for entry in recorded.values())
        assert any(entry["clean"][1] for entry in recorded.values())

    @settings(max_examples=20, deadline=None)
    @given(
        data_seed=st.integers(min_value=0, max_value=10_000),
        query_seed=st.integers(min_value=0, max_value=10_000),
        size=st.integers(min_value=1, max_value=4),
    )
    def test_single_node_oracles_agree(self, data_seed, query_seed, size):
        dataset = random_dataset(random.Random(data_seed))
        query = random_connected_query(random.Random(query_seed), size)
        fast = evaluate_encoded(query, dataset.encoded_graph())
        slow = evaluate_reference(query, dataset.graph)
        assert fast.variables == slow.variables
        assert fast.rows == slow.rows


# ----------------------------------------------------------------------
# recovery re-scans for encoded fragments
# ----------------------------------------------------------------------
class TestFragmentRecovery:
    def test_fail_worker_re_encodes_affected_fragments(self):
        dataset = random_dataset(random.Random(9))
        cluster = Cluster.build(dataset, HashSubjectObject(), cluster_size=3)
        fragments = cluster.worker_fragments()
        assert all(
            len(f) == len(g)
            for f, g in zip(fragments, cluster.worker_graphs())
        )
        target, _ = cluster.fail_worker(0)
        assert len(cluster.worker_fragment(0)) == 0
        assert len(cluster.worker_fragment(target)) == len(
            cluster.worker_graph(target)
        )
        # untouched workers keep their cached fragment object
        untouched = [i for i in range(3) if i not in (0, target)]
        for i in untouched:
            assert cluster.worker_fragment(i) is fragments[i]
        cluster.heal()
        assert sum(len(f) for f in cluster.worker_fragments()) == sum(
            len(g) for g in cluster.worker_graphs()
        )

    def test_fragments_share_the_dataset_dictionary(self):
        dataset = random_dataset(random.Random(9))
        cluster = Cluster.build(dataset, HashSubjectObject(), cluster_size=3)
        for fragment in cluster.worker_fragments():
            assert fragment.dictionary is dataset.dictionary

    def test_route_id_folds_onto_live_workers(self):
        dataset = random_dataset(random.Random(9))
        cluster = Cluster.build(dataset, HashSubjectObject(), cluster_size=4)
        idents = list(range(64))
        before = [cluster.route_id(i) for i in idents]
        assert all(0 <= w < 4 for w in before)
        dead = before[0]
        cluster.fail_worker(dead)
        after = [cluster.route_id(i) for i in idents]
        assert all(w != dead for w in after)
        # a whole column routes as its ids do, one by one
        assert cluster.route_ids(idents) == after and cluster.route_ids([]) == []
        # routes of ids that did not target the dead worker are stable
        for prev, now in zip(before, after):
            if prev != dead:
                assert now == prev
