"""The cold path on ids: partition -> worker fragments -> statistics.

``tests/partitioning_oracle.py`` keeps the term-level partitioners and
statistics pass this replaced.  Everything here is a differential
check against it (or against the reference engine), plus the guard
that the cold columnar path never drops back to term-level objects.
"""

from __future__ import annotations

import copy
import pickle
import random
from array import array
from collections import Counter, defaultdict
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro import OptimizeOptions, Optimizer, parse_query
from repro.__main__ import PARTITIONINGS
from repro.core import PlanCache, StatisticsCatalog
from repro.engine import Cluster, EncodedRelation, Executor, evaluate_reference
from repro.engine import base as engine_base
from repro.partitioning import (
    AdaptiveCluster,
    DynamicPartitioning,
    HashSubjectObject,
    MigrationProposal,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
    hash_term,
)
from repro.partitioning.adaptive import COLOCATE, REPLICATE_PREDICATE
from repro.partitioning.base import hash_terms, text_rank
from repro.partitioning.dynamic import hot_placements
from repro.rdf import (
    BlankNode,
    Dataset,
    EncodedGraph,
    IRI,
    Literal,
    PredicateIndex,
    RDFGraph,
    TermDictionary,
    Triple,
    encoding,
    load_ntriples,
    save_ntriples,
)
from repro.rdf.terms import Variable
from repro.sparql.ast import BGPQuery, TriplePattern
from repro.workloads import generate_lubm, lubm_queries
from repro.workloads.uniprot import generate_uniprot, uniprot_queries

from . import partitioning_oracle as oracle

HOT = parse_query(
    "SELECT * WHERE { ?x <http://e/p0> ?y . ?y <http://e/p1> ?z . }", name="hot"
)
#: fully replicated in the last pair: one edge predicate, the literal-only one
REPLICATED = ["<http://e/p2>", "<http://e/name>"]
#: (id-level method, its term-level oracle), by label
METHOD_PAIRS = {
    "hash-so": (HashSubjectObject, oracle.TermHashSubjectObject),
    "1f": (lambda: SemanticHash(1), lambda: oracle.TermSemanticHash(1)),
    "2f": (lambda: SemanticHash(2), lambda: oracle.TermSemanticHash(2)),
    "3f": (lambda: SemanticHash(3), lambda: oracle.TermSemanticHash(3)),
    "path-bmc": (PathBMC, oracle.TermPathBMC),
    "un-1-hop": (UndirectedOneHop, oracle.TermUndirectedOneHop),
    "dynamic": (
        lambda: DynamicPartitioning(HashSubjectObject(), [HOT]),
        lambda: oracle.TermDynamicPartitioning(oracle.TermHashSubjectObject(), [HOT]),
    ),
    "dynamic-path": (
        lambda: DynamicPartitioning(PathBMC(), [HOT]),
        lambda: oracle.TermDynamicPartitioning(oracle.TermPathBMC(), [HOT]),
    ),
    "dynamic-replicated": (
        lambda: DynamicPartitioning(HashSubjectObject(), [HOT], REPLICATED),
        lambda: oracle.TermDynamicPartitioning(
            oracle.TermHashSubjectObject(), [HOT], REPLICATED
        ),
    ),
}


def _vertex(index: int):
    """Vertex *index* of a drawn graph: mostly IRIs, some blank nodes."""
    if index % 7 == 3:
        return BlankNode(f"b{index}")
    return IRI(f"http://e/v{index}")


@st.composite
def _graphs(draw):
    """Random triples: self-loops, cycles, parallel edges, literal-only
    objects, object-only vertices, repeats."""
    vertices = draw(st.integers(min_value=1, max_value=14))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(0, vertices - 1),
                st.integers(0, 2),
                st.integers(0, vertices - 1),
            ),
            min_size=1,
            max_size=40,
        )
    )
    triples = [
        Triple(_vertex(s), IRI(f"http://e/p{p}"), _vertex(o)) for s, p, o in edges
    ]
    # literals hang off one subject each and are never subjects themselves
    for position, subject in enumerate(draw(st.lists(st.integers(0, vertices - 1), max_size=6))):
        triples.append(
            Triple(_vertex(subject), IRI("http://e/name"), Literal(f"näme {position}"))
        )
    # a closed cycle and a self-loop, when drawn
    if draw(st.booleans()):
        ring = draw(st.integers(2, 4))
        for i in range(ring):
            triples.append(
                Triple(_vertex(100 + i), IRI("http://e/p0"), _vertex(100 + (i + 1) % ring))
            )
    if draw(st.booleans()):
        triples.append(Triple(_vertex(0), IRI("http://e/p1"), _vertex(0)))
    # one pair of vertices joined under two predicates, and a vertex that
    # is only ever an object, when drawn
    if draw(st.booleans()):
        s, _, o = edges[0]
        triples.extend(Triple(_vertex(s), IRI(f"http://e/p{p}"), _vertex(o)) for p in (0, 2))
    if draw(st.booleans()):
        triples.append(Triple(_vertex(edges[-1][0]), IRI("http://e/p2"), IRI("http://e/sink")))
    repeats = draw(st.lists(st.integers(0, len(triples) - 1), max_size=5))
    return triples + [triples[i] for i in repeats]


class TestPartitionDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        triples=_graphs(),
        cluster_size=st.integers(min_value=1, max_value=6),
        label=st.sampled_from(sorted(METHOD_PAIRS)),
    )
    def test_same_layout_as_the_term_level_partitioners(self, triples, cluster_size, label):
        """Vertex placement (with its dict order), every node's triple
        set, replication and imbalance are the term-level oracle's."""
        dataset = Dataset.from_triples(triples)
        new_method, old_method = METHOD_PAIRS[label]
        new = new_method().partition(dataset, cluster_size)
        old = old_method().partition(dataset, cluster_size)
        assert new.method_name == old.method_name
        assert list(new_method().placement(dataset, cluster_size).items()) == list(
            old.vertex_placement.items()
        )
        assert [set(g) for g in new.node_graphs] == [set(g) for g in old.node_graphs]
        count = dataset.triple_count
        assert new.replication_factor(count) == old.replication_factor(count)
        assert new.imbalance() == old.imbalance()
        # no duplicates inside a fragment: its length is its set's
        assert [len(f) for f in new.fragments] == [len(g) for g in old.node_graphs]

    @settings(max_examples=150, deadline=None)
    @given(
        triples=_graphs(),
        cluster_size=st.sampled_from([1, 2, 3, 4, 7]),
        label=st.sampled_from(["hash-so", "1f", "2f", "3f", "un-1-hop", "path-bmc"]),
    )
    def test_bulk_masks_are_the_per_vertex_definition(self, triples, cluster_size, label):
        """The hash-placed family computes one node mask per triple, in
        bulk, and Path-BMC sets its elements' bits.  Bit k of a triple's
        mask is set exactly when node k of the term-level oracle — the
        paper's per-vertex definition, element by element — holds the
        triple; ``layout`` returns the masks, and ``partition``'s fragments
        are the gather of each node's positions off them, with the vertex
        placement (values and key order)."""
        dataset = Dataset.from_triples(triples)
        graph = dataset.encoded_graph()
        method, oracle_method = (build() for build in METHOD_PAIRS[label])
        rank = text_rank(graph, method.anchor_candidates(graph))
        assert list(rank) == sorted(rank, key=lambda v: str(dataset.dictionary.decode(v)))
        assert list(rank.values()) == list(range(len(rank)))
        node_masks = method.layout if label == "path-bmc" else method.node_masks
        masks, placement = node_masks(graph, cluster_size, rank)
        assert len(masks) == len(graph)
        held = [set(g) for g in oracle_method.partition(dataset, cluster_size).node_graphs]
        decode = dataset.dictionary.decode
        for mask, ids in zip(masks, graph.triples()):
            stored_triple = Triple(*map(decode, ids))
            assert mask == sum(1 << node for node, g in enumerate(held) if stored_triple in g)
        layout_masks, layout_placement = method.layout(graph, cluster_size, rank)
        assert layout_masks == masks
        assert list(layout_placement.items()) == list(placement.items())  # and in the same order
        stored = [
            [p for p, mask in enumerate(masks) if mask >> node & 1] for node in range(cluster_size)
        ]
        partitioning = method.partition(dataset, cluster_size)
        assert [list(f.triples()) for f in partitioning.fragments] == [
            list(graph.gather(positions).triples()) for positions in stored
        ]
        anchors = dataset.dictionary.decode_all(placement)
        assert list(method.placement(dataset, cluster_size).items()) == list(
            zip(anchors, placement.values())
        )

    @pytest.mark.parametrize("label", ["hash-so", "2f", "path-bmc", "un-1-hop"])
    def test_static_fragments_are_in_dataset_order(self, label):
        dataset = generate_lubm(scale=0.3, seed=5)
        position = {t: i for i, t in enumerate(dataset.encoded_graph().triples())}
        partitioning = METHOD_PAIRS[label][0]().partition(dataset, 4)
        for fragment in partitioning.fragments:
            order = [position[t] for t in fragment.triples()]
            assert order == sorted(set(order))
            assert fragment.dictionary is dataset.dictionary


class TestHashTermGolden:
    """``hash_term`` places data: its values are pinned, not its code."""

    XSD = "http://www.w3.org/2001/XMLSchema#"
    TERMS = [
        IRI("http://example.org/alice"),
        IRI("http://example.org/alice2"),
        IRI("http://www.Department0.University0.edu/GraduateStudent12"),
        IRI("http://www.Department0.University0.edu/GraduateStudent13"),
        IRI("http://例え.jp/リソース#ü"),
        IRI(""),
        Literal("plain"),
        Literal("naïve café — ≥ 1 €"),
        Literal("42", datatype=XSD + "integer"),
        Literal("grüß Gott", language="de"),
        Literal("日本語のテキスト", language="ja"),
        Literal('a "quoted" \\ back\nslash'),
        BlankNode("b42"),
        BlankNode("ñode"),
    ]
    #: the 32-bit djb2-xor state over ``str(term)``, before the modulo
    STATES = [
        3343716276, 2968454790, 712711704, 712711801, 4117804368, 5859463,
        1025062207, 2603875415, 247577316, 584786746, 683546253, 2764413702,
        232977508, 3398561791,
    ]
    NODES = {
        1: [0] * 14,
        4: [0, 2, 0, 1, 0, 3, 3, 3, 0, 2, 1, 2, 0, 3],
        10: [6, 0, 4, 1, 8, 3, 7, 5, 6, 6, 3, 2, 8, 1],
    }

    def test_states(self):
        assert [hash_term(t, 1 << 32) for t in self.TERMS] == self.STATES
        assert hash_terms(self.TERMS, 1 << 32) == self.STATES

    @pytest.mark.parametrize("cluster_size", [1, 4, 10])
    def test_nodes(self, cluster_size):
        expected = self.NODES[cluster_size]
        assert [hash_term(t, cluster_size) for t in self.TERMS] == expected
        assert [s % cluster_size for s in self.STATES] == expected
        # shared prefix states must not depend on what was hashed before
        shuffled = list(zip(self.TERMS, expected))
        random.Random(cluster_size).shuffle(shuffled)
        assert hash_terms([t for t, _ in shuffled], cluster_size) == [n for _, n in shuffled]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.text(max_size=40), max_size=12), st.integers(1, 12))
    def test_matches_the_character_loop(self, texts, cluster_size):
        terms = [IRI(text) for text in texts] + [Literal(text) for text in texts]
        assert hash_terms(terms, cluster_size) == [
            oracle.hash_term(t, cluster_size) for t in terms
        ]


def _lubm_and_uniprot():
    lubm = generate_lubm(scale=0.5, seed=11)
    uniprot = generate_uniprot(120, seed=11)
    return [(lubm, q) for q in lubm_queries().values()] + [
        (uniprot, q) for q in uniprot_queries().values()
    ]


def _same_statistics(query, dataset):
    new = StatisticsCatalog.from_dataset(query, dataset)
    old = oracle.statistics_from_graph(query, dataset)
    assert new.per_pattern == old.per_pattern
    assert [list(e.bindings) for e in new.per_pattern] == [
        list(e.bindings) for e in old.per_pattern
    ]


class TestStatisticsDifferential:
    def test_benchmark_patterns(self):
        """Every pattern of L1-L10 and U1-U5 counts what the scan counted."""
        for dataset, query in _lubm_and_uniprot():
            _same_statistics(query, dataset)

    def test_unknown_repeated_and_variable_predicate_patterns(self, toy_dataset):
        """(A variable in two positions is the one shape the scan oracle,
        which ignores the repeat, does not decide: ``test_cardinality``
        holds those against the reference engine.)"""
        x, y, p = Variable("x"), Variable("y"), Variable("p")
        knows, type_ = IRI("http://e/knows"), IRI("http://e/type")
        n1, n2, t1 = IRI("http://e/n1"), IRI("http://e/n2"), IRI("http://e/T1")
        nowhere = IRI("http://e/nowhere")
        loop = Dataset.from_triples(
            list(toy_dataset.graph) + [Triple(n1, knows, n1), Triple(n2, n2, n2)]
        )
        patterns = [
            TriplePattern(x, knows, y),
            TriplePattern(x, p, y),              # variable predicate, nothing bound
            TriplePattern(n1, p, y),
            TriplePattern(x, p, t1),
            TriplePattern(n1, p, n1),
            TriplePattern(n1, knows, y),
            TriplePattern(x, type_, t1),
            TriplePattern(n1, knows, n1),        # fully bound, present
            TriplePattern(n1, knows, t1),        # fully bound, absent
            TriplePattern(x, nowhere, y),        # unknown predicate
            TriplePattern(nowhere, knows, y),    # unknown subject
            TriplePattern(x, knows, nowhere),    # unknown object
            TriplePattern(nowhere, p, y),
            TriplePattern(x, n1, y),             # a vertex used as predicate
            TriplePattern(x, type_, Literal("never stored")),
        ]
        for dataset in (toy_dataset, loop):
            _same_statistics(BGPQuery(patterns), dataset)


@pytest.fixture(scope="module")
def lubm_l7():
    dataset = generate_lubm(scale=0.5, seed=3)
    query = lubm_queries()["L7"]
    method = HashSubjectObject()
    session = Optimizer(OptimizeOptions(dataset=dataset, partitioning=method))
    return dataset, query, method, session.optimize(query).plan, evaluate_reference(
        query, dataset.graph
    )


def _decoded(fragment: EncodedGraph):
    decode = fragment.dictionary.decode
    return [Triple(decode(s), decode(p), decode(o)) for s, p, o in fragment.triples()]


class TestFaultsOnIdFragments:
    @pytest.mark.parametrize("engine", ["columnar", "pipelined"])
    def test_fail_reroute_heal_rows(self, lubm_l7, engine):
        dataset, query, method, plan, reference = lubm_l7
        cluster = Cluster.build(dataset, method, cluster_size=4)
        executor = Executor(cluster, engine=engine)
        healthy = cluster.worker_fragments()
        assert executor.execute(plan, query)[0].rows == reference.rows
        target, moved = cluster.fail_worker(2)
        assert moved == len(healthy[2])
        assert len(cluster.worker_fragment(2)) == 0
        assert executor.execute(plan, query)[0].rows == reference.rows
        second, _ = cluster.fail_worker(target)  # the absorbed partition moves on
        assert set(cluster.worker_fragment(second).triples()) >= set(healthy[2].triples())
        assert executor.execute(plan, query)[0].rows == reference.rows
        cluster.heal()
        assert cluster.worker_fragments() == healthy  # the same objects
        assert executor.execute(plan, query)[0].rows == reference.rows

    def test_worker_graph_is_a_view_of_the_fragment(self, lubm_l7):
        dataset, _, method, _, _ = lubm_l7
        cluster = Cluster.build(dataset, method, cluster_size=3)
        for worker in range(3):
            assert list(cluster.worker_graph(worker)) == _decoded(cluster.worker_fragment(worker))
        view = cluster.worker_graph(0)
        assert cluster.worker_graph(0) is view  # decoded once
        assert cluster.fail_worker(2)[0] == 0  # slot 0 serves node 2's bit too
        lost = set(cluster.partitioning.node_graphs[2])
        assert lost - set(view)
        assert set(cluster.worker_graph(0)) == set(view) | lost
        assert list(cluster.worker_graph(0)) == _decoded(cluster.worker_fragment(0))
        assert list(cluster.partitioning.node_graphs[0]) == list(view)  # a snapshot, kept

    def test_placing_prices_only_the_missing_bits(self, lubm_l7):
        """An applied proposal pays once per position a node gains: a
        position placed twice, or one the node already stores, is free.
        The bits go to a new masks list and new views."""
        dataset, query, method, plan, reference = lubm_l7
        cluster = AdaptiveCluster.build(dataset, method, 3)
        partitioning = cluster.partitioning
        masks, before = partitioning.masks, partitioning.fragments
        sizes = [len(f) for f in before]
        placed = hot_placements(partitioning.table, 3, [query], [], None)
        distinct = {node: set(positions) for node, positions in placed.items()}
        gained = {node: {p for p in distinct[node] if not masks[p] >> node & 1} for node in placed}
        given, once, new = (sum(map(len, d.values())) for d in (placed, distinct, gained))
        assert given > once > new > 0  # repeats, and some already held
        colocate = MigrationProposal(COLOCATE, "L7", 1.0, query=query)
        report = cluster.apply([colocate], replication_budget=10.0)
        assert report.replicated_triples == new
        assert partitioning.masks is not masks  # copied on write
        assert all(partitioning.masks[p] >> node & 1 for node in placed for p in placed[node])
        assert partitioning.total_stored_triples() == sum(sizes) + report.replicated_triples
        assert [len(f) for f in before] == sizes  # the old views keep the old layout
        fragments = partitioning.fragments
        again = cluster.apply([colocate], replication_budget=10.0)
        assert (again.replicated_triples, again.migrations) == (0, 0)
        assert partitioning.fragments == fragments  # nothing placed: the same views
        assert Executor(cluster).execute(plan, query)[0].rows == reference.rows


class TestColdPathStaysOnIds:
    @staticmethod
    def _count_term_level_work(monkeypatch):
        """Count every ``Triple`` built, term-level index built and
        graph encoded from here on."""
        counts = {"triple": 0, "adjacency": 0, "permutation": 0, "from_graph": 0}

        def counting(owner, attribute, key):
            original = owner.__dict__[attribute]
            bound_to_class = isinstance(original, classmethod)
            function = original.__func__ if bound_to_class else original

            def wrapper(*args, **kwargs):
                counts[key] += 1
                return function(*args, **kwargs)

            monkeypatch.setattr(
                owner, attribute, classmethod(wrapper) if bound_to_class else wrapper
            )

        counting(Triple, "__init__", "triple")
        counting(RDFGraph, "_adjacency", "adjacency")
        counting(RDFGraph, "_permutation", "permutation")
        counting(EncodedGraph, "from_graph", "from_graph")
        return counts

    @staticmethod
    def _cold_rows(dataset, name, query):
        """What ``python -m repro run`` does once it has a dataset."""
        method = PARTITIONINGS[name]()
        cluster = Cluster(method.partition(dataset, 4))
        assert sum(map(len, cluster.worker_fragments())) >= dataset.triple_count
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        session = Optimizer(
            OptimizeOptions(statistics=statistics, partitioning=method)
        )
        plan = session.optimize(query).plan
        relation, _ = Executor(cluster).execute(plan, query)
        return relation.rows

    @pytest.mark.parametrize("name", sorted(PARTITIONINGS))
    def test_no_term_level_objects_after_the_dataset_is_built(self, name, monkeypatch):
        """A hand-built graph, encoded by its dataset: partition + worker
        fragments + a cold columnar L4 construct no ``Triple``, build no
        term-level index and encode nothing a second time."""
        dataset = generate_lubm(scale=0.5, seed=2017)
        query = lubm_queries()["L4"]
        reference = evaluate_reference(query, dataset.graph)
        dataset = Dataset(RDFGraph(dataset.graph))  # no index left from the oracle
        counts = self._count_term_level_work(monkeypatch)
        rows = self._cold_rows(dataset, name, query)
        assert counts == {"triple": 0, "adjacency": 0, "permutation": 0, "from_graph": 0}
        assert rows == reference.rows

    @pytest.mark.parametrize("name", sorted(PARTITIONINGS))
    def test_no_term_level_objects_from_a_saved_file_to_the_rows(
        self, name, monkeypatch, tmp_path
    ):
        """The same from ``load_ntriples(path)`` on: the file is parsed
        into ids, the dataset adopts them, and the first term objects
        besides the dictionary's are the decoded rows; the loaded graph
        is never read term by term."""
        generated = generate_lubm(scale=0.5, seed=2017).graph
        query = lubm_queries()["L4"]
        reference = evaluate_reference(query, RDFGraph(generated))
        path = tmp_path / "lubm.nt"
        save_ntriples(generated, path)
        counts = self._count_term_level_work(monkeypatch)
        graph = load_ntriples(path)
        dataset = Dataset(graph, name="lubm")
        assert len(graph) == dataset.triple_count == len(generated)
        rows = self._cold_rows(dataset, name, query)
        assert counts == {"triple": 0, "adjacency": 0, "permutation": 0, "from_graph": 0}
        assert rows == reference.rows
        assert "_triples" not in vars(graph)  # still undecoded

    @staticmethod
    def _held(index):
        """What *index* holds, by filled slot — looked at without reading
        (= sorting) an order."""
        held = {}
        for slot in PredicateIndex.__slots__:
            try:
                held[slot] = object.__getattribute__(index, slot)
            except AttributeError:
                pass
        return held

    @classmethod
    def _sorted_orders(cls, index):
        return {slot[:3] for slot in cls._held(index) if not slot.startswith("_")}

    @classmethod
    def _assert_only_id_columns(cls, index, dictionary):
        """Once an order exists, the index keeps columns of *dictionary*'s
        own id objects and nothing else — not the pairs they were sorted from."""
        held = cls._held(index)
        columns = [value for slot, value in held.items() if not slot.startswith("_")]
        ids = dictionary.ids
        assert columns and all(
            type(c) is tuple and all(i is ids[i] for i in c) for c in columns
        )
        assert all(any(kept is c for c in columns) for kept in held["_pairs"])

    @staticmethod
    def _scanned_order(pattern):
        """The order a bound-predicate scan of *pattern* reads (see
        ``_scan_bound_predicate``): an index is bisected by subject unless
        the object alone is bound, and a ``?s p ?o`` scan sits in the order
        that starts with the variable that sorts first by name."""
        subject, object_ = pattern.subject, pattern.object
        if not isinstance(subject, Variable):
            return "spo"
        if not isinstance(object_, Variable):
            return "ops"
        return "spo" if subject.name <= object_.name else "ops"

    def _one_grouping_pass(self, monkeypatch, name):
        """Cold L1-L8 under partitioner *name*; returns the counters and
        raises ``AssertionError`` on an order sorted that nothing read."""
        counts = {"index": 0, "adjacency": 0, "single-order": 0}
        probed = set()  # (id(index), order) a probe read

        def counted(owner, attribute, before):
            original = getattr(owner, attribute)

            def wrapper(self, *args):
                before(self, *args)
                return original(self, *args)

            monkeypatch.setattr(owner, attribute, wrapper)

        counted(PredicateIndex, "__init__", lambda *_: counts.update(index=counts["index"] + 1))
        counted(EncodedGraph, "adjacency", lambda *_: counts.update(adjacency=counts["adjacency"] + 1))

        def probe(relation, variable):
            # a probe keyed on a scan's second column reads the index's other order
            if relation.position(variable) == 1:
                index = relation.index
                own_is_spo = relation.columns[0] is self._held(index).get("spo_subjects")
                probed.add((id(index), "ops" if own_is_spo else "spo"))

        counted(EncodedRelation, "_matches", probe)
        dataset = generate_lubm(scale=0.5, seed=2017)
        dataset = Dataset(RDFGraph(dataset.graph))  # nothing derived yet
        for label in ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8"):
            query = lubm_queries()[label]
            method = PARTITIONINGS[name]()
            cluster = Cluster(method.partition(dataset, 4))
            built = counts["index"]
            statistics = StatisticsCatalog.from_dataset(query, dataset)
            assert counts["index"] == built  # counted off the grouped columns
            plan = Optimizer(
                OptimizeOptions(statistics=statistics, partitioning=method)
            ).optimize(query).plan
            Executor(cluster).execute(plan, query)
            scanned = {}
            for pattern in query:
                predicate = dataset.dictionary.lookup(pattern.predicate)
                scanned.setdefault(predicate, set()).add(self._scanned_order(pattern))
            for fragment in cluster.worker_fragments():
                for predicate, index in fragment._indexes.items():
                    read = scanned[predicate] | {o for i, o in probed if i == id(index)}
                    sorted_orders = self._sorted_orders(index)
                    assert sorted_orders, (label, predicate)
                    assert sorted_orders <= read, f"{label}: sorted an order nothing read"
                    counts["single-order"] += len(sorted_orders) == 1
                    self._assert_only_id_columns(index, fragment.dictionary)
        assert not dataset.encoded_graph()._indexes  # the dataset graph sorted nothing
        return counts

    @pytest.mark.parametrize("name", sorted(PARTITIONINGS))
    def test_one_grouping_pass_sorts_only_what_is_read(self, name, monkeypatch):
        """Statistics build no index, a fragment sorts the orders its
        scans and probes read and no other, and the hash-placed layouts
        never ask for the vertex adjacency."""
        counts = self._one_grouping_pass(monkeypatch, name)
        assert counts["single-order"] > 0  # ``?x type C`` alone leaves spo unsorted
        if name in ("hash-so", "2f"):
            assert counts["adjacency"] == 0

    def test_an_eagerly_sorting_index_is_caught(self, monkeypatch):
        """The mutant: an index that sorts both orders when it is made."""
        lazy = PredicateIndex.__init__

        def eager(self, ids, subjects, objects):
            lazy(self, ids, subjects, objects)
            self.spo_subjects, self.ops_objects

        monkeypatch.setattr(PredicateIndex, "__init__", eager)
        with pytest.raises(AssertionError, match="sorted an order nothing read"):
            self._one_grouping_pass(monkeypatch, "hash-so")

    @pytest.mark.parametrize("first, second", [("spo", "ops"), ("ops", "spo")])
    def test_repeats_given_through_add_ids_leave_the_index(self, first, second):
        """Whichever order is read first is free of the repeat, has the
        right length, and the other is sorted from it; once an order
        exists the index holds id columns only."""
        dictionary = TermDictionary()
        for n in range(10):  # ids 0-9 are known to the dictionary
            dictionary.encode(IRI(f"http://e/v{n}"))
        given = [(5, 1), (2, 9), (5, 1), (2, 3), (7, 1), (2, 9)]
        fragment = EncodedGraph(dictionary, (
            array("q", [s for s, _ in given]), array("q", [0] * len(given)),
            array("q", [o for _, o in given]),
        ))
        pairs = {"spo": [(2, 3), (2, 9), (5, 1), (7, 1)], "ops": [(1, 5), (1, 7), (3, 2), (9, 2)]}
        columns = {"spo": ("spo_subjects", "spo_objects"), "ops": ("ops_objects", "ops_subjects")}
        index = fragment.index_for(0)
        assert self._sorted_orders(index) == set()
        for read, order in enumerate((first, second), start=1):
            firsts, seconds = (getattr(index, column) for column in columns[order])
            assert list(zip(firsts, seconds)) == pairs[order]
            assert self._sorted_orders(index) == set((first, second)[:read])
            assert len(firsts) == 4
            self._assert_only_id_columns(index, fragment.dictionary)
        assert len(index) == 4
        # len() alone, with no order read before it, counts distinct pairs too
        twin = EncodedGraph(fragment.dictionary, (fragment.subjects, fragment.predicates, fragment.objects))
        assert len(twin.index_for(0)) == 4

    def test_hot_placement_static_or_online_builds_no_triple(self, monkeypatch, tmp_path):
        """``DynamicPartitioning.partition`` and ``AdaptiveCluster.apply``
        on a dataset nobody has decoded: matches are grounded as id
        triples, found in the table and placed and priced as node bits,
        and both reach the same masks."""
        path = tmp_path / "lubm.nt"
        save_ntriples(generate_lubm(scale=0.5, seed=2017).graph, path)
        hot = lubm_queries()["L7"]
        predicate = str(lubm_queries()["L2"].patterns[0].predicate)
        counts = self._count_term_level_work(monkeypatch)
        graph = load_ntriples(path)
        dataset = Dataset(graph, name="lubm")
        method = DynamicPartitioning(HashSubjectObject(), [hot], [predicate])
        static = method.partition(dataset, 4)
        cluster = AdaptiveCluster.build(dataset, HashSubjectObject(), 4)
        report = cluster.apply(
            [
                MigrationProposal(COLOCATE, "hot", 2.0, query=hot),
                MigrationProposal(REPLICATE_PREDICATE, predicate, 1.0, predicate=predicate),
            ],
            replication_budget=10.0,
        )
        assert len(report.applied) == 2 and report.replicated_triples > 0
        assert repr(cluster.adapted_method()) == repr(method)
        assert cluster.partitioning.masks == static.masks
        assert [set(f.triples()) for f in cluster.worker_fragments()] == [
            set(f.triples()) for f in static.fragments
        ]
        assert counts == {"triple": 0, "adjacency": 0, "permutation": 0, "from_graph": 0}
        assert "_triples" not in vars(graph)  # still undecoded


class TestTermsBuiltOnDemand:
    """The dictionary interns N-Triples texts: from the file to the plan
    no ``IRI`` / ``Literal`` / ``BlankNode`` is built, and executing the
    plan builds the terms of the result rows and no other, each once."""

    @staticmethod
    def _built_terms(monkeypatch):
        """Every term made from here on (``__post_init__`` runs for a
        construction, ``replace``, a copy and an unpickle alike)."""
        built = []
        for cls in (IRI, Literal, BlankNode):
            def counting(self, _made=cls.__post_init__):
                _made(self)
                built.append(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        return built

    @pytest.mark.parametrize("name", sorted(PARTITIONINGS))
    def test_only_the_rows_build_terms(self, name, monkeypatch, tmp_path):
        generated = generate_lubm(scale=0.5, seed=2017).graph
        query = lubm_queries()["L7"]
        reference = evaluate_reference(query, RDFGraph(generated))
        path = tmp_path / "lubm.nt"
        save_ntriples(generated, path)
        built = self._built_terms(monkeypatch)
        dataset = Dataset(load_ntriples(path), name="lubm")
        method = PARTITIONINGS[name]()
        cluster = Cluster(method.partition(dataset, 4))
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = Optimizer(
            OptimizeOptions(statistics=statistics, partitioning=method)
        ).optimize(query).plan
        assert built == []
        relation, _ = Executor(cluster).execute(plan, query)
        assert relation.rows == reference.rows and len(relation.rows) > 100
        in_rows = {term for row in relation.rows for term in row}
        assert len(built) == len(in_rows) and set(built) == in_rows
        built.clear()
        assert Executor(cluster).execute(plan, query)[0].rows == reference.rows
        assert built == []  # a decoded term is kept

    def test_anchor_terms_are_decoded_only_by_placement(self, monkeypatch, tmp_path):
        """A partitioning keeps no anchor placement; ``placement`` re-runs
        the layout and decodes its anchors, and nothing else."""
        path = tmp_path / "lubm.nt"
        save_ntriples(generate_lubm(scale=0.3, seed=2017).graph, path)
        built = self._built_terms(monkeypatch)
        dataset = Dataset(load_ntriples(path))
        method = HashSubjectObject()
        partitioning = method.partition(dataset, 4)
        graph = dataset.encoded_graph()
        _, anchors = method.layout(graph, 4, text_rank(graph, method.anchor_candidates(graph)))
        assert built == [] and anchors and "anchor_nodes" not in vars(partitioning)
        placement = method.placement(dataset, 4)
        assert len(built) == len(placement) == len(anchors)
        assert list(placement.values()) == list(anchors.values())
        assert [dataset.dictionary.lookup(t) for t in placement] == list(anchors)


@pytest.fixture(scope="module")
def lubm_1_file(tmp_path_factory):
    """LUBM scale 1, as the one-shot benchmark loads it."""
    path = tmp_path_factory.mktemp("lubm") / "lubm.nt"
    save_ntriples(generate_lubm(scale=1.0, seed=2017).graph, path)
    return path


class TestFragmentsOnDemand:
    """A partitioning's fragments are views of the dataset's table: each
    is the eager ``gather`` of its node's positions, whatever reads it and
    in whatever order; a scan cuts the one predicate it reads, and nothing
    on the query path copies a fragment's base columns."""

    LABELS = ["hash-so", "1f", "2f", "3f", "path-bmc", "un-1-hop"]

    @staticmethod
    def _gathered(fragment):
        """Whether *fragment* holds base columns (looked at without reading them)."""
        try:
            object.__getattribute__(fragment, "_subjects")
        except AttributeError:
            return False
        return True

    @staticmethod
    def _orders(index):
        if index is None:
            return None
        return index.spo_subjects, index.spo_objects, index.ops_objects, index.ops_subjects

    @staticmethod
    def _eager(graph, masks, cluster_size):
        """Per node, what ``partition`` gathered before fragments were cut
        on demand: the positions whose mask has its bit."""
        return [
            graph.gather([p for p, mask in enumerate(masks) if mask >> node & 1])
            for node in range(cluster_size)
        ]

    @staticmethod
    def _triples(fragments):
        return [list(fragment.triples()) for fragment in fragments]

    @settings(max_examples=150, deadline=None)
    @given(
        triples=_graphs(),
        cluster_size=st.integers(min_value=1, max_value=5),
        label=st.sampled_from(LABELS),
        runs_first=st.booleans(),
    )
    def test_a_cut_fragment_is_the_eager_gather(self, triples, cluster_size, label, runs_first):
        dataset = Dataset.from_triples(triples)
        graph = dataset.encoded_graph()
        method = METHOD_PAIRS[label][0]()
        partitioning = method.partition(dataset, cluster_size)
        assert partitioning.table is graph
        eager = self._eager(graph, partitioning.masks, cluster_size)
        sizes = [len(f) for f in eager]
        assert partitioning.replication_factor(len(graph)) == sum(sizes) / len(graph)
        assert partitioning.imbalance() == max(sizes) / (sum(sizes) / cluster_size)
        # every predicate, and an id that is none
        probes = sorted(set(graph.predicates)) + sorted(set(graph.subjects) - set(graph.predicates))[:1]
        ends = [None, graph.subjects[0], graph.objects[-1]]
        for fragment, expected in zip(partitioning.fragments, eager):
            assert len(fragment) == len(expected)
            if runs_first:
                assert fragment.predicate_runs() == expected.predicate_runs()
            for predicate in probes:
                index = fragment.index_for(predicate)
                assert self._orders(index) == self._orders(expected.index_for(predicate))
                assert fragment.index_for(predicate) is index
                for subject, object_ in product(ends, ends):
                    assert list(fragment.scan(subject, predicate, object_)) == list(
                        expected.scan(subject, predicate, object_)
                    )
            assert fragment.predicate_ids() == expected.predicate_ids()
            assert fragment.predicate_runs() == expected.predicate_runs()
            for subject, object_ in product(ends, ends):
                assert list(fragment.scan(subject, None, object_)) == list(
                    expected.scan(subject, None, object_)
                )
            assert not self._gathered(fragment)
            assert (fragment.subjects, fragment.predicates, fragment.objects) == (
                expected.subjects, expected.predicates, expected.objects
            )
            assert list(fragment.triples()) == list(expected.triples())
            assert self._gathered(fragment) and len(fragment) == len(expected)

    @settings(max_examples=40, deadline=None)
    @given(
        triples=_graphs(),
        cluster_size=st.integers(min_value=1, max_value=5),
        label=st.sampled_from(LABELS),
    )
    def test_layout_changes_on_cut_fragments_are_the_eager_ones(self, triples, cluster_size, label):
        """``DynamicPartitioning.partition``, and ``AdaptiveCluster.apply``
        with a worker down then ``heal``: the hot placements' bits set on
        the base masks, and every fragment the gather of its node's
        positions."""
        dataset = Dataset.from_triples(triples)
        graph = dataset.encoded_graph()
        method = METHOD_PAIRS[label][0]()
        base = method.partition(dataset, cluster_size).masks
        expected = list(base)
        for node, positions in hot_placements(graph, cluster_size, [HOT], REPLICATED, None).items():
            for position in positions:
                expected[position] |= 1 << node
        dynamic = DynamicPartitioning(method, [HOT], REPLICATED).partition(dataset, cluster_size)
        assert dynamic.masks == expected
        assert self._triples(dynamic.fragments) == self._triples(
            self._eager(graph, expected, cluster_size)
        )

        cluster = AdaptiveCluster(
            method.partition(dataset, cluster_size), dataset=dataset, base_method=method
        )
        if cluster.size > 1:
            cluster.fail_worker(0)
        report = cluster.apply(
            [
                MigrationProposal(COLOCATE, "hot", 2.0, query=HOT),
                MigrationProposal(
                    REPLICATE_PREDICATE, REPLICATED[0], 1.0, predicate=REPLICATED[0]
                ),
            ],
            replication_budget=10.0,
        )
        cluster.heal()
        masks = cluster.partitioning.masks
        assert report.replicated_triples == sum(map(int.bit_count, masks)) - sum(
            map(int.bit_count, base)
        )
        assert self._triples(cluster.worker_fragments()) == self._triples(
            self._eager(graph, masks, cluster_size)
        )

    def test_an_append_stays_out_and_a_copy_is_a_plain_fragment(self):
        """A placement made after a view is cut stays out of it (it goes
        to new views), and a copy of a view is a plain fragment."""
        dataset = generate_lubm(scale=0.2, seed=5)
        graph = dataset.encoded_graph()
        partitioning = HashSubjectObject().partition(dataset, 3)
        eager = self._eager(graph, partitioning.masks, 3)
        fragments = partitioning.fragments
        predicate = graph.predicates[0]
        fragments[0].index_for(predicate)  # one predicate cut before the placement
        partitioning.place({0: range(len(graph))})  # node 0 stores everything
        for fragment, expected in zip(fragments, eager):
            assert len(fragment) == len(expected)
            assert fragment.predicate_runs() == expected.predicate_runs()
            assert self._orders(fragment.index_for(predicate)) == self._orders(
                expected.index_for(predicate)
            )
            assert not self._gathered(fragment)
            for twin in (pickle.loads(pickle.dumps(fragment)), copy.copy(fragment), copy.deepcopy(fragment)):
                assert type(twin) is EncodedGraph  # its own columns, not the dataset's table
                assert list(twin.triples()) == list(expected.triples())
            assert list(fragment.triples()) == list(expected.triples())
        # the new views read the new masks
        assert partitioning.fragments[0] is not fragments[0]
        assert list(partitioning.fragments[0].triples()) == list(graph.triples())
        assert self._triples(partitioning.fragments[1:]) == self._triples(eager[1:])

    def test_only_a_table_with_fragments_keeps_its_buckets(self):
        dataset = generate_lubm(scale=0.2, seed=5)
        graph = dataset.encoded_graph()
        runs = graph.predicate_runs()  # grouped before partitioning, as a caller may
        assert graph._positions is None
        fragments = HashSubjectObject().partition(dataset, 3).fragments
        fragments[0].index_for(graph.predicates[0])
        assert graph.predicate_runs() == runs  # grouped again, once, keeping the buckets
        assert {p: list(b) for p, b in graph._positions.items()} == {
            p: [at for at, q in enumerate(graph.predicates) if q == p] for p in runs
        }
        for fragment in fragments:  # a plain fragment keeps none
            assert fragment.predicate_runs() and fragment._positions is None
            copied = copy.copy(fragment)
            assert copied.predicate_runs() == fragment.predicate_runs()
            assert copied._positions is None

    # ------------------------------------------------------------------
    # what the query path copies
    # ------------------------------------------------------------------
    @staticmethod
    def _count_copies(monkeypatch):
        """Record, from here on, every fragment that gathers its base
        columns, every graph that runs the full grouping pass, every
        predicate cut (by fragment) and every predicate scanned (by
        fragment)."""
        record = {"gathered": [], "grouped": [], "cuts": Counter(), "scanned": defaultdict(set)}
        cut_class = encoding._NodeCut
        gather = cut_class.__getattr__

        def gathering(self, name):
            if name in ("_subjects", "_predicates", "_objects"):
                record["gathered"].append(self)
            return gather(self, name)

        group = EncodedGraph.predicate_runs

        def grouping(self):
            if self._runs is None:
                record["grouped"].append(self)
            return group(self)

        cut = cut_class._cut

        def cutting(self, predicate):
            record["cuts"][id(self), predicate] += 1
            return cut(self, predicate)

        scan = engine_base.scan_pattern_encoded

        def scanning(fragment, pattern):
            record["scanned"][id(fragment)].add(fragment.dictionary.lookup(pattern.predicate))
            return scan(fragment, pattern)

        monkeypatch.setattr(cut_class, "__getattr__", gathering)
        monkeypatch.setattr(EncodedGraph, "predicate_runs", grouping)
        monkeypatch.setattr(cut_class, "_cut", cutting)
        monkeypatch.setattr(engine_base, "scan_pattern_encoded", scanning)
        return record

    @staticmethod
    def _assert_cut_on_demand(record, dataset, partitioning):
        assert record["gathered"] == []
        assert record["grouped"] == [dataset.encoded_graph()]  # one grouping pass
        for fragment in partitioning.fragments:
            cut = {p for (at, p) in record["cuts"] if at == id(fragment)}
            assert cut == record["scanned"][id(fragment)] and cut
        assert set(record["cuts"].values()) == {1}  # each once

    @pytest.mark.parametrize("name", sorted(PARTITIONINGS))
    def test_a_one_shot_op_cuts_what_it_scans_and_gathers_nothing(
        self, name, lubm_1_file, monkeypatch
    ):
        """What ``python -m repro run`` does, on LUBM scale 1."""
        record = self._count_copies(monkeypatch)
        graph = load_ntriples(lubm_1_file)
        dataset = Dataset(graph, name="lubm")
        method = PARTITIONINGS[name]()
        partitioning = method.partition(dataset, 4)
        cluster = Cluster(partitioning)
        query = lubm_queries()["L7"]
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = Optimizer(OptimizeOptions(statistics=statistics, partitioning=method)).optimize(query).plan
        relation, _ = Executor(cluster).execute(plan, query)
        assert relation.rows
        assert partitioning.replication_factor(len(graph)) >= 1.0 and partitioning.imbalance() >= 1.0
        assert sum(map(len, cluster.worker_fragments())) >= len(graph)
        self._assert_cut_on_demand(record, dataset, partitioning)
        assert not record["scanned"].keys() - set(map(id, partitioning.fragments))

    def test_a_serve_round_cuts_each_scanned_predicate_once(self, lubm_1_file, monkeypatch):
        """One session and cluster (hash-so), L1-L10 twice on each engine:
        the first round cuts what it scans, the rest cuts nothing more."""
        record = self._count_copies(monkeypatch)
        graph = load_ntriples(lubm_1_file)
        dataset = Dataset(graph, name="lubm")
        method = HashSubjectObject()
        partitioning = method.partition(dataset, 4)
        assert partitioning.replication_factor(len(graph)) > 1.0  # what a server reports first
        cluster = Cluster(partitioning)
        cache = PlanCache()
        queries = lubm_queries()
        rows = {}
        first_round = None
        for engine in ("columnar", "pipelined", "columnar"):
            session = Optimizer(
                OptimizeOptions(dataset=dataset, partitioning=method, plan_cache=cache, engine=engine)
            )
            executor = Executor(cluster, engine=engine)
            for label in [f"L{n}" for n in range(1, 11)]:
                query = queries[label]
                relation, _ = executor.execute(session.optimize(query).plan, query)
                assert rows.setdefault(label, relation.rows) == relation.rows
            if first_round is None:
                first_round = sum(record["cuts"].values())
        assert sum(record["cuts"].values()) == first_round  # later rounds cut nothing
        assert partitioning.imbalance() >= 1.0
        self._assert_cut_on_demand(record, dataset, partitioning)


#: joins the hot placements and the replicated predicates can make local
SWEEP_QUERIES = [
    HOT,
    parse_query("SELECT * WHERE { ?x <http://e/p2> ?y . ?x <http://e/p0> ?z . }", name="p2p0"),
    parse_query("SELECT * WHERE { ?x <http://e/name> ?n . ?x <http://e/p1> ?y . }", name="name"),
]


class TestOneFragmentKind:
    """Every placement is a node bit over the dataset's table: a static
    layout, hot queries and replicated predicates (static or applied
    online) and fail-stop re-routing.  Whatever a cluster went through,
    each slot serves one view of the table — no copy, no base column
    gathered — holding the gather of the positions whose mask meets the
    slot's bits, and queries return the reference rows."""

    @staticmethod
    def _assert_one_kind(cluster, dataset):
        table, masks = cluster.partitioning.table, cluster.partitioning.masks
        assert table is dataset.encoded_graph()
        for worker, fragment in enumerate(cluster.worker_fragments()):
            assert type(fragment) is encoding._NodeCut
            bits = cluster._bits(worker)
            expected = table.gather([p for p, mask in enumerate(masks) if mask & bits])
            assert len(fragment) == len(expected)
            assert fragment.predicate_runs() == expected.predicate_runs()
            assert not TestFragmentsOnDemand._gathered(fragment)
        method = cluster.adapted_method()
        session = Optimizer(OptimizeOptions(dataset=dataset, partitioning=method))
        executor = Executor(cluster)
        for query in SWEEP_QUERIES:
            relation, _ = executor.execute(session.optimize(query).plan, query)
            assert relation.rows == evaluate_reference(query, dataset.graph).rows

    @staticmethod
    def _fail(cluster, picks):
        for pick in picks:
            if cluster.live_size > 1:
                cluster.fail_worker(cluster.live_workers[pick % cluster.live_size])

    @settings(max_examples=60, deadline=None)
    @given(
        triples=_graphs(),
        cluster_size=st.integers(min_value=1, max_value=5),
        label=st.sampled_from(TestFragmentsOnDemand.LABELS),
        static_hot=st.booleans(),
        static_replicated=st.lists(st.sampled_from(REPLICATED), unique=True),
        online_hot=st.booleans(),
        online_replicated=st.lists(st.sampled_from(REPLICATED), unique=True),
        fails=st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=2),
    )
    def test_every_placement_is_a_node_bit(
        self, triples, cluster_size, label, static_hot, static_replicated,
        online_hot, online_replicated, fails,
    ):
        dataset = Dataset.from_triples(triples)
        method = METHOD_PAIRS[label][0]()
        if static_hot or static_replicated:
            method = DynamicPartitioning(method, [HOT] if static_hot else [], static_replicated)
        cluster = AdaptiveCluster.build(dataset, method, cluster_size)
        self._assert_one_kind(cluster, dataset)
        self._fail(cluster, [pick for pick, before in fails if before])
        self._assert_one_kind(cluster, dataset)
        proposals = [MigrationProposal(COLOCATE, "hot", 2.0, query=HOT)] if online_hot else []
        proposals += [
            MigrationProposal(REPLICATE_PREDICATE, predicate, 1.0, predicate=predicate)
            for predicate in online_replicated
        ]
        stored = cluster.partitioning.total_stored_triples()
        report = cluster.apply(proposals, replication_budget=10.0)
        assert cluster.partitioning.total_stored_triples() - stored == report.replicated_triples
        self._assert_one_kind(cluster, dataset)
        self._fail(cluster, [pick for pick, before in fails if not before])
        self._assert_one_kind(cluster, dataset)
        cluster.heal()
        self._assert_one_kind(cluster, dataset)
        assert cluster.worker_fragments() == cluster.partitioning.fragments

    def test_hot_placement_serves_views(self, lubm_1_file):
        """``DynamicPartitioning`` on LUBM scale 1 serves views of the
        table, not merged copies of the base fragments, and runs its hot
        query locally."""
        dataset = Dataset(load_ntriples(lubm_1_file), name="lubm")
        hot = lubm_queries()["L7"]
        method = DynamicPartitioning(HashSubjectObject(), [hot])
        partitioning = method.partition(dataset, 4)
        assert all(type(fragment) is encoding._NodeCut for fragment in partitioning.fragments)
        assert not any(map(TestFragmentsOnDemand._gathered, partitioning.fragments))
        plan = Optimizer(OptimizeOptions(dataset=dataset, partitioning=method)).optimize(hot).plan
        relation, metrics = Executor(Cluster(partitioning)).execute(plan, hot)
        assert relation.rows == evaluate_reference(hot, dataset.graph).rows
        assert metrics.total_tuples_shipped == 0
