"""The cold path on ids: partition -> worker fragments -> statistics.

``tests/partitioning_oracle.py`` keeps the term-level partitioners and
statistics pass this replaced.  Everything here is a differential
check against it (or against the reference engine), plus the guard
that the cold columnar path never drops back to term-level objects.
"""

from __future__ import annotations

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro import OptimizeOptions, Optimizer, parse_query
from repro.__main__ import PARTITIONINGS
from repro.core import StatisticsCatalog
from repro.engine import Cluster, EncodedRelation, Executor, evaluate_reference
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
from repro.partitioning.base import PartitioningMethod, hash_terms, text_rank
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
        assert list(new.vertex_placement.items()) == list(old.vertex_placement.items())
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
        label=st.sampled_from(["hash-so", "1f", "2f", "3f", "un-1-hop"]),
    )
    def test_bulk_masks_are_the_per_vertex_definition(self, triples, cluster_size, label):
        """The hash-placed family computes one node mask per triple, in
        bulk; the base class reads the layout off ``elements`` +
        ``distribute`` — the paper's per-vertex definition, one position
        set per node, sorted, which is what ``partition`` ran for every
        method before.  Masks, positions, fragments and the vertex
        placement (values and key order) are the same."""
        dataset = Dataset.from_triples(triples)
        graph = dataset.encoded_graph()
        method = METHOD_PAIRS[label][0]()
        rank = text_rank(graph, method.anchor_candidates(graph))
        assert list(rank) == sorted(rank, key=lambda v: str(dataset.dictionary.decode(v)))
        assert list(rank.values()) == list(range(len(rank)))
        stored, placement = PartitioningMethod.layout(method, graph, cluster_size, rank)
        derived_masks = [0] * len(graph)
        for node, positions in enumerate(stored):
            assert positions == sorted(set(positions))
            for position in positions:
                derived_masks[position] |= 1 << node
        masks, bulk_placement = method.node_masks(graph, cluster_size, rank)
        assert masks == derived_masks
        assert list(bulk_placement.items()) == list(placement.items())  # and in the same order
        assert method.layout(graph, cluster_size, rank) == (stored, placement)
        partitioning = method.partition(dataset, cluster_size)
        assert [list(f.triples()) for f in partitioning.fragments] == [
            list(graph.gather(positions).triples()) for positions in stored
        ]
        anchors = dataset.dictionary.decode_all(placement)
        assert list(partitioning.vertex_placement.items()) == list(
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


def _encoded(triples, dataset) -> EncodedGraph:
    """Term-level *triples* over *dataset*'s dictionary: what the merge primitives take."""
    return EncodedGraph.from_graph(triples, dataset.dictionary)


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

    def test_merge_replica_counts_additions(self, lubm_l7):
        dataset, query, method, plan, reference = lubm_l7
        cluster = Cluster.build(dataset, method, cluster_size=3)
        held = set(cluster.worker_graph(0))
        extra = [t for t in cluster.worker_graph(1) if t not in held][:25]
        assert extra
        before = cluster.worker_fragment(0)
        # with one repeat and one already held
        added = cluster.merge_replica(
            0, _encoded(extra + extra[:1] + [next(iter(held))], dataset)
        )
        assert added == len(extra)
        assert len(cluster.worker_fragment(0)) == len(before) + len(extra)
        assert cluster.partitioning.fragments[0] is before  # replica untouched
        assert cluster.merge_replica(0, _encoded(extra, dataset)) == 0
        # a whole fragment merges as it is
        missing = set(cluster.worker_fragment(1).triples()) - set(
            cluster.worker_fragment(0).triples()
        )
        assert cluster.merge_replica(0, cluster.worker_fragment(1)) == len(missing)
        assert Executor(cluster).execute(plan, query)[0].rows == reference.rows

    def test_worker_graph_is_a_view_of_the_fragment(self, lubm_l7):
        dataset, _, method, _, _ = lubm_l7
        cluster = Cluster.build(dataset, method, cluster_size=3)
        for worker in range(3):
            assert list(cluster.worker_graph(worker)) == _decoded(cluster.worker_fragment(worker))
        view = cluster.worker_graph(0)
        assert cluster.worker_graph(0) is view  # decoded once
        outsider = Triple(IRI("http://e/new"), IRI("http://e/p"), Literal("näw"))
        assert cluster.merge_replica(0, _encoded([outsider], dataset)) == 1
        assert outsider in cluster.worker_graph(0)
        assert outsider not in view  # the old view is a snapshot, not written to
        assert list(cluster.worker_graph(0)) == _decoded(cluster.worker_fragment(0))
        assert list(cluster.partitioning.node_graphs[0]) == list(view)

    def test_partitioning_add_triples_is_the_same_primitive(self, lubm_l7):
        dataset, _, method, _, _ = lubm_l7
        partitioning = method.partition(dataset, 3)
        sizes = [len(f) for f in partitioning.fragments]
        extra = [t for t in partitioning.node_graphs[1] if t not in partitioning.node_graphs[0]]
        assert partitioning.add_triples(0, _encoded(extra, dataset)) == len(extra)
        assert partitioning.add_triples(0, _encoded(extra, dataset)) == 0
        assert partitioning.total_stored_triples() == sum(sizes) + len(extra)
        assert set(partitioning.node_graphs[0]) >= set(extra)


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
        cluster = Cluster(method.partition(dataset, 4), dataset.dictionary)
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
    def _assert_only_id_columns(cls, index):
        """Once an order exists, the index keeps ``array('q')`` columns
        and nothing else — not the pairs they were sorted from."""
        held = cls._held(index)
        columns = [value for slot, value in held.items() if not slot.startswith("_")]
        assert columns and all(type(c) is array and c.typecode == "q" for c in columns)
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
            cluster = Cluster(method.partition(dataset, 4), dataset.dictionary)
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
                    self._assert_only_id_columns(index)
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

        def eager(self, subjects, objects):
            lazy(self, subjects, objects)
            self.spo_subjects, self.ops_objects

        monkeypatch.setattr(PredicateIndex, "__init__", eager)
        with pytest.raises(AssertionError, match="sorted an order nothing read"):
            self._one_grouping_pass(monkeypatch, "hash-so")

    @pytest.mark.parametrize("first, second", [("spo", "ops"), ("ops", "spo")])
    def test_repeats_given_through_add_ids_leave_the_index(self, first, second):
        """Whichever order is read first is free of the repeat, has the
        right length, and the other is sorted from it; once an order
        exists the index holds id columns only."""
        fragment = EncodedGraph(TermDictionary())
        for s, o in [(5, 1), (2, 9), (5, 1), (2, 3), (7, 1), (2, 9)]:
            fragment.add_ids(s, 0, o)
        pairs = {"spo": [(2, 3), (2, 9), (5, 1), (7, 1)], "ops": [(1, 5), (1, 7), (3, 2), (9, 2)]}
        columns = {"spo": ("spo_subjects", "spo_objects"), "ops": ("ops_objects", "ops_subjects")}
        index = fragment.index_for(0)
        assert self._sorted_orders(index) == set()
        for read, order in enumerate((first, second), start=1):
            firsts, seconds = (getattr(index, column) for column in columns[order])
            assert list(zip(firsts, seconds)) == pairs[order]
            assert self._sorted_orders(index) == set((first, second)[:read])
            assert len(firsts) == 4
            self._assert_only_id_columns(index)
        assert len(index) == 4
        # len() alone, with no order read before it, counts distinct pairs too
        twin = EncodedGraph(fragment.dictionary, (fragment.subjects, fragment.predicates, fragment.objects))
        assert len(twin.index_for(0)) == 4

    def test_hot_placement_static_or_online_builds_no_triple(self, monkeypatch, tmp_path):
        """``DynamicPartitioning.partition`` and ``AdaptiveCluster.apply``
        on a dataset nobody has decoded: matches are grounded, placed,
        costed and merged as id triples, and both reach the same layout."""
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
        assert [set(f.triples()) for f in cluster.worker_fragments()] == [
            set(f.triples()) for f in static.fragments
        ]
        assert counts == {"triple": 0, "adjacency": 0, "permutation": 0, "from_graph": 0}
        assert "_triples" not in vars(graph)  # still undecoded
