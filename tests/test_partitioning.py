"""Tests for the generic partitioning model and the four methods."""

import pytest

from repro.partitioning import (
    HashSubjectObject,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
    greedy_edge_cut_partition,
    hash_term,
)
from repro.partitioning.base import text_rank
from repro.rdf import Dataset, EncodedGraph, IRI, TermDictionary, triple

ALL_METHODS = [HashSubjectObject(), SemanticHash(2), PathBMC(), UndirectedOneHop()]


def small_dataset():
    triples = [
        triple("http://e/a", "http://e/p", "http://e/b"),
        triple("http://e/b", "http://e/p", "http://e/c"),
        triple("http://e/c", "http://e/p", "http://e/d"),
        triple("http://e/a", "http://e/q", "http://e/d"),
        triple("http://e/x", "http://e/q", "http://e/a"),
    ]
    return Dataset.from_triples(triples)


class TestGenericModel:
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
    def test_no_triple_lost(self, method):
        """Every triple must end up on at least one node (Eq. 1+2 totality)."""
        ds = small_dataset()
        partitioning = method.partition(ds, cluster_size=3)
        stored = set()
        for graph in partitioning.node_graphs:
            stored.update(graph)
        assert stored == set(ds.graph)

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
    def test_cluster_size_respected(self, method):
        partitioning = method.partition(small_dataset(), cluster_size=4)
        assert partitioning.cluster_size == 4
        assert all(0 <= n < 4 for n in partitioning.vertex_placement.values())

    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: m.name)
    def test_replication_factor_at_least_one(self, method):
        ds = small_dataset()
        partitioning = method.partition(ds, cluster_size=3)
        assert partitioning.replication_factor(ds.triple_count) >= 1.0

    def test_invalid_cluster_size(self):
        with pytest.raises(ValueError):
            HashSubjectObject().partition(small_dataset(), 0)

    def test_imbalance_of_single_node_is_one(self):
        partitioning = HashSubjectObject().partition(small_dataset(), 1)
        assert partitioning.imbalance() == 1.0


class TestHashSO:
    def test_triple_on_subject_and_object_nodes(self):
        ds = small_dataset()
        partitioning = HashSubjectObject().partition(ds, cluster_size=3)
        t = triple("http://e/a", "http://e/p", "http://e/b")
        expected_nodes = {
            hash_term(IRI("http://e/a"), 3),
            hash_term(IRI("http://e/b"), 3),
        }
        holding = {i for i, g in enumerate(partitioning.node_graphs) if t in g}
        assert holding == expected_nodes

    def test_hash_is_deterministic(self):
        assert hash_term(IRI("http://e/a"), 7) == hash_term(IRI("http://e/a"), 7)


class TestSemanticHashData:
    def test_element_contains_two_hop_forward(self):
        ds = small_dataset()
        method = SemanticHash(2)
        element = method.combine(IRI("http://e/a"), ds.graph)
        values = {(t.subject.value, t.object.value) for t in element}
        # forward 2 hops from a: a->b, a->d, b->c
        assert ("http://e/a", "http://e/b") in values
        assert ("http://e/b", "http://e/c") in values
        assert ("http://e/c", "http://e/d") not in values

    def test_one_hop_variant(self):
        element = SemanticHash(1).combine(IRI("http://e/a"), small_dataset().graph)
        assert len(element) == 2  # a->b, a->d


class TestPathBMC:
    def test_anchors_are_start_vertices(self):
        ds = small_dataset()
        method, graph = PathBMC(), ds.encoded_graph()
        anchors = method.elements(graph, text_rank(graph, method.anchor_candidates(graph)))
        assert ds.dictionary.lookup(IRI("http://e/x")) in anchors  # no incoming edges

    def test_combine_is_forward_reachability(self):
        ds = small_dataset()
        element = PathBMC().combine(IRI("http://e/x"), ds.graph)
        assert len(element) == 5  # x reaches everything

    def test_cyclic_graph_fully_covered(self):
        cyc = Dataset.from_triples(
            [
                triple("http://e/a", "http://e/p", "http://e/b"),
                triple("http://e/b", "http://e/p", "http://e/a"),
            ]
        )
        partitioning = PathBMC().partition(cyc, cluster_size=2)
        stored = set()
        for g in partitioning.node_graphs:
            stored.update(g)
        assert stored == set(cyc.graph)

    def test_distribute_balances_load(self):
        # many equal elements should spread across nodes
        triples = [
            triple(f"http://e/s{i}", "http://e/p", f"http://e/o{i}")
            for i in range(20)
        ]
        partitioning = PathBMC().partition(Dataset.from_triples(triples), 4)
        sizes = [len(g) for g in partitioning.node_graphs]
        assert max(sizes) - min(sizes) <= 1


class TestGreedyPartitioner:
    """The partitioner works on ids: vertices in, ``{vertex id: part}`` out."""

    @staticmethod
    def chain(length):
        return EncodedGraph.from_graph(
            [
                triple(f"http://e/v{i}", "http://e/p", f"http://e/v{i + 1}")
                for i in range(length)
            ],
            TermDictionary(),
        )

    @staticmethod
    def grow(graph, parts):
        return greedy_edge_cut_partition(
            graph, parts, text_rank(graph, set(graph.subjects).union(graph.objects))
        )

    def test_balanced_parts(self):
        placement = self.grow(self.chain(20), 3)
        counts = [0, 0, 0]
        for node in placement.values():
            counts[node] += 1
        assert max(counts) - min(counts) <= max(1, len(placement) // 3)

    def test_neighbors_tend_to_colocate(self):
        # a chain should be cut at most (parts - 1) times
        graph = self.chain(30)
        placement = self.grow(graph, 3)
        cuts = sum(
            1
            for s, _, o in graph.triples()
            if placement[s] != placement[o]
        )
        assert cuts <= 4

    def test_empty_graph(self):
        assert self.grow(EncodedGraph(TermDictionary()), 3) == {}
