"""Property-based tests for the partitioning model on random graphs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.partitioning import (
    DynamicPartitioning,
    HashSubjectObject,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
)
from repro.rdf import Dataset, triple

METHOD_BUILDERS = [
    HashSubjectObject,
    lambda: SemanticHash(1),
    lambda: SemanticHash(2),
    PathBMC,
    UndirectedOneHop,
    lambda: DynamicPartitioning(HashSubjectObject(), []),
]


def random_dataset(seed: int, vertices: int, edges: int) -> Dataset:
    rng = random.Random(seed)
    triples = [
        triple(
            f"http://e/v{rng.randrange(vertices)}",
            f"http://e/p{rng.randrange(3)}",
            f"http://e/v{rng.randrange(vertices)}",
        )
        for _ in range(edges)
    ]
    return Dataset.from_triples(triples)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    vertices=st.integers(min_value=2, max_value=40),
    edges=st.integers(min_value=1, max_value=120),
    cluster_size=st.integers(min_value=1, max_value=8),
    method_index=st.integers(min_value=0, max_value=len(METHOD_BUILDERS) - 1),
)
def test_partitioning_is_total_and_well_formed(
    seed, vertices, edges, cluster_size, method_index
):
    """For any graph, method, and cluster size: every triple lands on at
    least one node, placements are in range, and the bookkeeping holds."""
    dataset = random_dataset(seed, vertices, edges)
    method = METHOD_BUILDERS[method_index]()
    partitioning = method.partition(dataset, cluster_size)
    assert partitioning.cluster_size == cluster_size
    stored = set()
    for graph in partitioning.node_graphs:
        stored.update(graph)
    assert stored == set(dataset.graph)
    placement = method.placement(dataset, cluster_size)
    assert all(0 <= node < cluster_size for node in placement.values())
    assert partitioning.replication_factor(dataset.triple_count) >= 1.0
    assert partitioning.imbalance() >= 1.0


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    hops=st.integers(min_value=1, max_value=3),
    cluster_size=st.integers(min_value=1, max_value=6),
)
def test_semantic_hash_elements_nest(seed, hops, cluster_size):
    """(k+1)-hop elements contain k-hop elements at every anchor, and
    both hash the same anchors: node n of the k-hop partitioning is
    inside node n of the (k+1)-hop one."""
    dataset = random_dataset(seed, 20, 50)
    smaller = SemanticHash(hops).partition(dataset, cluster_size)
    larger = SemanticHash(hops + 1).partition(dataset, cluster_size)
    assert SemanticHash(hops).placement(dataset, cluster_size) == SemanticHash(
        hops + 1
    ).placement(dataset, cluster_size)
    for node in range(cluster_size):
        assert set(smaller.node_graphs[node]) <= set(larger.node_graphs[node])


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    cluster_size=st.integers(min_value=1, max_value=6),
)
def test_path_bmc_elements_are_forward_closed(seed, cluster_size):
    """Every triple reachable from an anchor is on that anchor's node."""
    dataset = random_dataset(seed, 15, 40)
    partitioning = PathBMC().partition(dataset, cluster_size)
    placement = PathBMC().placement(dataset, cluster_size)
    assert placement
    for anchor, node in placement.items():
        stored = set(partitioning.node_graphs[node])
        seen, frontier = {anchor}, [anchor]
        while frontier:
            for out in dataset.graph.out_edges(frontier.pop()):
                assert out in stored
                if out.object not in seen:
                    seen.add(out.object)
                    frontier.append(out.object)
