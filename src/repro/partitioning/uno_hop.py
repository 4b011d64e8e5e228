"""Undirected one-hop partitioning ("un-1-hop", Huang et al.).

Huang, Abadi & Ren partition the RDF graph with METIS and give every
node the triples incident to its vertices (undirected 1-hop guarantee).
In the generic model:

* ``combine(v, G)`` gathers all triples whose subject *or* object is
  ``v`` (same element as Hash-SO);
* ``distribute`` is a graph partitioner producing balanced parts with
  few cut edges.  METIS is not available offline, so we substitute a
  greedy BFS grower (:func:`greedy_edge_cut_partition`): it provides
  the property the optimizer relies on — vertices co-located with their
  1-hop neighborhoods in balanced parts — which is all the un-1-hop
  guarantee needs.
"""

from __future__ import annotations

from collections import deque
from typing import Dict

from ..rdf.encoding import EncodedGraph
from .base import Elements, Rank
from .hash_so import HashSubjectObject


def greedy_edge_cut_partition(graph: EncodedGraph, cluster_size: int, rank: Rank) -> Dict[int, int]:
    """Partition graph vertices (term ids) into balanced parts with a BFS grower.

    Vertices are assigned in BFS order from successive unassigned seeds,
    seeds and neighbours in the order of *rank*; a part stops accepting
    vertices once it reaches the balanced capacity ``ceil(|V| / n)``.
    This is the classic lightweight substitute for METIS: connected
    neighborhoods land together, and part sizes are balanced within one vertex.
    """
    outgoing, incoming = graph.adjacency()
    subjects, objects = graph.subjects, graph.objects
    capacity = -(-len(rank) // cluster_size)
    placement: Dict[int, int] = {}
    part = 0
    used = 0
    for seed in rank:  # an already placed seed grows nothing
        queue = deque([seed])
        while queue:
            vertex = queue.popleft()
            if vertex in placement:
                continue
            if used >= capacity and part < cluster_size - 1:
                part += 1
                used = 0
            placement[vertex] = part
            used += 1
            neighbors = set(map(objects.__getitem__, outgoing.get(vertex, ())))
            neighbors.update(map(subjects.__getitem__, incoming.get(vertex, ())))
            queue.extend(
                sorted(neighbors.difference(placement), key=rank.__getitem__)
            )
    return placement


class UndirectedOneHop(HashSubjectObject):
    """Huang et al.'s un-1-hop partitioning with a greedy partitioner.

    Elements (and maximal local queries) are Hash-SO's; only the
    placement differs.
    """

    name = "un-1-hop"

    def distribute(
        self, elements: Elements, cluster_size: int, graph: EncodedGraph, rank: Rank
    ) -> Dict[int, int]:
        # every triple is in some element, so the elements' vertex graph
        # is *graph* itself: run the balanced partitioner on it
        placement = greedy_edge_cut_partition(graph, cluster_size, rank)
        return {vertex: placement.get(vertex, 0) for vertex in elements}
