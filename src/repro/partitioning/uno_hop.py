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
from typing import Dict, List

from ..rdf.encoding import EncodedGraph
from .base import Rank
from .hash_so import HashSubjectObject


def greedy_edge_cut_partition(graph: EncodedGraph, cluster_size: int, rank: Rank) -> Dict[int, int]:
    """Partition graph vertices (term ids) into balanced parts with a BFS grower.

    Vertices are assigned in BFS order from successive unassigned seeds,
    seeds and neighbours in the order of *rank*; a part stops accepting
    vertices once it reaches the balanced capacity ``ceil(|V| / n)``.
    This is the classic lightweight substitute for METIS: connected
    neighborhoods land together, and part sizes are balanced within one vertex.

    The walk is over rank places (ints ``0 .. |V| - 1``): each vertex's
    neighbour places are collected and sorted once, so a visit only skips
    the placed ones.  The result is in rank order.
    """
    place = rank.__getitem__
    subjects, objects = list(map(place, graph.subjects)), list(map(place, graph.objects))
    adjacent: List[List[int]] = [[] for _ in rank]
    for subject, object_ in zip(subjects, objects):
        adjacent[subject].append(object_)
        adjacent[object_].append(subject)
    neighbours = [sorted(set(places)) for places in adjacent]
    capacity = -(-len(rank) // cluster_size)
    parts = [-1] * len(rank)  # by place: its part, or -1 while unplaced
    part = 0
    used = 0
    for seed in range(len(rank)):
        if parts[seed] >= 0:  # an already placed seed grows nothing
            continue
        queue = deque([seed])
        while queue:
            vertex = queue.popleft()
            if parts[vertex] >= 0:
                continue
            if used >= capacity and part < cluster_size - 1:
                part += 1
                used = 0
            parts[vertex] = part
            used += 1
            queue.extend([v for v in neighbours[vertex] if parts[v] < 0])
    return dict(zip(rank, parts))


class UndirectedOneHop(HashSubjectObject):
    """Huang et al.'s un-1-hop partitioning with a greedy partitioner.

    Its elements (and maximal local queries) are Hash-SO's; only the
    placement differs.
    """

    name = "un-1-hop"

    def distribute(self, graph: EncodedGraph, cluster_size: int, rank: Rank) -> Dict[int, int]:
        """The balanced partitioner's part of each ranked vertex, in rank order:
        the elements cover every triple, so their vertex graph is *graph*."""
        return greedy_edge_cut_partition(graph, cluster_size, rank)
