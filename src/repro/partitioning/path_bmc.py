"""Path partitioning with bottom-up merging ("Path-BMC").

Wu et al.'s path partitioning (ICDE 2015) decomposes the RDF graph into
end-to-end paths.  In the generic model (Example 2 of the paper):

* ``combine(v, G)`` assembles all triples *reachable* from a start
  vertex ``v`` following edge directions;
* ``distribute`` merges elements bottom-up, greedily packing them onto
  nodes by weight (our rendition of the paper's path-merge step).

Anchors are the *start vertices* — vertices with no incoming edge.  A
vertex on a cycle has no start vertex above it, so cyclic residue is
anchored at a canonical vertex of its strongly-connected component
(smallest by term order), which keeps the partitioning total.

Queries whose patterns are all reachable from one query vertex are
local.  That holds for 11 of the paper's 15 benchmark queries: the
trees L3 and L6 and the dense L9 and L10 have no vertex that reaches
every pattern, so they still ship (the Table V effect is confined to
the other eleven; see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm
from ..sparql.ast import TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import Elements, PartitioningMethod, Rank


class PathBMC(PartitioningMethod):
    """Path partitioning with bottom-up merging of path elements."""

    name = "path-bmc"

    def anchor_candidates(self, graph: EncodedGraph) -> Set[int]:
        return set(graph.subjects)  # nothing is reachable from any other vertex

    def elements(self, graph: EncodedGraph, rank: Rank) -> Elements:
        """One traversal per anchor: which vertices anchor the cyclic
        residue depends on what the start vertices' elements cover."""
        outgoing, incoming = graph.adjacency()
        starts = sorted(outgoing.keys() - incoming.keys(), key=rank.__getitem__)
        elements = {v: self.combine_ids(v, graph) for v in starts}
        remaining = set(range(len(graph))).difference(*elements.values())
        # cyclic residue: anchor uncovered triples at canonical vertices
        uncovered = set(map(graph.subjects.__getitem__, remaining))
        for v in sorted(uncovered, key=rank.__getitem__):
            if not remaining:
                break
            reach = self.combine_ids(v, graph)
            if not reach.isdisjoint(remaining):
                elements[v] = reach
                remaining -= reach
        return elements

    def combine_ids(self, vertex: int, graph: EncodedGraph) -> Set[int]:
        """Triples reachable from *vertex* along edge directions."""
        outgoing = graph.adjacency()[0]
        objects = graph.objects
        reached: Set[int] = set()
        seen = {vertex}
        frontier = [vertex]
        while frontier:
            edges = outgoing.get(frontier.pop())
            if edges:
                reached.update(edges)
                for v in map(objects.__getitem__, edges):
                    if v not in seen:
                        seen.add(v)
                        frontier.append(v)
        return reached

    def distribute(
        self, elements: Elements, cluster_size: int, graph: EncodedGraph, rank: Rank
    ) -> Dict[int, int]:
        """Greedy bottom-up merge: heaviest element to the lightest node.

        This is the weight-driven merge of the Path-BM algorithm reduced
        to its load-balancing essence: indivisible path elements packed
        to minimize the maximum node load.
        """
        loads = [0] * cluster_size
        placement: Dict[int, int] = {}
        weights = {vertex: len(element) for vertex, element in elements.items()}
        # heaviest first; equal weights in the shared vertex order (both sorts are stable)
        by_rank = sorted(elements, key=rank.__getitem__)
        for vertex in sorted(by_rank, key=weights.__getitem__, reverse=True):
            node = loads.index(min(loads))
            placement[vertex] = node
            loads[node] += weights[vertex]
        return placement

    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        return query_graph.reachable_patterns(vertex)
