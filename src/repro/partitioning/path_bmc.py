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

from array import array
from typing import Dict, FrozenSet, List, Set

from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm
from ..sparql.ast import TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import Layout, PartitioningMethod, Rank


def _reachable(vertex: int, outgoing: Dict[int, List[int]], objects: array) -> Set[int]:
    """The positions of the triples reachable from *vertex* along edge
    directions: its element ``combine(v, G)``."""
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


class PathBMC(PartitioningMethod):
    """Path partitioning with bottom-up merging of path elements."""

    name = "path-bmc"

    def anchor_candidates(self, graph: EncodedGraph) -> Set[int]:
        return set(graph.subjects)  # nothing is reachable from any other vertex

    def layout(self, graph: EncodedGraph, cluster_size: int, rank: Rank) -> Layout:
        """One reachability walk per anchor (which vertices anchor the
        cyclic residue depends on what the start vertices cover), then the
        weight-driven merge of Path-BM reduced to load balancing: each
        indivisible element, heaviest first, onto the lightest node."""
        outgoing, incoming = graph.adjacency()
        starts = sorted(outgoing.keys() - incoming.keys(), key=rank.__getitem__)
        elements = {v: _reachable(v, outgoing, graph.objects) for v in starts}
        remaining = set(range(len(graph))).difference(*elements.values())
        # cyclic residue: anchor uncovered triples at canonical vertices
        uncovered = set(map(graph.subjects.__getitem__, remaining))
        for v in sorted(uncovered, key=rank.__getitem__):
            if not remaining:
                break
            reach = _reachable(v, outgoing, graph.objects)
            if not reach.isdisjoint(remaining):
                elements[v] = reach
                remaining -= reach
        loads = [0] * cluster_size
        masks = [0] * len(graph)
        placement: Dict[int, int] = {}
        # heaviest first; equal weights in the shared vertex order (both sorts are stable)
        by_rank = sorted(elements, key=rank.__getitem__)
        for vertex in sorted(by_rank, key=lambda v: len(elements[v]), reverse=True):
            node = loads.index(min(loads))
            placement[vertex] = node
            loads[node] += len(elements[vertex])
            bit = 1 << node
            for position in elements[vertex]:
                masks[position] |= bit
        return masks, placement

    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        return query_graph.reachable_patterns(vertex)
