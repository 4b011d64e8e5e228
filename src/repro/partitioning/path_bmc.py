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
local — with acyclic benchmark queries this makes *every* L/U query in
the paper local, which is exactly the Table V effect (order-of-
magnitude speedups for TD-Auto + Path-BMC).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from ..rdf.terms import PatternTerm, Term
from ..rdf.triples import RDFGraph, Triple
from ..sparql.ast import TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import PartitioningMethod


class PathBMC(PartitioningMethod):
    """Path partitioning with bottom-up merging of path elements."""

    name = "path-bmc"

    def anchors(self, graph: RDFGraph) -> List[Term]:
        # sorted: ``vertices`` is a set; anchor order must not follow
        # the per-process hash seed
        starts = sorted(
            (v for v in graph.vertices if not graph.in_edges(v)), key=str
        )
        covered = self._reachable(starts, graph)
        if len(covered) < len(graph):
            # cyclic residue: anchor uncovered triples at canonical vertices
            uncovered_subjects = sorted(
                {t.subject for t in graph if t not in covered}, key=str
            )
            remaining = {t for t in graph if t not in covered}
            for v in uncovered_subjects:
                if not remaining:
                    break
                reach = self._reachable([v], graph)
                if reach & remaining:
                    starts.append(v)
                    remaining -= reach
        return starts

    def combine(self, vertex: Term, graph: RDFGraph) -> FrozenSet[Triple]:
        return frozenset(self._reachable([vertex], graph))

    @staticmethod
    def _reachable(sources: List[Term], graph: RDFGraph) -> Set[Triple]:
        """Triples reachable from any of *sources* along edge directions."""
        result: Set[Triple] = set()
        seen: Set[Term] = set(sources)
        frontier = list(sources)
        while frontier:
            v = frontier.pop()
            for t in graph.out_edges(v):
                if t not in result:
                    result.add(t)
                    if t.object not in seen:
                        seen.add(t.object)
                        frontier.append(t.object)
        return result

    def distribute(
        self, elements: Dict[Term, FrozenSet[Triple]], cluster_size: int
    ) -> Dict[Term, int]:
        """Greedy bottom-up merge: heaviest element to the lightest node.

        This is the weight-driven merge of the Path-BM algorithm reduced
        to its load-balancing essence: indivisible path elements packed
        to minimize the maximum node load.
        """
        loads = [0] * cluster_size
        placement: Dict[Term, int] = {}
        by_weight = sorted(
            elements.items(), key=lambda item: (-len(item[1]), str(item[0]))
        )
        for vertex, element in by_weight:
            node = min(range(cluster_size), key=lambda i: loads[i])
            placement[vertex] = node
            loads[node] += len(element)
        return placement

    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        return query_graph.reachable_patterns(vertex)
