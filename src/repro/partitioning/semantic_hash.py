"""Semantic hash partitioning: k-hop forward expansion ("2f").

Lee & Liu's semantic hash partitioning (VLDB 2014) extends each vertex
with its k-hop *forward* (directed) neighborhood before hashing the
anchor.  The paper uses the 2-hop forward variant, "2f": a query whose
patterns all lie within two forward hops of some query vertex is local.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import FrozenSet, Set

from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm
from ..sparql.ast import TriplePattern
from ..sparql.query_graph import QueryGraph
from .hash_so import HashSubjectObject


class SemanticHash(HashSubjectObject):
    """k-hop forward semantic hash partitioning (default: 2f): Hash-SO's
    placement (the anchor is hashed) of larger elements."""

    def __init__(self, hops: int = 2) -> None:
        if hops < 1:
            raise ValueError("hops must be at least 1")
        self.hops = hops
        self.name = f"{hops}f"

    def combine_ids(self, vertex: int, graph: EncodedGraph) -> Set[int]:
        outgoing = graph.adjacency()[0].get
        objects = graph.objects
        element = step = set(outgoing(vertex, ()))
        for _ in range(self.hops - 1):
            # the triples leaving the last hop's objects that are not in yet
            frontier = set(map(objects.__getitem__, step))
            step = set(chain.from_iterable(map(outgoing, frontier, repeat(()))))
            step -= element
            if not step:
                break
            element = element | step
        return element

    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        return query_graph.patterns_within_forward_hops(vertex, self.hops)
