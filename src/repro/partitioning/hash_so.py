"""Hash partitioning on both subject and object ("Hash-SO").

``combine(v, G)`` gathers every triple incident to ``v`` (as subject or
object); ``distribute`` hashes the anchor vertex.  Every triple is
therefore stored on (at most) two nodes — the hash of its subject and
the hash of its object — which is the baseline partitioning all
existing optimizers in the paper assume: a subquery is local iff all
its triple patterns share a common vertex (Appendix A, Example 7).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Set

from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm
from ..sparql.ast import TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import PartitioningMethod, hash_terms


class HashSubjectObject(PartitioningMethod):
    """Hash partitioning with a hash function on subject and object."""

    name = "hash-so"

    def combine_ids(self, vertex: int, graph: EncodedGraph) -> Set[int]:
        outgoing, incoming = graph.adjacency()
        # a self-loop is in both lists; it counts once
        return set(outgoing.get(vertex, ())).union(incoming.get(vertex, ()))

    def distribute(
        self, elements: Dict[int, Set[int]], cluster_size: int, graph: EncodedGraph
    ) -> Dict[int, int]:
        anchors = graph.dictionary.decode_all(elements)
        return dict(zip(elements, hash_terms(anchors, cluster_size)))

    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        return query_graph.incident_patterns(vertex)
