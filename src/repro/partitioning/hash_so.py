"""Hash partitioning on both subject and object ("Hash-SO").

``combine(v, G)`` gathers every triple incident to ``v`` (as subject or
object); ``distribute`` hashes the anchor vertex.  Every triple is
therefore stored on (at most) two nodes — the hash of its subject and
the hash of its object — which is the baseline partitioning all
existing optimizers in the paper assume: a subquery is local iff all
its triple patterns share a common vertex (Appendix A, Example 7).
"""

from __future__ import annotations

from operator import or_
from typing import Dict, FrozenSet, List, Tuple

from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm
from ..sparql.ast import TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import Layout, PartitioningMethod, Rank, hash_terms


class HashSubjectObject(PartitioningMethod):
    """Hash partitioning with a hash function on subject and object."""

    name = "hash-so"

    def distribute(self, graph: EncodedGraph, cluster_size: int, rank: Rank) -> Dict[int, int]:
        """Each anchor's node, in the order of *rank* (Eq. 2): the hash of
        its term's text.  Every ranked vertex anchors a non-empty element."""
        texts = map(graph.dictionary.texts.__getitem__, rank)
        return dict(zip(rank, hash_terms(texts, cluster_size)))

    def layout(self, graph: EncodedGraph, cluster_size: int, rank: Rank) -> Layout:
        """In bulk: one node mask per triple (:meth:`node_masks`) — no
        element, no per-node set, no sort."""
        return self.node_masks(graph, cluster_size, rank)

    def node_masks(
        self, graph: EncodedGraph, cluster_size: int, rank: Rank
    ) -> Tuple[List[int], Dict[int, int]]:
        """Per triple position the nodes that store it (bit ``n`` for node
        ``n``), and the anchor placement.  Every vertex anchors the triples
        it ends and :meth:`distribute` reads the anchors only, so a triple
        is on its subject's node and its object's."""
        placement = self.distribute(graph, cluster_size, rank)
        node_bit = {vertex: 1 << node for vertex, node in placement.items()}.__getitem__
        masks = map(or_, map(node_bit, graph.subjects), map(node_bit, graph.objects))
        return list(masks), placement

    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        return query_graph.incident_patterns(vertex)
