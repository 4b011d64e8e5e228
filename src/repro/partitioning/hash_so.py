"""Hash partitioning on both subject and object ("Hash-SO").

``combine(v, G)`` gathers every triple incident to ``v`` (as subject or
object); ``distribute`` hashes the anchor vertex.  Every triple is
therefore stored on (at most) two nodes — the hash of its subject and
the hash of its object — which is the baseline partitioning all
existing optimizers in the paper assume: a subquery is local iff all
its triple patterns share a common vertex (Appendix A, Example 7).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import and_, or_
from typing import Dict, FrozenSet, List, Set, Tuple

from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm
from ..sparql.ast import TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import Elements, Layout, PartitioningMethod, Rank, hash_terms


class HashSubjectObject(PartitioningMethod):
    """Hash partitioning with a hash function on subject and object."""

    name = "hash-so"

    def combine_ids(self, vertex: int, graph: EncodedGraph) -> Set[int]:
        outgoing, incoming = graph.adjacency()
        # a self-loop is in both lists; it counts once
        return set(outgoing.get(vertex, ())).union(incoming.get(vertex, ()))

    def distribute(
        self, elements: Elements, cluster_size: int, graph: EncodedGraph, rank: Rank
    ) -> Dict[int, int]:
        anchors = graph.dictionary.decode_all(elements)
        return dict(zip(elements, hash_terms(anchors, cluster_size)))

    def layout(self, graph: EncodedGraph, cluster_size: int, rank: Rank) -> Layout:
        """In bulk: one node mask per triple (:meth:`node_masks`), and per
        node one ``compress`` over the ascending positions — no element,
        no per-node set, no sort."""
        masks, placement = self.node_masks(graph, cluster_size, rank)
        selected = (map(and_, masks, repeat(1 << node)) for node in range(cluster_size))
        return [list(compress(range(len(masks)), chosen)) for chosen in selected], placement

    def node_masks(
        self, graph: EncodedGraph, cluster_size: int, rank: Rank
    ) -> Tuple[List[int], Dict[int, int]]:
        """Per triple position the nodes that store it (bit ``n`` for node
        ``n``), and the anchor placement.  Every vertex anchors the triples
        it ends and this family's ``distribute`` reads the anchors only, so
        a triple is on its subject's node and its object's."""
        placement = self.distribute(dict.fromkeys(rank), cluster_size, graph, rank)
        node_bit = {vertex: 1 << node for vertex, node in placement.items()}.__getitem__
        masks = map(or_, map(node_bit, graph.subjects), map(node_bit, graph.objects))
        return list(masks), placement

    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        return query_graph.incident_patterns(vertex)
