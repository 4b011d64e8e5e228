"""Semantic hash partitioning: k-hop forward expansion ("2f").

Lee & Liu's semantic hash partitioning (VLDB 2014) extends each vertex
with its k-hop *forward* (directed) neighborhood before hashing the
anchor.  The paper uses the 2-hop forward variant, "2f": a query whose
patterns all lie within two forward hops of some query vertex is local.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set, Tuple

from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm
from ..sparql.ast import TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import Rank
from .hash_so import HashSubjectObject


class SemanticHash(HashSubjectObject):
    """k-hop forward semantic hash partitioning (default: 2f): Hash-SO's
    placement (the anchor is hashed) of larger elements."""

    def __init__(self, hops: int = 2) -> None:
        if hops < 1:
            raise ValueError("hops must be at least 1")
        self.hops = hops
        self.name = f"{hops}f"

    def anchor_candidates(self, graph: EncodedGraph) -> Set[int]:
        return set(graph.subjects)  # an element needs a first hop

    def node_masks(
        self, graph: EncodedGraph, cluster_size: int, rank: Rank
    ) -> Tuple[List[int], Dict[int, int]]:
        """A triple is in the element of every anchor at most ``hops - 1``
        forward steps from its subject, so each subject's anchor nodes are
        pushed to its objects that many times."""
        subjects, objects = graph.subjects, graph.objects
        placement = self.distribute(graph, cluster_size, rank)
        #: by vertex id, the nodes of the anchors within the steps taken so far
        reach = [0] * len(graph.dictionary)
        for vertex, node in placement.items():
            reach[vertex] = 1 << node
        for _ in range(self.hops - 1):
            step = list(reach)
            for subject, object_ in zip(subjects, objects):
                step[object_] |= reach[subject]
            reach = step
        return list(map(reach.__getitem__, subjects)), placement

    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        return query_graph.patterns_within_forward_hops(vertex, self.hops)
