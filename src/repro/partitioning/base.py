"""The generic RDF data partitioning model (Section II-C).

Every static partitioning method is described by two functions:

* ``combine(v, G)`` — assemble the triples *correlated to* vertex ``v``
  into an indivisible partitioning element ``e_v``;
* ``distribute(e_v)`` — place each element on a computing node.

The same ``combine`` applied to the *query graph* G_Q yields the
*maximal local query* anchored at each query vertex (Appendix A,
Definition 5): any subquery contained in some maximal local query can
be answered with local joins only.  This is what makes the optimizer
partition-aware without being coupled to a specific method.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple, Union

from ..rdf.dataset import Dataset
from ..rdf.encoding import EncodedGraph, TermDictionary
from ..rdf.terms import PatternTerm, Term
from ..rdf.triples import RDFGraph, Triple
from ..sparql.ast import BGPQuery, TriplePattern
from ..sparql.query_graph import QueryGraph


#: anchor vertex id -> its element, a set of triple positions
Elements = Dict[int, Set[int]]
#: vertex id -> its place in the shared vertex order (:func:`text_rank`)
Rank = Dict[int, int]
#: (per node, the ascending positions of the triples it stores; anchor -> its node)
Layout = Tuple[List[List[int]], Dict[int, int]]


@dataclass
class Partitioning:
    """The outcome of partitioning a dataset across ``n`` nodes: per node
    one :class:`~repro.rdf.encoding.EncodedGraph` fragment over the dataset's
    dictionary, in ascending position of the dataset's own columns."""

    method_name: str
    fragments: List[EncodedGraph]
    #: vertex -> node index chosen by ``distribute`` (one entry per anchor)
    vertex_placement: Dict[Term, int] = field(default_factory=dict)

    @property
    def cluster_size(self) -> int:
        """Number of nodes the data was distributed over."""
        return len(self.fragments)

    @property
    def node_graphs(self) -> List[RDFGraph]:
        """Per-node term-level *views*, decoded on first use (for tests;
        change a node through :meth:`add_triples`, never through its view)."""
        return [fragment.decoded() for fragment in self.fragments]

    def add_triples(self, node: int, triples: EncodedGraph) -> int:
        """Store *triples* on *node* as well; return how many were new."""
        before = self.fragments[node]
        self.fragments[node] = merged = before.merged(triples)
        return len(merged) - len(before)

    def total_stored_triples(self) -> int:
        """Stored triples including duplicates across nodes."""
        return sum(map(len, self.fragments))

    def replication_factor(self, original_count: int) -> float:
        """Stored / original triple count (≥ 1 when nothing is lost)."""
        if original_count == 0:
            return 1.0
        return self.total_stored_triples() / original_count

    def imbalance(self) -> float:
        """max node load / mean node load (1.0 = perfectly balanced)."""
        sizes = list(map(len, self.fragments))
        mean = sum(sizes) / len(sizes)
        if mean == 0:
            return 1.0
        return max(sizes) / mean


class PartitioningMethod(abc.ABC):
    """A static partitioning method in the generic combine/distribute model.

    On data both phases run in id space, over the dataset's
    :class:`~repro.rdf.encoding.EncodedGraph`: a vertex is a term id,
    an element a set of triple *positions* in the graph's columns.
    """

    #: short identifier used in experiment tables
    name: str = "abstract"

    # ------------------------------------------------------------------
    # the two conceptual phases, on data
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def combine_ids(self, vertex: int, graph: EncodedGraph) -> Set[int]:
        """The partitioning element ``e_v`` anchored at *vertex* (Eq. 1)."""

    def anchor_candidates(self, graph: EncodedGraph) -> Set[int]:
        """The vertices that may anchor a non-empty element (default: all
        of V_R); what :func:`text_rank` orders for a ``partition`` call."""
        return set(graph.subjects).union(graph.objects)

    def elements(self, graph: EncodedGraph, rank: Rank) -> Elements:
        """The non-empty elements by anchor vertex, in the shared vertex
        order *rank* (see :func:`text_rank`)."""
        combined = ((vertex, self.combine_ids(vertex, graph)) for vertex in rank)
        return {vertex: element for vertex, element in combined if element}

    @abc.abstractmethod
    def distribute(
        self, elements: Elements, cluster_size: int, graph: EncodedGraph, rank: Rank
    ) -> Dict[int, int]:
        """Assign each element's anchor vertex to a node (Eq. 2)."""

    def layout(self, graph: EncodedGraph, cluster_size: int, rank: Rank) -> Layout:
        """Both phases as a :data:`Layout`: read off the elements here, computed
        in bulk by a method whose ``distribute`` looks at the anchor alone."""
        elements = self.elements(graph, rank)
        placement = self.distribute(elements, cluster_size, graph, rank)
        stored: List[Set[int]] = [set() for _ in range(cluster_size)]
        for vertex, element in elements.items():
            stored[placement[vertex]].update(element)
        return [sorted(positions) for positions in stored], placement

    # ------------------------------------------------------------------
    # the same combine, on the query graph
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        """``combine(v, G_Q)``: the maximal local query anchored at *v*."""

    # ------------------------------------------------------------------
    # derived functionality
    # ------------------------------------------------------------------
    def partition(self, dataset: Dataset, cluster_size: int) -> Partitioning:
        """Run both phases (:meth:`layout`) and gather each node's fragment,
        in ascending triple position (an explicit order, so fragments do not
        follow set iteration or the hash seed)."""
        if cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        graph = dataset.encoded_graph()
        rank = text_rank(graph, self.anchor_candidates(graph))
        stored, placement = self.layout(graph, cluster_size, rank)
        anchors = graph.dictionary.decode_all(placement)
        return Partitioning(
            method_name=self.name,
            fragments=[graph.gather(positions) for positions in stored],
            vertex_placement=dict(zip(anchors, placement.values())),
        )

    def combine(self, vertex: Term, graph: RDFGraph) -> FrozenSet[Triple]:
        """``combine(v, G)`` in the paper's term-typed signature: encode
        *graph*, run :meth:`combine_ids`, decode the element."""
        encoded = EncodedGraph.from_graph(graph, TermDictionary())
        vertex_id = encoded.dictionary.lookup(vertex)
        if vertex_id is None:
            return frozenset()
        triples = list(graph)
        return frozenset(triples[i] for i in self.combine_ids(vertex_id, encoded))

    def maximal_local_queries(self, query: BGPQuery) -> List[FrozenSet[TriplePattern]]:
        """All distinct maximal local queries of *query* (Appendix A).

        One candidate per query-graph vertex; duplicates and empty sets
        are dropped, and sets contained in another candidate are removed
        (they detect nothing extra).
        """
        query_graph = QueryGraph(query)
        candidates: Set[FrozenSet[TriplePattern]] = set()
        for vertex in query_graph.vertices:
            mlq = self.combine_query(vertex, query_graph)
            if mlq:
                candidates.add(mlq)
        # deterministic order first (largest, then lexicographic), then
        # drop candidates strictly contained in others
        ordered = sorted(
            candidates, key=lambda s: (-len(s), sorted(str(tp) for tp in s))
        )
        return [
            c
            for c in ordered
            if not any(c < other for other in candidates)
        ]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def text_rank(graph: EncodedGraph, vertices: Iterable[int]) -> Rank:
    """*vertices* sorted by their terms' string form — the one vertex order
    every method uses, so that element maps, placements and tie-breaks are
    the same in every process — each mapped to its place in it.  Made once
    per ``partition`` call: iterating it is the order, and any subset is
    put in it by ``sorted(subset, key=rank.__getitem__)``."""
    vertices = list(vertices)
    texts = dict(zip(vertices, map(str, graph.dictionary.decode_all(vertices))))
    return {v: place for place, v in enumerate(sorted(vertices, key=texts.__getitem__))}


#: characters per memoised prefix state in :func:`hash_terms`
_STRIDE = 8


def hash_terms(terms: Iterable[Term], cluster_size: int) -> List[int]:
    """:func:`hash_term` of each of *terms*, sharing work between them.

    The hash is djb2-xor over ``str(term)``: a state carried left to
    right, so texts with a common prefix share the state at its end.
    States are memoised every ``_STRIDE`` characters for the duration
    of the call; IRIs of one namespace then cost their local names only.
    """
    states: Dict[object, int] = {b"": 5381, (): 5381}
    known = states.get
    nodes = []
    for text in map(str, terms):
        try:
            codes: Union[bytes, tuple] = text.encode("latin-1")  # iterates as code points
        except UnicodeEncodeError:
            codes = tuple(map(ord, text))
        done = len(codes) - len(codes) % _STRIDE
        value = known(codes[:done])
        while value is None:
            done -= _STRIDE
            value = known(codes[:done])
        while done + _STRIDE <= len(codes):
            for code in codes[done:done + _STRIDE]:
                value = ((value * 33) ^ code) & 0xFFFFFFFF
            done += _STRIDE
            states[codes[:done]] = value
        for code in codes[done:]:
            value = ((value * 33) ^ code) & 0xFFFFFFFF
        nodes.append(value % cluster_size)
    return nodes


def hash_term(term: Term, cluster_size: int) -> int:
    """Deterministic term-to-node hash (stable across runs and processes)."""
    return hash_terms((term,), cluster_size)[0]
