"""The generic RDF data partitioning model (Section II-C).

Every static partitioning method is described by two functions:

* ``combine(v, G)`` — assemble the triples *correlated to* vertex ``v``
  into an indivisible partitioning element ``e_v``;
* ``distribute(e_v)`` — place each element on a computing node.

On data a method runs both as one hook, ``layout``.  The same
``combine`` applied to the *query graph* G_Q yields the *maximal local
query* anchored at each query vertex (Appendix A, Definition 5): any
subquery contained in some maximal local query can be answered with
local joins only.  This is what makes the optimizer partition-aware
without being coupled to a specific method.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Set, Tuple, Union

from ..rdf.dataset import Dataset
from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm, Term
from ..rdf.triples import RDFGraph
from ..sparql.ast import BGPQuery, TriplePattern
from ..sparql.query_graph import QueryGraph


#: vertex id -> its place in the shared vertex order (:func:`text_rank`)
Rank = Dict[int, int]
#: (per triple position, its node mask — bit ``n`` set when node ``n`` stores
#: the triple; anchor -> its node)
Layout = Tuple[List[int], Dict[int, int]]


@dataclass
class Partitioning:
    """The outcome of partitioning a dataset across ``cluster_size``
    nodes: the dataset's encoded table and, per triple position, the one
    record of placement — a node mask, bit ``n`` set when node ``n``
    stores the triple.  The fragment of a node, or of any set of nodes,
    is a view of the table through the masks
    (:meth:`~repro.rdf.encoding.EncodedGraph.cut`).  :meth:`place` sets
    bits in a new masks list read by new views, so a scan in flight keeps
    the layout it started on."""

    method_name: str
    #: the dataset's encoded table (never changed)
    table: EncodedGraph
    #: per triple position of :attr:`table`, the mask of the nodes storing it
    masks: List[int]
    cluster_size: int
    #: node bits -> their view of the current masks
    _views: Dict[int, EncodedGraph] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # each node's view now (the table keeps the buckets views cut by
        # from here on), any other set's when first asked for
        bits = [1 << node for node in range(self.cluster_size)]
        self._views = {b: self.table.cut(self.masks, b) for b in bits}

    def fragment(self, bits: int) -> EncodedGraph:
        """What the nodes in *bits* store between them (``0``: nothing)."""
        if bits not in self._views:
            self._views[bits] = self.table.cut(self.masks, bits)
        return self._views[bits]

    @property
    def fragments(self) -> List[EncodedGraph]:
        """Per node, its fragment (:meth:`fragment` of its one bit)."""
        return [self.fragment(1 << node) for node in range(self.cluster_size)]

    @property
    def node_graphs(self) -> List[RDFGraph]:
        """Per-node term-level *views*, decoded on first use (for tests;
        a node gains triples through :meth:`place`, never through its view)."""
        return [fragment.decoded() for fragment in self.fragments]

    def place(self, placements: Mapping[int, Iterable[int]]) -> None:
        """Store the triples at *placements* (node -> positions) on those
        nodes as well: their bits set in a new masks list, read by new views."""
        self.masks = with_bits(self.masks, placements)
        self.__post_init__()

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

    A method implements :meth:`layout` (both phases on data) and
    :meth:`combine_query` (``combine`` on the query graph), and may
    narrow :meth:`anchor_candidates`; :meth:`partition` and
    :meth:`maximal_local_queries` are derived from them.  On data both
    phases run in id space, over the dataset's
    :class:`~repro.rdf.encoding.EncodedGraph`: a vertex is a term id, a
    triple its *position* in the graph's columns.
    """

    #: short identifier used in experiment tables
    name: str = "abstract"

    # ------------------------------------------------------------------
    # combine + distribute, on data
    # ------------------------------------------------------------------
    def anchor_candidates(self, graph: EncodedGraph) -> Set[int]:
        """The vertices that may anchor a non-empty element (default: all
        of V_R); what :func:`text_rank` orders for a ``partition`` call."""
        return set(graph.subjects).union(graph.objects)

    @abc.abstractmethod
    def layout(self, graph: EncodedGraph, cluster_size: int, rank: Rank) -> Layout:
        """Both phases (Eqs. 1 and 2) as a :data:`Layout`: per triple
        position the mask of the nodes whose elements hold it, and each
        non-empty element's anchor -> its node.  *rank* is the shared
        vertex order over :meth:`anchor_candidates` (:func:`text_rank`)."""

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
        """Run both phases (:meth:`layout`) and keep the one masks list
        over the dataset's table: each node's fragment is a view of it in
        ascending triple position (an explicit order, so fragments do not
        follow set iteration or the hash seed), copied from it only as
        scans read it.  The anchor placement is dropped: nothing on the
        query path reads it (:meth:`placement` recomputes it)."""
        graph, (masks, _) = self._layout(dataset, cluster_size)
        return Partitioning(self.name, graph, masks, cluster_size)

    def placement(self, dataset: Dataset, cluster_size: int) -> Dict[Term, int]:
        """Each non-empty element's anchor term -> its node, in the order
        :meth:`layout` placed them: the layout :meth:`partition` runs,
        re-run with the same :func:`text_rank` (for tests and
        diagnostics)."""
        graph, (_, anchors) = self._layout(dataset, cluster_size)
        return dict(zip(graph.dictionary.decode_all(anchors), anchors.values()))

    def _layout(self, dataset: Dataset, cluster_size: int) -> Tuple[EncodedGraph, Layout]:
        """The dataset's table and :meth:`layout` of it in the shared vertex order."""
        if cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        graph = dataset.encoded_graph()
        rank = text_rank(graph, self.anchor_candidates(graph))
        return graph, self.layout(graph, cluster_size, rank)

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


def with_bits(masks: List[int], placements: Mapping[int, Iterable[int]]) -> List[int]:
    """A copy of *masks* with node ``n``'s bit set at each position of
    ``placements[n]``."""
    masks = list(masks)
    for node, positions in placements.items():
        bit = 1 << node
        for position in positions:
            masks[position] |= bit
    return masks


def text_rank(graph: EncodedGraph, vertices: Iterable[int]) -> Rank:
    """*vertices* sorted by their terms' N-Triples texts (the dictionary's
    :attr:`~repro.rdf.encoding.TermDictionary.texts`) — the one vertex
    order every method uses, so that element maps, placements and
    tie-breaks are the same in every process — each mapped to its place
    in it.  Made once per ``partition`` call: iterating it is the order,
    and any subset is put in it by ``sorted(subset, key=rank.__getitem__)``."""
    ordered = sorted(vertices, key=graph.dictionary.texts.__getitem__)
    return {v: place for place, v in enumerate(ordered)}


#: characters per memoised prefix state in :func:`hash_terms`
_STRIDE = 8


def hash_terms(terms: Iterable[Union[Term, str]], cluster_size: int) -> List[int]:
    """:func:`hash_term` of each of *terms* — terms or their N-Triples
    texts, as the dictionary's ``texts`` hold them — sharing work
    between them.

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
