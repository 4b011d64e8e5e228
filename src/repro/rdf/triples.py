"""Triples and the in-memory RDF graph.

:class:`RDFGraph` is the storage substrate of the reproduction: an
in-memory triple store playing the role RDF-3X plays in the paper's
prototype.  Only the insertion-ordered triple set is maintained
eagerly; an index is built in one bulk pass by its first reader and
maintained incrementally from then on.  Two groups:

* *adjacency* (outgoing and incoming triples per vertex, built
  together), which the partitioning algorithms walk;
* *permutation* (SPO, POS, OSP nested lookups, built one by one — most
  workloads only ever probe POS) behind :meth:`RDFGraph.match`.

A graph that is only iterated — a merged replica, a copy — pays for
neither.  A graph read from a file or decoded from a worker fragment
starts one step further back, as a *view* over integer id columns
(:class:`~repro.rdf.encoding.EncodedGraph`): it knows its length, and
builds its ``Triple`` objects when something first reads it term by
term.  A dataset, the partitioners and the encoded engines never do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .terms import IRI, BlankNode, Literal, Term, Variable, _HashSlot, _hash_slotted

if TYPE_CHECKING:  # encoding imports this module
    from .encoding import EncodedGraph

#: vertex -> triples where the vertex is subject (or object)
_Adjacency = Dict[Term, List["Triple"]]
#: leading term -> second term -> set of third terms
_Permutation = Dict[Term, Dict[Term, Set[Term]]]
_TERMS_OF = attrgetter("subject", "predicate", "object")
_ENDS_OF = attrgetter("subject", "object")
#: the three permutation orders, as triple -> (leading, second, third)
_SPO, _POS, _OSP = range(3)
_ORDERS = (
    _TERMS_OF,
    attrgetter("predicate", "object", "subject"),
    attrgetter("object", "subject", "predicate"),
)
_UNBUILT = [None] * len(_ORDERS)


@_hash_slotted
@dataclass(frozen=True, slots=True, order=True)
class Triple(_HashSlot):
    """An RDF triple ``(subject, predicate, object)``."""

    subject: Term
    predicate: Term
    object: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.subject, self.predicate, self.object)))

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."

    def terms(self) -> Tuple[Term, Term, Term]:
        """The (subject, predicate, object) tuple."""
        return (self.subject, self.predicate, self.object)


class RDFGraph:
    """A directed labeled graph G_R = (V_R, E_R) over RDF triples.

    Vertices are the subjects and objects of the stored triples; each
    edge carries its predicate as the label (Section II-A of the paper).

    The graph supports:

    * pattern matching with any combination of bound/unbound positions,
    * vertex-neighborhood queries used by the ``combine`` functions of
      the generic partitioning model (Section II-C),
    * deterministic iteration (insertion order is preserved).

    Reads never change an index's key set: looking up an absent term
    finds nothing and leaves nothing behind.

    A graph that :func:`~repro.rdf.ntriples.load_ntriples` or
    :meth:`EncodedGraph.decoded() <repro.rdf.encoding.EncodedGraph.decoded>`
    returns is a *view* over id columns.  ``len()`` and ``repr()`` read
    the columns; the first term-level read (iteration, ``in``,
    :meth:`match`, the vertex queries, :meth:`copy`) decodes them, once,
    into the ordinary triple dict; a call that changes the graph
    *detaches* it from its columns, after which it is a hand-built graph
    like any other.
    """

    def __init__(self, triples: Optional[Iterable[Triple]] = None) -> None:
        self._triples: Dict[Triple, None] = {}
        #: the columns this graph is an unchanged view of, if any
        self._encoded: Optional["EncodedGraph"] = None
        # every index stays ``None`` until first read (see _adjacency /
        # _permutation); only then do add/discard maintain it
        self._out: Optional[_Adjacency] = None
        self._in: Optional[_Adjacency] = None
        self._permutations: List[Optional[_Permutation]] = list(_UNBUILT)
        if triples is not None:
            self.add_all(triples)

    # ------------------------------------------------------------------
    # views over id columns
    # ------------------------------------------------------------------
    @classmethod
    def _view_of(cls, encoded: "EncodedGraph") -> "RDFGraph":
        """The term-level view of *encoded* (whose rows are distinct)."""
        graph = cls()
        graph._encoded = encoded
        del graph._triples  # decoded by its first reader: see __getattr__
        return graph

    def __getattr__(self, name: str) -> Dict[Triple, None]:
        # reached only when an attribute is missing: the triple dict of
        # a view that nothing has read term by term yet
        if name != "_triples":
            raise AttributeError(name)
        encoded = self._encoded
        terms = encoded.dictionary.decode_all
        self._triples = triples = dict.fromkeys(
            map(
                Triple,
                terms(encoded.subjects),
                terms(encoded.predicates),
                terms(encoded.objects),
            )
        )
        return triples

    # ------------------------------------------------------------------
    # on-demand indexes
    # ------------------------------------------------------------------
    def _adjacency(self) -> Tuple[_Adjacency, _Adjacency]:
        """The (outgoing, incoming) adjacency maps, built on first use."""
        if self._out is None:
            self._out, self._in = {}, {}
            for triple in self._triples:
                self._link(triple)
        return self._out, self._in  # type: ignore[return-value]

    def _link(self, triple: Triple) -> None:
        self._out.setdefault(triple.subject, []).append(triple)
        self._in.setdefault(triple.object, []).append(triple)

    def _permutation(self, order: int) -> _Permutation:
        """The lookup map of one of :data:`_ORDERS`, built on first use."""
        index = self._permutations[order]
        if index is None:
            index = self._permutations[order] = {}
            for a, b, c in map(_ORDERS[order], self._triples):
                index.setdefault(a, {}).setdefault(b, set()).add(c)
        return index

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> bool:
        """Insert *triple*; return False if it was already present."""
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._encoded = None
        if self._out is not None:
            self._link(triple)
        for index, order in zip(self._permutations, _ORDERS):
            if index is not None:
                a, b, c = order(triple)
                index.setdefault(a, {}).setdefault(b, set()).add(c)
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert every triple; return the number actually added.

        While no index exists this is one dictionary fill (first
        occurrence wins, as with repeated :meth:`add`); hashes already
        stored in a source graph, set or dict are reused.
        """
        if self._out is not None or self._permutations != _UNBUILT:
            return sum(1 for t in triples if self.add(t))  # keeps them current
        if isinstance(triples, RDFGraph):
            triples = triples._triples
        before = len(self._triples)
        self._triples.update(dict.fromkeys(triples))
        added = len(self._triples) - before
        if added:
            self._encoded = None
        return added

    def discard(self, triple: Triple) -> bool:
        """Remove *triple* if present; return whether it was removed."""
        if triple not in self._triples:
            return False
        del self._triples[triple]
        self._encoded = None
        if self._out is not None:
            for index, vertex in ((self._out, triple.subject), (self._in, triple.object)):
                index[vertex].remove(triple)
                if not index[vertex]:
                    del index[vertex]
        for index, order in zip(self._permutations, _ORDERS):
            if index is not None:
                a, b, c = order(triple)
                index[a][b].discard(c)
        return True

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        triples = vars(self).get("_triples")  # absent from an undecoded view
        return len(self._encoded if triples is None else triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._triples

    @property
    def vertices(self) -> Set[Term]:
        """All subjects and objects (V_R)."""
        outgoing, incoming = self._adjacency()
        return outgoing.keys() | incoming.keys()

    @property
    def predicates(self) -> Set[Term]:
        """All predicates with at least one stored triple."""
        by_predicate = self._permutation(_POS)
        return {p for p, objs in by_predicate.items() if any(objs.values())}

    def out_edges(self, vertex: Term) -> List[Triple]:
        """Triples whose subject is *vertex*."""
        return list(self._adjacency()[0].get(vertex, ()))

    def in_edges(self, vertex: Term) -> List[Triple]:
        """Triples whose object is *vertex*."""
        return list(self._adjacency()[1].get(vertex, ()))

    def edges(self, vertex: Term) -> List[Triple]:
        """All triples incident to *vertex* (subject or object)."""
        outgoing, incoming = self._adjacency()
        # a self-loop is in both lists; it counts once
        return list(
            dict.fromkeys(outgoing.get(vertex, []) + incoming.get(vertex, []))
        )

    def neighbors(self, vertex: Term) -> Set[Term]:
        """Vertices one (undirected) hop from *vertex*."""
        outgoing, incoming = self._adjacency()
        result = {t.object for t in outgoing.get(vertex, ())}
        result.update(t.subject for t in incoming.get(vertex, ()))
        result.discard(vertex)
        return result

    # ------------------------------------------------------------------
    # pattern matching
    # ------------------------------------------------------------------
    def match(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the bound positions.

        ``None`` (or a :class:`Variable`) means "any value".  The most
        selective permutation index available is used.
        """
        s = None if isinstance(subject, Variable) else subject
        p = None if isinstance(predicate, Variable) else predicate
        o = None if isinstance(object, Variable) else object

        if s is not None and p is not None and o is not None:
            triple = Triple(s, p, o)
            if triple in self._triples:
                yield triple
            return
        if s is not None and p is not None:
            for obj in self._permutation(_SPO).get(s, {}).get(p, ()):
                yield Triple(s, p, obj)
            return
        if p is not None and o is not None:
            for subj in self._permutation(_POS).get(p, {}).get(o, ()):
                yield Triple(subj, p, o)
            return
        if s is not None and o is not None:
            for pred in self._permutation(_OSP).get(o, {}).get(s, ()):
                yield Triple(s, pred, o)
            return
        if s is not None:
            yield from self._adjacency()[0].get(s, ())
            return
        if o is not None:
            yield from self._adjacency()[1].get(o, ())
            return
        if p is not None:
            for obj, subjects in self._permutation(_POS).get(p, {}).items():
                for subj in subjects:
                    yield Triple(subj, p, obj)
            return
        yield from self._triples

    def count(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        object: Optional[Term] = None,
    ) -> int:
        """Number of triples matching the bound positions."""
        return sum(1 for _ in self.match(subject, predicate, object))

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    def copy(self) -> "RDFGraph":
        """An independent copy of this graph."""
        return RDFGraph(self._triples)

    def __repr__(self) -> str:
        # counted here, from ids where there are ids: ``vertices`` would
        # build the adjacency maps and leave them to be maintained
        encoded = self._encoded
        if encoded is not None:
            ends = chain(encoded.subjects, encoded.objects)
        else:
            ends = chain.from_iterable(map(_ENDS_OF, self._triples))
        return f"RDFGraph({len(self)} triples, {len(set(ends))} vertices)"


def triple(s: str, p: str, o: str) -> Triple:
    """Shorthand constructor used pervasively by tests and generators.

    Strings are interpreted as IRIs unless they start with ``"`` (literal)
    or ``_:`` (blank node).
    """
    return Triple(_term(s), _term(p), _term(o))


def _term(text: str) -> Term:
    if text.startswith('"'):
        return Literal(text.strip('"'))
    if text.startswith("_:"):
        return BlankNode(text[2:])
    return IRI(text)
