"""Dictionary encoding: dense term↔id interning and encoded storage.

RDF-3X — the per-worker engine of the paper's prototype — owes its
speed to two decisions this module reproduces for the simulated
cluster:

* **dictionary encoding** — every term (IRI, literal, blank node) is
  interned once into a dense integer id, so triples, bindings, and join
  keys are machine integers instead of rich Python objects;
* **exhaustive sorted indexes** — per predicate, the (subject, object)
  pairs are kept sorted both ways (SPO and OPS order), so any bound
  combination of a triple pattern is answered in O(log n + matches) by
  binary search over flat ``array('q')`` columns.

:class:`TermDictionary` is the interning table (deterministic: ids are
assigned in first-seen order, so the same dataset always produces the
same ids) with a JSON save/load round trip.  :class:`EncodedGraph` is
the columnar triple store: three parallel ``array('q')`` columns plus
the per-predicate indexes, built from any :class:`~repro.rdf.triples.RDFGraph`
against a shared dictionary.  A dataset is encoded once; partitioners
place its triple *positions* and every worker fragment of a cluster is
a :meth:`~EncodedGraph.gather` of the dataset's columns — which is how
all fragments speak the same id space without a second encoding pass.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .terms import BlankNode, IRI, Literal, Term
from .triples import _TERMS_OF, RDFGraph, Triple

#: an encoded triple: (subject id, predicate id, object id)
IdTriple = Tuple[int, int, int]


class _InterningDict(Dict[Term, int]):
    """term → id, where subscripting an unseen term gives it the next id.

    ``get`` and ``in`` only look.  A term is hashed (a Python-level
    call) once per subscription and once more when it is stored, and
    subscriptions can be mapped over a term list with no loop in Python.
    """

    __slots__ = ("terms",)

    def __init__(self) -> None:
        super().__init__()
        #: the interned terms in id order
        self.terms: List[Term] = []

    def __missing__(self, term: Term) -> int:
        ident = self[term] = len(self.terms)
        self.terms.append(term)
        return ident


class TermDictionary:
    """Dense, deterministic term↔id interning table.

    Ids are assigned contiguously from 0 in first-seen order, so
    encoding the same term sequence always yields the same ids — the
    property the cross-worker shared id space and the plan-cache-style
    persistence both rely on.
    """

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._ids = _InterningDict()
        self._terms: List[Term] = self._ids.terms

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermDictionary):
            return NotImplemented
        return self._terms == other._terms

    def encode(self, term: Term) -> int:
        """The id of *term*, interning it if unseen."""
        return self._ids[term]

    def _encode_all(self, terms: Iterable[Term]) -> List[int]:
        """:meth:`encode` each of *terms*, in order, with no per-term call."""
        return list(map(self._ids.__getitem__, terms))

    def lookup(self, term: Term) -> Optional[int]:
        """The id of *term*, or ``None`` if it was never interned.

        Scans use this for pattern constants: an unknown constant can
        match nothing, so the scan short-circuits to an empty relation
        instead of polluting the dictionary.
        """
        return self._ids.get(term)

    def decode(self, ident: int) -> Term:
        """The term with id *ident* (raises ``IndexError`` if unknown)."""
        if ident < 0:
            raise IndexError(f"term ids are non-negative, got {ident}")
        return self._terms[ident]

    def decode_all(self, idents: Iterable[int]) -> List[Term]:
        """:meth:`decode` each of *idents* (all known), with no per-id call."""
        return list(map(self._terms.__getitem__, idents))

    def terms(self) -> Iterator[Term]:
        """All interned terms in id order."""
        return iter(self._terms)

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """A JSON-serializable snapshot (terms in id order)."""
        encoded: List[List[str]] = []
        for term in self._terms:
            if isinstance(term, IRI):
                encoded.append(["i", term.value])
            elif isinstance(term, Literal):
                encoded.append(["l", term.lexical, term.datatype, term.language])
            elif isinstance(term, BlankNode):
                encoded.append(["b", term.label])
            else:  # pragma: no cover - Term union is closed
                raise TypeError(f"cannot serialize term {term!r}")
        return {"format": "repro-term-dictionary", "version": 1, "terms": encoded}

    @classmethod
    def from_payload(cls, payload: dict) -> "TermDictionary":
        """Rebuild a dictionary from :meth:`to_payload` output."""
        if payload.get("format") != "repro-term-dictionary":
            raise ValueError("not a term-dictionary payload")
        dictionary = cls()
        for entry in payload["terms"]:
            kind = entry[0]
            if kind == "i":
                term: Term = IRI(entry[1])
            elif kind == "l":
                term = Literal(entry[1], datatype=entry[2], language=entry[3])
            elif kind == "b":
                term = BlankNode(entry[1])
            else:
                raise ValueError(f"unknown term kind {kind!r}")
            dictionary.encode(term)
        return dictionary

    def save(self, path: Union[str, Path]) -> None:
        """Write the dictionary as JSON to *path*."""
        Path(path).write_text(
            json.dumps(self.to_payload(), ensure_ascii=False), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "TermDictionary":
        """Read a dictionary previously written by :meth:`save`."""
        return cls.from_payload(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )

    def __repr__(self) -> str:
        return f"TermDictionary({len(self)} terms)"


def _sorted_columns(firsts: Iterable[int], seconds: Iterable[int]) -> Tuple[array, array]:
    """The distinct (first, second) pairs of two aligned, non-empty
    columns, as two arrays sorted by (first, second)."""
    first_column, second_column = zip(*sorted(set(zip(firsts, seconds))))
    return array("q", first_column), array("q", second_column)


class PredicateIndex:
    """Both sorted orders of one predicate's (subject, object) pairs.

    ``spo_*`` is sorted by (subject, object); ``ops_*`` by (object,
    subject).  Each order is two aligned ``array('q')`` columns, so a
    bound subject (or object) is a pair of bisections and the matches
    are a contiguous slice — the O(log n + matches) access path RDF-3X
    gets from its clustered B+-trees.

    An order is sorted the first time one of its columns is read (a scan
    reads one: most indexes of a cold run never sort the other) and is
    two plain slots from then on.
    """

    __slots__ = ("spo_subjects", "spo_objects", "ops_objects", "ops_subjects", "_pairs")

    def __init__(self, subjects: Sequence[int], objects: Sequence[int]) -> None:
        #: the (subjects, objects) columns an order is sorted from: the ones
        #: given (any order, repeats allowed) until one is, then that one's own
        self._pairs: Tuple[Sequence[int], Sequence[int]] = (subjects, objects)

    def __getattr__(self, name: str) -> array:
        """Sort the order that column *name* belongs to (Python looks
        here only while the slot is empty) and return the column."""
        if name in ("spo_subjects", "spo_objects"):
            self._pairs = self.spo_subjects, self.spo_objects = _sorted_columns(*self._pairs)
        elif name in ("ops_objects", "ops_subjects"):
            self.ops_objects, self.ops_subjects = _sorted_columns(*reversed(self._pairs))
            self._pairs = self.ops_subjects, self.ops_objects
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.spo_subjects)  # a sorted order: the given columns may repeat a pair

    def objects_for(self, subject: int) -> array:
        """All object ids paired with *subject* (a contiguous slice)."""
        lo = bisect_left(self.spo_subjects, subject)
        hi = bisect_right(self.spo_subjects, subject, lo=lo)
        return self.spo_objects[lo:hi]

    def subjects_for(self, object_: int) -> array:
        """All subject ids paired with *object_* (a contiguous slice)."""
        lo = bisect_left(self.ops_objects, object_)
        hi = bisect_right(self.ops_objects, object_, lo=lo)
        return self.ops_subjects[lo:hi]

    def contains(self, subject: int, object_: int) -> bool:
        """Whether the (subject, object) pair is stored."""
        lo = bisect_left(self.spo_subjects, subject)
        hi = bisect_right(self.spo_subjects, subject, lo=lo)
        if lo == hi:
            return False
        pos = bisect_left(self.spo_objects, object_, lo=lo, hi=hi)
        return pos < hi and self.spo_objects[pos] == object_


def _picked(column: array, positions: Sequence[int]) -> array:
    """``column[i]`` for each i of *positions*, as a new column."""
    if len(positions) > 1:
        return array("q", itemgetter(*positions)(column))  # one C call
    return array("q", [column[i] for i in positions])


class EncodedGraph:
    """A triple fragment as parallel integer columns plus indexes.

    The three ``array('q')`` columns are the base table (insertion
    order, mirroring the source graph; a worker fragment is in
    ascending position of the dataset's table).  Everything else is
    derived from them on first use and dropped by appends: the
    per-predicate :class:`PredicateIndex` (one predicate at a time — a
    query touches a handful), the vertex adjacency the partitioners
    walk, and the decoded term-level view.  All fragments of one
    cluster share a single :class:`TermDictionary`, so ids are
    join-compatible across workers and shuffles can move bare integers.
    """

    __slots__ = (
        "dictionary", "_subjects", "_predicates", "_objects",
        "_indexes", "_runs", "_adjacency", "_decoded",
    )

    def __init__(
        self,
        dictionary: TermDictionary,
        columns: Optional[Tuple[array, array, array]] = None,
    ) -> None:
        self.dictionary = dictionary
        self._subjects, self._predicates, self._objects = columns or (
            array("q"), array("q"), array("q")
        )
        self._drop_derived()

    def _drop_derived(self) -> None:
        self._indexes: Dict[int, PredicateIndex] = {}
        self._runs: Optional[Dict[int, Tuple[array, array]]] = None
        self._adjacency: Optional[Tuple[Dict[int, List[int]], Dict[int, List[int]]]] = None
        self._decoded: Optional[RDFGraph] = None

    @classmethod
    def from_graph(
        cls, graph: Iterable[Triple], dictionary: TermDictionary
    ) -> "EncodedGraph":
        """Encode *graph* against *dictionary* (interning as needed).

        One flat s, p, o, s, p, o, ... term sequence, looked up with no
        Python-level loop; ids are assigned in that (first-seen) order.
        Any iterable of triples will do, in its iteration order.
        """
        ids = dictionary._encode_all(chain.from_iterable(map(_TERMS_OF, graph)))
        return cls(
            dictionary,
            (array("q", ids[0::3]), array("q", ids[1::3]), array("q", ids[2::3])),
        )

    def add_ids(self, subject: int, predicate: int, object_: int) -> None:
        """Append one already-encoded triple (drops everything derived)."""
        self._subjects.append(subject)
        self._predicates.append(predicate)
        self._objects.append(object_)
        self._drop_derived()

    def __len__(self) -> int:
        return len(self._subjects)

    @property
    def subjects(self) -> array:
        """The subject id column (read-only by convention)."""
        return self._subjects

    @property
    def predicates(self) -> array:
        """The predicate id column (read-only by convention)."""
        return self._predicates

    @property
    def objects(self) -> array:
        """The object id column (read-only by convention)."""
        return self._objects

    def triples(self) -> Iterator[IdTriple]:
        """All stored id triples in insertion order."""
        return zip(self._subjects, self._predicates, self._objects)

    # ------------------------------------------------------------------
    # fragments: cut from, merged into and decoded back out of columns
    # ------------------------------------------------------------------
    def gather(self, positions: Sequence[int]) -> "EncodedGraph":
        """The triples at *positions*, in that order, as a new fragment."""
        columns = (self._subjects, self._predicates, self._objects)
        return EncodedGraph(self.dictionary, tuple(_picked(c, positions) for c in columns))

    def merged(self, triples: "EncodedGraph") -> "EncodedGraph":
        """This fragment followed by those of *triples* it does not hold.

        *triples* is another fragment over the same dictionary.
        Nothing is mutated: the result is a new fragment, or this one
        when nothing is new — ``len(result) - len(self)`` is the number
        of triples added.
        """
        held = set(self.triples())
        new = [t for t in dict.fromkeys(triples.triples()) if t not in held]
        if not new:
            return self
        subjects, predicates, objects = zip(*new)
        return EncodedGraph(
            self.dictionary,
            (
                self._subjects + array("q", subjects),
                self._predicates + array("q", predicates),
                self._objects + array("q", objects),
            ),
        )

    def decoded(self) -> RDFGraph:
        """The term-level view of this fragment (one object, kept).

        For tests and for callers that want terms back; the engines and
        the partitioners never ask for it.  It is a *view* (see
        :class:`RDFGraph`): it builds its triples when first read term
        by term, and writing to it detaches it — change the fragment
        through its owner (:meth:`merged`), not through the view.
        """
        view = self._decoded
        if view is None or view._encoded is None:  # none yet, or detached
            # over a twin of this fragment on the same columns: a view
            # pointing back at what caches it would be a reference cycle,
            # and a dropped fragment would wait for the collector
            columns = (self._subjects, self._predicates, self._objects)
            view = self._decoded = RDFGraph._view_of(EncodedGraph(self.dictionary, columns))
        return view

    def adjacency(self) -> Tuple[Dict[int, List[int]], Dict[int, List[int]]]:
        """Triple positions by subject id and by object id, ascending.

        The id-level counterpart of :class:`RDFGraph`'s adjacency, which
        the partitioners' ``combine`` walks; built in one pass on first
        use.  A vertex with no outgoing (incoming) triple has no key.
        """
        if self._adjacency is None:
            outgoing: Dict[int, List[int]] = defaultdict(list)
            incoming: Dict[int, List[int]] = defaultdict(list)
            for position, (subject, object_) in enumerate(
                zip(self._subjects, self._objects)
            ):
                outgoing[subject].append(position)
                incoming[object_].append(position)
            # plain dicts: a read of an absent vertex must not add a key
            self._adjacency = (dict(outgoing), dict(incoming))
        return self._adjacency

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def predicate_runs(self) -> Dict[int, Tuple[array, array]]:
        """The one grouping pass: by predicate id (ascending), the subject
        ids and the object ids of its triples — two aligned columns in
        table order.  What statistics count and indexes are sorted from."""
        if self._runs is None:
            predicate_at = self._predicates.__getitem__
            order = sorted(range(len(self)), key=predicate_at)
            subjects, objects = _picked(self._subjects, order), _picked(self._objects, order)
            self._runs = {}
            start = 0
            while start < len(order):
                predicate = predicate_at(order[start])
                end = bisect_right(order, predicate, start, key=predicate_at)
                self._runs[predicate] = (subjects[start:end], objects[start:end])
                start = end
        return self._runs

    def predicate_ids(self) -> List[int]:
        """All predicate ids with at least one triple, ascending."""
        return list(self.predicate_runs())

    def index_for(self, predicate: int) -> Optional[PredicateIndex]:
        """The index of *predicate* (``None`` if it has no triples): made
        when first asked for and sorted order by order as its columns are
        read, so a fragment only ever sorts what its queries touch."""
        index = self._indexes.get(predicate)
        if index is None and predicate in self.predicate_runs():
            index = self._indexes[predicate] = PredicateIndex(*self._runs[predicate])
        return index

    # ------------------------------------------------------------------
    # scanning
    # ------------------------------------------------------------------
    def scan(
        self,
        subject: Optional[int] = None,
        predicate: Optional[int] = None,
        object_: Optional[int] = None,
    ) -> Iterator[IdTriple]:
        """Yield id triples matching the bound positions (``None`` = any).

        Bound-predicate scans go through the sorted indexes; a fully
        unbound predicate iterates predicates in ascending id order
        (deterministic).  Callers on the hot path use
        :meth:`index_for` directly to zip whole columns without
        per-triple tuple allocation; this generic form backs
        variable-predicate patterns and tests.
        """
        if predicate is not None:
            index = self.index_for(predicate)
            if index is None:
                return
            if subject is None and object_ is None:
                for s, o in zip(index.spo_subjects, index.spo_objects):
                    yield (s, predicate, o)
            elif subject is not None and object_ is None:
                for o in index.objects_for(subject):
                    yield (subject, predicate, o)
            elif subject is None and object_ is not None:
                for s in index.subjects_for(object_):
                    yield (s, predicate, object_)
            elif index.contains(subject, object_):  # type: ignore[arg-type]
                yield (subject, predicate, object_)  # type: ignore[misc]
            return
        for predicate_id in self.predicate_ids():
            yield from self.scan(subject, predicate_id, object_)

    def __repr__(self) -> str:
        return (
            f"EncodedGraph({len(self)} triples, "
            f"{len(self.dictionary)} dictionary terms)"
        )
