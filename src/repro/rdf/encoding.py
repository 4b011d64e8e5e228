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
against a shared dictionary — which is how every worker fragment of a
cluster speaks the same id space.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from .terms import BlankNode, IRI, Literal, Term
from .triples import _TERMS_OF, RDFGraph

#: an encoded triple: (subject id, predicate id, object id)
IdTriple = Tuple[int, int, int]


class TermDictionary:
    """Dense, deterministic term↔id interning table.

    Ids are assigned contiguously from 0 in first-seen order, so
    encoding the same term sequence always yields the same ids — the
    property the cross-worker shared id space and the plan-cache-style
    persistence both rely on.
    """

    __slots__ = ("_ids", "_terms")

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._terms: List[Term] = []

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
        ident = self._ids.get(term)
        if ident is None:
            ident = len(self._terms)
            self._ids[term] = ident
            self._terms.append(term)
        return ident

    def _encode_all(self, terms: List[Term]) -> List[int]:
        """:meth:`encode` each of *terms*, in order, with no per-term call."""
        id_of = self._ids.__getitem__
        try:
            return list(map(id_of, terms))
        except KeyError:  # some are new: intern them in first-seen order
            for term in dict.fromkeys(terms):
                if term not in self._ids:
                    self._ids[term] = len(self._terms)
                    self._terms.append(term)
            return list(map(id_of, terms))

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


class PredicateIndex:
    """Both sorted orders of one predicate's (subject, object) pairs.

    ``spo_*`` is sorted by (subject, object); ``ops_*`` by (object,
    subject).  Each order is two aligned ``array('q')`` columns, so a
    bound subject (or object) is a pair of bisections and the matches
    are a contiguous slice — the O(log n + matches) access path RDF-3X
    gets from its clustered B+-trees.
    """

    __slots__ = ("spo_subjects", "spo_objects", "ops_objects", "ops_subjects")

    def __init__(self, pairs: List[Tuple[int, int]]) -> None:
        by_so = sorted(set(pairs))
        self.spo_subjects = array("q", [s for s, _ in by_so])
        self.spo_objects = array("q", [o for _, o in by_so])
        by_os = sorted((o, s) for s, o in by_so)
        self.ops_objects = array("q", [o for o, _ in by_os])
        self.ops_subjects = array("q", [s for _, s in by_os])

    def __len__(self) -> int:
        return len(self.spo_subjects)

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


class EncodedGraph:
    """A triple fragment as parallel integer columns plus indexes.

    The three ``array('q')`` columns are the base table (insertion
    order, mirroring the source graph); the per-predicate
    :class:`PredicateIndex` map is built lazily on first scan and
    invalidated by appends.  All fragments of one cluster share a
    single :class:`TermDictionary`, so ids are join-compatible across
    workers and shuffles can move bare integers.
    """

    __slots__ = ("dictionary", "_subjects", "_predicates", "_objects", "_indexes")

    def __init__(self, dictionary: TermDictionary) -> None:
        self.dictionary = dictionary
        self._subjects = array("q")
        self._predicates = array("q")
        self._objects = array("q")
        self._indexes: Optional[Dict[int, PredicateIndex]] = None

    @classmethod
    def from_graph(cls, graph: RDFGraph, dictionary: TermDictionary) -> "EncodedGraph":
        """Encode *graph* against *dictionary* (interning as needed).

        One flat s, p, o, s, p, o, ... term sequence, looked up with no
        Python-level loop; ids are assigned in that (first-seen) order.
        """
        encoded = cls(dictionary)
        ids = dictionary._encode_all(list(chain.from_iterable(map(_TERMS_OF, graph))))
        encoded._subjects = array("q", ids[0::3])
        encoded._predicates = array("q", ids[1::3])
        encoded._objects = array("q", ids[2::3])
        return encoded

    def add_ids(self, subject: int, predicate: int, object_: int) -> None:
        """Append one already-encoded triple (invalidates the indexes)."""
        self._subjects.append(subject)
        self._predicates.append(predicate)
        self._objects.append(object_)
        self._indexes = None

    def __len__(self) -> int:
        return len(self._subjects)

    def triples(self) -> Iterator[IdTriple]:
        """All stored id triples in insertion order."""
        return zip(self._subjects, self._predicates, self._objects)

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def _ensure_indexes(self) -> Dict[int, PredicateIndex]:
        if self._indexes is None:
            grouped: Dict[int, List[Tuple[int, int]]] = {}
            for subject, predicate, object_ in self.triples():
                grouped.setdefault(predicate, []).append((subject, object_))
            self._indexes = {
                predicate: PredicateIndex(pairs)
                for predicate, pairs in grouped.items()
            }
        return self._indexes

    def predicate_ids(self) -> List[int]:
        """All predicate ids with at least one triple, ascending."""
        return sorted(self._ensure_indexes())

    def index_for(self, predicate: int) -> Optional[PredicateIndex]:
        """The sorted index of *predicate* (``None`` if it has no triples)."""
        return self._ensure_indexes().get(predicate)

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
