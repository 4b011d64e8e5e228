"""Dictionary encoding: dense term↔id interning and encoded storage.

RDF-3X — the per-worker engine of the paper's prototype — owes its
speed to two decisions this module reproduces for the simulated
cluster:

* **dictionary encoding** — every term (IRI, literal, blank node) is
  interned once, by its string, into a dense integer id, so triples,
  bindings, and join keys are machine integers instead of rich Python
  objects, and a string is turned back into a term only for output;
* **exhaustive sorted indexes** — per predicate, the (subject, object)
  pairs are kept sorted both ways (SPO and OPS order), so any bound
  combination of a triple pattern is answered in O(log n + matches) by
  binary search over flat columns of the dictionary's own id objects.

:class:`TermDictionary` is the interning table (deterministic: ids are
assigned in first-seen order, so the same dataset always produces the
same ids), keyed by each term's N-Triples text and building a term
object only when its id is decoded, with a JSON save/load round trip.
:class:`EncodedGraph` is the columnar triple store: three parallel
``array('q')`` columns plus the per-predicate indexes, built from any
:class:`~repro.rdf.triples.RDFGraph` against a shared dictionary.  A
dataset is encoded once and its table never changes; partitioners mark,
per triple *position*, the nodes that store it, and every worker
fragment of a cluster is a view of the dataset's table through those
marks (:meth:`~EncodedGraph.cut`), cut one predicate at a time as scans
read it — which is how all fragments speak the same id space without a
second encoding pass, and why a cluster holds no second copy of its
data.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, compress, repeat
from operator import and_, countOf, is_, itemgetter, ne, or_
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from .terms import BlankNode, IRI, Literal, Term, term_of_text
from .triples import _TERMS_OF, RDFGraph, Triple

#: an encoded triple: (subject id, predicate id, object id)
IdTriple = Tuple[int, int, int]


class _InterningDict(Dict[str, int]):
    """text → id, where subscripting an unseen text gives it the next id.

    ``get`` and ``in`` only look.  Texts are mapped over with no loop in
    Python, and a new one leaves its term unbuilt (``None``) until
    something decodes its id.
    """

    __slots__ = ("texts", "ids", "terms", "pending")

    def __init__(self, texts: Iterable[str] = ()) -> None:
        #: the interned texts in id order
        self.texts: List[str] = list(texts)
        #: the ids handed out, in id order: the very int objects the map holds
        self.ids: List[int] = list(range(len(self.texts)))
        super().__init__(zip(self.texts, self.ids))
        #: by id, its term once built (``None`` until then)
        self.terms: List[Optional[Term]] = [None] * len(self.ids)
        #: how many of ``terms`` are ``None``
        self.pending = len(self.ids)

    def __missing__(self, text: str) -> int:
        ident = self[text] = len(self.ids)
        self.texts.append(text)
        self.ids.append(ident)
        self.terms.append(None)
        self.pending += 1
        return ident


class TermDictionary:
    """Dense, deterministic term↔id interning table.

    Ids are assigned contiguously from 0 in first-seen order, so
    encoding the same term sequence always yields the same ids — the
    property the cross-worker shared id space and the plan-cache-style
    persistence both rely on.

    A term is interned by its N-Triples text, ``str(term)``, which is
    one-to-one over IRIs, literals and blank nodes.  Its ``Term`` object
    is the one :meth:`encode` was given or, for a text interned as such
    (:meth:`encode_texts`, what the N-Triples reader does), built the
    first time something decodes its id; either way it is kept, so every
    decode of an id returns the same object.
    """

    __slots__ = ("_ids",)

    def __init__(self) -> None:
        self._ids = _InterningDict()

    def __getstate__(self) -> List[str]:
        return self._ids.texts

    def __setstate__(self, texts: List[str]) -> None:
        """Unpickle and copy: the ids are the texts' places, and each term
        is built again when first decoded."""
        self._ids = _InterningDict(texts)

    @property
    def ids(self) -> List[int]:
        """Every id in id order, as the objects :meth:`encode` hands out:
        ``ids[i]`` *is* the int the dictionary holds for id *i* (read-only
        by convention).  Index columns are read through it, so that no
        read of one makes a new int."""
        return self._ids.ids

    @property
    def texts(self) -> List[str]:
        """Every term's N-Triples text in id order (read-only by
        convention): what ranks and hashes a vertex, with no term built."""
        return self._ids.texts

    def __len__(self) -> int:
        return len(self._ids.ids)

    def __contains__(self, term: Term) -> bool:
        return str(term) in self._ids

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TermDictionary):
            return NotImplemented
        return self._ids.texts == other._ids.texts

    def encode(self, term: Term) -> int:
        """The id of *term*, interning it if unseen."""
        return self._encode_all((term,))[0]

    def _encode_all(self, terms: Iterable[Term]) -> List[int]:
        """:meth:`encode` each of *terms*, in order: one text per term,
        and a Python step only where an id gets its (first) term."""
        terms = list(terms)
        interning = self._ids
        idents = list(map(interning.__getitem__, map(str, terms)))
        if interning.pending:
            built = interning.terms
            unbuilt = map(is_, map(built.__getitem__, idents), repeat(None))
            # compress reads `unbuilt` one item at a time, so a repeat of
            # an id filled here reads as built: each id keeps its first term
            for ident, term in compress(zip(idents, terms), unbuilt):
                built[ident] = term
                interning.pending -= 1
        return idents

    def encode_texts(self, texts: Iterable[str]) -> List[int]:
        """The id of each of *texts* — N-Triples texts of terms, exactly
        as ``str(term)`` writes them — interning unseen ones; no term is
        built."""
        return list(map(self._ids.__getitem__, texts))

    def lookup(self, term: Term) -> Optional[int]:
        """The id of *term*, or ``None`` if it was never interned.

        Scans use this for pattern constants: an unknown constant can
        match nothing, so the scan short-circuits to an empty relation
        instead of polluting the dictionary.
        """
        return self._ids.get(str(term))

    def decode(self, ident: int) -> Term:
        """The term with id *ident* (raises ``IndexError`` if unknown)."""
        if ident < 0:
            raise IndexError(f"term ids are non-negative, got {ident}")
        term = self._ids.terms[ident]
        return term if term is not None else self.decode_all((ident,))[0]

    def decode_all(self, idents: Iterable[int]) -> List[Term]:
        """:meth:`decode` each of *idents* (all known): one C-level ``map``
        and, while some term of the dictionary is unbuilt, one identity
        scan of what it read (``None in`` would call each term's
        ``__eq__``); an unbuilt term is built from its text and kept."""
        interning = self._ids
        terms = interning.terms
        if interning.pending and iter(idents) is idents:
            idents = list(idents)  # read again if a term must be built
        decoded = list(map(terms.__getitem__, idents))
        if interning.pending and any(map(is_, decoded, repeat(None))):
            missing = set(compress(idents, map(is_, decoded, repeat(None))))
            texts = interning.texts
            for ident in missing:
                terms[ident] = term_of_text(texts[ident])
            interning.pending -= len(missing)
            decoded = list(map(terms.__getitem__, idents))
        return decoded

    def terms(self) -> Iterator[Term]:
        """All interned terms in id order."""
        return iter(self.decode_all(range(len(self))))

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_payload(self) -> dict:
        """A JSON-serializable snapshot (terms in id order)."""
        encoded: List[List[str]] = []
        for term in self.terms():
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
        """Rebuild a dictionary from :meth:`to_payload` output.

        Raises ``ValueError`` for anything else: another format or
        version, an unknown term kind, or a term listed twice (every id
        after it would shift by one).
        """
        if payload.get("format") != "repro-term-dictionary":
            raise ValueError("not a term-dictionary payload")
        if payload.get("version") != 1:
            raise ValueError(f"unsupported term-dictionary version {payload.get('version')!r}")
        dictionary = cls()
        for position, entry in enumerate(payload["terms"]):
            kind = entry[0]
            if kind == "i":
                term: Term = IRI(entry[1])
            elif kind == "l":
                term = Literal(entry[1], datatype=entry[2], language=entry[3])
            elif kind == "b":
                term = BlankNode(entry[1])
            else:
                raise ValueError(f"unknown term kind {kind!r}")
            if dictionary.encode(term) != position:
                raise ValueError(f"term-dictionary entry {position} repeats {term}")
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


def _sorted_columns(
    ids: Sequence[int], firsts: Sequence[int], seconds: Sequence[int]
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The distinct (first, second) pairs of two aligned, non-empty
    columns, as two tuples sorted by (first, second).

    Each id is read through *ids* (:attr:`TermDictionary.ids`), so the
    tuples hold the dictionary's own int objects: no later read of them
    makes an int, and a dict or set probe with one hits on identity.
    Positions are ordered by two stable sorts on int keys (second, then
    first), both columns gathered once in that order, and a pair equal
    to the one before it dropped.
    """
    first, second = list(map(ids.__getitem__, firsts)), list(map(ids.__getitem__, seconds))
    order = sorted(range(len(first)), key=second.__getitem__)
    order.sort(key=first.__getitem__)
    if len(order) > 1:
        first, second = itemgetter(*order)(first), itemgetter(*order)(second)
    else:
        first, second = tuple(first), tuple(second)
    # fresh[i]: pair i + 1 differs from pair i
    fresh = list(map(or_, map(ne, first[1:], first), map(ne, second[1:], second)))
    if not all(fresh):
        kept = [True, *fresh]
        first, second = tuple(compress(first, kept)), tuple(compress(second, kept))
    return first, second


class PredicateIndex:
    """Both sorted orders of one predicate's (subject, object) pairs.

    ``spo_*`` is sorted by (subject, object); ``ops_*`` by (object,
    subject).  Each order is two aligned tuples of the dictionary's own
    id objects (read through the *ids* it is made with, see
    :func:`_sorted_columns`), so a bound subject (or object) is a pair
    of bisections and the matches are a contiguous slice — the
    O(log n + matches) access path RDF-3X gets from its clustered
    B+-trees.

    An order is sorted the first time one of its columns is read (a scan
    reads one: most indexes of a cold run never sort the other) and is
    two plain slots from then on.
    """

    __slots__ = (
        "spo_subjects", "spo_objects", "ops_objects", "ops_subjects", "_ids", "_pairs",
        "_distinct",
    )

    def __init__(
        self, ids: Sequence[int], subjects: Sequence[int], objects: Sequence[int]
    ) -> None:
        #: the id objects an order's columns are read through
        self._ids = ids
        #: the (subjects, objects) columns an order is sorted from: the ones
        #: given (any order, repeats allowed) until one is, then that one's own
        self._pairs: Tuple[Sequence[int], Sequence[int]] = (subjects, objects)
        #: id of an order column -> how many ids it holds (see distinct)
        self._distinct: Dict[int, int] = {}

    def __getattr__(self, name: str) -> Tuple[int, ...]:
        """Sort the order that column *name* belongs to (Python looks
        here only while the slot is empty) and return the column."""
        if name in ("spo_subjects", "spo_objects"):
            self._pairs = self.spo_subjects, self.spo_objects = _sorted_columns(
                self._ids, *self._pairs
            )
        elif name in ("ops_objects", "ops_subjects"):
            self.ops_objects, self.ops_subjects = _sorted_columns(
                self._ids, *reversed(self._pairs)
            )
            self._pairs = self.ops_subjects, self.ops_objects
        else:
            raise AttributeError(name)
        return getattr(self, name)

    def __len__(self) -> int:
        return len(self.spo_subjects)  # a sorted order: the given columns may repeat a pair

    def distinct(self, column: Sequence[int]) -> int:
        """How many ids *column* holds — one of the four order columns —
        counted once per index."""
        counts = self._distinct
        if id(column) not in counts:
            counts[id(column)] = len(set(column))
        return counts[id(column)]

    def objects_for(self, subject: int) -> Tuple[int, ...]:
        """All object ids paired with *subject* (a contiguous slice)."""
        lo = bisect_left(self.spo_subjects, subject)
        hi = bisect_right(self.spo_subjects, subject, lo=lo)
        return self.spo_objects[lo:hi]

    def subjects_for(self, object_: int) -> Tuple[int, ...]:
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
    ascending position of the dataset's table), never changed once
    made.  Everything else is derived from them on first use: the
    per-predicate :class:`PredicateIndex` (one predicate at a time — a
    query touches a handful), the vertex adjacency the partitioners
    walk, and the decoded term-level view.  All fragments of one
    cluster share a single :class:`TermDictionary`, so ids are
    join-compatible across workers and shuffles can move bare integers.
    """

    __slots__ = (
        "dictionary", "_subjects", "_predicates", "_objects",
        "_indexes", "_runs", "_positions", "_adjacency", "_decoded",
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
        #: the grouping pass's buckets, kept (from ``{}``) only once this
        #: table has handed out fragments (:meth:`_keep_buckets`)
        self._positions: Optional[Dict[int, array]] = None
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
    # fragments: cut from and decoded back out of columns
    # ------------------------------------------------------------------
    def gather(self, positions: Sequence[int]) -> "EncodedGraph":
        """The triples at *positions*, in that order, as a new fragment."""
        columns = (self._subjects, self._predicates, self._objects)
        return EncodedGraph(self.dictionary, tuple(_picked(c, positions) for c in columns))

    def cut(self, masks: Sequence[int], bits: int) -> "EncodedGraph":
        """The fragment of this table that the nodes in *bits* store: the
        triples whose mask in *masks* (one int per position, as a
        partitioning layout gives them) meets *bits*, in ascending
        position — what ``gather`` of those positions holds.

        Nothing is copied here.  The fragment is a view that cuts a
        predicate's run from this table's grouping pass the first time a
        scan reads it, gathers its base columns only when something reads
        them (and then keeps them), counts its length off *masks*, and
        pickles or copies as a plain fragment.  *masks* must not change
        under it: a new placement is a new masks list and new views.  From
        here on this table's grouping pass keeps its buckets of positions,
        for the fragments to cut by.
        """
        self._keep_buckets()
        return _NodeCut(self, masks, bits)

    def _keep_buckets(self) -> None:
        """Have the grouping pass keep its per-predicate buckets of
        positions (a pass made without them is dropped, to be made again)."""
        if self._positions is None:
            self._positions, self._runs = {}, None

    def decoded(self) -> RDFGraph:
        """The term-level view of this fragment (one object, kept).

        For tests and for callers that want terms back; the engines and
        the partitioners never ask for it.  It is a *view* (see
        :class:`RDFGraph`): it builds its triples when first read term
        by term, and writing to it detaches it: a placement changes the
        partitioning's masks, never the view.
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
        table order.  What statistics count and indexes are sorted from.
        Each position goes to its predicate's bucket, and each bucket is
        gathered from both columns.  A table that has handed out
        fragments keeps the buckets, as ``array('q')``, for them to cut
        runs by (:meth:`cut`) and for placements to find positions by
        (:meth:`predicate_positions`)."""
        if self._runs is None:
            buckets: Dict[int, List[int]] = defaultdict(list)
            for position, predicate in enumerate(self._predicates):
                buckets[predicate].append(position)
            self._runs = {
                predicate: (
                    _picked(self._subjects, buckets[predicate]),
                    _picked(self._objects, buckets[predicate]),
                )
                for predicate in sorted(buckets)
            }
            if self._positions is not None:
                self._positions = {p: array("q", buckets[p]) for p in self._runs}
        return self._runs

    def predicate_ids(self) -> List[int]:
        """All predicate ids with at least one triple, ascending."""
        return list(self.predicate_runs())

    def predicate_positions(self) -> Dict[int, array]:
        """By predicate id, the positions of its triples in this table,
        ascending: aligned with its run in :meth:`predicate_runs`, read
        after this call.  From here on the grouping pass keeps these
        buckets, as for :meth:`cut`."""
        self._keep_buckets()
        self.predicate_runs()
        return self._positions  # type: ignore[return-value]

    def index_for(self, predicate: int) -> Optional[PredicateIndex]:
        """The index of *predicate* (``None`` if it has no triples): made
        when first asked for and sorted order by order as its columns are
        read, so a fragment only ever sorts what its queries touch."""
        index = self._indexes.get(predicate)
        if index is None and predicate in self.predicate_runs():
            index = self._indexes[predicate] = PredicateIndex(
                self.dictionary.ids, *self._runs[predicate]
            )
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
        for predicate_id in map(self.dictionary.ids.__getitem__, self.predicate_ids()):
            yield from self.scan(subject, predicate_id, object_)

    def __repr__(self) -> str:
        return (
            f"EncodedGraph({len(self)} triples, "
            f"{len(self.dictionary)} dictionary terms)"
        )


class _NodeCut(EncodedGraph):
    """The fragment a set of nodes stores, as :meth:`EncodedGraph.cut`
    makes it: the table, the layout's per-triple node masks and the
    nodes' bits, and nothing copied until it is read.

    * :meth:`index_for` cuts the predicate's run from the table's: the
      triples of it whose mask, read through the table's bucket of
      positions, meets the bits;
    * :meth:`predicate_runs` (and so :meth:`predicate_ids`) cuts every
      predicate the same way, once;
    * ``len`` counts the masks that meet the bits, once;
    * the base columns are gathered when first read (``subjects``,
      ``triples``, ``adjacency``, ``decoded``, ``gather``) and kept.

    It holds exactly ``table.gather`` of its positions, in that order, and
    pickles and copies as that.
    """

    __slots__ = ("_table", "_masks", "_bits", "_length", "_absent")

    def __init__(self, table: EncodedGraph, masks: Sequence[int], bits: int) -> None:
        self.dictionary = table.dictionary
        self._drop_derived()
        self._table, self._masks, self._bits = table, masks, bits
        self._length: Optional[int] = None  # counted when first asked
        #: predicates cut and found to have no triple here (``_indexes``
        #: holds only indexes)
        self._absent: Set[int] = set()

    def __getattr__(self, name: str) -> array:
        """Gather the base columns (Python looks here only while their
        slots are empty) and return column *name*."""
        if name not in ("_subjects", "_predicates", "_objects"):
            raise AttributeError(name)
        masks = self._masks
        positions = list(compress(range(len(masks)), map(and_, masks, repeat(self._bits))))
        gathered = self._table.gather(positions)
        self._subjects, self._predicates, self._objects = (
            gathered._subjects, gathered._predicates, gathered._objects
        )
        return getattr(self, name)

    def __reduce__(self):
        """Pickle and copy as a plain fragment of its own columns."""
        return EncodedGraph, (self.dictionary, (self.subjects, self.predicates, self.objects))

    def __len__(self) -> int:
        if self._length is None:  # the masks less those that miss every bit
            masks = self._masks
            self._length = len(masks) - countOf(map(and_, masks, repeat(self._bits)), 0)
        return self._length

    def _cut(self, predicate: int) -> Optional[Tuple[array, array]]:
        """The run of *predicate* here (``None`` if it has no triple): the
        table's run of it, less the triples whose mask misses these nodes'
        bits — read through the positions of the table's bucket."""
        table = self._table
        run = table.predicate_runs().get(predicate)
        if run is None:
            return None
        bucket = table._positions[predicate]  # type: ignore[index]
        held = list(map(and_, map(self._masks.__getitem__, bucket), repeat(self._bits)))
        if not any(held):
            return None
        return array("q", compress(run[0], held)), array("q", compress(run[1], held))

    def predicate_runs(self) -> Dict[int, Tuple[array, array]]:
        if self._runs is None:
            self._runs = {
                predicate: run
                for predicate in self._table.predicate_runs()
                if (run := self._cut(predicate)) is not None
            }
        return self._runs

    def index_for(self, predicate: int) -> Optional[PredicateIndex]:
        if self._runs is not None:
            return super().index_for(predicate)
        index = self._indexes.get(predicate)
        if index is None and predicate not in self._absent:
            run = self._cut(predicate)
            if run is None:
                self._absent.add(predicate)
            else:
                index = self._indexes[predicate] = PredicateIndex(self.dictionary.ids, *run)
        return index
