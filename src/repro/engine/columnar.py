"""Columnar execution: relations over dictionary-encoded integer keys.

The row oracle (:mod:`repro.engine.relations`) joins sets of rich
:class:`~repro.rdf.terms.Term` tuples; every hash and equality check
walks dataclass fields and strings.  This module is what the executor
runs on: an :class:`EncodedRelation` holds rows of plain ``int``
tuples keyed into a shared :class:`~repro.rdf.encoding.TermDictionary`,
a scan *is* a contiguous slice of the per-predicate sorted indexes of an
:class:`~repro.rdf.encoding.EncodedGraph` (a view, not a copy: joins
filter by it, probe it or iterate it where it lies), and
joins/projections never touch a term object.  Terms are **materialized
late**: only when the final result is read
(:meth:`EncodedRelation.decode`) are ids mapped back to terms, so the
whole pipeline moves machine integers — exactly why the paper's
prototype can treat per-worker evaluation (RDF-3X) as essentially free
next to optimization time.

Operator semantics are identical to the row oracle's (set semantics,
same schemas, same tuple counts), which is what the columnar-oracle
property tests and ``tests/data/engine_counters_golden.json`` pin down.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections import defaultdict
from itertools import chain, compress
from operator import attrgetter, concat, itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.encoding import EncodedGraph, PredicateIndex, TermDictionary
from ..rdf.terms import Variable
from ..sparql.ast import TriplePattern
from .relations import Relation, greedy_multi_join

#: one encoded binding row: term ids, positionally aligned to the schema
IdRow = Tuple[int, ...]

#: schemas are sorted by variable name
_NAME = attrgetter("name")


def _row_getter(positions: List[int]) -> Callable[[IdRow], IdRow]:
    """A C-speed row builder: ``row -> tuple(row[p] for p in positions)``.

    ``operator.itemgetter`` runs the whole gather in C, but returns a
    bare item (not a 1-tuple) for a single position and cannot express
    the empty gather — both wrapped here so callers always get a row.
    """
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return itemgetter(*positions)


class _IndexView:
    """The rows of one bound-predicate scan, still inside the fragment's index.

    ``columns`` are ``array('q')`` columns aligned with the relation's
    schema: the two sorted columns of a :class:`PredicateIndex` for
    ``?s p ?o`` (with the *index* itself, for its bisection lookups),
    one contiguous slice of matches for ``?s p C`` / ``S p ?o`` (sorted
    ascending, no *index*).  Nothing here is ever written to: the
    fragment drops an index when its data changes, it never edits one,
    so a view keeps the snapshot it was taken from.
    """

    __slots__ = ("columns", "index", "subject_first")

    def __init__(
        self,
        columns: Tuple[array, ...],
        index: Optional[PredicateIndex] = None,
        subject_first: bool = True,
    ) -> None:
        self.columns = columns
        self.index = index
        self.subject_first = subject_first

    def __len__(self) -> int:
        return len(self.columns[0])

    def rows(self) -> Iterator[IdRow]:
        """The rows, zipped straight off the columns (lazy, no copy)."""
        return zip(*self.columns)

    def matches(self, position: int) -> Callable[[int], array]:
        """``key -> the other column's values`` where column *position* is *key*."""
        assert self.index is not None
        if (position == 0) == self.subject_first:
            return self.index.objects_for
        return self.index.subjects_for

    def holds(self) -> Callable[[object], bool]:
        """``key -> whether it is a row`` by bisection (an int, or a pair)."""
        index = self.index
        if index is None:
            column = self.columns[0]
            size = len(column)

            def held(key: int) -> bool:
                at = bisect_left(column, key)
                return at < size and column[at] == key

            return held
        if self.subject_first:
            return lambda pair: index.contains(pair[0], pair[1])
        return lambda pair: index.contains(pair[1], pair[0])


class EncodedRelation:
    """An immutable-schema set of integer binding rows.

    Mirrors :class:`~repro.engine.relations.Relation` field for field
    (variables sorted by name, ``rows`` as a set, positional access),
    plus the :attr:`dictionary` needed to materialize terms at the very
    end of execution.

    A bound-predicate scan returns a relation that is a *view* over the
    fragment's sorted index: it knows its schema and its length, joins
    read it in place, and the ``rows`` set is only built if somebody
    asks for it.  Asking drops the view — whoever holds the set may
    mutate it, and nothing may write through to the index.
    """

    __slots__ = ("variables", "dictionary", "_positions", "_rows", "_view")

    def __init__(
        self,
        variables: Iterable[Variable],
        dictionary: TermDictionary,
        rows: Optional[Set[IdRow]] = None,
    ):
        self.variables: Tuple[Variable, ...] = tuple(sorted(set(variables), key=_NAME))
        self.dictionary = dictionary
        self._positions: Dict[Variable, int] = {
            v: i for i, v in enumerate(self.variables)
        }
        self._rows: Optional[Set[IdRow]] = rows if rows is not None else set()
        self._view: Optional[_IndexView] = None

    @classmethod
    def _over(
        cls,
        variables: Tuple[Variable, ...],
        dictionary: TermDictionary,
        rows: Optional[Set[IdRow]] = None,
        view: Optional[_IndexView] = None,
        positions: Optional[Dict[Variable, int]] = None,
    ) -> "EncodedRelation":
        """Internal constructor: *variables* is already a sorted schema tuple.

        Exactly one of *rows* and *view* is given; *positions* may be
        shared with another relation of the same schema.
        """
        self = cls.__new__(cls)
        self.variables = variables
        self.dictionary = dictionary
        self._positions = (
            positions if positions is not None
            else {v: i for i, v in enumerate(variables)}
        )
        self._rows = rows
        self._view = view
        return self

    @property
    def rows(self) -> Set[IdRow]:
        """The rows as a set (a view is copied out of its index on first use)."""
        rows = self._rows
        if rows is None:
            assert self._view is not None
            rows = self._rows = set(self._view.rows())
            self._view = None
        return rows

    def __len__(self) -> int:
        return len(self._rows if self._rows is not None else self._view)

    def __iter__(self) -> Iterator[IdRow]:
        return iter(self._rows) if self._rows is not None else self._view.rows()

    def position(self, variable: Variable) -> int:
        """Column index of *variable* in the schema."""
        return self._positions[variable]

    def has_variable(self, variable: Variable) -> bool:
        """Whether *variable* is part of the schema."""
        return variable in self._positions

    def project(self, variables: Iterable[Variable]) -> "EncodedRelation":
        """Project onto *variables* (set semantics; identity is free).

        Like :meth:`Relation.project`, projecting onto the full schema
        returns ``self`` without rebuilding rows.
        """
        kept = tuple(
            v for v in sorted(set(variables), key=_NAME) if v in self._positions
        )
        if kept == self.variables:
            return self
        emit = _row_getter([self._positions[v] for v in kept])
        return EncodedRelation._over(kept, self.dictionary, set(map(emit, self)))

    def union_inplace(self, other: "EncodedRelation") -> None:
        """Add *other*'s rows (schemas must match exactly)."""
        if other.variables != self.variables:
            raise ValueError("union requires identical schemas")
        # a set merges faster than an iterator over it; a view is read in place
        self.rows.update(other._rows if other._rows is not None else other)

    def empty_like(self) -> "EncodedRelation":
        """A fresh empty relation with this schema and dictionary."""
        return EncodedRelation._over(
            self.variables, self.dictionary, set(), positions=self._positions
        )

    def decode(self) -> Relation:
        """Materialize terms: the equivalent reference :class:`Relation`.

        This is the *only* place the columnar pipeline touches term
        objects — late materialization pays the decoding cost once, on
        final result rows only, never on intermediates.  Ids come from
        the dictionary's own indexes, so the gather runs column by
        column in C without :meth:`TermDictionary.decode`'s range check.
        """
        if not self.variables:
            return Relation((), set(self.rows))
        term_of = self.dictionary._terms.__getitem__
        columns = [map(term_of, column) for column in zip(*self)]
        return Relation(self.variables, set(zip(*columns)))

    def _keys(self, variables: List[Variable]) -> Iterable[object]:
        """Each row's binding of *variables*, in :meth:`__iter__` order.

        A bare int for one variable (it hashes faster than a 1-tuple), a
        tuple for several; gathered in C, off the index columns when
        this is a view.
        """
        positions = [self._positions[v] for v in variables]
        if self._rows is not None:
            return map(itemgetter(*positions), self._rows)
        columns = [self._view.columns[p] for p in positions]
        return columns[0] if len(columns) == 1 else zip(*columns)

    def _key_set(self) -> Set[object]:
        """The rows as a set of keys in :meth:`_keys` form (whole schema)."""
        if len(self.variables) > 1:
            return self.rows
        if self._rows is None:
            return set(self._view.columns[0])
        return set(chain.from_iterable(self._rows))

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.variables)
        return f"EncodedRelation([{names}], {len(self)} rows)"


def scan_pattern_encoded(
    fragment: EncodedGraph, pattern: TriplePattern
) -> EncodedRelation:
    """Match one triple pattern against an encoded fragment.

    Pattern constants are looked up (never interned) in the fragment's
    dictionary; an unknown constant matches nothing and short-circuits
    to an empty relation.  Bound-predicate patterns — the overwhelmingly
    common case — do not copy anything: the result is a view over the
    fragment's sorted index (see :class:`EncodedRelation`).
    Variable-predicate patterns fall back to the generic id-triple
    iterator with the same repeated-variable checks as the reference
    scan.
    """
    dictionary = fragment.dictionary
    variables = tuple(sorted(pattern.variables(), key=_NAME))
    subject, predicate, object_ = pattern.subject, pattern.predicate, pattern.object

    # encode the constants; an unknown constant matches nothing
    subject_id = object_id = predicate_id = None
    if not isinstance(subject, Variable):
        subject_id = dictionary.lookup(subject)
        if subject_id is None:
            return EncodedRelation._over(variables, dictionary, set())
    if not isinstance(object_, Variable):
        object_id = dictionary.lookup(object_)
        if object_id is None:
            return EncodedRelation._over(variables, dictionary, set())
    if not isinstance(predicate, Variable):
        predicate_id = dictionary.lookup(predicate)
        index = None if predicate_id is None else fragment.index_for(predicate_id)
        if index is None:
            return EncodedRelation._over(variables, dictionary, set())
        return _scan_bound_predicate(
            index, variables, dictionary, subject, subject_id, object_id
        )

    # variable predicate: generic path over the id-triple iterator
    terms = pattern.terms()
    first_source: Dict[Variable, int] = {}
    checks: List[Tuple[int, int]] = []
    for position, term in enumerate(terms):
        if isinstance(term, Variable):
            if term in first_source:
                checks.append((first_source[term], position))
            else:
                first_source[term] = position
    emit = _row_getter([first_source[v] for v in variables])
    rows: Set[IdRow] = set()
    for t in fragment.scan(subject_id, None, object_id):  # lint: disable=LINT014 per-scan row loop; the executor polls at the operator boundary
        if checks and any(t[a] != t[b] for a, b in checks):
            continue
        rows.add(emit(t))
    return EncodedRelation._over(variables, dictionary, rows)


def _scan_bound_predicate(
    index: PredicateIndex,
    variables: Tuple[Variable, ...],
    dictionary: TermDictionary,
    subject,
    subject_id: Optional[int],
    object_id: Optional[int],
) -> EncodedRelation:
    """The index access path of a concrete-predicate pattern, as a view.

    Only the two shapes whose size is not a property of the index are
    evaluated here: ``S p O`` (one membership test) and ``?x p ?x``
    (the diagonal has to be counted).
    """
    if subject_id is not None and object_id is not None:
        rows = {()} if index.contains(subject_id, object_id) else set()
        return EncodedRelation._over(variables, dictionary, rows)
    if subject_id is not None:
        view = _IndexView((index.objects_for(subject_id),))
    elif object_id is not None:
        view = _IndexView((index.subjects_for(object_id),))
    elif len(variables) == 1:
        # ?x p ?x — keep only the diagonal
        subjects, objects = index.spo_subjects, index.spo_objects
        diagonal = compress(subjects, map(int.__eq__, subjects, objects))
        return EncodedRelation._over(variables, dictionary, set(zip(diagonal)))
    elif variables[0] == subject:
        view = _IndexView((index.spo_subjects, index.spo_objects), index, True)
    else:
        view = _IndexView((index.ops_objects, index.ops_subjects), index, False)
    return EncodedRelation._over(variables, dictionary, view=view)


def hash_join_encoded(
    left: EncodedRelation, right: EncodedRelation
) -> EncodedRelation:
    """Natural join on all shared variables, over integer keys.

    Same result as the reference
    :func:`~repro.engine.relations.hash_join` (same schema, same rows,
    Cartesian degeneration without shared variables), through whichever
    access path the inputs allow:

    * a side whose whole schema is shared only *filters* the other — a
      semi-join: no buckets, no row concatenation, the surviving rows
      are the other side's own tuples;
    * a scan view much larger than its partner is *probed* through the
      index it still sits in (bisection per partner row) instead of
      being read: chosen when ``|partner| · log2 |view| < |view|``, from
      the two lengths alone;
    * otherwise a hash join building on the smaller side, reading a
      view straight off its index columns.
    """
    shared = [v for v in left.variables if v in right._positions]
    if shared and len(shared) == len(right.variables):
        return _semi_join(left, right, shared)
    if shared and len(shared) == len(left.variables):
        return _semi_join(right, left, shared)
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    out_vars = tuple(sorted({*left.variables, *right.variables}, key=_NAME))
    return EncodedRelation._over(
        out_vars, left.dictionary, _joined_rows(build, probe, shared, out_vars)
    )


def _joined_rows(
    build: EncodedRelation,
    probe: EncodedRelation,
    shared: List[Variable],
    out_vars: Tuple[Variable, ...],
) -> Set[IdRow]:
    """The output rows of a join that widens both sides (*build* is smaller)."""
    if not len(build):
        return set()
    width = len(build.variables)
    if not shared:
        # Cartesian product: never planned, deliberately disconnected tests only
        emit = _concat_getter(build, probe, out_vars)
        inner = probe.rows
        return {emit(brow + prow) for brow in build for prow in inner}  # lint: disable=LINT014 per-join row loop; callers poll at the operator/chunk boundary
    view = probe._view
    if view is not None and _probes_cheaper(len(build), len(view)):
        # neither schema contains the other, so the view is binary and
        # shares exactly one variable: look its other column up per row
        (variable,) = shared
        at = build._positions[variable]
        matches = view.matches(probe._positions[variable])
        emit = _row_getter([build._positions.get(v, width) for v in out_vars])
        return {
            emit(row + (value,))
            for row in build  # lint: disable=LINT014 per-join row loop; callers poll at the operator/chunk boundary
            for value in matches(row[at])
        }
    emit = _concat_getter(build, probe, out_vars)
    unique = dict(zip(build._keys(shared), build))
    if len(unique) == len(build):
        # no two build rows share a key: no buckets, and the probe runs
        # in C end to end (look up, keep the hits, concatenate, gather)
        hits = list(map(unique.get, probe._keys(shared)))
        pairs = map(concat, compress(hits, hits), compress(probe, hits))
        return set(map(emit, pairs))
    table: Dict[object, List[IdRow]] = defaultdict(list)
    for key, row in zip(build._keys(shared), build):
        table[key].append(row)
    return {
        emit(brow + prow)
        for prow, bucket in zip(probe, map(table.get, probe._keys(shared)))  # lint: disable=LINT014 per-join row loop; callers poll at the operator/chunk boundary
        if bucket
        for brow in bucket
    }


def _concat_getter(
    build: EncodedRelation, probe: EncodedRelation, out_vars: Tuple[Variable, ...]
) -> Callable[[IdRow], IdRow]:
    """A C gather of *out_vars* over the concatenated ``brow + prow``.

    Shared variables read from the build side (equal by the join key).
    """
    width = len(build.variables)
    return _row_getter(
        [
            build._positions[v] if v in build._positions
            else width + probe._positions[v]
            for v in out_vars
        ]
    )


def _probes_cheaper(partner: int, view: int) -> bool:
    """Whether bisecting a view once per partner row beats reading it.

    ``|partner| · log2 |view| < |view|`` — a bisection is ~log2 steps,
    a read touches every row once; see docs/PERFORMANCE.md for where
    the constant 1 was measured.
    """
    return partner * view.bit_length() < view


def _semi_join(
    kept: EncodedRelation, filter_: EncodedRelation, shared: List[Variable]
) -> EncodedRelation:
    """The rows of *kept* whose *shared* bindings are a row of *filter_*.

    *shared* is *filter_*'s whole schema, so the join adds no column:
    the output is a subset of *kept*'s own tuples, selected in C
    (``compress``) by a membership test per row — against a set of
    *filter_*'s keys, or by bisection into its index when it is a view
    much larger than *kept*.
    """
    view = filter_._view
    if not len(kept) or not len(filter_):
        rows: Set[IdRow] = set()
    else:
        if view is not None and _probes_cheaper(len(kept), len(view)):
            held = view.holds()
        else:
            held = filter_._key_set().__contains__
        # `kept` is iterated twice; an unmodified set repeats its order
        rows = set(compress(kept, map(held, kept._keys(shared))))
    return EncodedRelation._over(
        kept.variables, kept.dictionary, rows, positions=kept._positions
    )


def multi_join_encoded(relations: List[EncodedRelation]) -> EncodedRelation:
    """Join k encoded relations: smallest first, smallest connected next."""
    return greedy_multi_join(relations, hash_join_encoded)


def evaluate_encoded(query, fragment: EncodedGraph) -> Relation:
    """Single-node columnar evaluation, decoded (test/bench oracle)."""
    relations = [scan_pattern_encoded(fragment, tp) for tp in query]
    result = multi_join_encoded(relations)
    if query.projection:
        result = result.project(query.projection)
    return result.decode()
