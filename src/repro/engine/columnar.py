"""Columnar execution: relations that are one id column per variable.

The row oracle (:mod:`repro.engine.relations`) joins sets of rich
:class:`~repro.rdf.terms.Term` tuples; every hash and equality check
walks dataclass fields and strings.  This module is what the executor
runs on: an :class:`EncodedRelation` is a sorted schema plus one column
of ids per variable, keyed into a shared
:class:`~repro.rdf.encoding.TermDictionary`.  A scan *is* the sorted
columns of the fragment's per-predicate index (joins filter by them,
probe them or gather from them where they lie), a join's output is a
``list`` per variable, and no operator builds a row tuple: masks,
gathers and expansions run over whole columns in C.  Every id a column
holds is the dictionary's own int object for it
(:attr:`~repro.rdf.encoding.TermDictionary.ids`): operators move those
objects and never make an int, and a dict or set probe hits on
identity.  Terms are **materialized late**: ids are mapped back to
terms only as the sink admits the final rows — exactly why the paper's
prototype can treat per-worker evaluation (RDF-3X) as essentially free
next to optimization time.

Every relation is **duplicate-free by construction** (an index holds a
pair once; a natural join of duplicate-free inputs is duplicate-free);
rows are deduplicated only where the same row can arrive from two
workers, through :func:`union_all`.

Operator semantics are identical to the row oracle's (set semantics,
same schemas, same tuple counts), which is what the columnar-oracle
property tests and ``tests/data/engine_counters_golden.json`` pin down.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import chain, compress, repeat
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..rdf.encoding import EncodedGraph, PredicateIndex, TermDictionary
from ..rdf.terms import Variable
from ..sparql.ast import TriplePattern
from .relations import Relation, Row, greedy_multi_join

#: one encoded binding row: term ids, positionally aligned to the schema
IdRow = Tuple[int, ...]

#: one variable's bindings, row by row, as the dictionary's id objects:
#: an index's own tuple or a slice of it (never written to), or a
#: computed ``list``
Column = Sequence[int]

#: schemas are sorted by variable name
_NAME = attrgetter("name")


class EncodedRelation:
    """A duplicate-free relation: a sorted schema, one id column per variable.

    Mirrors :class:`~repro.engine.relations.Relation` where it can
    (variables sorted by name, positional access, iteration yields
    rows), plus the :attr:`dictionary` needed to materialize terms at
    the very end of execution.  :attr:`columns` are aligned with
    :attr:`variables`; a relation over no variable has no column and an
    explicit length (0 or 1).

    A bound-predicate scan's columns are the fragment's sorted index
    itself, and it keeps that :attr:`index`: its rows ascend in schema
    order (membership is a bisection) and ``?s p ?o`` looks matches up
    by key.  Nothing ever writes to a column — the fragment drops an
    index when its data changes, it never edits one — so a relation
    keeps the snapshot it was taken from.
    """

    __slots__ = ("variables", "dictionary", "columns", "index", "keyed", "_positions", "_length")

    def __init__(
        self,
        variables: Iterable[Variable],
        dictionary: TermDictionary,
        rows: Iterable[IdRow] = (),
    ):
        """The relation holding *rows* (aligned to the sorted schema) once each."""
        schema = tuple(sorted(set(variables), key=_NAME))
        distinct = rows if isinstance(rows, (set, frozenset)) else set(rows)
        columns = tuple(zip(*distinct)) if distinct else tuple(() for _ in schema)
        self._fill(schema, dictionary, columns, len(distinct))

    def _fill(
        self,
        variables: Tuple[Variable, ...],
        dictionary: TermDictionary,
        columns: Sequence[Column],
        length: Optional[int] = None,
    ) -> "EncodedRelation":
        """Set every slot: a sorted schema tuple over ready *columns*
        (*length* is only needed without columns)."""
        self.variables = variables
        self.dictionary = dictionary
        self.columns = columns
        self._length = len(columns[0]) if length is None else length
        self.index: Optional[PredicateIndex] = None
        self.keyed: Optional[Dict[Tuple[Variable, ...], object]] = None  # see _keyed
        self._positions = {v: i for i, v in enumerate(variables)}
        return self

    @classmethod
    def _over(cls, variables, dictionary, columns, length=None) -> "EncodedRelation":
        """Internal constructor: :meth:`_fill` on a fresh instance."""
        return cls.__new__(cls)._fill(variables, dictionary, columns, length)

    def __len__(self) -> int:
        return self._length

    def __iter__(self) -> Iterator[IdRow]:
        return self.tuples(self.variables)

    def tuples(self, variables: Iterable[Variable]) -> Iterator[IdRow]:
        """Each row's bindings of *variables*, zipped lazily off the columns."""
        columns = [self.columns[self._positions[v]] for v in variables]
        return zip(*columns) if columns else repeat((), self._length)

    def position(self, variable: Variable) -> int:
        """Column index of *variable* in the schema."""
        return self._positions[variable]

    def has_variable(self, variable: Variable) -> bool:
        """Whether *variable* is part of the schema."""
        return variable in self._positions

    def project(self, variables: Iterable[Variable]) -> "EncodedRelation":
        """Project onto *variables* (set semantics; identity is free).

        Like :meth:`Relation.project`, projecting onto the full schema
        returns ``self``; dropping a column is the one operator that
        can create duplicates, so it is the one that removes them.
        """
        kept = tuple(
            v for v in sorted(set(variables), key=_NAME) if v in self._positions
        )
        if kept == self.variables:
            return self
        return EncodedRelation(kept, self.dictionary, set(self.tuples(kept)))

    def empty_like(self) -> "EncodedRelation":
        """A fresh empty relation with this schema and dictionary."""
        return EncodedRelation(self.variables, self.dictionary)

    def term_tuples(self, variables: Iterable[Variable]) -> Iterator[Row]:
        """Each row's terms for *variables*: one
        :meth:`TermDictionary.decode_all` per column, zipped lazily.

        This is the *only* place the columnar pipeline touches term
        objects — late materialization pays the decoding cost on final
        result rows only (the executor's sink), never on intermediates.
        """
        decode_all = self.dictionary.decode_all
        columns = [decode_all(self.columns[self._positions[v]]) for v in variables]
        return zip(*columns) if columns else repeat((), self._length)

    def decode(self) -> Relation:
        """Materialize terms: the equivalent reference :class:`Relation`."""
        return Relation(self.variables, set(self.term_tuples(self.variables)))

    # ------------------------------------------------------------------
    # what the kernels and the executor build relations from
    # ------------------------------------------------------------------
    def _derived(
        self, columns: Sequence[Column], length: Optional[int] = None
    ) -> "EncodedRelation":
        """This schema over other *columns* (a computed relation: no index)."""
        return EncodedRelation._over(self.variables, self.dictionary, columns, length)

    def _select(self, mask: List[bool]) -> "EncodedRelation":
        """The rows where *mask* is true: one ``compress`` per column."""
        return self._derived([list(compress(column, mask)) for column in self.columns])

    def _slice(self, start: int, stop: int) -> "EncodedRelation":
        """Rows ``start:stop`` as column slices (the index stays behind)."""
        return self._derived([column[start:stop] for column in self.columns])

    def _retained(self) -> "EncodedRelation":
        """A view as a build table that keeps its keyed forms (see :func:`_keyed`)."""
        view = self._derived(self.columns, self._length)
        view.index, view.keyed = self.index, {}
        return view

    def keys(self, variables: Sequence[Variable]) -> Iterable[object]:
        """Each row's binding of *variables* (non-empty), as a join key.

        The column itself for one variable (a bare int hashes faster
        than a 1-tuple), zipped tuples for several — the only tuples a
        join makes.
        """
        if len(variables) == 1:
            return self.columns[self._positions[variables[0]]]
        return self.tuples(variables)

    def _matches(self, variable: Variable) -> Callable[[int], Sequence[int]]:
        """``key -> the other column's values`` where *variable* is *key*
        (``?s p ?o``): bisection into the sorted order that starts with
        *variable* — the scan's own columns, or the index's other order
        (sorted here if nothing read it before).  The columns are bound
        once: a per-key call into the index would read its attributes
        through ``PredicateIndex.__getattr__``'s slower generic path."""
        keys, values = self.columns
        if self._positions[variable] == 1:
            index = self.index
            if keys is index.spo_subjects:
                keys, values = index.ops_objects, index.ops_subjects
            else:
                keys, values = index.spo_subjects, index.spo_objects
        return lambda key: values[bisect_left(keys, key):bisect_right(keys, key)]

    def _holds(self) -> Callable[[object], bool]:
        """``key -> whether it is a row`` of this scan, by bisection into
        its own sorted columns."""
        firsts = self.columns[0]
        if len(self.columns) == 1:
            size = len(firsts)

            def held(key: int) -> bool:
                at = bisect_left(firsts, key)
                return at < size and firsts[at] == key

            return held
        seconds = self.columns[1]

        def held_pair(pair: Tuple[int, int]) -> bool:
            lo = bisect_left(firsts, pair[0])
            hi = bisect_right(firsts, pair[0], lo)
            at = bisect_left(seconds, pair[1], lo, hi)
            return at < hi and seconds[at] == pair[1]

        return held_pair

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.variables)
        return f"EncodedRelation([{names}], {len(self)} rows)"


def union_all(relations: Sequence[EncodedRelation]) -> EncodedRelation:
    """The duplicate-free union of same-schema *relations* (at least one).

    The one place rows are deduplicated: what the executor calls where
    the same row can arrive from two workers (replicating layouts hold
    a triple on several) — the broadcast collect, the repartition
    buckets, the fail-stop migration of in-flight build tables.  A
    single non-empty input is duplicate-free already: returned as it is.
    """
    first = relations[0]
    if any(other.variables != first.variables for other in relations):
        raise ValueError("union requires identical schemas")
    filled = [relation for relation in relations if len(relation)]
    if len(filled) < 2 or not first.columns:
        return filled[0] if filled else first
    distinct = set(chain.from_iterable(r.keys(first.variables) for r in filled))
    return first._derived(
        [list(distinct)] if len(first.columns) == 1 else list(zip(*distinct))
    )


def scan_pattern_encoded(
    fragment: EncodedGraph, pattern: TriplePattern
) -> EncodedRelation:
    """Match one triple pattern against an encoded fragment.

    Pattern constants are looked up (never interned) in the fragment's
    dictionary; an unknown constant matches nothing and short-circuits
    to an empty relation.  Bound-predicate patterns — the overwhelmingly
    common case — do not copy anything: the result's columns are the
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
            return EncodedRelation(variables, dictionary)
    if not isinstance(object_, Variable):
        object_id = dictionary.lookup(object_)
        if object_id is None:
            return EncodedRelation(variables, dictionary)
    if not isinstance(predicate, Variable):
        predicate_id = dictionary.lookup(predicate)
        index = None if predicate_id is None else fragment.index_for(predicate_id)
        if index is None:
            return EncodedRelation(variables, dictionary)
        return _scan_bound_predicate(
            index, variables, dictionary, subject, subject_id, object_id
        )

    # variable predicate: generic path over the id-triple iterator; the
    # index holds a triple once and every variable position is kept, so
    # the rows are distinct
    first_source: Dict[Variable, int] = {}
    checks: List[Tuple[int, int]] = []
    for position, term in enumerate(pattern.terms()):
        if isinstance(term, Variable):
            if term in first_source:
                checks.append((first_source[term], position))
            else:
                first_source[term] = position
    # per-scan row loop: the executor polls at the operator boundary
    matched = [
        t
        for t in fragment.scan(subject_id, None, object_id)
        if not checks or all(t[a] == t[b] for a, b in checks)
    ]
    if not matched:
        return EncodedRelation(variables, dictionary)
    by_position = list(zip(*matched))
    return EncodedRelation._over(
        variables, dictionary, [by_position[first_source[v]] for v in variables]
    )


def _scan_bound_predicate(
    index: PredicateIndex,
    variables: Tuple[Variable, ...],
    dictionary: TermDictionary,
    subject,
    subject_id: Optional[int],
    object_id: Optional[int],
) -> EncodedRelation:
    """The index access path of a concrete-predicate pattern, in place.

    Only the two shapes whose size is not a property of the index are
    evaluated here: ``S p O`` (one membership test) and ``?x p ?x``
    (the diagonal has to be counted).
    """
    if subject_id is not None and object_id is not None:
        held = index.contains(subject_id, object_id)
        return EncodedRelation._over(variables, dictionary, (), int(held))
    if subject_id is not None:
        columns: Sequence[Column] = (index.objects_for(subject_id),)
    elif object_id is not None:
        columns = (index.subjects_for(object_id),)
    elif len(variables) == 1:
        # ?x p ?x — keep only the diagonal
        subjects, objects = index.spo_subjects, index.spo_objects
        columns = (list(compress(subjects, map(int.__eq__, subjects, objects))),)
    elif variables[0] == subject:
        columns = (index.spo_subjects, index.spo_objects)
    else:
        columns = (index.ops_objects, index.ops_subjects)
    relation = EncodedRelation._over(variables, dictionary, columns)
    relation.index = index
    return relation


def hash_join_encoded(
    left: EncodedRelation, right: EncodedRelation
) -> EncodedRelation:
    """Natural join on all shared variables, column-wise over integer keys.

    Same result as the reference
    :func:`~repro.engine.relations.hash_join` (same schema, same rows,
    Cartesian degeneration without shared variables).  Each access path
    keys one side (:func:`_keyed`) and probes it with the other:

    * a side whose whole schema is shared only *filters* the other — a
      semi-join: its keys as a set, one mask, one ``compress`` per column;
    * a ``?s p ?o`` scan much larger than its partner is *probed*
      through the index it still sits in (bisection per partner row)
      instead of being read: chosen when
      ``|partner| · log2 |scan| < |scan|``, from the two lengths alone;
    * otherwise a hash join on key → row position: a side whose keys
      are unique (the smaller one first) is the table the other side's
      keys look up — mask, ``compress`` and one gather per column — and
      only a many-to-many join builds position buckets.
    """
    shared = [v for v in left.variables if v in right._positions]
    if shared and len(shared) == len(right.variables):
        return _semi_join(left, right, shared)
    if shared and len(shared) == len(left.variables):
        return _semi_join(right, left, shared)
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    out_vars = tuple(sorted({*left.variables, *right.variables}, key=_NAME))
    if not len(build):
        columns: List[Column] = [[] for _ in out_vars]
    elif not shared:
        # Cartesian product: never planned, deliberately disconnected tests only
        found = [range(len(build))] * len(probe)
        columns = _expanded(out_vars, probe, found, build, _gathered)
    else:
        columns = _hash_join_columns(build, probe, shared, out_vars)
    # a Cartesian product of zero-variable relations has no column to measure
    length = None if out_vars else len(build) * len(probe)
    return EncodedRelation._over(out_vars, left.dictionary, columns, length)


#: one input of a join and how an output column derives from one of its columns
Side = Tuple[EncodedRelation, Callable[[Column], Column]]


def _output(out_vars: Tuple[Variable, ...], *sides: Side) -> List[Column]:
    """A join's output columns, each derived from the first side that has it
    (a shared variable is equal on both by the join key)."""
    return [
        next(of(r.columns[r._positions[v]]) for r, of in sides if v in r._positions)
        for v in out_vars
    ]


def _gathered(column: Column, positions: List[int]) -> List[int]:
    """The values of *column* at *positions*, in their order."""
    return list(map(column.__getitem__, positions))


def _expanded(
    out_vars: Tuple[Variable, ...],
    driver: EncodedRelation,
    found: List[Sequence[int]],
    other: EncodedRelation,
    of_other: Callable[[Column, List[int]], Column],
) -> List[Column]:
    """The output columns where row *i* of *driver* meets ``found[i]`` of *other*.

    A *driver* column repeats each value once per match; *of_other*
    turns a column of *other* and the flattened matches into its output.
    """
    counts = list(map(len, found))
    flat = list(chain.from_iterable(found))
    return _output(
        out_vars,
        (driver, lambda column: list(chain.from_iterable(map(repeat, column, counts)))),
        (other, lambda column: of_other(column, flat)),
    )


def _hash_join_columns(
    build: EncodedRelation,
    probe: EncodedRelation,
    shared: List[Variable],
    out_vars: Tuple[Variable, ...],
) -> List[Column]:
    """The output columns of a hash join that widens both sides (*build* is smaller)."""
    kept_table = _keyed(probe, build, shared)  # a build table keyed once: the batch looks it up
    if not kept_table and probe.index is not None and _probes_cheaper(len(build), len(probe)):
        # neither schema contains the other, so the scan is binary and
        # shares exactly one variable: look its other column up per key
        (variable,) = shared
        found = list(map(probe._matches(variable), build.keys(shared)))
        return _expanded(out_vars, build, found, probe, lambda column, values: values)
    # else each side may be the table: the smaller can repeat keys (publication -> name)
    for table_side, other in ((probe, build),) if kept_table else ((build, probe), (probe, build)):
        if _key_repeats(table_side, shared):
            continue  # its index counted a repeated key: no table to build and drop
        table = _keyed(table_side, other, shared, now=True)
        if not table:
            continue
        # no two table rows share a key: no buckets, and the whole join
        # runs in C (look up, compress one side by the hits, gather the other)
        hits = list(map(table.get, other.keys(shared)))
        positions = list(compress(hits, hits))
        return _output(
            out_vars,
            (other, lambda column: list(compress(column, hits))),
            (table_side, lambda column: _gathered(column, positions)),
        )
    # many-to-many: key -> positions on the smaller side, per probe row
    buckets: Dict[object, List[int]] = defaultdict(list)
    # per-join row loop: the executor polls at the operator boundary
    for position, key in enumerate(build.keys(shared)):
        buckets[key].append(position)
    found = list(map(buckets.get, probe.keys(shared), repeat(())))
    return _expanded(out_vars, probe, found, build, _gathered)


def _probes_cheaper(partner: int, scan: int) -> bool:
    """Whether bisecting a scan once per partner row beats reading it.

    ``|partner| · log2 |scan| < |scan|`` — a bisection is ~log2 steps,
    a read touches every row once; see docs/PERFORMANCE.md for where
    the constant 1 was measured.
    """
    return partner * scan.bit_length() < scan


def _key(side: EncodedRelation, shared: List[Variable]):
    """*side* on *shared*: a set of its keys if that is its whole schema, else key → row
    position from the end (-n .. -1: never 0, a hit mask), or ``False`` if a key repeats."""
    if len(shared) == len(side.variables):
        return set(side.keys(shared))
    table = dict(zip(side.keys(shared), range(-len(side), 0)))
    return len(table) == len(side) and table


def _key_repeats(side: EncodedRelation, shared: List[Variable]) -> bool:
    """Whether *side* is a two-variable scan whose index counted a key
    on *shared* (one of its columns) twice (:meth:`PredicateIndex.distinct`)."""
    if side.index is None or len(side.variables) != 2 or len(shared) != 1:
        return False
    return side.index.distinct(side.columns[side._positions[shared[0]]]) < len(side)


def _keyed(side: EncodedRelation, partner: EncodedRelation, shared, now=False):
    """Step one of a hash path: :func:`_key` of *side* if asked *now*.  A build table
    (``keyed`` is a dict) keeps that.  Unasked, it returns it (``None``: per-call path),
    first keying a table larger than *partner* whose keys cannot repeat: it filters,
    or a scan's index counts no id twice in its sorted key."""
    forms = side.keyed
    if forms is None:
        return _key(side, shared) if now else None
    name = tuple(shared)
    if name not in forms and (now or len(side) > len(partner) and (
        len(shared) == len(side.variables)
        or shared[0] == side.variables[0] and side.index is not None
        and side.index.distinct(side.columns[0]) == len(side)
    )):
        forms[name] = _key(side, shared)
    return forms.get(name)


def _semi_join(
    kept: EncodedRelation, filter_: EncodedRelation, shared: List[Variable]
) -> EncodedRelation:
    """The rows of *kept* whose *shared* bindings are a row of *filter_*.

    *shared* is *filter_*'s whole schema, so the join adds no column:
    the output is *kept*'s own columns under one mask — a membership
    test per row against a set of *filter_*'s keys, or by bisection
    into its index when it is a scan much larger than *kept*.
    """
    if not len(kept) or not len(filter_):
        return kept.empty_like()
    probes = filter_.index is not None and _probes_cheaper(len(kept), len(filter_))
    if probes and not _keyed(filter_, kept, shared):
        held = filter_._holds()
    else:
        held = _keyed(filter_, kept, shared, now=True).__contains__
    return kept._select(list(map(held, kept.keys(shared))))


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
