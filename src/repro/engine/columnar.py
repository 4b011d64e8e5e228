"""Columnar execution: relations over dictionary-encoded integer keys.

The reference engine (:mod:`repro.engine.relations`) joins sets of rich
:class:`~repro.rdf.terms.Term` tuples; every hash and equality check
walks dataclass fields and strings.  This module is the id-encoded
counterpart: an :class:`EncodedRelation` holds rows of plain ``int``
tuples keyed into a shared :class:`~repro.rdf.encoding.TermDictionary`,
scans read contiguous slices of the per-predicate sorted indexes of an
:class:`~repro.rdf.encoding.EncodedGraph`, and joins/projections never
touch a term object.  Terms are **materialized late**: only when the
final result is read (:meth:`EncodedRelation.decode`) are ids mapped
back to terms, so the whole pipeline moves machine integers — exactly
why the paper's prototype can treat per-worker evaluation (RDF-3X) as
essentially free next to optimization time.

Operator semantics are identical to the reference engine (set
semantics, same schemas, same tuple counts), which is what the
``columnar ≡ reference`` property tests pin down.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.encoding import EncodedGraph, TermDictionary
from ..rdf.terms import Variable
from ..sparql.ast import TriplePattern
from .relations import Relation, greedy_multi_join

#: one encoded binding row: term ids, positionally aligned to the schema
IdRow = Tuple[int, ...]


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


class EncodedRelation:
    """An immutable-schema set of integer binding rows.

    Mirrors :class:`~repro.engine.relations.Relation` field for field
    (variables sorted by name, ``rows`` as a set, positional access),
    plus the :attr:`dictionary` needed to materialize terms at the very
    end of execution.
    """

    __slots__ = ("variables", "rows", "dictionary", "_positions")

    def __init__(
        self,
        variables: Iterable[Variable],
        dictionary: TermDictionary,
        rows: Optional[Set[IdRow]] = None,
    ):
        self.variables: Tuple[Variable, ...] = tuple(
            sorted(set(variables), key=lambda v: v.name)
        )
        self.dictionary = dictionary
        self.rows: Set[IdRow] = rows if rows is not None else set()
        self._positions: Dict[Variable, int] = {
            v: i for i, v in enumerate(self.variables)
        }

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[IdRow]:
        return iter(self.rows)

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
        kept = [
            v
            for v in sorted(set(variables), key=lambda v: v.name)
            if v in self._positions
        ]
        if tuple(kept) == self.variables:
            return self
        emit = _row_getter([self._positions[v] for v in kept])
        return EncodedRelation(kept, self.dictionary, set(map(emit, self.rows)))

    def union_inplace(self, other: "EncodedRelation") -> None:
        """Add *other*'s rows (schemas must match exactly)."""
        if other.variables != self.variables:
            raise ValueError("union requires identical schemas")
        self.rows.update(other.rows)

    def empty_like(self) -> "EncodedRelation":
        """A fresh empty relation with this schema and dictionary."""
        return EncodedRelation(self.variables, self.dictionary)

    def decode(self) -> Relation:
        """Materialize terms: the equivalent reference :class:`Relation`.

        This is the *only* place the columnar pipeline touches term
        objects — late materialization pays the decoding cost once, on
        final result rows only, never on intermediates.
        """
        decode = self.dictionary.decode
        rows = {tuple(decode(ident) for ident in row) for row in self.rows}
        return Relation(self.variables, rows)

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.variables)
        return f"EncodedRelation([{names}], {len(self.rows)} rows)"


def scan_pattern_encoded(
    fragment: EncodedGraph, pattern: TriplePattern
) -> EncodedRelation:
    """Match one triple pattern against an encoded fragment.

    Pattern constants are looked up (never interned) in the fragment's
    dictionary; an unknown constant matches nothing and short-circuits
    to an empty relation.  Bound-predicate patterns — the overwhelmingly
    common case — read contiguous index slices and build rows by
    zipping flat integer columns; variable-predicate patterns fall back
    to the generic id-triple iterator with the same repeated-variable
    checks as the reference scan.
    """
    dictionary = fragment.dictionary
    variables = sorted(pattern.variables(), key=lambda v: v.name)
    relation = EncodedRelation(variables, dictionary)
    subject, predicate, object_ = pattern.subject, pattern.predicate, pattern.object

    # encode the constants; an unknown constant matches nothing
    subject_id = object_id = predicate_id = None
    if not isinstance(subject, Variable):
        subject_id = dictionary.lookup(subject)
        if subject_id is None:
            return relation
    if not isinstance(object_, Variable):
        object_id = dictionary.lookup(object_)
        if object_id is None:
            return relation
    if not isinstance(predicate, Variable):
        predicate_id = dictionary.lookup(predicate)
        if predicate_id is None:
            return relation
        return _scan_bound_predicate(
            fragment, relation, subject, object_, subject_id, object_id, predicate_id
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
    emit = _row_getter([first_source[v] for v in relation.variables])
    rows = relation.rows
    for t in fragment.scan(subject_id, None, object_id):  # lint: disable=LINT014 per-scan row loop; the executor polls at the operator boundary
        if checks and any(t[a] != t[b] for a, b in checks):
            continue
        rows.add(emit(t))
    return relation


def _scan_bound_predicate(
    fragment: EncodedGraph,
    relation: EncodedRelation,
    subject,
    object_,
    subject_id: Optional[int],
    object_id: Optional[int],
    predicate_id: int,
) -> EncodedRelation:
    """The indexed fast paths for a concrete-predicate pattern."""
    index = fragment.index_for(predicate_id)
    if index is None:
        return relation
    subject_var = subject if isinstance(subject, Variable) else None
    object_var = object_ if isinstance(object_, Variable) else None
    if subject_var is not None and object_var is not None:
        if subject_var == object_var:
            # ?x p ?x — keep only the diagonal
            relation.rows.update(
                (s,)
                for s, o in zip(index.spo_subjects, index.spo_objects)
                if s == o
            )
        elif relation.variables[0] == subject_var:
            relation.rows.update(zip(index.spo_subjects, index.spo_objects))
        else:
            relation.rows.update(zip(index.spo_objects, index.spo_subjects))
    elif subject_var is not None:
        assert object_id is not None
        relation.rows.update((s,) for s in index.subjects_for(object_id))
    elif object_var is not None:
        assert subject_id is not None
        relation.rows.update((o,) for o in index.objects_for(subject_id))
    else:
        assert subject_id is not None and object_id is not None
        if index.contains(subject_id, object_id):
            relation.rows.add(())
    return relation


def hash_join_encoded(
    left: EncodedRelation, right: EncodedRelation
) -> EncodedRelation:
    """Natural hash join on all shared variables, over integer keys.

    Structurally identical to the reference
    :func:`~repro.engine.relations.hash_join` (build on the smaller
    side, positional output templates, Cartesian degeneration without
    shared variables) — but keys and rows are plain ``int`` tuples, so
    hashing and equality are single machine comparisons instead of
    dataclass walks.
    """
    shared = [v for v in left.variables if right.has_variable(v)]
    out_vars = sorted(
        set(left.variables) | set(right.variables), key=lambda v: v.name
    )
    result = EncodedRelation(out_vars, left.dictionary)
    rows = result.rows
    if not shared:
        width = len(left.variables)
        emit = _row_getter(
            [
                left.position(v) if left.has_variable(v)
                else width + right.position(v)
                for v in result.variables
            ]
        )
        for lrow in left.rows:  # lint: disable=LINT014 per-join row loop; callers poll at the operator/chunk boundary
            for rrow in right.rows:
                rows.add(emit(lrow + rrow))
        return result
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    # join keys gathered in C; a single shared variable keys on the bare
    # int (itemgetter unwraps it), which hashes faster than a 1-tuple
    # and is used consistently on both sides
    build_key = itemgetter(*(build.position(v) for v in shared))
    probe_key = itemgetter(*(probe.position(v) for v in shared))
    # output rows are a C gather over the concatenated (build + probe)
    # row; shared variables read from the build side (equal by the key)
    width = len(build.variables)
    emit = _row_getter(
        [
            build.position(v) if build.has_variable(v)
            else width + probe.position(v)
            for v in result.variables
        ]
    )
    table: Dict[object, List[IdRow]] = {}
    for row in build.rows:
        table.setdefault(build_key(row), []).append(row)
    for prow in probe.rows:  # lint: disable=LINT014 per-join row loop; callers poll at the operator/chunk boundary
        bucket = table.get(probe_key(prow))
        if bucket is None:
            continue
        for brow in bucket:
            rows.add(emit(brow + prow))
    return result


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
