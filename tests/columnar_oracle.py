"""Test oracle: row-set relations, the eager scan and the one-path hash join.

This is the columnar engine as it stood before scans became index
columns and intermediates one id column per variable
(:mod:`repro.engine.columnar`): a relation is a ``set`` of id tuples
(:class:`RowRelation` — ``src/`` holds no such class any more), every
bound-predicate scan copies its index slice into a fresh set, and every
join builds a ``dict`` of bucket lists on the smaller side and probes
it row by row.  They survive only here, so that
``tests/test_columnar_views.py`` can assert that every access path of
the column kernels returns the rows (and the schema) of this one.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.engine.relations import greedy_multi_join
from repro.rdf.encoding import EncodedGraph, TermDictionary
from repro.rdf.terms import Variable
from repro.sparql.ast import TriplePattern

IdRow = Tuple[int, ...]


def _row_getter(positions: List[int]) -> Callable[[IdRow], IdRow]:
    """``row -> tuple(row[p] for p in positions)``, always a tuple."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        p = positions[0]
        return lambda row: (row[p],)
    return itemgetter(*positions)


class RowRelation:
    """A set of integer binding rows over a schema sorted by variable name."""

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

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[IdRow]:
        return iter(self.rows)

    def position(self, variable: Variable) -> int:
        return self.variables.index(variable)

    def has_variable(self, variable: Variable) -> bool:
        return variable in self.variables


def scan_pattern_eager(
    fragment: EncodedGraph, pattern: TriplePattern
) -> RowRelation:
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
    relation = RowRelation(variables, dictionary)
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
    for t in fragment.scan(subject_id, None, object_id):
        if checks and any(t[a] != t[b] for a, b in checks):
            continue
        rows.add(emit(t))
    return relation


def _scan_bound_predicate(
    fragment: EncodedGraph,
    relation: RowRelation,
    subject,
    object_,
    subject_id: Optional[int],
    object_id: Optional[int],
    predicate_id: int,
) -> RowRelation:
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


def hash_join_eager(left: RowRelation, right: RowRelation) -> RowRelation:
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
    result = RowRelation(out_vars, left.dictionary)
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
        for lrow in left.rows:
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
    for prow in probe.rows:
        bucket = table.get(probe_key(prow))
        if bucket is None:
            continue
        for brow in bucket:
            rows.add(emit(brow + prow))
    return result


def multi_join_eager(relations: List[RowRelation]) -> RowRelation:
    """The parent's k-way join: same greedy order, eager pair join."""
    return greedy_multi_join(relations, hash_join_eager)
