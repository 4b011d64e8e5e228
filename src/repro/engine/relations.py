"""Term-level binding relations: the decoded result type and the row oracle.

A :class:`Relation` is a set of rows over a fixed variable schema
(variables sorted by name, rows as term tuples) — what
:meth:`Executor.execute <repro.engine.executor.Executor.execute>`
returns after its one decode.  The executor itself moves dictionary ids
(:mod:`repro.engine.columnar`); the term-tuple scan and joins below are
the single-node oracle (:func:`evaluate_reference`) tests, benchmarks
and examples check its rows against.

Set semantics are used throughout: BGP evaluation is subgraph matching,
so a match either exists or it does not, and set semantics also absorbs
the duplicates that replicated partitioning elements (2f, Path-BMC,
Hash-SO) produce across workers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..rdf.terms import Term, Variable
from ..rdf.triples import RDFGraph, Triple
from ..sparql.ast import BGPQuery, TriplePattern

Row = Tuple[Term, ...]


class Relation:
    """An immutable-schema set of binding rows."""

    __slots__ = ("variables", "rows", "_positions")

    def __init__(self, variables: Iterable[Variable], rows: Optional[Set[Row]] = None):
        self.variables: Tuple[Variable, ...] = tuple(
            sorted(set(variables), key=lambda v: v.name)
        )
        self.rows: Set[Row] = rows if rows is not None else set()
        self._positions: Dict[Variable, int] = {
            v: i for i, v in enumerate(self.variables)
        }

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def position(self, variable: Variable) -> int:
        """Column index of *variable* in the schema."""
        return self._positions[variable]

    def has_variable(self, variable: Variable) -> bool:
        """Whether *variable* is part of the schema."""
        return variable in self._positions

    def value(self, row: Row, variable: Variable) -> Term:
        """The binding of *variable* in *row*."""
        return row[self._positions[variable]]

    def add_binding(self, binding: Dict[Variable, Term]) -> None:
        """Insert one row given as a variable→term mapping."""
        self.rows.add(tuple(binding[v] for v in self.variables))

    def bindings(self) -> Iterator[Dict[Variable, Term]]:
        """Rows as variable→term dictionaries (convenience/API surface)."""
        for row in self.rows:
            yield {v: row[i] for i, v in enumerate(self.variables)}

    def project(self, variables: Iterable[Variable]) -> "Relation":
        """Project onto *variables* (set semantics: duplicates collapse).

        Projecting onto the full schema is the identity and returns
        ``self`` without rebuilding a single row — ``SELECT *`` queries
        hit this on every execution.
        """
        kept = [v for v in sorted(set(variables), key=lambda v: v.name)
                if v in self._positions]
        if tuple(kept) == self.variables:
            return self
        positions = [self._positions[v] for v in kept]
        rows = {tuple(row[p] for p in positions) for row in self.rows}
        return Relation(kept, rows)

    def empty_like(self) -> "Relation":
        """A fresh empty relation with this relation's schema."""
        return Relation(self.variables)

    def union_inplace(self, other: "Relation") -> None:
        """Add *other*'s rows (schemas must match exactly)."""
        if other.variables != self.variables:
            raise ValueError("union requires identical schemas")
        self.rows.update(other.rows)

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.variables)
        return f"Relation([{names}], {len(self.rows)} rows)"


def scan_pattern(graph: RDFGraph, pattern: TriplePattern) -> Relation:
    """Match one triple pattern against a graph; return its bindings.

    Handles repeated variables within the pattern (``?x p ?x``) by
    filtering inconsistent matches.  Rows are built positionally from a
    precomputed column template — no per-match dictionary is allocated,
    which matters because every query execution starts with one scan per
    pattern over potentially large match sets.
    """
    variables = sorted(pattern.variables(), key=lambda v: v.name)
    relation = Relation(variables)
    terms = pattern.terms()
    # first triple position providing each variable, plus equality checks
    # between positions that repeat a variable
    first_source: Dict[Variable, int] = {}
    checks: List[Tuple[int, int]] = []
    for position, term in enumerate(terms):
        if isinstance(term, Variable):
            if term in first_source:
                checks.append((first_source[term], position))
            else:
                first_source[term] = position
    columns = [first_source[v] for v in relation.variables]
    subject = pattern.subject if not isinstance(pattern.subject, Variable) else None
    predicate = (
        pattern.predicate if not isinstance(pattern.predicate, Variable) else None
    )
    object_ = pattern.object if not isinstance(pattern.object, Variable) else None
    rows = relation.rows
    for triple in graph.match(subject, predicate, object_):
        t = triple.terms()
        if checks and any(t[a] != t[b] for a, b in checks):
            continue
        rows.add(tuple(t[c] for c in columns))
    return relation


def hash_join(left: Relation, right: Relation) -> Relation:
    """Natural (hash) join on all shared variables.

    With no shared variables this degenerates to a Cartesian product —
    the optimizer never emits such plans, but the reference evaluator
    may need it for deliberately disconnected test queries.

    Output rows are assembled positionally from a per-join column
    template (which side, which column) computed once up front; the
    per-row work is a key tuple and an output tuple, with no dictionary
    allocation on the O(|build| · |probe|) hot path.
    """
    shared = [v for v in left.variables if right.has_variable(v)]
    out_vars = sorted(
        set(left.variables) | set(right.variables), key=lambda v: v.name
    )
    result = Relation(out_vars)
    rows = result.rows
    if not shared:
        sources = [
            (True, left.position(v)) if left.has_variable(v)
            else (False, right.position(v))
            for v in result.variables
        ]
        for lrow in left.rows:
            for rrow in right.rows:
                rows.add(
                    tuple(
                        lrow[p] if from_left else rrow[p]
                        for from_left, p in sources
                    )
                )
        return result
    # build on the smaller side
    build, probe = (left, right) if len(left) <= len(right) else (right, left)
    build_positions = [build.position(v) for v in shared]
    probe_positions = [probe.position(v) for v in shared]
    # each output column reads from the build row when possible (shared
    # variables are equal on both sides by the join key)
    sources = [
        (True, build.position(v)) if build.has_variable(v)
        else (False, probe.position(v))
        for v in result.variables
    ]
    table: Dict[Tuple[Term, ...], List[Row]] = {}
    for row in build.rows:
        key = tuple(row[p] for p in build_positions)
        table.setdefault(key, []).append(row)
    for prow in probe.rows:
        key = tuple(prow[p] for p in probe_positions)
        bucket = table.get(key)
        if bucket is None:
            continue
        for brow in bucket:
            rows.add(
                tuple(
                    brow[p] if from_build else prow[p]
                    for from_build, p in sources
                )
            )
    return result


def greedy_multi_join(relations, join_pair):
    """Greedy k-way join order: start smallest, then smallest *connected*.

    At every step the next input is the smallest pending relation that
    shares a variable with the accumulated result — not merely the
    first connected one — so intermediates stay as small as the greedy
    heuristic allows.  With no connected candidate (deliberately
    disconnected queries) the smallest pending relation is taken and
    the pair join degenerates to a Cartesian product.  Ties break on
    the lowest index, keeping the order deterministic.

    Shared by the row oracle (:func:`multi_join`) and the engine
    (:func:`repro.engine.columnar.multi_join_encoded`); *join_pair*
    supplies the binary hash join.
    """
    if not relations:
        raise ValueError("nothing to join")
    pending = list(relations)
    index = min(range(len(pending)), key=lambda i: len(pending[i]))
    current = pending.pop(index)
    # the executor polls at the operator boundary
    while pending:
        connected = [
            i
            for i, rel in enumerate(pending)
            if any(current.has_variable(v) for v in rel.variables)
        ]
        candidates = connected if connected else range(len(pending))
        index = min(candidates, key=lambda i: len(pending[i]))
        current = join_pair(current, pending.pop(index))
    return current


def multi_join(relations: List[Relation]) -> Relation:
    """Join k relations: smallest first, then smallest connected next."""
    return greedy_multi_join(relations, hash_join)


def evaluate_reference(query: BGPQuery, graph: RDFGraph) -> Relation:
    """Single-node reference evaluation (the row oracle for tests)."""
    relations = [scan_pattern(graph, tp) for tp in query]
    result = multi_join(relations)
    if query.projection:
        result = result.project(query.projection)
    return result
