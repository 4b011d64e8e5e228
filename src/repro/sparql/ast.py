"""SPARQL abstract syntax: triple patterns and basic graph pattern queries.

The paper works exclusively with subgraph-matching (BGP) queries, so the
AST is a list of triple patterns plus a projection.  Triple patterns are
hashable and keep a stable index inside their query, which the optimizer
uses for bitset encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import PatternTerm, Variable, is_concrete


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A triple whose positions may be variables (Section II-A)."""

    subject: PatternTerm
    predicate: PatternTerm
    object: PatternTerm

    def terms(self) -> Tuple[PatternTerm, PatternTerm, PatternTerm]:
        """The (subject, predicate, object) tuple."""
        return (self.subject, self.predicate, self.object)

    def variables(self) -> FrozenSet[Variable]:
        """All variables appearing in this pattern."""
        return frozenset(t for t in self.terms() if isinstance(t, Variable))

    def vertex_terms(self) -> Tuple[PatternTerm, PatternTerm]:
        """Subject and object: the query-graph vertices this edge connects."""
        return (self.subject, self.object)

    def is_concrete(self) -> bool:
        """Whether every position is a concrete term (no variables)."""
        return all(is_concrete(t) for t in self.terms())

    def __str__(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."


class BGPQuery:
    """A basic graph pattern query Q = {tp_1, ..., tp_n}.

    Triple patterns are kept in insertion order; ``patterns[i]`` has index
    ``i``, which is the bit position used in subquery bitsets.
    """

    def __init__(
        self,
        patterns: Sequence[TriplePattern],
        projection: Optional[Sequence[Variable]] = None,
        name: str = "",
    ) -> None:
        if not patterns:
            raise ValueError("a query needs at least one triple pattern")
        deduped: List[TriplePattern] = []
        seen: Set[TriplePattern] = set()
        for tp in patterns:
            if tp not in seen:
                seen.add(tp)
                deduped.append(tp)
        self.patterns: Tuple[TriplePattern, ...] = tuple(deduped)
        self.projection: Tuple[Variable, ...] = tuple(projection or ())
        self.name = name
        self._index: Dict[TriplePattern, int] = {
            tp: i for i, tp in enumerate(self.patterns)
        }

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.patterns)

    def __getitem__(self, index: int) -> TriplePattern:
        return self.patterns[index]

    def index_of(self, pattern: TriplePattern) -> int:
        """The bitset index of *pattern* within this query."""
        return self._index[pattern]

    def variables(self) -> Set[Variable]:
        """All variables appearing anywhere in the query."""
        result: Set[Variable] = set()
        for tp in self.patterns:
            result.update(tp.variables())
        return result

    def join_variables(self) -> List[Variable]:
        """Variables shared by at least two triple patterns (V_J).

        Returned in first-appearance order for determinism.
        """
        counts: Dict[Variable, int] = {}
        order: List[Variable] = []
        for tp in self.patterns:
            for v in sorted(tp.variables(), key=lambda x: x.name):
                if v not in counts:
                    counts[v] = 0
                    order.append(v)
                counts[v] += 1
        return [v for v in order if counts[v] >= 2]

    def vertex_terms(self) -> List[PatternTerm]:
        """All query-graph vertices V_Q (subjects and objects), in order."""
        seen: Dict[PatternTerm, None] = {}
        for tp in self.patterns:
            for term in tp.vertex_terms():
                seen.setdefault(term, None)
        return list(seen)

    def __str__(self) -> str:
        head = " ".join(str(v) for v in self.projection) or "*"
        body = "\n  ".join(str(tp) for tp in self.patterns)
        return f"SELECT {head} WHERE {{\n  {body}\n}}"

    def __repr__(self) -> str:
        label = self.name or "query"
        return f"BGPQuery({label!r}, {len(self)} patterns)"
