"""Cardinality estimation (Appendix B of the paper, Eqs. 10–11).

Every triple pattern carries a cardinality ``|tp|`` and, per variable
``v`` it contains, the number of distinct bindings ``B(tp, v)``.  The
cardinality of a join is::

    |tp1 ⋈ tp2| = |tp1| · |tp2| / Π_{v ∈ shared} max(B(tp1, v), B(tp2, v))

and multi-pattern subqueries fold this formula over the patterns in
index order (Eq. 11), which makes the estimate a function of the
*pattern set only* — every plan for the same subquery sees the same
cardinality, as required for a well-defined dynamic program.

Statistics can come from a real dataset (exact counts, used by the
engine experiments) or from the paper's random workload generator
(cardinality ~ U[1, 1000], bindings ~ U[1, cardinality]).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import compress
from operator import eq
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..rdf.dataset import Dataset
from ..rdf.encoding import EncodedGraph
from ..rdf.terms import Variable
from ..sparql.ast import BGPQuery
from . import bitset as bs
from .join_graph import JoinGraph


@dataclass(frozen=True)
class PatternStatistics:
    """Statistics for a single triple pattern."""

    cardinality: float
    bindings: Mapping[Variable, float] = field(default_factory=dict)

    def binding_count(self, variable: Variable) -> float:
        """B(tp, v); defaults to the pattern cardinality when unknown."""
        return self.bindings.get(variable, self.cardinality)


def _kept(columns: Dict[int, Sequence[int]], mask: Iterable[bool]) -> Dict[int, Sequence[int]]:
    """*columns* cut down to the rows where *mask* holds."""
    mask = list(mask)
    return {at: list(compress(column, mask)) for at, column in columns.items()}


def _matching_columns(
    encoded: EncodedGraph, bound: Sequence[Optional[int]]
) -> Dict[int, Sequence[int]]:
    """The triples matching the *bound* subject / predicate / object ids
    (``None`` = any) as aligned id columns: subjects (0), objects (2) and,
    for an unbound predicate, predicates (1).  A bound predicate is its
    run of the graph's grouped table, a bound end an equality mask over
    that: nothing is sorted and no other predicate's triple is visited."""
    subject, predicate, object_ = bound
    if predicate is None:
        columns = {0: encoded.subjects, 1: encoded.predicates, 2: encoded.objects}
    else:
        columns = dict(zip((0, 2), encoded.predicate_runs().get(predicate, ((), ()))))
    for position, ident in ((0, subject), (2, object_)):
        if ident is not None:
            columns = _kept(columns, map(ident.__eq__, columns[position]))
    return columns


class StatisticsCatalog:
    """Per-pattern statistics for one query, aligned by pattern index."""

    def __init__(self, query: BGPQuery, per_pattern: Sequence[PatternStatistics]) -> None:
        if len(per_pattern) != len(query):
            raise ValueError(
                f"expected {len(query)} statistics entries, got {len(per_pattern)}"
            )
        self.query = query
        self.per_pattern: List[PatternStatistics] = list(per_pattern)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dataset(cls, query: BGPQuery, dataset: Dataset) -> "StatisticsCatalog":
        """Exact statistics counted off the dataset's grouped id columns.

        Per pattern, the matching triples are found as id columns (see
        :func:`_matching_columns`) and a variable in two positions keeps
        the rows where they agree (``?x p ?x`` is the self-loops, as the
        engines evaluate it): the cardinality is their length, ``B(tp, v)``
        the number of distinct ids in *v*'s column, both at least 1.  No
        term is touched beyond looking up the pattern's constants.
        """
        encoded = dataset.encoded_graph()
        lookup = encoded.dictionary.lookup
        entries = []
        for tp in query:
            slots: Dict[Variable, List[int]] = {}
            bound: List[Optional[int]] = [None, None, None]
            known = True
            for position, term in enumerate(tp.terms()):
                if isinstance(term, Variable):
                    slots.setdefault(term, []).append(position)
                else:
                    bound[position] = lookup(term)
                    known = known and bound[position] is not None
            # a constant the data never mentions matches nothing
            columns = _matching_columns(encoded, bound) if known else dict.fromkeys(range(3), ())
            for first, *repeats in slots.values():
                for position in repeats:
                    columns = _kept(columns, map(eq, columns[first], columns[position]))
            entries.append(
                PatternStatistics(
                    cardinality=float(max(len(columns[0]), 1)),
                    bindings={
                        variable: float(max(len(set(columns[positions[0]])), 1))
                        for variable, positions in slots.items()
                    },
                )
            )
        return cls(query, entries)

    @classmethod
    def from_sample(
        cls,
        query: BGPQuery,
        dataset: Dataset,
        fraction: float = 0.1,
        rng: Optional[random.Random] = None,
    ) -> "StatisticsCatalog":
        """Approximate statistics from a Bernoulli sample of the data.

        At the paper's data scales exact per-pattern counts are not
        free; sampling is the standard substitute.  Counts are scaled
        by 1/fraction; per-variable binding counts are scaled the same
        way (a simplification that is exact for uniform value
        distributions and an overestimate otherwise).
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        rng = rng if rng is not None else random.Random(0)
        from ..rdf.triples import RDFGraph

        sample = RDFGraph(t for t in dataset.graph if rng.random() < fraction)
        sampled_dataset = Dataset(sample, name=f"{dataset.name}-sample")
        exact_on_sample = cls.from_dataset(query, sampled_dataset)
        scale = 1.0 / fraction
        entries = [
            PatternStatistics(
                cardinality=max(stats.cardinality * scale, 1.0),
                bindings={
                    v: max(b * scale, 1.0) for v, b in stats.bindings.items()
                },
            )
            for stats in exact_on_sample.per_pattern
        ]
        return cls(query, entries)

    @classmethod
    def from_random(
        cls,
        query: BGPQuery,
        rng: Optional[random.Random] = None,
        max_cardinality: int = 1000,
    ) -> "StatisticsCatalog":
        """The paper's random statistics: |tp| ~ U[1, max], B ~ U[1, |tp|]."""
        rng = rng if rng is not None else random.Random(0)
        entries = []
        for tp in query:
            cardinality = rng.randint(1, max_cardinality)
            # sorted draw order: frozenset iteration depends on the
            # per-process hash seed, and seeded statistics must be
            # reproducible across processes (pool workers, CLI runs)
            bindings = {
                variable: float(rng.randint(1, cardinality))
                for variable in sorted(tp.variables(), key=lambda v: v.name)
            }
            entries.append(
                PatternStatistics(cardinality=float(cardinality), bindings=bindings)
            )
        return cls(query, entries)

    @classmethod
    def uniform(cls, query: BGPQuery, cardinality: float = 100.0) -> "StatisticsCatalog":
        """Identical statistics for every pattern (useful in tests)."""
        entries = [
            PatternStatistics(
                cardinality=cardinality,
                bindings={
                    v: cardinality
                    for v in sorted(tp.variables(), key=lambda v: v.name)
                },
            )
            for tp in query
        ]
        return cls(query, entries)

    def __getitem__(self, index: int) -> PatternStatistics:
        return self.per_pattern[index]


class CardinalityEstimator:
    """Memoized subquery-cardinality estimator over a join graph.

    ``cardinality(bits)`` and ``bindings(bits, v)`` are pure functions of
    the bitset, so results are cached; the top-down optimizer touches
    each connected subquery many times.
    """

    def __init__(self, join_graph: JoinGraph, catalog: StatisticsCatalog) -> None:
        if catalog.query is not join_graph.query:
            # allow equal-but-distinct query objects as long as shapes align
            if len(catalog.query) != join_graph.size:
                raise ValueError("statistics catalog does not match the join graph")
        self.join_graph = join_graph
        self.catalog = catalog
        self._cache: Dict[int, tuple[float, Dict[Variable, float]]] = {}
        # per pattern, what one fold step reads: (v, B(tp, v)) for the
        # pattern's variables, sorted by name so the float product is
        # bit-identical across processes (frozenset order follows the
        # per-process hash seed)
        self._pattern_bindings: List[Tuple[Tuple[Variable, float], ...]] = [
            tuple(
                (v, catalog[index].binding_count(v))
                for v in sorted(pattern.variables(), key=lambda v: v.name)
            )
            for index, pattern in enumerate(join_graph.patterns)
        ]

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def cardinality(self, bits: int) -> float:
        """Estimated result cardinality of the subquery (Eq. 11)."""
        return self._fold(bits)[0]

    def bindings(self, bits: int, variable: Variable) -> float:
        """Estimated distinct bindings of *variable* in the subquery."""
        card, bindings = self._fold(bits)
        return min(bindings.get(variable, card), card)

    def pattern_cardinality(self, index: int) -> float:
        """|tp_index|: the base cardinality of one pattern."""
        return self.catalog[index].cardinality

    # ------------------------------------------------------------------
    # the Eq. 11 fold
    # ------------------------------------------------------------------
    def _fold(self, bits: int) -> tuple[float, Dict[Variable, float]]:
        """Fold Eq. 11 incrementally, extending the largest cached prefix.

        The fold runs in ascending pattern-index order, so the value for
        a subquery is the value for its largest index-order prefix
        extended by one pattern.  Instead of re-folding every pattern on
        each cache miss, highest bits are peeled off until a cached
        prefix (or a single pattern) is found, and only the missing
        suffix is folded — every intermediate prefix is cached along the
        way.  The arithmetic sequence is identical to a full re-fold, so
        estimates are bit-for-bit unchanged.
        """
        if not bits:
            raise ValueError("cannot estimate the empty subquery")
        pending: List[int] = []
        rest = bits
        base: Optional[tuple[float, Dict[Variable, float]]] = None
        while rest:
            cached = self._cache.get(rest)
            if cached is not None:
                base = cached
                break
            high = rest.bit_length() - 1
            pending.append(high)
            rest &= ~(1 << high)
        if base is None:
            # nothing cached: seed the fold with the lowest-index pattern
            first_index = pending.pop()
            card = self.catalog[first_index].cardinality
            bindings: Dict[Variable, float] = dict(
                self._pattern_bindings[first_index]
            )
            rest = 1 << first_index
            self._cache[rest] = (card, bindings)
        else:
            card, bindings = base
        for index in reversed(pending):
            bindings = dict(bindings)  # cached prefixes stay immutable
            denominator = 1.0
            for v, b in self._pattern_bindings[index]:
                known = bindings.get(v)
                if known is None:
                    bindings[v] = b
                else:  # a shared variable: Eq. 10's max, then the tighter bound
                    denominator *= max(known, b)
                    bindings[v] = min(known, b)
            card = card * self.catalog[index].cardinality / denominator
            card = max(card, 1.0)
            rest |= 1 << index
            self._cache[rest] = (card, bindings)
        return self._cache[bits]
