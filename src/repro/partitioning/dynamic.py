"""Dynamic RDF partitioning: the hot-query extension (paper appendix).

Dynamic partitioning methods pre-partition the data with a static
method and then redistribute at run time so that a set of "hot queries"
can be evaluated locally.  The paper extends its generic model with the
hot-query list: when computing the maximal local query at a query
vertex ``v``, the optimizer may also use any connected intersection of
a hot query with the input query that touches ``v``.

:class:`DynamicPartitioning` wraps any static method and implements
exactly that:

* ``combine`` / ``distribute`` on data delegate to the base method,
  with the triples matched by each hot query additionally co-located
  (replicated onto the node each match's anchor hashes to), modeling
  the run-time redistribution;
* ``combine_query`` returns the larger of the base maximal local query
  and the best hot-query intersection, per the appendix's two
  conditions: the intersection must be connected and must contain a
  pattern touching ``v``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from ..rdf.encoding import EncodedGraph
from ..rdf.terms import PatternTerm
from ..rdf.triples import Triple
from ..sparql.ast import BGPQuery, TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import PartitioningMethod, hash_term


def _connected_pattern_sets(
    patterns: Iterable[TriplePattern],
) -> List[FrozenSet[TriplePattern]]:
    """Split a pattern set into connected components (shared variables)."""
    # sorted: callers pass sets, and component order decides tie-breaks
    # in combine_query — it must not follow the per-process hash seed
    remaining = sorted(patterns, key=str)
    components: List[FrozenSet[TriplePattern]] = []
    while remaining:
        component = {remaining.pop()}
        grew = True
        while grew:
            grew = False
            for tp in list(remaining):
                if any(tp.variables() & other.variables() for other in component):
                    component.add(tp)
                    remaining.remove(tp)
                    grew = True
        components.append(frozenset(component))
    return components


def hot_query_matches(dataset, hot: BGPQuery):
    """Each hot-query match as ``(anchor term, grounded triples)``.

    Matching runs on the encoded/columnar path
    (:func:`~repro.engine.columnar.evaluate_encoded` against the
    dataset's cached :class:`~repro.rdf.encoding.EncodedGraph`) — the
    id-space hash joins with indexed scans, not the term-tuple
    reference joins — which is ~1.4-2.8× faster on the benchmark datasets
    (see ``benchmarks/bench_adaptive.py --micro``) and returns the
    exact same decoded bindings.  The anchor is the match's minimal
    binding by string form, as before: every consumer hashes it to pick
    the worker the match's triples co-locate on.
    """
    from ..engine.columnar import evaluate_encoded

    bindings = evaluate_encoded(
        BGPQuery(hot.patterns, projection=None, name=hot.name),
        dataset.encoded_graph(),
    )
    matches = []
    for binding in bindings.bindings():
        anchor = min(binding.values(), key=str)
        triples = []
        for tp in hot.patterns:
            triple = _instantiate(tp, binding)
            if triple is not None and triple in dataset.graph:
                triples.append(triple)
        matches.append((anchor, triples))
    return matches


class DynamicPartitioning(PartitioningMethod):
    """A static method plus run-time co-location of hot queries."""

    def __init__(
        self,
        base: PartitioningMethod,
        hot_queries: Sequence[BGPQuery],
    ) -> None:
        self.base = base
        self.hot_queries = list(hot_queries)
        self.name = f"dynamic({base.name}+{len(self.hot_queries)}hot)"

    # ------------------------------------------------------------------
    # data side: delegate, then co-locate hot-query matches
    # ------------------------------------------------------------------
    def combine_ids(self, vertex: int, graph: EncodedGraph) -> Set[int]:
        return self.base.combine_ids(vertex, graph)

    def elements(self, graph: EncodedGraph) -> Dict[int, Set[int]]:
        return self.base.elements(graph)

    def distribute(
        self, elements: Dict[int, Set[int]], cluster_size: int, graph: EncodedGraph
    ) -> Dict[int, int]:
        return self.base.distribute(elements, cluster_size, graph)

    def partition(self, dataset, cluster_size: int):
        """Static partition + hot-query match replication.

        Each hot query's matched subgraphs are replicated onto the node
        the match's first binding hashes to — the "redistribute so hot
        queries run locally" behaviour of [5], [45].  Matching goes
        through :func:`hot_query_matches` (the encoded/columnar path).
        """
        partitioning = self.base.partition(dataset, cluster_size)
        # each match's triples stay together on one node; one merge per node
        placed: Dict[int, List[Triple]] = {}
        for hot in self.hot_queries:
            for anchor, triples in hot_query_matches(dataset, hot):
                placed.setdefault(hash_term(anchor, cluster_size), []).extend(triples)
        for node in sorted(placed):
            partitioning.add_triples(node, placed[node])
        partitioning.method_name = self.name
        return partitioning

    # ------------------------------------------------------------------
    # query side: base MLQ vs best hot-query intersection
    # ------------------------------------------------------------------
    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        base_mlq = self.base.combine_query(vertex, query_graph)
        best = base_mlq
        query_patterns = set(query_graph.query.patterns)
        for hot in self.hot_queries:
            intersection = query_patterns & set(hot.patterns)
            if not intersection:
                continue
            for component in _connected_pattern_sets(intersection):
                touches_vertex = any(
                    vertex in (tp.subject, tp.object) or vertex in tp.variables()
                    for tp in component
                )
                if touches_vertex and len(component) > len(best):
                    best = component
        return best


def _instantiate(
    pattern: TriplePattern, binding: Dict
) -> Optional[Triple]:
    """Ground a triple pattern with a binding; None if a slot stays open."""
    from ..rdf.terms import Variable

    terms = []
    for term in pattern.terms():
        if isinstance(term, Variable):
            if term not in binding:
                return None
            terms.append(binding[term])
        else:
            terms.append(term)
    return Triple(*terms)
