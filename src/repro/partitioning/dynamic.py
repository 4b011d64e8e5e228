"""Dynamic RDF partitioning: the hot-query extension (paper appendix).

Dynamic partitioning methods pre-partition the data with a static
method and then redistribute at run time so that a set of "hot queries"
can be evaluated locally.  The paper extends its generic model with the
hot-query list: when computing the maximal local query at a query
vertex ``v``, the optimizer may also use any connected intersection of
a hot query with the input query that touches ``v``.

:class:`DynamicPartitioning` is the one layout class for that, whether
the hot list was fixed up front or grown online by
:class:`~repro.partitioning.adaptive.AdaptiveCluster` (PHD-Store and
AdPart run the same mechanism at different times):

* on data it is the base method's layout with the bits of
  :func:`hot_placements` set — each hot-query match co-located on the
  node its anchor hashes to, each replicated predicate's extent on
  every node;
* ``combine_query`` returns the larger of the base maximal local query
  and the best hot-query intersection, per the appendix's two
  conditions (connected, and containing a pattern that touches ``v``),
  grown by the patterns over replicated predicates connected to it.

:func:`hot_placements` is the only place that decides where a hot
query's matches go.  It works on the dataset's id columns and answers
in triple positions: no term is decoded, and anchors are ordered and
hashed by their texts.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..rdf.encoding import EncodedGraph, IdTriple
from ..rdf.terms import PatternTerm, Variable
from ..sparql.ast import BGPQuery, TriplePattern
from ..sparql.query_graph import QueryGraph
from .base import Layout, PartitioningMethod, Rank, hash_terms, text_rank, with_bits

if TYPE_CHECKING:  # pragma: no cover - cycle guard (core depends on us)
    from ..core.governance import QueryBudget


def structural_signature(query: BGPQuery) -> str:
    """A canonical shape key: patterns with variables renamed, sorted.

    Two queries identical up to variable naming and pattern order share
    one signature, so the advisor's recurrence counting and the layout
    fingerprint match the plan cache's notion of "the same query again".
    """
    from ..core.plan_cache import canonical_variable_map

    mapping = canonical_variable_map(query)
    parts = [
        " ".join(
            f"?{mapping[t.name]}" if isinstance(t, Variable) else str(t)
            for t in tp.terms()
        )
        for tp in query
    ]
    return " | ".join(sorted(parts))


def _absorb(
    core: Set[TriplePattern], candidates: List[TriplePattern]
) -> Set[TriplePattern]:
    """Move into *core* every candidate it reaches through shared variables."""
    grew = True
    while grew:
        grew = False
        for tp in list(candidates):
            if any(tp.variables() & other.variables() for other in core):
                core.add(tp)
                candidates.remove(tp)
                grew = True
    return core


def _connected_pattern_sets(
    patterns: Iterable[TriplePattern],
) -> List[FrozenSet[TriplePattern]]:
    """Split a pattern set into connected components (shared variables)."""
    # sorted: callers pass sets, and component order decides tie-breaks
    # in combine_query — it must not follow the per-process hash seed
    remaining = sorted(patterns, key=str)
    components: List[FrozenSet[TriplePattern]] = []
    while remaining:
        components.append(frozenset(_absorb({remaining.pop()}, remaining)))
    return components


def poll(budget: Optional["QueryBudget"]) -> None:
    """One cooperative governance check inside placement and migration loops."""
    if budget is not None:
        budget.check_deadline(phase="adapt", operator="adaptive.apply")
        budget.check_cancelled(phase="adapt", operator="adaptive.apply")


def hot_placements(
    graph: EncodedGraph,
    cluster_size: int,
    hot_queries: Sequence[BGPQuery],
    replicated_predicates: Iterable[str],
    budget: Optional["QueryBudget"],
) -> Dict[int, List[int]]:
    """The positions of *graph* (the dataset's table) each node stores
    on top of the base layout, repeats allowed.

    Every match of a hot query goes, whole, to the node its *anchor*
    hashes to — the match's minimal binding by string form, so a layout
    does not depend on id assignment — which is the "redistribute so
    hot queries run locally" behaviour of [5], [45].  The extent of
    every replicated predicate — its bucket of positions — goes to every
    node.  Matching is the columnar engine's (indexed scans, id hash
    joins) over the table; a pattern is grounded straight from the id
    row and found in its predicate's run.  Nothing is mutated: the
    caller sets the bits (and, online, first prices them).  *budget* is
    polled between matches.  A hot query that binds no variable has no
    anchor: ``ValueError``, before anything is matched.
    """
    from ..engine.columnar import multi_join_encoded, scan_pattern_encoded

    ground = next((hot for hot in hot_queries if not hot.variables()), None)
    if ground is not None:
        label = ground.name or structural_signature(ground)
        raise ValueError(f"hot query {label!r} binds no variable to anchor its matches")
    dictionary = graph.dictionary
    positions = graph.predicate_positions()  # first, so the table is grouped once
    runs = graph.predicate_runs()
    # predicate id -> (subject id, object id) -> the triple's position
    where: Dict[int, Dict[Tuple[int, int], int]] = {}

    def position(triple: IdTriple) -> int:
        subject, predicate, object_ = triple
        if predicate not in where:
            where[predicate] = dict(zip(zip(*runs[predicate]), positions[predicate]))
        return where[predicate][subject, object_]

    placed: Dict[int, List[int]] = {}
    for hot in hot_queries:
        matches = multi_join_encoded(
            [scan_pattern_encoded(graph, tp) for tp in hot.patterns]
        )
        rows = list(matches)
        # where each pattern term's id is in a row followed by the constants' ids
        source: Dict[PatternTerm, int] = {
            v: matches.position(v) for v in matches.variables
        }
        for term in chain.from_iterable(tp.terms() for tp in hot.patterns):
            source.setdefault(term, len(source))
        constants = tuple(
            map(dictionary.lookup, list(source)[len(matches.variables):])
        )
        grounders = [
            itemgetter(*(source[t] for t in tp.terms())) for tp in hot.patterns
        ]
        rank = text_rank(graph, set(chain.from_iterable(rows)))
        anchors = [min(row, key=rank.__getitem__) for row in rows]
        nodes = hash_terms(map(dictionary.texts.__getitem__, anchors), cluster_size)
        for row, node in zip(rows, nodes):
            poll(budget)
            ids = row + constants
            placed.setdefault(node, []).extend(position(ground(ids)) for ground in grounders)
    wanted = set(replicated_predicates)
    if wanted:
        for predicate in graph.predicate_ids():
            if dictionary.texts[predicate] in wanted:
                extent = positions[predicate]
                for node in range(cluster_size):
                    poll(budget)
                    placed.setdefault(node, []).extend(extent)
    return placed


class DynamicPartitioning(PartitioningMethod):
    """A static method plus co-located hot queries and replicated predicates.

    Because every worker holds a replicated predicate's complete
    extent, :meth:`combine_query` may soundly absorb any pattern over
    such a predicate into a maximal local query it shares a variable
    with — the local join loses no matches.

    ``repr`` (which plan-cache keys carry) holds :attr:`fingerprint`, the
    text of the hot queries' sorted structural signatures and the
    replicated predicates — the payload itself, not a digest of it: two
    layouts share cached plans exactly when they make the same
    subqueries local.
    """

    def __init__(
        self,
        base: PartitioningMethod,
        hot_queries: Sequence[BGPQuery],
        replicated_predicates: Iterable[str] = (),
    ) -> None:
        self.base = base
        self.hot_queries = list(hot_queries)
        self.replicated_predicates = tuple(sorted(set(replicated_predicates)))
        signatures = sorted(structural_signature(q) for q in self.hot_queries)
        self.fingerprint = "\n".join(signatures + list(self.replicated_predicates))
        predicates = len(self.replicated_predicates)
        self.name = (
            f"dynamic({base.name}+{len(self.hot_queries)}hot"
            + (f"+{predicates}pred)" if predicates else ")")
        )

    # ------------------------------------------------------------------
    # data side: the base layout, then the hot matches and extents
    # ------------------------------------------------------------------
    def anchor_candidates(self, graph: EncodedGraph) -> Set[int]:
        return self.base.anchor_candidates(graph)

    def layout(self, graph: EncodedGraph, cluster_size: int, rank: Rank) -> Layout:
        """The base layout with the bits of :func:`hot_placements` set —
        the layout :meth:`AdaptiveCluster.apply` reaches incrementally."""
        masks, placement = self.base.layout(graph, cluster_size, rank)
        additions = hot_placements(
            graph, cluster_size, self.hot_queries, self.replicated_predicates, None
        )
        return with_bits(masks, additions), placement

    # ------------------------------------------------------------------
    # query side: base MLQ vs best hot-query intersection
    # ------------------------------------------------------------------
    def combine_query(
        self, vertex: PatternTerm, query_graph: QueryGraph
    ) -> FrozenSet[TriplePattern]:
        patterns = query_graph.query.patterns
        touching = [
            component
            for hot in self.hot_queries
            for component in _connected_pattern_sets(set(patterns) & set(hot.patterns))
            if any(
                vertex in (tp.subject, tp.object) or vertex in tp.variables()
                for tp in component
            )
        ]
        # max keeps the first of equals: the base MLQ, then hot-list order
        best = max([self.base.combine_query(vertex, query_graph), *touching], key=len)
        # every worker holds a replicated predicate's full extent, so the
        # local join sees every possible partner of its co-located rows
        replicated = [
            tp
            for tp in patterns
            if tp not in best and str(tp.predicate) in self.replicated_predicates
        ]
        return frozenset(_absorb(set(best), replicated))

    def __repr__(self) -> str:
        return f"DynamicPartitioning(name={self.name!r}, fingerprint={self.fingerprint!r})"
