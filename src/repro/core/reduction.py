"""HGR-TD-CMD: heuristic join-graph reduction (Section IV-B).

For large queries the number of triple patterns dominates the cost of
enumeration, so the join graph is first *reduced*: triple patterns that
can be answered by one local join are collapsed into a single vertex.
Choosing the collapse is the NP-hard Join Graph Reduction problem
(Definition 4, Theorem 4), approximated with the classic greedy
weighted set cover (ln n approximation): candidates are the local
queries of Q (connected subqueries of the maximal local queries),
weighted by estimated cardinality, and the greedy step picks the
candidate with the lowest weight per newly covered pattern.

The reduced query is then optimized with plain TD-CMD, and the reduced
plan is expanded back: every super-vertex leaf becomes the flat local
join plan of its patterns, and join costs are re-derived with the
original builder so HGR plans remain cost-comparable with everything
else.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from ..observability import runtime as obs
from ..rdf.terms import Variable
from ..sparql.ast import BGPQuery
from . import bitset as bs
from .cardinality import CardinalityEstimator, PatternStatistics, StatisticsCatalog
from .cost import PlanBuilder
from .counting import connected_subqueries
from .enumeration import (
    EnumerationStats,
    OptimizationResult,
    TopDownEnumerator,
)
from .governance import QueryBudget
from .join_graph import JoinGraph
from .local_query import LocalQueryIndex
from .plans import JoinNode, PlanNode, ScanNode


@dataclass(frozen=True)
class SuperPattern:
    """A collapsed vertex of the reduced join graph.

    Duck-types the slice of the :class:`TriplePattern` interface the
    join graph and estimator use: ``variables()`` and hashability.
    """

    bits: int
    vars: FrozenSet[Variable]

    def variables(self) -> FrozenSet[Variable]:
        """The variable set of the collapsed part (duck-typed API)."""
        return self.vars

    def __str__(self) -> str:
        return f"group{{{','.join(map(str, bs.to_indices(self.bits)))}}}"


#: Candidate pool size guard: maximal local queries larger than this are
#: used as-is instead of expanding all their connected subqueries.
EXPANSION_LIMIT = 12



def _poll_reduction(budget: Optional[QueryBudget], phase: str) -> None:
    """Budget poll for the reduction phase.

    Cancellation always aborts.  Deadline expiry aborts only *hard*
    (non-anytime) budgets: an anytime query must reach the inner
    enumerator, whose expiry handling degrades to the greedy fallback
    instead of raising — aborting here would break the anytime
    contract (reduction itself is bounded preprocessing).
    """
    if budget is None:
        return
    budget.check_cancelled(phase)
    if not budget.anytime:
        budget.check_deadline(phase)


def candidate_local_queries(
    join_graph: JoinGraph,
    local_index: LocalQueryIndex,
    limit: int = EXPANSION_LIMIT,
    budget: Optional[QueryBudget] = None,
) -> List[int]:
    """The set C of the JGR greedy: local queries of Q, as bitsets.

    All connected subqueries of each maximal local query (Lemma 4 makes
    them local), except that oversized MLQs contribute themselves and
    their patterns only; plus every singleton, so a cover always exists.
    """
    candidates: Set[int] = set()
    for mlq in local_index.maximal_local_queries:
        _poll_reduction(budget, "jgr.candidates")
        if bs.popcount(mlq) <= limit:
            candidates.update(connected_subqueries(join_graph, mlq))
        else:
            candidates.add(mlq)
    for i in range(join_graph.size):
        candidates.add(bs.bit(i))
    return sorted(candidates)


def greedy_join_graph_reduction(
    join_graph: JoinGraph,
    local_index: LocalQueryIndex,
    estimator: CardinalityEstimator,
    budget: Optional[QueryBudget] = None,
) -> List[int]:
    """Solve JGR greedily; return disjoint connected local parts.

    Classic weighted-set-cover greedy: repeatedly pick the candidate
    with minimum ``cardinality / newly-covered-patterns``.  The cover is
    then made disjoint in pick order and each part re-split into
    connected components (subqueries of local queries stay local).
    """
    candidates = candidate_local_queries(join_graph, local_index, budget=budget)
    weights = {c: estimator.cardinality(c) for c in candidates}
    uncovered = join_graph.full
    picked: List[int] = []
    while uncovered:
        # one poll per cover round keeps the greedy cancellable even
        # when the candidate pool is large (JGR runs pre-enumeration)
        _poll_reduction(budget, "jgr.reduce")
        best = None
        # (ratio, bitset) lexicographic: cheapest ratio wins, exact
        # ratio ties break toward the smaller bitset (deterministic)
        best_key = (float("inf"), -1)
        for candidate in candidates:
            gain = bs.popcount(candidate & uncovered)
            if gain == 0:
                continue
            ratio = weights[candidate] / gain
            if (ratio, candidate) < best_key:
                best_key = (ratio, candidate)
                best = candidate
        assert best is not None, "singletons guarantee a cover"
        picked.append(best)
        obs.event(
            "jgr.round",
            pick=best,
            newly_covered=bs.popcount(best & uncovered),
            ratio=best_key[0],
        )
        obs.count("jgr.rounds")
        uncovered &= ~best
    # make parts disjoint in pick order, then split into connected pieces
    parts: List[int] = []
    claimed = 0
    for candidate in picked:
        remainder = candidate & ~claimed
        if not remainder:
            continue
        claimed |= remainder
        parts.extend(join_graph.connected_components(remainder))
    parts.sort()
    return parts


def build_reduced_problem(
    join_graph: JoinGraph,
    estimator: CardinalityEstimator,
    parts: List[int],
    budget: Optional[QueryBudget] = None,
) -> Tuple[JoinGraph, CardinalityEstimator]:
    """Construct the reduced join graph J'(Q) and its estimator.

    Every part becomes a :class:`SuperPattern` whose statistics are the
    original estimator's subquery cardinality and per-variable binding
    counts, so reduced-level costs agree with expanded-plan costs.
    """
    super_patterns = [
        SuperPattern(bits=part, vars=frozenset(join_graph.variables_of(part)))
        for part in parts
    ]
    reduced_query = BGPQuery(super_patterns, name=f"{join_graph.query.name}:reduced")
    reduced_graph = JoinGraph(reduced_query)
    entries: List[PatternStatistics] = []
    for part in parts:
        _poll_reduction(budget, "jgr.build_reduced")
        card = estimator.cardinality(part)
        bindings = {
            v: estimator.bindings(part, v)
            for v in sorted(join_graph.variables_of(part), key=lambda v: v.name)
        }
        entries.append(PatternStatistics(cardinality=card, bindings=bindings))
    catalog = StatisticsCatalog(reduced_query, entries)
    return reduced_graph, CardinalityEstimator(reduced_graph, catalog)


class ReductionOptimizer:
    """HGR-TD-CMD: reduce the join graph, optimize, expand the plan."""

    algorithm_name = "HGR-TD-CMD"

    def __init__(
        self,
        join_graph: JoinGraph,
        builder: PlanBuilder,
        local_index: Optional[LocalQueryIndex] = None,
        budget: Optional[QueryBudget] = None,
    ) -> None:
        self.join_graph = join_graph
        self.builder = builder
        self.local_index = local_index or LocalQueryIndex(join_graph, None)
        self.budget = budget

    def optimize(self) -> OptimizationResult:
        """Reduce, optimize the reduced graph, expand the plan."""
        started = time.perf_counter()
        with obs.span("jgr.reduce", patterns=self.join_graph.size) as sp:
            parts = greedy_join_graph_reduction(
                self.join_graph,
                self.local_index,
                self.builder.estimator,
                budget=self.budget,
            )
            sp.set(parts=len(parts))
        if len(parts) == 1:
            # the whole query is one local query
            plan = self.builder.local_join_plan(parts[0])
            stats = EnumerationStats(plans_considered=1, local_short_circuits=1)
            stats.flush_to_metrics()
            return OptimizationResult(
                plan=plan,
                algorithm=self.algorithm_name,
                stats=stats,
                elapsed_seconds=time.perf_counter() - started,
            )
        reduced_graph, reduced_estimator = build_reduced_problem(
            self.join_graph, self.builder.estimator, parts, budget=self.budget
        )
        reduced_builder = PlanBuilder(
            reduced_graph, reduced_estimator, self.builder.parameters
        )
        inner = TopDownEnumerator(reduced_graph, reduced_builder, budget=self.budget)
        with obs.span("jgr.optimize_reduced", parts=len(parts)):
            reduced_result = inner.optimize()
        with obs.span("jgr.expand"):
            plan = self._expand(reduced_result.plan, parts)
        # the inner search degrading (anytime deadline) degrades the
        # expanded plan too; keep the suffix visible in the label
        suffix = reduced_result.algorithm[len(inner.algorithm_name):]
        return OptimizationResult(
            plan=plan,
            algorithm=f"{self.algorithm_name}{suffix}",
            stats=reduced_result.stats,
            elapsed_seconds=time.perf_counter() - started,
        )

    # ------------------------------------------------------------------
    def _expand(self, node: PlanNode, parts: List[int]) -> PlanNode:
        """Replace super-vertex scans by local plans; re-cost joins."""
        if isinstance(node, ScanNode):
            return self.builder.local_join_plan(parts[node.pattern_index])
        assert isinstance(node, JoinNode)
        children = [self._expand(child, parts) for child in node.children]
        return self.builder.join(node.algorithm, children, node.join_variable)
