"""The bounded search against two searches that do not bound.

``TopDownEnumerator._search`` skips a division whose cheapest operator
already costs at least the best plan so far, before solving its missing
children (docs/ALGORITHMS.md, "Bounded search").  Two references:

* **Algorithm 1, unbounded** — the same ``divisions`` hook, but every
  candidate built and priced by :class:`PlanBuilder` and compared with
  the strict ``<``: the bounded TD-CMD and TD-CMDP must return its cost
  and plan bit for bit;
* **a brute-force k-ary optimum** — a recursive minimum over every cmd
  of Definition 3 (:func:`brute_force_cmds`, set partitions), both
  distributed joins and, for a local subquery, the flat local join,
  every candidate priced by :class:`PlanBuilder`.  It shares no division
  code with the search.  It lists a division's parts in ascending
  order, where Algorithm 3 yields them in its own order, and Σ|SQ_i| is
  a float sum, so the two optima agree to rounding, not to the bit.

Swept by hypothesis at n ≤ 7 over all five shapes × {no partitioning,
hash-so, 2f, path-bmc}:

* bounded TD-CMD equals both references; TD-CMDP equals its unbounded
  reference; TD-CMDP and HGR-TD-CMD, whose spaces are subsets, cost at
  least TD-CMD;
* every plan node of every registry algorithm carries its subquery's
  estimated cardinality — including HGR's search on the reduced graph —
  which is what lets the bound price a part before it is solved.
"""

from __future__ import annotations

import math
import random
from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import bitset as bs
from repro.core.cmd import brute_force_cmds
from repro.core.cost import PlanBuilder
from repro.core.enumeration import OptimizationTimeout, TopDownEnumerator
from repro.core.governance import Deadline, QueryBudget
from repro.core.join_graph import QueryShape
from repro.core.local_query import LocalQueryIndex
from repro.core.optimizer import ALGORITHMS, make_builder
from repro.core.plans import JoinAlgorithm, PlanNode, plan_signature
from repro.core.pruning import PrunedTopDownEnumerator
from repro.core.reduction import ReductionOptimizer
from repro.partitioning import HashSubjectObject, PathBMC, SemanticHash
from repro.workloads.generators import generate_query, star_query

SHAPES = (
    QueryShape.CHAIN,
    QueryShape.CYCLE,
    QueryShape.STAR,
    QueryShape.TREE,
    QueryShape.DENSE,
)
PARTITIONINGS = {
    "none": lambda: None,
    "hash-so": HashSubjectObject,
    "2f": lambda: SemanticHash(2),
    "path-bmc": PathBMC,
}


def brute_force_optimum(builder: PlanBuilder, local_index: LocalQueryIndex) -> PlanNode:
    """The cheapest k-ary bushy plan (Eq. 3), by exhaustive recursion."""
    join_graph = builder.join_graph
    best: Dict[int, PlanNode] = {}

    def optimum(bits: int) -> PlanNode:
        if bits in best:
            return best[bits]
        if bs.popcount(bits) == 1:
            plan: PlanNode = builder.scan(bs.lowest_index(bits))
        else:
            candidates = []
            if local_index.is_local(bits):
                candidates.append(builder.local_join_plan(bits))
            for parts, variable in brute_force_cmds(join_graph, bits):
                children = [optimum(part) for part in parts]
                for algorithm in (JoinAlgorithm.BROADCAST, JoinAlgorithm.REPARTITION):
                    candidates.append(builder.join(algorithm, children, variable))
            plan = min(candidates, key=lambda candidate: candidate.cost)
        best[bits] = plan
        return plan

    return optimum(join_graph.full)


def unbounded_search(search: TopDownEnumerator) -> PlanNode:
    """Algorithm 1 over *search*'s own division space, without a bound:
    every candidate is built, the first cheapest wins."""
    builder, local_index = search.builder, search.local_index
    best: Dict[int, PlanNode] = {}

    def solve(bits: int, is_local: bool) -> PlanNode:
        if bits in best:
            return best[bits]
        is_local = is_local or local_index.is_local(bits)
        plan = None
        if bs.popcount(bits) == 1:
            plan = builder.scan(bs.lowest_index(bits))
        elif is_local:
            plan = builder.local_join_plan(bits)
        if bs.popcount(bits) > 1 and not (is_local and search.local_short_circuit):
            for parts, variable, operators in search.divisions(bits):
                children = [solve(part, is_local) for part in parts]
                for operator in operators:
                    candidate = builder.join(operator, children, variable)
                    if plan is None or candidate.cost < plan.cost:
                        plan = candidate
        assert plan is not None
        best[bits] = plan
        return plan

    return solve(builder.join_graph.full, False)


def assert_cardinalities_are_estimates(plan: PlanNode, builder: PlanBuilder) -> None:
    for node in plan.walk():
        assert node.cardinality == builder.estimator.cardinality(node.bits), node


def problem(shape: QueryShape, size: int, seed: int, layout: str):
    query = generate_query(shape, size, random.Random(seed))
    builder = make_builder(query, seed=seed)
    return builder, LocalQueryIndex(builder.join_graph, PARTITIONINGS[layout]())


problems = st.tuples(
    st.sampled_from(SHAPES),
    st.integers(min_value=4, max_value=7),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(sorted(PARTITIONINGS)),
)


@settings(max_examples=120, deadline=None)
@given(problems)
def test_bounded_search_finds_the_optimum(case):
    builder, index = problem(*case)
    costs = {}
    for search in (
        TopDownEnumerator(builder.join_graph, builder, index),
        PrunedTopDownEnumerator(builder.join_graph, builder, index),
    ):
        result = search.optimize()
        reference = unbounded_search(search)
        assert result.cost == reference.cost
        assert plan_signature(result.plan) == plan_signature(reference)
        # the bound only ever saves work
        space = search.search_space()
        assert result.stats.plans_considered <= space.plans_considered
        assert result.stats.subqueries_expanded <= space.subqueries_expanded
        costs[search.algorithm_name] = result.cost
    costs["HGR-TD-CMD"] = ReductionOptimizer(builder.join_graph, builder, index).optimize().cost
    # equal up to the rounding of a differently ordered Σ|SQ_i|
    optimum = brute_force_optimum(builder, index).cost
    assert math.isclose(costs["TD-CMD"], optimum, rel_tol=1e-12)
    for name in ("TD-CMDP", "HGR-TD-CMD"):
        assert costs[name] >= optimum * (1 - 1e-12), name


@settings(max_examples=60, deadline=None)
@given(problems)
def test_every_plan_node_carries_the_estimated_cardinality(case):
    builder, index = problem(*case)
    for key, search_class in ALGORITHMS.items():
        plan = search_class(builder.join_graph, builder, local_index=index).optimize().plan
        assert_cardinalities_are_estimates(plan, builder)
    # HGR's inner search prices the reduced graph with its own estimator
    _, inner = ReductionOptimizer(builder.join_graph, builder, index)._reduce()
    if inner is not None:
        assert_cardinalities_are_estimates(inner.optimize().plan, inner.builder)


def test_tree_twelve_expands_a_fraction_of_its_subqueries():
    """The bound's saving where it is largest: a 12-pattern tree."""
    builder, index = problem(QueryShape.TREE, 12, 2017, "none")
    search = TopDownEnumerator(builder.join_graph, builder, index)
    search.optimize()
    space = search.search_space()
    assert search.stats.divisions_bounded > 0
    assert search.stats.subqueries_expanded < space.subqueries_expanded / 2


def test_counting_the_space_past_the_deadline_is_a_timeout():
    """An anytime search degrades on expiry; a count has nothing to
    degrade to, so it raises whatever the budget's mode."""
    builder = make_builder(star_query(8), seed=0)
    for anytime in (False, True):
        budget = QueryBudget(deadline=Deadline.after(0.0), anytime=anytime)
        search = TopDownEnumerator(builder.join_graph, builder, budget=budget)
        with pytest.raises(OptimizationTimeout):
            search.search_space()
