"""Qualitative plan-shape checks inspired by Figure 3 of the paper.

Figure 3 contrasts the typical plans the optimizers produce for the
running example: TriAD's binary bushy tree, MSC's flat two-level plan,
and DP-Bushy's plan with one maximal multi-way join.  Exact plans
depend on statistics; these tests pin the *structural* signatures.
"""

import pytest

from repro.baselines import DPBushyOptimizer, MSCOptimizer, TriADOptimizer
from repro.core import LocalQueryIndex, TopDownEnumerator
from repro.core.governance import Deadline, QueryBudget
from repro.core.optimizer import make_builder
from repro.core.plans import JoinAlgorithm
from repro.partitioning import HashSubjectObject
from repro.workloads.generators import star_query


class TestTriADShape:
    def test_all_joins_binary(self, fig1_query):
        builder = make_builder(fig1_query, seed=42)
        result = TriADOptimizer(builder.join_graph, builder).optimize()
        for join in result.plan.joins():
            assert join.arity == 2


class TestMSCShape:
    def test_flat_plan_few_levels(self, fig1_query):
        """MSC plans stay shallow (Fig. 3b shows 2 levels; minimum covers
        over partial cliques can add a couple) — never a left-deep chain."""
        builder = make_builder(fig1_query, seed=42)
        budget = QueryBudget(deadline=Deadline.after(60))
        result = MSCOptimizer(builder.join_graph, builder, budget=budget).optimize()
        assert result.plan.depth() <= 4
        assert result.plan.depth() < len(fig1_query) - 1

    def test_star_is_single_level(self):
        builder = make_builder(star_query(7), seed=1)
        result = MSCOptimizer(builder.join_graph, builder).optimize()
        assert result.plan.depth() == 1
        (join,) = result.plan.joins()
        assert join.arity == 7


class TestDPBushyShape:
    def test_multiway_join_used_on_star(self):
        """On a star with uniform stats the flat k-way repartition join
        beats cascades of binary repartition joins, and DP-Bushy's
        'maximal multiway' candidate is exactly that plan."""
        from repro.core import StatisticsCatalog
        from repro.core.cardinality import CardinalityEstimator
        from repro.core.cost import PlanBuilder
        from repro.core.join_graph import JoinGraph

        query = star_query(6)
        join_graph = JoinGraph(query)
        catalog = StatisticsCatalog.uniform(query, cardinality=1000.0)
        builder = PlanBuilder(join_graph, CardinalityEstimator(join_graph, catalog))
        result = DPBushyOptimizer(join_graph, builder).optimize()
        arities = sorted(j.arity for j in result.plan.joins())
        assert arities[-1] >= 3  # some multiway join survived


class TestOperatorMix:
    def test_tdcmd_uses_multiple_algorithms(self, fig1_query):
        """On the dense example the optimal plan mixes broadcast and
        repartition joins (Fig. 3 uses both labels)."""
        builder = make_builder(fig1_query, seed=42)
        index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
        result = TopDownEnumerator(builder.join_graph, builder, index).optimize()
        algorithms = {j.algorithm for j in result.plan.joins()}
        assert len(algorithms) >= 2
