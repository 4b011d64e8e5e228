"""Tests for the TD-CMD top-down enumerator (Algorithm 1)."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import parse_query
from repro.core import (
    CartesianProductError,
    JoinGraph,
    LocalQueryIndex,
    OptimizationTimeout,
    TopDownEnumerator,
)
from repro.core import bitset as bs
from repro.core.cmd import enumerate_cmds
from repro.core.governance import Deadline, QueryBudget
from repro.core.optimizer import make_builder
from repro.core.plans import JoinAlgorithm, JoinNode, validate_plan
from repro.partitioning import HashSubjectObject, PathBMC
from repro.workloads.generators import (
    chain_query,
    cycle_query,
    dense_query,
    generate_query,
    star_query,
    tree_query,
)
from repro.core.join_graph import QueryShape


def exhaustive_best_cost(builder, local_index):
    """Reference optimum: recursively try every cmd and every operator.

    Independent implementation (no memo sharing with the code under
    test) used to prove TD-CMD optimal on small queries.
    """
    jg = builder.join_graph

    def best(bits):
        if bs.popcount(bits) == 1:
            return builder.scan(bs.lowest_index(bits))
        candidates = []
        if local_index.is_local(bits):
            candidates.append(builder.local_join_plan(bits))
        for parts, variable in enumerate_cmds(jg, bits):
            children = [best(p) for p in parts]
            for op in (JoinAlgorithm.BROADCAST, JoinAlgorithm.REPARTITION):
                candidates.append(builder.join(op, children, variable))
        assert candidates, "no plan for connected subquery"
        return min(candidates, key=lambda p: p.cost)

    return best(jg.full).cost


class TestOptimality:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exhaustive_on_random_small_queries(self, seed):
        rng = random.Random(seed)
        shape = rng.choice(
            [QueryShape.CHAIN, QueryShape.CYCLE, QueryShape.TREE, QueryShape.DENSE]
        )
        size = rng.randint(4, 6)
        if shape is QueryShape.CYCLE:
            size = max(size, 3)
        query = generate_query(shape, size, rng)
        builder = make_builder(query, seed=seed)
        local_index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
        result = TopDownEnumerator(
            builder.join_graph, builder, local_index
        ).optimize()
        assert result.cost == pytest.approx(
            exhaustive_best_cost(builder, local_index)
        )

    def test_fig1_plan_valid_and_better_than_worst(self, fig1_builder):
        result = TopDownEnumerator(fig1_builder.join_graph, fig1_builder).optimize()
        validate_plan(result.plan, fig1_builder.join_graph.full)
        assert result.cost > 0


class TestPlanInvariants:
    @settings(max_examples=25, deadline=None)
    @given(
        st.sampled_from([QueryShape.CHAIN, QueryShape.TREE, QueryShape.DENSE]),
        st.integers(min_value=4, max_value=7),
        st.integers(min_value=0, max_value=500),
    )
    def test_plans_are_structurally_valid(self, shape, size, seed):
        query = generate_query(shape, size, random.Random(seed))
        builder = make_builder(query, seed=seed)
        result = TopDownEnumerator(builder.join_graph, builder).optimize()
        validate_plan(result.plan, builder.join_graph.full)
        # every join node's children must be a connected division: each
        # child connected and carrying the join variable
        for node in result.plan.joins():
            assert isinstance(node, JoinNode)
            for child in node.children:
                assert builder.join_graph.is_connected(child.bits)
            if node.join_variable is not None:
                ntp = builder.join_graph.ntp(node.join_variable)
                for child in node.children:
                    assert child.bits & ntp

    def test_local_plan_used_when_whole_query_local(self, fig1_builder):
        local_index = LocalQueryIndex(fig1_builder.join_graph, PathBMC())
        # fig1 is NOT local under path partitioning (cycles), but the
        # subquery {tp1, tp3, tp4} is; optimize a query that IS local:
        q = parse_query(
            """
            SELECT * WHERE {
              ?a <http://e/p> ?b .
              ?b <http://e/q> ?c .
            }
            """
        )
        builder = make_builder(q, seed=0)
        index = LocalQueryIndex(builder.join_graph, PathBMC())
        result = TopDownEnumerator(builder.join_graph, builder, index).optimize()
        assert all(
            j.algorithm is JoinAlgorithm.LOCAL for j in result.plan.joins()
        )


class TestMechanics:
    def test_memoization_counts(self, fig1_builder):
        enumerator = TopDownEnumerator(fig1_builder.join_graph, fig1_builder)
        enumerator.optimize()
        assert enumerator.stats.memo_hits > 0
        assert enumerator.stats.subqueries_expanded > 0

    def test_disconnected_query_rejected(self):
        q = parse_query(
            "SELECT * WHERE { ?a <http://e/p> ?b . ?c <http://e/q> ?d . }"
        )
        builder = make_builder(q)
        with pytest.raises(CartesianProductError):
            TopDownEnumerator(builder.join_graph, builder).optimize()

    def test_single_pattern_query(self):
        q = parse_query("SELECT * WHERE { ?a <http://e/p> ?b . }")
        builder = make_builder(q)
        result = TopDownEnumerator(builder.join_graph, builder).optimize()
        assert result.plan.depth() == 0
        assert result.cost == 0.0

    def test_timeout_enforced(self):
        query = star_query(14)
        builder = make_builder(query, seed=0)
        budget = QueryBudget(deadline=Deadline.after(0.01))
        enumerator = TopDownEnumerator(builder.join_graph, builder, budget=budget)
        with pytest.raises(OptimizationTimeout):
            enumerator.optimize()

    def test_search_space_counts_match_t_for_chains(self):
        """plans_considered = 2 ops × T(Q) for chains with nothing local."""
        from repro.core.counting import t_chain

        n = 6
        builder = make_builder(chain_query(n), seed=3)
        enumerator = TopDownEnumerator(builder.join_graph, builder)
        enumerator.optimize()
        assert enumerator.stats.divisions_enumerated == t_chain(n)
        assert enumerator.stats.plans_considered == 2 * t_chain(n)
