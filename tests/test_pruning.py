"""Tests for TD-CMDP (Rules 1–3 of Section IV-A)."""

import random

import pytest

from repro.core import (
    JoinGraph,
    LocalQueryIndex,
    PrunedTopDownEnumerator,
    TopDownEnumerator,
)
from repro.core import bitset as bs
from repro.core.optimizer import make_builder
from repro.core.plans import JoinAlgorithm, validate_plan
from repro.partitioning import HashSubjectObject, PathBMC
from repro.workloads.generators import (
    dense_query,
    generate_query,
    star_query,
    tree_query,
)
from repro.core.join_graph import QueryShape


class TestRules:
    def test_rule2_broadcast_joins_are_binary(self):
        for seed in range(4):
            query = tree_query(7, random.Random(seed))
            builder = make_builder(query, seed=seed)
            result = PrunedTopDownEnumerator(builder.join_graph, builder).optimize()
            for join in result.plan.joins():
                if join.algorithm is JoinAlgorithm.BROADCAST:
                    assert join.arity == 2

    def test_rule1_multiway_joins_are_complete(self):
        """Every k>2 join in a TD-CMDP plan is a ccmd of its subquery."""
        for seed in range(4):
            query = dense_query(8, random.Random(seed))
            builder = make_builder(query, seed=seed)
            result = PrunedTopDownEnumerator(builder.join_graph, builder).optimize()
            jg = builder.join_graph
            for join in result.plan.joins():
                if join.arity > 2 and join.algorithm is not JoinAlgorithm.LOCAL:
                    ntp = jg.ntp(join.join_variable)
                    for child in join.children:
                        assert bs.popcount(child.bits & ntp) == 1

    def test_rule3_local_short_circuit(self, fig1_query):
        builder = make_builder(fig1_query, seed=1)
        index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
        pruned = PrunedTopDownEnumerator(builder.join_graph, builder, index)
        pruned.optimize()
        assert pruned.stats.local_short_circuits > 0

    def test_fully_local_query_is_one_plan(self):
        query = tree_query(6, random.Random(2))
        builder = make_builder(query, seed=2)
        index = LocalQueryIndex(builder.join_graph, PathBMC())
        if index.is_local(builder.join_graph.full):
            pruned = PrunedTopDownEnumerator(builder.join_graph, builder, index)
            result = pruned.optimize()
            assert pruned.stats.plans_considered == 1
            assert result.plan.depth() == 1


class TestQuality:
    @pytest.mark.parametrize("seed", range(6))
    def test_never_better_than_tdcmd_but_close(self, seed):
        """TD-CMDP explores a subset of TD-CMD's space: cost ≥ optimal."""
        rng = random.Random(seed)
        shape = rng.choice([QueryShape.TREE, QueryShape.DENSE, QueryShape.STAR])
        size = rng.randint(5, 8)
        query = generate_query(shape, size, rng)
        builder = make_builder(query, seed=seed)
        full = TopDownEnumerator(builder.join_graph, builder).optimize()
        pruned = PrunedTopDownEnumerator(builder.join_graph, builder).optimize()
        validate_plan(pruned.plan, builder.join_graph.full)
        assert pruned.cost >= full.cost - 1e-9

    def test_search_space_smaller_on_stars(self):
        query = star_query(8)
        builder = make_builder(query, seed=0)
        full = TopDownEnumerator(builder.join_graph, builder)
        builder2 = make_builder(query, seed=0)
        pruned = PrunedTopDownEnumerator(builder2.join_graph, builder2)
        assert (
            pruned.search_space().plans_considered
            < full.search_space().plans_considered
        )

    def test_pruned_faster_on_high_degree(self):
        """On an 11-star TD-CMDP must stay well under TD-CMD's work.

        Rule 1 leaves all binary divisions in place (≈ Σ C(n,k)·2^(k−1)
        of them) but removes the Bell-number blow-up of incomplete
        multi-way divisions, an order-of-magnitude reduction at n = 11.
        """
        from repro.core.counting import t_star

        query = star_query(11)
        builder = make_builder(query, seed=0)
        pruned = PrunedTopDownEnumerator(builder.join_graph, builder)
        pruned.optimize()
        full_space = 2 * t_star(11)  # TD-CMD: two operators per cmd
        assert pruned.stats.plans_considered < full_space / 10
