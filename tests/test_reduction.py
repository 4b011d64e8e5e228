"""Tests for HGR-TD-CMD: join graph reduction (Section IV-B)."""

import random

import pytest

from repro.core import (
    JoinGraph,
    LocalQueryIndex,
    ReductionOptimizer,
    TopDownEnumerator,
)
from repro.core import bitset as bs
from repro.core.governance import Deadline, QueryBudget
from repro.core.optimizer import make_builder
from repro.core.plans import JoinAlgorithm, validate_plan
from repro.core.reduction import (
    build_reduced_problem,
    candidate_local_queries,
    greedy_join_graph_reduction,
)
from repro.partitioning import HashSubjectObject, PathBMC
from repro.workloads.generators import dense_query, tree_query


class TestGreedyCover:
    def test_parts_partition_the_query(self, fig1_builder):
        index = LocalQueryIndex(fig1_builder.join_graph, HashSubjectObject())
        parts = greedy_join_graph_reduction(
            fig1_builder.join_graph, index, fig1_builder.estimator
        )
        union = 0
        for part in parts:
            assert part  # non-empty
            assert union & part == 0  # disjoint
            union |= part
        assert union == fig1_builder.join_graph.full

    def test_every_part_is_local_and_connected(self, fig1_builder):
        index = LocalQueryIndex(fig1_builder.join_graph, HashSubjectObject())
        parts = greedy_join_graph_reduction(
            fig1_builder.join_graph, index, fig1_builder.estimator
        )
        for part in parts:
            assert index.is_local(part)
            assert fig1_builder.join_graph.is_connected(part)

    def test_without_partitioning_all_singletons(self, fig1_builder):
        index = LocalQueryIndex(fig1_builder.join_graph, None)
        parts = greedy_join_graph_reduction(
            fig1_builder.join_graph, index, fig1_builder.estimator
        )
        assert sorted(parts) == [bs.bit(i) for i in range(7)]

    def test_candidates_include_singletons(self, fig1_builder):
        index = LocalQueryIndex(fig1_builder.join_graph, HashSubjectObject())
        candidates = candidate_local_queries(fig1_builder.join_graph, index)
        for i in range(fig1_builder.join_graph.size):
            assert bs.bit(i) in candidates

    def test_candidates_are_connected_local_queries(self, fig1_builder):
        index = LocalQueryIndex(fig1_builder.join_graph, HashSubjectObject())
        for candidate in candidate_local_queries(fig1_builder.join_graph, index):
            assert fig1_builder.join_graph.is_connected(candidate)
            assert index.is_local(candidate)


class TestReducedProblem:
    def test_reduced_graph_structure(self, fig1_builder):
        index = LocalQueryIndex(fig1_builder.join_graph, HashSubjectObject())
        parts = greedy_join_graph_reduction(
            fig1_builder.join_graph, index, fig1_builder.estimator
        )
        reduced_graph, reduced_estimator = build_reduced_problem(
            fig1_builder.join_graph, fig1_builder.estimator, parts
        )
        assert reduced_graph.size == len(parts)
        assert reduced_graph.is_connected(reduced_graph.full)
        # reduced leaf statistics = original subquery estimates
        for i, part in enumerate(parts):
            assert reduced_estimator.pattern_cardinality(i) == pytest.approx(
                fig1_builder.estimator.cardinality(part)
            )


class TestEndToEnd:
    def test_plan_valid_and_leaves_are_local(self, fig1_builder):
        index = LocalQueryIndex(fig1_builder.join_graph, HashSubjectObject())
        result = ReductionOptimizer(
            fig1_builder.join_graph, fig1_builder, index
        ).optimize()
        validate_plan(result.plan, fig1_builder.join_graph.full)
        for join in result.plan.joins():
            if join.algorithm is JoinAlgorithm.LOCAL:
                assert index.is_local(join.bits)

    def test_cost_never_below_tdcmd(self, fig1_builder):
        index = LocalQueryIndex(fig1_builder.join_graph, HashSubjectObject())
        full = TopDownEnumerator(
            fig1_builder.join_graph, fig1_builder, index
        ).optimize()
        reduced = ReductionOptimizer(
            fig1_builder.join_graph, fig1_builder, index
        ).optimize()
        assert reduced.cost >= full.cost - 1e-9

    def test_fully_local_query_collapses_to_one_part(self):
        query = tree_query(6, random.Random(4))
        builder = make_builder(query, seed=4)
        index = LocalQueryIndex(builder.join_graph, PathBMC())
        result = ReductionOptimizer(builder.join_graph, builder, index).optimize()
        validate_plan(result.plan, builder.join_graph.full)

    def test_large_dense_query_is_fast(self):
        query = dense_query(20, random.Random(9))
        builder = make_builder(query, seed=9)
        index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
        budget = QueryBudget(deadline=Deadline.after(60))
        result = ReductionOptimizer(
            builder.join_graph, builder, index, budget=budget
        ).optimize()
        validate_plan(result.plan, builder.join_graph.full)
        assert result.elapsed_seconds < 60
