"""Tests for the MSC, DP-Bushy, and TriAD-style baselines."""

import random

import pytest

from repro import parse_query
from repro.baselines import (
    DPBushyOptimizer,
    MSCOptimizer,
    TriADOptimizer,
    maximal_multiway_division,
    minimum_set_covers,
)
from repro.core import (
    CartesianProductError,
    JoinGraph,
    LocalQueryIndex,
    TopDownEnumerator,
)
from repro.core import bitset as bs
from repro.core.governance import Deadline, QueryBudget
from repro.core.optimizer import make_builder
from repro.core.plans import JoinAlgorithm, validate_plan
from repro.partitioning import HashSubjectObject
from repro.rdf.terms import Variable
from repro.workloads.generators import (
    chain_query,
    dense_query,
    generate_query,
    star_query,
    tree_query,
)
from repro.core.join_graph import QueryShape

ALL_BASELINES = [MSCOptimizer, DPBushyOptimizer, TriADOptimizer]


def a_minute():
    """A fresh 60 s budget (these searches finish well inside it)."""
    return QueryBudget(deadline=Deadline.after(60))


class TestMinimumSetCover:
    def test_finds_all_minimum_covers(self):
        universe = frozenset(range(4))
        v = lambda name: Variable(name)
        candidates = [
            (v("a"), frozenset({0, 1})),
            (v("b"), frozenset({2, 3})),
            (v("c"), frozenset({1, 2})),
            (v("d"), frozenset({0, 3})),
            (v("e"), frozenset({0})),
        ]
        covers = minimum_set_covers(universe, candidates)
        assert all(len(c) == 2 for c in covers)
        names = {tuple(sorted(kv[0].name for kv in cover)) for cover in covers}
        assert names == {("a", "b"), ("c", "d")}

    def test_single_set_cover(self):
        universe = frozenset({0, 1})
        covers = minimum_set_covers(
            universe, [(Variable("a"), frozenset({0, 1}))]
        )
        assert len(covers) == 1 and len(covers[0]) == 1


class TestMaximalMultiwayDivision:
    def test_star_groups_into_singletons(self):
        jg = JoinGraph(star_query(5))
        parts, variable = maximal_multiway_division(jg, jg.full)
        assert variable == Variable("c")
        assert sorted(parts) == [bs.bit(i) for i in range(5)]

    def test_parts_partition_and_connect(self, fig1_graph):
        parts, variable = maximal_multiway_division(fig1_graph, fig1_graph.full)
        assert variable == Variable("a")  # degree 4
        union = 0
        for part in parts:
            assert fig1_graph.is_connected(part)
            assert union & part == 0
            union |= part
        assert union == fig1_graph.full
        assert len(parts) == 4


class TestBaselinePlans:
    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=lambda c: c.algorithm_name)
    def test_valid_plans_on_all_shapes(self, baseline):
        for shape, size in [
            (QueryShape.CHAIN, 6),
            (QueryShape.STAR, 6),
            (QueryShape.TREE, 7),
            (QueryShape.DENSE, 7),
        ]:
            query = generate_query(shape, size, random.Random(1))
            builder = make_builder(query, seed=1)
            result = baseline(builder.join_graph, builder, budget=a_minute()).optimize()
            validate_plan(result.plan, builder.join_graph.full)

    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=lambda c: c.algorithm_name)
    def test_never_beats_tdcmd(self, baseline):
        """TD-CMD explores a superset of every baseline's (valid) space...
        except baselines may use local plans TD-CMD also has; so TD-CMD
        cost must be ≤ baseline cost."""
        for seed in range(4):
            query = generate_query(QueryShape.TREE, 7, random.Random(seed))
            builder = make_builder(query, seed=seed)
            index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
            best = TopDownEnumerator(builder.join_graph, builder, index).optimize()
            other = baseline(
                builder.join_graph, builder, index, budget=a_minute()
            ).optimize()
            assert best.cost <= other.cost + 1e-9

    @pytest.mark.parametrize("baseline", ALL_BASELINES, ids=lambda c: c.algorithm_name)
    def test_disconnected_rejected(self, baseline):
        q = parse_query(
            "SELECT * WHERE { ?a <http://e/p> ?b . ?c <http://e/q> ?d . }"
        )
        builder = make_builder(q)
        with pytest.raises(CartesianProductError):
            baseline(builder.join_graph, builder).optimize()


class TestMSCBehaviour:
    def test_flat_plans_have_few_levels(self):
        query = star_query(8)
        builder = make_builder(query, seed=0)
        result = MSCOptimizer(builder.join_graph, builder).optimize()
        # a star is one clique: MSC must produce a single 8-way join
        assert result.plan.depth() == 1

    def test_flatter_than_tdcmd_on_trees(self):
        query = tree_query(8, random.Random(3))
        builder = make_builder(query, seed=3)
        msc = MSCOptimizer(builder.join_graph, builder, budget=a_minute()).optimize()
        best = TopDownEnumerator(builder.join_graph, builder).optimize()
        assert msc.plan.depth() <= best.plan.depth() + 1

    def test_no_broadcast_joins(self):
        """Flat plans cannot take advantage of broadcast joins (Section V-B)."""
        for seed in range(3):
            query = tree_query(7, random.Random(seed))
            builder = make_builder(query, seed=seed)
            result = MSCOptimizer(
                builder.join_graph, builder, budget=a_minute()
            ).optimize()
            for join in result.plan.joins():
                assert join.algorithm is not JoinAlgorithm.BROADCAST


class TestDPBushyBehaviour:
    def test_optimal_among_binary_plus_local_on_chain(self):
        """On chains the maximal multiway rarely helps; DP-Bushy should
        at least match TriAD (pure binary)."""
        query = chain_query(7)
        builder = make_builder(query, seed=5)
        dp = DPBushyOptimizer(builder.join_graph, builder).optimize()
        triad = TriADOptimizer(builder.join_graph, builder).optimize()
        assert dp.cost <= triad.cost + 1e-9

    def test_enumerates_disconnected_divisions(self):
        """The documented inefficiency: divisions are generated without a
        connectivity pre-check, so the division counter far exceeds the
        number of *connected* divisions."""
        query = chain_query(8)
        builder = make_builder(query, seed=0)
        dp = DPBushyOptimizer(builder.join_graph, builder)
        dp.optimize()
        from repro.core.counting import t_chain

        assert dp.stats.divisions_enumerated > t_chain(8)
