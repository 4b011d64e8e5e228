"""Tests for the cost model (Tables I and II, Eqs. 3–4)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JoinGraph
from repro.core.cardinality import CardinalityEstimator, StatisticsCatalog
from repro.core.cost import CostParameters, PAPER_PARAMETERS, PlanBuilder
from repro.core.plans import JoinAlgorithm
from repro.workloads.generators import chain_query


class TestTableII:
    def test_paper_parameters(self):
        p = PAPER_PARAMETERS
        assert p.alpha == 0.02
        assert p.beta_broadcast == 0.05
        assert p.beta_repartition == 0.1
        assert p.gamma_local == 0.004
        assert p.gamma_broadcast == 0.008
        assert p.gamma_repartition == 0.005
        assert p.cluster_size == 10


class TestTableI:
    """The three operator cost formulas, computed by hand."""

    inputs = [100.0, 300.0]
    output = 50.0

    def test_local(self):
        cost = PAPER_PARAMETERS.operator_cost(
            JoinAlgorithm.LOCAL, self.inputs, self.output
        )
        assert cost == pytest.approx(0.02 * 400 + 0 + 0.004 * 50)

    def test_broadcast(self):
        cost = PAPER_PARAMETERS.operator_cost(
            JoinAlgorithm.BROADCAST, self.inputs, self.output
        )
        # beta_B * (sum - max) * n
        assert cost == pytest.approx(0.02 * 400 + 0.05 * 100 * 10 + 0.008 * 50)

    def test_repartition(self):
        cost = PAPER_PARAMETERS.operator_cost(
            JoinAlgorithm.REPARTITION, self.inputs, self.output
        )
        assert cost == pytest.approx(0.02 * 400 + 0.1 * 400 + 0.005 * 50)

    def test_broadcast_ships_all_but_largest(self):
        p = PAPER_PARAMETERS
        three = [10.0, 20.0, 70.0]
        assert p.transfer_cost(JoinAlgorithm.BROADCAST, three) == pytest.approx(
            0.05 * 30 * 10
        )

    def test_local_has_no_transfer(self):
        assert PAPER_PARAMETERS.transfer_cost(JoinAlgorithm.LOCAL, [5.0]) == 0.0


class TestPlanBuilder:
    @pytest.fixture
    def builder(self):
        q = chain_query(3)
        jg = JoinGraph(q)
        catalog = StatisticsCatalog.uniform(q, cardinality=100.0)
        return PlanBuilder(jg, CardinalityEstimator(jg, catalog))

    def test_scan_has_zero_cost(self, builder):
        scan = builder.scan(0)
        assert scan.cost == 0.0
        assert scan.cardinality == 100.0

    def test_join_cost_is_max_child_plus_operator(self, builder):
        """Eq. 3: C(p) = max(children) + C(op)."""
        s0, s1, s2 = (builder.scan(i) for i in range(3))
        inner = builder.join(JoinAlgorithm.REPARTITION, [s0, s1])
        outer = builder.join(JoinAlgorithm.REPARTITION, [inner, s2])
        assert outer.cost == pytest.approx(
            max(inner.cost, s2.cost) + outer.operator_cost
        )

    def test_join_requires_two_children(self, builder):
        with pytest.raises(ValueError):
            builder.join(JoinAlgorithm.LOCAL, [builder.scan(0)])

    def test_join_rejects_overlap(self, builder):
        with pytest.raises(ValueError):
            builder.join(
                JoinAlgorithm.LOCAL, [builder.scan(0), builder.scan(0)]
            )

    def test_local_join_plan_is_flat(self, builder):
        plan = builder.local_join_plan(0b111)
        assert plan.depth() == 1
        assert plan.algorithm is JoinAlgorithm.LOCAL
        assert plan.arity == 3

    def test_local_join_plan_of_singleton_is_scan(self, builder):
        plan = builder.local_join_plan(0b010)
        assert plan.depth() == 0

    def test_cluster_size_scales_broadcast(self):
        q = chain_query(2)
        jg = JoinGraph(q)
        catalog = StatisticsCatalog.uniform(q, cardinality=100.0)
        small = PlanBuilder(
            jg, CardinalityEstimator(jg, catalog), CostParameters(cluster_size=2)
        )
        large = PlanBuilder(
            jg, CardinalityEstimator(jg, catalog), CostParameters(cluster_size=50)
        )
        join_small = small.join(
            JoinAlgorithm.BROADCAST, [small.scan(0), small.scan(1)]
        )
        join_large = large.join(
            JoinAlgorithm.BROADCAST, [large.scan(0), large.scan(1)]
        )
        assert join_large.cost > join_small.cost


_positive = st.floats(
    min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
)
_parameters = st.builds(
    CostParameters,
    alpha=_positive,
    beta_broadcast=_positive,
    beta_repartition=_positive,
    gamma_local=_positive,
    gamma_broadcast=_positive,
    gamma_repartition=_positive,
    cluster_size=st.integers(min_value=1, max_value=10_000),
)


class TestClosedForm:
    """``operator_cost`` is Table I in closed form; ``io_cost``,
    ``transfer_cost`` and ``join_cost`` stay as the documented pieces.
    The two must agree to the last bit — the optimizer's costing loop,
    ``PlanBuilder.join`` and ``PlanVerifier`` all price with one and
    compare with ``==`` / a tolerance that assumes the other."""

    @settings(max_examples=300, deadline=None)
    @given(
        parameters=_parameters,
        algorithm=st.sampled_from(list(JoinAlgorithm)),
        inputs=st.lists(_positive, min_size=2, max_size=8),
        output=_positive,
    )
    def test_equals_the_sum_of_the_three_pieces(
        self, parameters, algorithm, inputs, output
    ):
        pieces = (
            parameters.io_cost(inputs)
            + parameters.transfer_cost(algorithm, inputs)
            + parameters.join_cost(algorithm, output)
        )
        assert parameters.operator_cost(algorithm, inputs, output) == pieces

    @settings(max_examples=100, deadline=None)
    @given(
        algorithm=st.sampled_from(list(JoinAlgorithm)),
        inputs=st.lists(st.integers(min_value=1, max_value=10**9), min_size=2, max_size=8),
        output=st.integers(min_value=1, max_value=10**9),
    )
    def test_integer_cardinalities_too(self, algorithm, inputs, output):
        p = PAPER_PARAMETERS
        pieces = (
            p.io_cost(inputs)
            + p.transfer_cost(algorithm, inputs)
            + p.join_cost(algorithm, output)
        )
        assert p.operator_cost(algorithm, inputs, output) == pieces

    @settings(max_examples=100, deadline=None)
    @given(
        parameters=_parameters,
        cardinalities=st.lists(_positive, min_size=3, max_size=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_search_minimum_is_the_built_plans_cost(
        self, parameters, cardinalities, seed
    ):
        """The costing loop inlines the same expression with hoisted
        terms; whatever it declares cheapest, ``PlanBuilder.join``
        (which calls ``operator_cost``) must price identically."""
        import random

        from repro.core.cardinality import PatternStatistics
        from repro.core.enumeration import SubqueryRecord, TopDownEnumerator

        query = chain_query(len(cardinalities))
        rng = random.Random(seed)
        catalog = StatisticsCatalog(
            query,
            [
                PatternStatistics(
                    cardinality,
                    {v: rng.uniform(1.0, cardinality + 1.0) for v in tp.variables()},
                )
                for cardinality, tp in zip(cardinalities, query)
            ],
        )
        join_graph = JoinGraph(query)
        builder = PlanBuilder(
            join_graph, CardinalityEstimator(join_graph, catalog), parameters
        )
        enumerator = TopDownEnumerator(join_graph, builder)
        result = enumerator.optimize()
        best, _, choice = enumerator._search(
            join_graph.full,
            False,
            SubqueryRecord(),
            enumerator._memo,
            enumerator.get_best_plan,
        )
        assert choice is not None
        assert best == result.cost
