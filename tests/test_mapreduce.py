"""Tests for MapReduce stage compilation and the overhead crossover."""

import pytest

from repro.baselines import MSCOptimizer
from repro.core import LocalQueryIndex, TopDownEnumerator
from repro.core.governance import Deadline, QueryBudget
from repro.core.optimizer import make_builder
from repro.core.plans import JoinAlgorithm
from repro.engine.mapreduce import (
    MapReduceSimulator,
    compile_stages,
    overhead_crossover,
    overhead_crossover_analysis,
)
from repro.partitioning import HashSubjectObject
from repro.workloads.generators import chain_query, star_query, tree_query


def a_minute():
    """A fresh 60 s budget (these searches finish well inside it)."""
    return QueryBudget(deadline=Deadline.after(60))


@pytest.fixture
def builder():
    return make_builder(chain_query(5), seed=2)


class TestCompileStages:
    def test_scan_only_plan_has_no_stages(self, builder):
        schedule = compile_stages(builder.scan(0))
        assert schedule.job_count == 0
        assert schedule.wave_count == 0

    def test_flat_local_plan_has_no_jobs(self, builder):
        plan = builder.local_join_plan(0b11111)
        schedule = compile_stages(plan)
        assert schedule.job_count == 0

    def test_left_deep_plan_one_job_per_join(self, builder):
        plan = builder.scan(0)
        for i in range(1, 5):
            plan = builder.join(JoinAlgorithm.REPARTITION, [plan, builder.scan(i)])
        schedule = compile_stages(plan)
        assert schedule.job_count == 4
        assert schedule.wave_count == 4  # strictly sequential

    def test_bushy_plan_parallel_waves(self, builder):
        left = builder.join(
            JoinAlgorithm.REPARTITION, [builder.scan(0), builder.scan(1)]
        )
        right = builder.join(
            JoinAlgorithm.REPARTITION, [builder.scan(3), builder.scan(4)]
        )
        mid = builder.join(JoinAlgorithm.BROADCAST, [right, builder.scan(2)])
        root = builder.join(JoinAlgorithm.REPARTITION, [left, mid])
        schedule = compile_stages(root)
        assert schedule.job_count == 4
        # left and right run in wave 0, mid in wave 1, root in wave 2
        assert schedule.wave_count == 3
        assert len(schedule.jobs_in_wave(0)) == 2

    def test_local_join_rides_along(self, builder):
        local = builder.local_join_plan(0b00011)
        root = builder.join(JoinAlgorithm.REPARTITION, [local, builder.scan(2)])
        schedule = compile_stages(root)
        assert schedule.job_count == 1
        assert schedule.wave_count == 1


class TestSimulator:
    def test_zero_overhead_equals_wave_data_costs(self, builder):
        plan = builder.join(
            JoinAlgorithm.REPARTITION, [builder.scan(0), builder.scan(1)]
        )
        schedule, makespan = MapReduceSimulator().simulate_plan(plan)
        assert makespan == pytest.approx(
            schedule.stages[0].data_cost(builder.parameters)
        )

    def test_overhead_charged_per_wave(self, builder):
        plan = builder.scan(0)
        for i in range(1, 5):
            plan = builder.join(JoinAlgorithm.REPARTITION, [plan, builder.scan(i)])
        base = MapReduceSimulator(job_startup_cost=0.0).makespan(
            compile_stages(plan)
        )
        with_overhead = MapReduceSimulator(job_startup_cost=10.0).makespan(
            compile_stages(plan)
        )
        assert with_overhead == pytest.approx(base + 4 * 10.0)


class TestCrossover:
    def test_flat_beats_deep_at_high_overhead(self):
        """The paper's flat-plan motivation, made quantitative: MSC's
        plan wins once per-job startup dominates data movement."""
        import random

        query = tree_query(8, random.Random(1))
        builder = make_builder(query, seed=1)
        index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
        bushy = TopDownEnumerator(builder.join_graph, builder, index).optimize().plan
        flat = (
            MSCOptimizer(builder.join_graph, builder, index, budget=a_minute())
            .optimize()
            .plan
        )
        flat_schedule = compile_stages(flat)
        bushy_schedule = compile_stages(bushy)
        if bushy_schedule.wave_count <= flat_schedule.wave_count:
            pytest.skip("optimal plan already as flat as MSC's on this instance")
        crossover = overhead_crossover(flat, bushy, builder.parameters)
        assert crossover is not None
        big = MapReduceSimulator(job_startup_cost=crossover * 10 + 1)
        assert big.makespan(flat_schedule) < big.makespan(bushy_schedule)
        small = MapReduceSimulator(job_startup_cost=0.0)
        assert small.makespan(flat_schedule) >= small.makespan(bushy_schedule)

    def test_crossover_none_when_not_flatter(self, builder):
        plan = builder.join(
            JoinAlgorithm.REPARTITION, [builder.scan(0), builder.scan(1)]
        )
        assert overhead_crossover(plan, plan) is None

    def test_analysis_separates_always_from_never(self, builder):
        """The old None return conflated two opposite regimes; the
        analysis object tells them apart."""
        cheap = builder.local_join_plan(0b11)  # 0 waves, minimal data
        deep = builder.scan(0)
        for i in range(1, 5):
            deep = builder.join(JoinAlgorithm.REPARTITION, [deep, builder.scan(i)])

        # "flat" plan both flatter AND cheaper -> wins for every overhead
        always = overhead_crossover_analysis(cheap, deep)
        assert always.flat_always_wins
        assert not always.flat_never_wins
        assert always.crossover is None
        assert "always" in always.describe()

        # swapped roles: deeper AND costlier -> never wins
        never = overhead_crossover_analysis(deep, cheap)
        assert never.flat_never_wins
        assert not never.flat_always_wins
        assert never.crossover is None
        assert "never" in never.describe()

        # the legacy wrapper mapped BOTH of these to None/0.0-style
        # answers; make sure each analysis agrees with the simulator
        for overhead in (0.0, 5.0, 50.0):
            sim = MapReduceSimulator(job_startup_cost=overhead)
            assert sim.makespan(compile_stages(cheap)) <= sim.makespan(
                compile_stages(deep)
            )

    def test_analysis_crossover_matches_simulator(self):
        import random

        query = tree_query(8, random.Random(1))
        builder = make_builder(query, seed=1)
        index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
        bushy = TopDownEnumerator(builder.join_graph, builder, index).optimize().plan
        flat = (
            MSCOptimizer(builder.join_graph, builder, index, budget=a_minute())
            .optimize()
            .plan
        )
        analysis = overhead_crossover_analysis(flat, bushy, builder.parameters)
        if analysis.wave_difference <= 0:
            pytest.skip("optimal plan already as flat as MSC's on this instance")
        assert analysis.crossover == overhead_crossover(flat, bushy, builder.parameters)
        assert analysis.crossover is not None
        flat_schedule, bushy_schedule = compile_stages(flat), compile_stages(bushy)
        above = MapReduceSimulator(
            builder.parameters, job_startup_cost=analysis.crossover + 1.0
        )
        below = MapReduceSimulator(builder.parameters, job_startup_cost=0.0)
        assert above.makespan(flat_schedule) < above.makespan(bushy_schedule)
        assert below.makespan(flat_schedule) >= below.makespan(bushy_schedule)
