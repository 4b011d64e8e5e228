"""Ablation — "the flattest plan is not always the best plan".

Section IV of the paper argues against MSC's flattest-plan heuristic;
MSC's own motivation is MapReduce job startup overhead.  This bench
makes the trade-off quantitative: it compiles MSC's flat plan and
TD-CMD's cost-optimal bushy plan onto MapReduce stages and sweeps the
per-job startup cost, reporting the crossover point per query.
"""

import random

import pytest

from repro.baselines import MSCOptimizer
from repro.core import LocalQueryIndex, TopDownEnumerator
from repro.core.governance import Deadline, QueryBudget
from repro.core.optimizer import make_builder
from repro.engine.mapreduce import (
    MapReduceSimulator,
    compile_stages,
    overhead_crossover_analysis,
)
from repro.experiments.tables import render_table, write_report
from repro.partitioning import HashSubjectObject
from repro.workloads.generators import cycle_query, tree_query

INSTANCES = {
    "tree-8": (tree_query, 8, 1),
    "tree-9": (tree_query, 9, 4),
    "cycle-7": (cycle_query, 7, 2),
    "cycle-9": (cycle_query, 9, 2),
}


def _plans(label):
    build, size, seed = INSTANCES[label]
    query = build(size, random.Random(seed)) if build is tree_query else build(size)
    builder = make_builder(query, seed=seed)
    index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
    bushy = TopDownEnumerator(builder.join_graph, builder, index).optimize().plan
    budget = QueryBudget(deadline=Deadline.after(60))
    flat = MSCOptimizer(builder.join_graph, builder, index, budget=budget).optimize().plan
    return builder, flat, bushy


@pytest.mark.parametrize("label", list(INSTANCES))
def test_stage_compilation(benchmark, label):
    builder, flat, bushy = _plans(label)
    schedule = benchmark(compile_stages, bushy)
    assert schedule.wave_count >= 1


@pytest.mark.report
def test_flat_vs_bushy_report(benchmark):
    def build_report():
        rows = []
        for label in INSTANCES:
            builder, flat, bushy = _plans(label)
            flat_schedule = compile_stages(flat)
            bushy_schedule = compile_stages(bushy)
            analysis = overhead_crossover_analysis(flat, bushy, builder.parameters)
            zero = MapReduceSimulator(builder.parameters, 0.0)
            rows.append(
                [
                    label,
                    str(bushy_schedule.wave_count),
                    str(flat_schedule.wave_count),
                    f"{zero.makespan(bushy_schedule):.1f}",
                    f"{zero.makespan(flat_schedule):.1f}",
                    analysis.describe(),
                ]
            )
        return render_table(
            "Ablation — flat (MSC) vs bushy (TD-CMD) under MapReduce job overhead",
            [
                "Query",
                "BushyWaves",
                "FlatWaves",
                "BushyData",
                "FlatData",
                "Crossover overhead",
            ],
            rows,
            note=(
                "Crossover = per-job startup cost above which the flat plan "
                "wins; with cheap jobs the cost-optimal bushy plan wins — "
                "'the flattest plan is not always the best plan'."
            ),
        )

    content = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ablation_flat_vs_bushy.txt", content)
    print()
    print(content)
    assert "Crossover" in content
