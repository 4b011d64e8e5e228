"""Fault tolerance — which plan shape pays more for recovery?

The flat-vs-bushy ablation (`bench_flat_vs_bushy`) shows how MapReduce
job *startup* overhead favors MSC's flat plans.  Failures are the other
per-job overhead Hadoop imposes: a fault costs a retry (or a worker
re-route) on the critical path of its wave, so deep TD-CMD plans with
many sequential waves expose more fault sites on the critical path,
while flat MSC plans concentrate more data per job, making each
individual retry more expensive.  This bench quantifies the trade-off
both ways:

* **measured** — execute both plans on really-partitioned LUBM data
  under seeded fault injection, averaging recovery cost over several
  injector seeds at each fault rate;
* **analytic** — the MapReduce simulator's closed-form expected
  makespan (``data_cost × E[attempts] + E[backoff]`` per job).
"""

import pytest

from repro.baselines import MSCOptimizer
from repro.core import LocalQueryIndex, StatisticsCatalog, TopDownEnumerator
from repro.core.governance import Deadline, QueryBudget
from repro.core.optimizer import make_builder
from repro.engine import (
    Cluster,
    Executor,
    FaultInjector,
    MapReduceSimulator,
    RetryPolicy,
    compile_stages,
    evaluate_reference,
)
from repro.experiments.tables import render_table, write_report
from repro.partitioning import HashSubjectObject
from repro.workloads import generate_lubm, lubm_query

QUERIES = ["L7", "L9"]
FAULT_RATES = [0.0, 0.05, 0.1, 0.2]
TRIAL_SEEDS = list(range(5))
CLUSTER_SIZE = 5
POLICY = RetryPolicy(max_retries=16)


@pytest.fixture(scope="module")
def workload():
    dataset = generate_lubm()
    method = HashSubjectObject()
    plans = {}
    for name in QUERIES:
        query = lubm_query(name)
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        builder = make_builder(query, statistics=statistics)
        index = LocalQueryIndex(builder.join_graph, method)
        bushy = TopDownEnumerator(builder.join_graph, builder, index).optimize().plan
        budget = QueryBudget(deadline=Deadline.after(60))
        flat = (
            MSCOptimizer(builder.join_graph, builder, index, budget=budget)
            .optimize()
            .plan
        )
        plans[name] = (query, flat, bushy, builder.parameters)
    return dataset, method, plans


def _run(dataset, method, query, plan, rate, seed):
    cluster = Cluster.build(dataset, method, cluster_size=CLUSTER_SIZE)
    injector = FaultInjector(rate, seed=seed) if rate > 0 else None
    executor = Executor(cluster, fault_injector=injector, retry_policy=POLICY)
    relation, metrics = executor.execute(plan, query)
    return relation, metrics


@pytest.mark.parametrize("name", QUERIES)
def test_recovered_execution_is_correct(benchmark, workload, name):
    """Executing under faults stays exact; benchmark the recovered run."""
    dataset, method, plans = workload
    query, flat, bushy, _ = plans[name]
    reference = evaluate_reference(query, dataset.graph)
    relation, metrics = benchmark.pedantic(
        _run,
        args=(dataset, method, query, bushy, 0.2, 1),
        rounds=1,
        iterations=1,
    )
    assert relation.rows == reference.rows
    assert metrics.total_recovery_cost >= 0.0


@pytest.mark.report
def test_fault_tolerance_report(benchmark, workload):
    def build_report():
        dataset, method, plans = workload
        rows = []
        for name in QUERIES:
            query, flat, bushy, parameters = plans[name]
            for shape, plan in (("flat(MSC)", flat), ("bushy(TD-CMD)", bushy)):
                waves = compile_stages(plan).wave_count
                for rate in FAULT_RATES:
                    costs, recoveries, retries = [], [], []
                    for seed in TRIAL_SEEDS:
                        _, metrics = _run(dataset, method, query, plan, rate, seed)
                        costs.append(metrics.critical_path_cost)
                        recoveries.append(metrics.total_recovery_cost)
                        retries.append(metrics.total_retries)
                    expected = MapReduceSimulator(
                        parameters, fault_rate=rate, retry_policy=POLICY
                    ).makespan(compile_stages(plan))
                    rows.append(
                        [
                            name,
                            shape,
                            str(waves),
                            f"{rate:.2f}",
                            f"{sum(costs) / len(costs):.1f}",
                            f"{sum(recoveries) / len(recoveries):.1f}",
                            f"{sum(retries) / len(retries):.1f}",
                            f"{expected:.1f}",
                        ]
                    )
        return render_table(
            "Fault tolerance — recovery overhead per plan shape "
            f"(mean over {len(TRIAL_SEEDS)} injector seeds, "
            f"{CLUSTER_SIZE} workers)",
            [
                "Query",
                "Shape",
                "Waves",
                "FaultRate",
                "SimTime",
                "RecoveryCost",
                "Retries",
                "E[makespan]",
            ],
            rows,
            note=(
                "SimTime/RecoveryCost/Retries are measured on the executor "
                "under seeded injection (fail-stop + transient + straggler "
                "mix); E[makespan] is the MapReduce simulator's closed-form "
                "expectation. Deeper bushy plans expose more fault sites on "
                "the critical path; flat plans pay more per retry."
            ),
        )

    content = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("fault_tolerance.txt", content)
    print()
    print(content)
    assert "RecoveryCost" in content
