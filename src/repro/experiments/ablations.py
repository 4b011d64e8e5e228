"""Ablations of the design choices DESIGN.md §5 names, and two studies
of what the paper takes as given, one function per report: TD-CMDP's
rules, TD-Auto's thresholds, Table I's cluster size, flat (MSC) vs
bushy (TD-CMD) plans under MapReduce job overhead, and the same two
plans under seeded faults.  :func:`report` writes all five.

The studies compare plans, not search times, so their searches run
without a deadline (MSC alone needs 10-20 s on L9).
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence, Tuple

from ..core import (
    PAPER_PARAMETERS,
    AutoThresholds,
    CostParameters,
    JoinAlgorithm,
    JoinGraph,
    LocalQueryIndex,
    PlanNode,
    PrunedTopDownEnumerator,
    StatisticsCatalog,
    choose_algorithm,
    make_builder,
    optimize,
)
from ..engine import Cluster, Executor, FaultInjector, RetryPolicy
from ..engine.mapreduce import (
    MapReduceSimulator,
    compile_stages,
    overhead_crossover_analysis,
)
from ..partitioning import HashSubjectObject
from ..rdf import Dataset
from ..sparql.ast import BGPQuery
from ..workloads import generate_lubm, lubm_query
from ..workloads.generators import cycle_query, dense_query, star_query, tree_query
from .tables import render_table, write_report

RULE_VARIANTS = {
    "all-rules": {},
    "no-rule1": {"rule1_ccmd_only": False},
    "no-rule2": {"rule2_binary_broadcast": False},
    "no-rule3": {"rule3_local_short_circuit": False},
}
CLUSTER_SIZES = (2, 5, 10, 25, 50)
#: label -> (query, seed of its synthetic statistics)
FLAT_VS_BUSHY = {
    "tree-8": (lambda: tree_query(8, random.Random(1)), 1),
    "tree-9": (lambda: tree_query(9, random.Random(4)), 4),
    "cycle-7": (lambda: cycle_query(7), 2),
    "cycle-9": (lambda: cycle_query(9), 2),
}
FAULT_RATES = (0.0, 0.05, 0.1, 0.2)
FAULT_WORKERS = 5
PATIENT = RetryPolicy(max_retries=16)


def _flat_and_bushy(query: BGPQuery, **options: Any) -> Tuple[PlanNode, PlanNode]:
    """MSC's flat plan and TD-CMD's bushy plan over Hash-SO."""
    options["partitioning"] = HashSubjectObject()
    flat = optimize(query, "msc", **options)
    return flat.plan, optimize(query, "td-cmd", **options).plan


def _faulted_run(
    dataset: Dataset, query: BGPQuery, plan: PlanNode, rate: float, seed: int
) -> Tuple[float, float, int]:
    """(simulated time, recovery cost, retries) of one execution under faults."""
    cluster = Cluster.build(dataset, HashSubjectObject(), cluster_size=FAULT_WORKERS)
    injector = FaultInjector(rate, seed=seed) if rate else None
    executor = Executor(cluster, fault_injector=injector, retry_policy=PATIENT)
    _, m = executor.execute(plan, query)
    return m.critical_path_cost, m.total_recovery_cost, m.total_retries


def rules(size: int = 9) -> str:
    """Each TD-CMDP rule switched off: #plans and cost relative to TD-CMD."""
    rows = []
    for label, query in (
        (f"tree-{size}", tree_query(size, random.Random(7))),
        (f"dense-{size}", dense_query(size, random.Random(7))),
        (f"star-{size}", star_query(size)),
    ):
        builder = make_builder(query, seed=7)
        index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
        baseline = optimize(query, "td-cmd", partitioning=index.partitioning, seed=7)
        for variant, rule in RULE_VARIANTS.items():
            pruned = PrunedTopDownEnumerator(builder.join_graph, builder, index, **rule)
            cost = pruned.optimize().cost
            plans = f"{pruned.stats.plans_considered:,}"
            rows.append([label, variant, plans, f"{cost / baseline.cost:.3f}"])
        plans = f"{baseline.stats.plans_considered:,}"
        rows.append([label, "TD-CMD", plans, "1.000"])
    content = render_table(
        "Ablation — TD-CMDP rules (space and plan-cost vs TD-CMD)",
        ["Query", "Variant", "#Plans", "Cost/TD-CMD"],
        rows,
        note=(
            "Rule 1 (ccmd-only k-way) drives the reduction on tree/dense; "
            "Rule 3 (local short-circuit) is decisive on hash-local stars "
            "(1 plan vs tens of thousands); plan costs stay at the optimum."
        ),
    )
    write_report("ablation_rules.txt", content)
    return content


def thresholds() -> str:
    """TD-Auto's choice on three large queries as θ_d and θ_n move."""
    queries = {
        "star-12": star_query(12),
        "tree-16": tree_query(16, random.Random(3)),
        "dense-16": dense_query(16, random.Random(3)),
    }
    rows = []
    for theta_d in (3, 5, 8):
        for theta_n in (15, 30):
            setting = AutoThresholds(
                degree=theta_d, pattern_count=theta_n, dense_pattern_count=14
            )
            for name, query in queries.items():
                choice = choose_algorithm(JoinGraph(query), setting)
                rows.append([f"θd={theta_d},θn={theta_n}", name, choice])
    content = render_table(
        "Ablation — TD-Auto decision-tree threshold sensitivity",
        ["Thresholds", "Query", "Chosen algorithm"],
        rows,
    )
    write_report("ablation_thresholds.txt", content)
    return content


def broadcast_share(cluster_size: int, queries: int = 8) -> Tuple[float, float]:
    """(share of broadcast joins, mean cost) of TD-CMD's plans for tree-8s."""
    parameters = CostParameters(cluster_size=cluster_size)
    trees = [tree_query(8, random.Random(seed)) for seed in range(queries)]
    results = [
        optimize(tree, "td-cmd", parameters=parameters, seed=seed)
        for seed, tree in enumerate(trees)
    ]
    joins = [join.algorithm for result in results for join in result.plan.joins()]
    broadcast = joins.count(JoinAlgorithm.BROADCAST) / max(len(joins), 1)
    return broadcast, sum(result.cost for result in results) / queries


def cluster_size(sizes: Sequence[int] = CLUSTER_SIZES, queries: int = 8) -> str:
    """Table I's n swept: broadcast share and mean cost of optimal plans."""
    rows = []
    for n in sizes:
        share, mean_cost = broadcast_share(n, queries)
        rows.append([str(n), f"{share * 100:.0f}%", f"{mean_cost:.1f}"])
    content = render_table(
        "Ablation — cost-model cluster size n (Table I sensitivity)",
        ["n", "Broadcast joins in optimal plans", "Avg plan cost"],
        rows,
        note=(
            "Broadcast transfer scales with n (β_B·(Σ−max)·n); repartition "
            "does not — the optimizer must shift toward repartition as n "
            "grows and plan costs must rise monotonically."
        ),
    )
    write_report("ablation_cluster_size.txt", content)
    return content


def flat_vs_bushy(labels: Sequence[str] = tuple(FLAT_VS_BUSHY)) -> str:
    """Waves, data cost and the start-up overhead where flat starts winning."""
    zero = MapReduceSimulator(PAPER_PARAMETERS, 0.0)
    rows = []
    for label in labels:
        build, seed = FLAT_VS_BUSHY[label]
        flat, bushy = _flat_and_bushy(build(), seed=seed)
        stages = [compile_stages(bushy), compile_stages(flat)]
        rows.append(
            [label]
            + [str(schedule.wave_count) for schedule in stages]
            + [f"{zero.makespan(schedule):.1f}" for schedule in stages]
            + [overhead_crossover_analysis(flat, bushy, PAPER_PARAMETERS).describe()]
        )
    content = render_table(
        "Ablation — flat (MSC) vs bushy (TD-CMD) under MapReduce job overhead",
        ["Query", "BushyWaves", "FlatWaves", "BushyData", "FlatData",
         "Crossover overhead"],
        rows,
        note=(
            "Crossover = per-job startup cost above which the flat plan "
            "wins; with cheap jobs the cost-optimal bushy plan wins — "
            "'the flattest plan is not always the best plan'."
        ),
    )
    write_report("ablation_flat_vs_bushy.txt", content)
    return content


def fault_tolerance(
    queries: Sequence[str] = ("L7", "L9"),
    rates: Sequence[float] = FAULT_RATES,
    seeds: int = 5,
) -> str:
    """Recovery cost of flat and bushy plans, measured and expected."""
    dataset = generate_lubm()
    rows: List[List[str]] = []
    for name in queries:
        query = lubm_query(name)
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        flat, bushy = _flat_and_bushy(query, statistics=statistics)
        for shape, plan in (("flat(MSC)", flat), ("bushy(TD-CMD)", bushy)):
            stages = compile_stages(plan)
            for rate in rates:
                measured = [
                    _faulted_run(dataset, query, plan, rate, seed)
                    for seed in range(seeds)
                ]
                expected = MapReduceSimulator(
                    PAPER_PARAMETERS, fault_rate=rate, retry_policy=PATIENT
                ).makespan(stages)
                rows.append(
                    [name, shape, str(stages.wave_count), f"{rate:.2f}"]
                    + [f"{sum(column) / seeds:.1f}" for column in zip(*measured)]
                    + [f"{expected:.1f}"]
                )
    content = render_table(
        "Fault tolerance — recovery overhead per plan shape "
        f"(mean over {seeds} injector seeds, {FAULT_WORKERS} workers)",
        ["Query", "Shape", "Waves", "FaultRate", "SimTime", "RecoveryCost",
         "Retries", "E[makespan]"],
        rows,
        note=(
            "SimTime/RecoveryCost/Retries are measured on the executor "
            "under seeded injection (fail-stop + transient + straggler "
            "mix); E[makespan] is the MapReduce simulator's closed-form "
            "expectation. Deeper bushy plans expose more fault sites on "
            "the critical path; flat plans pay more per retry."
        ),
    )
    write_report("fault_tolerance.txt", content)
    return content


def report() -> str:
    """Render and persist all five reports."""
    studies = (rules, thresholds, cluster_size, flat_vs_bushy, fault_tolerance)
    return "\n".join(study() for study in studies)


if __name__ == "__main__":
    print(report())
