#!/usr/bin/env python
"""Resilience benchmark: the governance layer under a seeded chaos sweep.

Standalone script (stdlib only).  It drives the same episode space as ``tests/test_chaos.py`` — engines ×
LUBM queries × governance scenarios × seeds — and writes
``BENCH_resilience.json``:

* per-scenario outcome counts (``completed`` / ``degraded-anytime`` /
  ``aborted:<cause>``), with every episode classified and every
  completed episode bit-identical to the ``evaluate_reference`` oracle;
* abort-cause coverage (all four ``AbortCause`` values must appear);
* the zero-cost-off check: wall time of ungoverned execution vs the
  same execution under a generous (never-breached) budget, reported as
  an overhead ratio.

The ``--baseline`` gate is machine-independent where it can be: it
requires full classification coverage and zero correctness failures,
and bounds the governance overhead ratio by
``max(1.5, baseline_ratio * 2)``.

Usage::

    PYTHONPATH=src python benchmarks/bench_resilience.py --quick \
        --output BENCH_resilience.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import (
    AbortCause,
    Deadline,
    OptimizeOptions,
    Optimizer,
    QueryAborted,
    QueryBudget,
    SteppingClock,
)
from repro.core import StatisticsCatalog
from repro.engine import (
    ENGINES,
    CircuitBreaker,
    Cluster,
    Executor,
    FailStop,
    FaultInjector,
    RetryPolicy,
    Straggler,
    Transient,
    evaluate_reference,
)
from repro.partitioning import HashSubjectObject
from repro.workloads import generate_lubm, lubm_query

ALGORITHMS = ("td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto")
QUERIES = ("L2", "L7")
SCENARIOS = (
    "baseline",
    "anytime",
    "row-budget",
    "retry-budget",
    "exec-deadline",
)
PATIENT = RetryPolicy(max_retries=64)


def build_world(scale: float, cluster_size: int):
    dataset = generate_lubm(scale=scale)
    method = HashSubjectObject()
    cluster = Cluster.build(dataset, method, cluster_size=cluster_size)
    queries = {}
    for name in QUERIES:
        query = lubm_query(name)
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = (
            Optimizer(OptimizeOptions(statistics=statistics, partitioning=method))
            .optimize(query)
            .plan
        )
        oracle = evaluate_reference(query, dataset.graph)
        queries[name] = (query, statistics, plan, oracle)
    return method, cluster, queries


def _injector(rng, rate):
    if rate == 0.0:
        return None
    models = rng.choice([None, (FailStop(),), (Transient(),), (Straggler(),)])
    return FaultInjector(rate, seed=rng.randrange(2**16), models=models)


def run_episode(world, engine, qname, scenario, seed):
    """One lifecycle episode; returns (outcome, correct: bool)."""
    method, cluster, queries = world
    query, statistics, plan, oracle = queries[qname]
    rng = random.Random(f"{engine}|{qname}|{scenario}|{seed}")
    cluster.heal()

    def execute(run_plan, budget=None, rate=0.0, breaker=None):
        executor = Executor(
            cluster,
            fault_injector=_injector(rng, rate),
            retry_policy=PATIENT,
            engine=engine,
            circuit_breaker=breaker,
        )
        return executor.execute(run_plan, query, budget=budget)

    try:
        if scenario == "baseline":
            rate = rng.choice([0.0, 0.3, 0.6])
            breaker = CircuitBreaker() if rng.random() < 0.5 else None
            relation, _ = execute(plan, rate=rate, breaker=breaker)
            return "completed", relation.rows == oracle.rows
        if scenario == "anytime":
            ticks = rng.choice([0, 5, 20, 80, 320])
            budget = QueryBudget(
                deadline=Deadline.after(float(ticks), SteppingClock(step=1.0)),
                anytime=True,
                query_id=qname,
            )
            session = Optimizer(
                OptimizeOptions(
                    algorithm=rng.choice(ALGORITHMS),
                    statistics=statistics,
                    partitioning=method,
                )
            )
            result = session.optimize(query, budget=budget)
            relation, _ = execute(result.plan)
            outcome = (
                "degraded-anytime" if result.stats.degraded else "completed"
            )
            return outcome, relation.rows == oracle.rows
        if scenario == "row-budget":
            budget = QueryBudget(
                row_budget=rng.choice([1, 25, 500, 10**9]), query_id=qname
            )
            relation, _ = execute(
                plan, budget=budget, rate=rng.choice([0.0, 0.4])
            )
            return "completed", relation.rows == oracle.rows
        if scenario == "retry-budget":
            budget = QueryBudget(retry_budget=rng.randint(0, 4), query_id=qname)
            relation, _ = execute(plan, budget=budget, rate=0.8)
            return "completed", relation.rows == oracle.rows
        budget = QueryBudget(
            deadline=Deadline.after(
                float(rng.choice([0, 2, 5, 9, 14])), SteppingClock(step=1.0)
            ),
            query_id=qname,
        )
        relation, _ = execute(plan, budget=budget, rate=rng.choice([0.0, 0.4]))
        return "completed", relation.rows == oracle.rows
    except QueryAborted as abort:
        return f"aborted:{abort.cause.value}", True


def bench_episodes(world, seeds):
    outcomes: Counter = Counter()
    per_scenario = {scenario: Counter() for scenario in SCENARIOS}
    failures = 0
    started = time.perf_counter()
    for engine in ENGINES:
        for qname in QUERIES:
            for scenario in SCENARIOS:
                for seed in range(seeds):
                    outcome, correct = run_episode(
                        world, engine, qname, scenario, seed
                    )
                    outcomes[outcome] += 1
                    per_scenario[scenario][outcome] += 1
                    if not correct:
                        failures += 1
    causes = sorted(
        key.split(":", 1)[1] for key in outcomes if key.startswith("aborted:")
    )
    return {
        "episodes": sum(outcomes.values()),
        "wall_seconds": time.perf_counter() - started,
        "outcomes": dict(sorted(outcomes.items())),
        "per_scenario": {
            scenario: dict(sorted(counts.items()))
            for scenario, counts in per_scenario.items()
        },
        "abort_causes_observed": causes,
        "correctness_failures": failures,
    }


def bench_overhead(world, repetitions):
    """Zero-cost-off: ungoverned vs generous-budget execution wall time."""
    method, cluster, queries = world
    query, _, plan, oracle = queries["L7"]

    def timed(budget_factory):
        best = float("inf")
        for _ in range(repetitions):
            cluster.heal()
            executor = Executor(cluster)
            started = time.perf_counter()
            relation, _ = executor.execute(plan, query, budget=budget_factory())
            best = min(best, time.perf_counter() - started)
            assert relation.rows == oracle.rows
        return best

    plain = timed(lambda: None)
    governed = timed(
        lambda: QueryBudget(
            deadline=Deadline.after(3600.0),
            row_budget=10**9,
            retry_budget=10**6,
        )
    )
    return {
        "plain_seconds": plain,
        "governed_seconds": governed,
        "overhead_ratio": governed / plain if plain else 1.0,
    }


def check_baseline(report, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    ratio = report["overhead"]["overhead_ratio"]
    allowed = max(1.5, baseline["overhead"]["overhead_ratio"] * 2)
    if ratio > allowed:
        print(f"FAIL: governance overhead {ratio:.3f}x > allowed {allowed:.3f}x")
        return 1
    print(f"baseline ok: overhead {ratio:.3f}x <= {allowed:.3f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer seeds (CI smoke)"
    )
    parser.add_argument("--scale", type=float, default=0.3)
    parser.add_argument("--cluster-size", type=int, default=4)
    parser.add_argument("--output", default="BENCH_resilience.json")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline JSON; exit non-zero if the governance "
        "overhead ratio exceeds max(1.5, baseline * 2)",
    )
    args = parser.parse_args(argv)
    seeds = 5 if args.quick else 15
    repetitions = 3 if args.quick else 7

    world = build_world(args.scale, args.cluster_size)
    report = {
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "chaos": bench_episodes(world, seeds),
        "overhead": bench_overhead(world, repetitions),
    }

    chaos = report["chaos"]
    print(
        f"{chaos['episodes']} episodes in {chaos['wall_seconds']:.1f}s, "
        f"{chaos['correctness_failures']} correctness failures"
    )
    for outcome, count in chaos["outcomes"].items():
        print(f"  {outcome:>24s}: {count}")
    print(
        f"governance overhead: plain={report['overhead']['plain_seconds'] * 1000:.2f}ms "
        f"governed={report['overhead']['governed_seconds'] * 1000:.2f}ms "
        f"ratio={report['overhead']['overhead_ratio']:.3f}x"
    )

    Path(args.output).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")

    if chaos["correctness_failures"]:
        print("FAIL: completed episodes diverged from the oracle")
        return 1
    expected_causes = {cause.value for cause in AbortCause} - {"cancelled"}
    missing = expected_causes - set(chaos["abort_causes_observed"])
    if missing:
        print(f"FAIL: abort causes never exercised: {sorted(missing)}")
        return 1
    if args.baseline:
        return check_baseline(report, Path(args.baseline))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
