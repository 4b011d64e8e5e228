#!/usr/bin/env python3
"""LUBM analytics: the paper's benchmark queries end to end.

Generates the LUBM-like university dataset, then for each of L1–L10:
optimizes with TD-Auto, MSC, and DP-Bushy, executes all three plans on
a simulated 10-worker cluster, and compares estimated cost vs. actual
(simulated) processing time — the Table IV/V/VI story in one script.

Run:  python examples/lubm_analytics.py [--queries L5,L7] [--timeout 10]
"""

import argparse

from repro.engine import Cluster, Executor, evaluate_reference
from repro.experiments.harness import run_algorithm
from repro.partitioning import HashSubjectObject
from repro.core import StatisticsCatalog
from repro.workloads import generate_lubm, lubm_queries


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--queries",
        default="L1,L2,L3,L4,L5,L6,L7,L8",
        help="comma-separated query names (L1..L10)",
    )
    parser.add_argument("--timeout", type=float, default=10.0)
    parser.add_argument("--workers", type=int, default=10)
    args = parser.parse_args()

    dataset = generate_lubm()
    print(f"LUBM-like dataset: {dataset.triple_count} triples")
    partitioning = HashSubjectObject()
    cluster = Cluster.build(dataset, partitioning, cluster_size=args.workers)
    print(f"cluster: {cluster}\n")

    queries = lubm_queries()
    names = [n.strip() for n in args.queries.split(",") if n.strip()]
    header = f"{'query':6s} {'algorithm':10s} {'opt time':>10s} {'est. cost':>12s} {'sim time':>10s} {'rows':>6s} {'ok':>3s}"
    print(header)
    print("-" * len(header))
    for name in names:
        query = queries[name]
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        reference = evaluate_reference(query, dataset.graph)
        for algorithm in ("TD-Auto", "MSC", "DP-Bushy"):
            run = run_algorithm(
                algorithm,
                query,
                statistics=statistics,
                partitioning=partitioning,
                deadline_seconds=args.timeout,
            )
            if run.timed_out:
                print(f"{name:6s} {algorithm:10s} {'>' + str(args.timeout) + 's':>10s}"
                      f" {'N/A':>12s} {'N/A':>10s} {'N/A':>6s}")
                continue
            relation, metrics = Executor(cluster).execute(run.result.plan, query)
            ok = "✓" if relation.rows == reference.rows else "✗"
            print(
                f"{name:6s} {algorithm:10s} {run.elapsed_seconds:9.3f}s "
                f"{run.cost:12.2f} {metrics.critical_path_cost:10.2f} "
                f"{len(relation):6d} {ok:>3s}"
            )
        print()


if __name__ == "__main__":
    main()
