"""Table VI reproduction: estimated cost of the generated plans.

The paper uses this table to argue the cost model tracks runtime: the
plan with the minimal estimated cost usually also has the lowest
processing time, and TD-Auto's estimated costs are never above the
baselines' (it explores a superset of their spaces on these queries).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..partitioning import HashSubjectObject
from .benchmark_queries import ordered_benchmark_queries
from .harness import PAPER_TRIO, AlgorithmRun, run_algorithm
from .tables import render_table, write_report


def run(deadline_seconds: Optional[float] = None) -> Dict[str, Dict[str, AlgorithmRun]]:
    """Optimize the benchmark trio; return runs[query][algorithm]."""
    partitioning = HashSubjectObject()
    results: Dict[str, Dict[str, AlgorithmRun]] = {}
    for bench in ordered_benchmark_queries():
        results[bench.name] = {
            algorithm: run_algorithm(
                algorithm,
                bench.query,
                statistics=bench.statistics,
                partitioning=partitioning,
                deadline_seconds=deadline_seconds,
            )
            for algorithm in PAPER_TRIO
        }
    return results


def report(deadline_seconds: Optional[float] = None) -> str:
    """Render and persist the Table VI report."""
    results = run(deadline_seconds=deadline_seconds)
    rows: List[List[str]] = []
    violations = []
    for query_name, per_query in results.items():
        rows.append([query_name] + [per_query[a].cost_label for a in PAPER_TRIO])
        td = per_query["TD-Auto"]
        for other in ("MSC", "DP-Bushy"):
            run_other = per_query[other]
            if (
                not td.timed_out
                and not run_other.timed_out
                and td.cost > run_other.cost * (1 + 1e-9)
            ):
                violations.append((query_name, other))
    note = (
        "Expected shape: TD-Auto's estimated cost ≤ MSC and DP-Bushy on every "
        "query. "
        + ("HOLDS on all queries." if not violations else f"VIOLATED: {violations}")
    )
    content = render_table(
        "Table VI — Estimated cost of generated query plans",
        ["Query"] + list(PAPER_TRIO),
        rows,
        note=note,
    )
    write_report("table6_plan_cost.txt", content)
    return content


if __name__ == "__main__":
    print(report())
