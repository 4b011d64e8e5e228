"""Table IV reproduction: query optimization time (L and U queries).

TD-Auto vs MSC vs DP-Bushy on the 15 benchmark queries with hash
partitioning and dataset-derived statistics.  The paper's shape to
check: MSC explodes on the dense queries (432 s on L9, >10 h on L10),
DP-Bushy is fast everywhere but with a much smaller plan space, and
TD-Auto sits in between while finding the best plans (Table VI).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..partitioning import HashSubjectObject
from .benchmark_queries import ordered_benchmark_queries
from .harness import PAPER_TRIO, AlgorithmRun, run_algorithm
from .tables import render_table, write_report


def run(
    algorithms=PAPER_TRIO, deadline_seconds: Optional[float] = None
) -> Dict[str, Dict[str, AlgorithmRun]]:
    """runs[query][algorithm] for the benchmark trio."""
    partitioning = HashSubjectObject()
    results: Dict[str, Dict[str, AlgorithmRun]] = {}
    for bench in ordered_benchmark_queries():
        per_query: Dict[str, AlgorithmRun] = {}
        for algorithm in algorithms:
            per_query[algorithm] = run_algorithm(
                algorithm,
                bench.query,
                statistics=bench.statistics,
                partitioning=partitioning,
                deadline_seconds=deadline_seconds,
            )
        results[bench.name] = per_query
    return results


def report(deadline_seconds: Optional[float] = None) -> str:
    """Render and persist the Table IV report."""
    results = run(deadline_seconds=deadline_seconds)
    rows: List[List[str]] = []
    for query_name, per_query in results.items():
        rows.append(
            [query_name] + [per_query[a].time_label for a in PAPER_TRIO]
        )
    content = render_table(
        "Table IV — Query optimization time",
        ["Query"] + list(PAPER_TRIO),
        rows,
        note=(
            "Expected shape (paper): MSC slowest everywhere and times out on "
            "dense queries (L9/L10); DP-Bushy fastest (smallest space); "
            "TD-Auto close to DP-Bushy while exploring far more plans."
        ),
    )
    write_report("table4_optimization_time.txt", content)
    return content


if __name__ == "__main__":
    print(report())
