"""Table VII reproduction: size of the search space.

Counts the candidate plans each algorithm constructs for chain / cycle
/ tree / dense queries of 8, 16, and 30 triple patterns (the paper's
grid).  Expected shape: TD-CMD explores the largest space (its counts
on chains follow 2·T(Q) exactly), TD-CMDP prunes stars/trees/dense
hard, HGR-TD-CMD is smallest, MSC and DP-Bushy either tiny or N/A
(timeout) — the paper reports N/A for MSC beyond 8 patterns and for
DP-Bushy on large chains/cycles.

Pure Python is slower than the paper's Java, so entries whose run
exceeds the timeout are reported ``N/A`` at smaller sizes than in the
paper; the relative ordering is what reproduces.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.join_graph import QueryShape
from ..partitioning import HashSubjectObject
from ..workloads.generators import generate_query
from .harness import FIGURE_SET, AlgorithmRun, run_algorithm
from .tables import render_table, write_report

SHAPES = (QueryShape.CHAIN, QueryShape.CYCLE, QueryShape.TREE, QueryShape.DENSE)
SIZES = (8, 16, 30)


def run(
    sizes: Sequence[int] = SIZES,
    algorithms: Sequence[str] = FIGURE_SET,
    deadline_seconds: Optional[float] = None,
    seed: int = 11,
) -> Dict[Tuple[str, int], Dict[str, AlgorithmRun]]:
    """Run the shape × size × algorithm grid."""
    results: Dict[Tuple[str, int], Dict[str, AlgorithmRun]] = {}
    for shape in SHAPES:
        for size in sizes:
            query = generate_query(shape, size, random.Random(seed))
            results[(shape.value, size)] = {
                algorithm: run_algorithm(
                    algorithm,
                    query,
                    partitioning=HashSubjectObject(),  # Section V-C setup
                    deadline_seconds=deadline_seconds,
                    seed=seed,
                )
                for algorithm in algorithms
            }
    return results


def report(
    sizes: Sequence[int] = SIZES, deadline_seconds: Optional[float] = None
) -> str:
    """Render and persist the Table VII report."""
    results = run(sizes=sizes, deadline_seconds=deadline_seconds)
    rows: List[List[str]] = []
    for algorithm in FIGURE_SET:
        row = [algorithm]
        for shape in SHAPES:
            for size in sizes:
                row.append(results[(shape.value, size)][algorithm].plans_label)
        rows.append(row)
    headers = ["Algorithm"] + [
        f"{shape.value}-{size}" for shape in SHAPES for size in sizes
    ]
    content = render_table(
        "Table VII — Size of search space (#plans considered)",
        headers,
        rows,
        note=(
            "N/A = run exceeded the timeout (the paper's N/A entries are "
            "600 s Java timeouts; ours are wall-clock Python timeouts)."
        ),
    )
    write_report("table7_search_space.txt", content)
    return content


if __name__ == "__main__":
    print(report())
