"""Figure 7 reproduction: optimization time vs. query size, per shape.

One series per algorithm for chain / cycle / tree / dense queries from
the random generator, sizes swept from 2 up (paper: 2–30, 600 s cutoff;
the default Python sweep stops at 20 — pass ``sizes=range(2, 31, 2)``
and raise ``REPRO_TIMEOUT`` to push further).  Each point averages the
paper's three statistics draws.
"""

from __future__ import annotations

import random
from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.cardinality import StatisticsCatalog
from ..core.join_graph import QueryShape
from ..partitioning import HashSubjectObject
from ..workloads.generators import generate_query
from .harness import FIGURE_SET, run_algorithm
from .tables import render_table, write_report

SHAPES = (QueryShape.CHAIN, QueryShape.CYCLE, QueryShape.TREE, QueryShape.DENSE)


def run(
    shapes: Sequence[QueryShape] = SHAPES,
    sizes: Optional[Sequence[int]] = None,
    algorithms: Sequence[str] = FIGURE_SET,
    draws: int = 3,
    deadline_seconds: Optional[float] = None,
    seed: int = 2017,
) -> Dict[str, Dict[str, Dict[int, Optional[float]]]]:
    """series[shape][algorithm][size] = avg seconds or None (timeout)."""
    if sizes is None:
        sizes = tuple(range(2, 21, 2))
    minimum = {
        QueryShape.CHAIN: 2,
        QueryShape.CYCLE: 3,
        QueryShape.TREE: 2,
        QueryShape.DENSE: 4,
    }
    rng = random.Random(seed)
    series: Dict[str, Dict[str, Dict[int, Optional[float]]]] = {
        shape.value: {a: {} for a in algorithms} for shape in shapes
    }
    # once an algorithm times out at some size, skip larger sizes for it
    dead: Dict[Tuple[str, str], bool] = defaultdict(bool)
    for shape in shapes:
        for size in sizes:
            if size < minimum[shape]:
                continue
            query = generate_query(shape, size, random.Random(rng.randrange(2**31)))
            catalogs = [
                StatisticsCatalog.from_random(
                    query, random.Random(rng.randrange(2**31))
                )
                for _ in range(draws)
            ]
            for algorithm in algorithms:
                if dead[(shape.value, algorithm)]:
                    series[shape.value][algorithm][size] = None
                    continue
                elapsed: List[float] = []
                timed_out = False
                for catalog in catalogs:
                    result = run_algorithm(
                        algorithm,
                        query,
                        statistics=catalog,
                        partitioning=HashSubjectObject(),  # Section V-C setup
                        deadline_seconds=deadline_seconds,
                    )
                    if result.timed_out:
                        timed_out = True
                        break
                    elapsed.append(result.elapsed_seconds)
                if timed_out:
                    series[shape.value][algorithm][size] = None
                    dead[(shape.value, algorithm)] = True
                else:
                    series[shape.value][algorithm][size] = sum(elapsed) / len(elapsed)
    return series


def report(
    sizes: Optional[Sequence[int]] = None,
    deadline_seconds: Optional[float] = None,
) -> str:
    """Render and persist the Figure 7 report."""
    series = run(sizes=sizes, deadline_seconds=deadline_seconds)
    sections = []
    for shape, per_algorithm in series.items():
        all_sizes = sorted(
            {size for sizes_map in per_algorithm.values() for size in sizes_map}
        )
        rows = []
        for algorithm, sizes_map in per_algorithm.items():
            row = [algorithm]
            for size in all_sizes:
                value = sizes_map.get(size)
                if value is None and size in sizes_map:
                    row.append("T/O")
                elif value is None:
                    row.append("-")
                else:
                    row.append(f"{value * 1000:.1f}ms")
            rows.append(row)
        sections.append(
            render_table(
                f"Figure 7 ({shape}) — optimization time vs. #triple patterns",
                ["Algorithm"] + [str(s) for s in all_sizes],
                rows,
            )
        )
    content = "\n".join(sections) + (
        "\nPaper shape: TD-CMD cheap on chain/cycle, explodes on dense; "
        "TD-CMDP 2-5x under TD-CMD on tree/dense; HGR flattest; MSC "
        "exponential everywhere; T/O = timed out (skipped at larger sizes).\n"
    )
    write_report("fig7_optimization_time.txt", content)
    return content


if __name__ == "__main__":
    print(report())
