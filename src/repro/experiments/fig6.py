"""Figure 6 reproduction: WatDiv stress test.

6a — average optimization time per WatDiv template, per algorithm.
6b — cumulative frequency distribution of plan cost normalized to
     TD-CMD's optimal plan for the same query.

The report runs 24 templates × 2 instances; the paper ran 124 × 100.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Tuple

from ..partitioning import HashSubjectObject
from ..workloads.watdiv import watdiv_workload
from .harness import FIGURE_SET, cumulative_frequency, run_algorithm
from .tables import render_table, write_report

COST_THRESHOLDS = (1.0, 2.0, 4.0, 8.0)


def run(
    templates: int = 124,
    instances_per_template: int = 2,
    algorithms: Sequence[str] = FIGURE_SET,
    deadline_seconds: Optional[float] = None,
    seed: int = 2017,
) -> Tuple[Dict[str, Dict[int, float]], Dict[str, List[float]]]:
    """Return (avg optimization time per template, cost ratios to TD-CMD)."""
    times: Dict[str, Dict[int, List[float]]] = {
        a: defaultdict(list) for a in algorithms
    }
    ratios: Dict[str, List[float]] = {a: [] for a in algorithms if a != "TD-CMD"}
    for template, query, statistics in watdiv_workload(
        templates, instances_per_template, seed=seed
    ):
        runs = {
            a: run_algorithm(
                a,
                query,
                statistics=statistics,
                partitioning=HashSubjectObject(),  # Section V-C setup
                deadline_seconds=deadline_seconds,
            )
            for a in algorithms
        }
        for a, r in runs.items():
            if not r.timed_out:
                times[a][template.identifier].append(r.elapsed_seconds)
        reference = runs.get("TD-CMD")
        if reference is not None and not reference.timed_out:
            for a, r in runs.items():
                if a != "TD-CMD" and not r.timed_out and reference.cost > 0:
                    ratios[a].append(r.cost / reference.cost)
    averages = {
        a: {t: sum(v) / len(v) for t, v in per.items() if v}
        for a, per in times.items()
    }
    return averages, ratios


def report(
    templates: int = 24,
    instances_per_template: int = 2,
    deadline_seconds: Optional[float] = None,
) -> str:
    """Render and persist the Figure 6 report."""
    averages, ratios = run(
        templates=templates,
        instances_per_template=instances_per_template,
        deadline_seconds=deadline_seconds,
    )
    # 6a: per-algorithm aggregate over templates (mean / max of averages)
    rows_a: List[List[str]] = []
    for algorithm, per_template in averages.items():
        values = list(per_template.values())
        if not values:
            rows_a.append([algorithm, "N/A", "N/A", "0"])
            continue
        rows_a.append(
            [
                algorithm,
                f"{sum(values) / len(values) * 1000:.2f}ms",
                f"{max(values) * 1000:.2f}ms",
                str(len(values)),
            ]
        )
    content_a = render_table(
        "Figure 6a — WatDiv optimization time (per-template averages)",
        ["Algorithm", "MeanOfTemplateAvgs", "WorstTemplate", "#TemplatesDone"],
        rows_a,
        note="Paper shape: MSC slowest, TD-CMDP/TD-Auto fastest on star-heavy WatDiv.",
    )
    # 6b: cumulative frequency of cost ratio to TD-CMD
    rows_b: List[List[str]] = []
    for algorithm, ratio_list in ratios.items():
        frequencies = cumulative_frequency(ratio_list, COST_THRESHOLDS)
        rows_b.append(
            [algorithm]
            + [f"{100 * f:.0f}%" for f in frequencies]
            + [str(len(ratio_list))]
        )
    content_b = render_table(
        "Figure 6b — Cumulative frequency of plan cost / TD-CMD cost",
        ["Algorithm"] + [f"≤{t:g}x" for t in COST_THRESHOLDS] + ["#Queries"],
        rows_b,
        note=(
            "Paper shape: TD-CMDP ≈ 100% at 1x; TD-Auto matches; HGR close; "
            "MSC <50% at 1x; DP-Bushy in between."
        ),
    )
    content = content_a + "\n" + content_b
    write_report("fig6_watdiv.txt", content)
    return content


if __name__ == "__main__":
    print(report())
