"""Experiment drivers: one module per table/figure of the paper, plus
the design-choice ablations."""

from . import ablations, fig6, fig7, fig8, table3, table4, table5, table6, table7
from .benchmark_queries import (
    BenchmarkQuery,
    benchmark_queries,
    ordered_benchmark_queries,
)
from .harness import (
    ALGORITHMS,
    FIGURE_SET,
    PAPER_TRIO,
    AlgorithmRun,
    cumulative_frequency,
    default_timeout,
    run_algorithm,
)
from .tables import render_table, results_dir, write_report

__all__ = [
    "run_algorithm",
    "AlgorithmRun",
    "ALGORITHMS",
    "PAPER_TRIO",
    "FIGURE_SET",
    "default_timeout",
    "cumulative_frequency",
    "benchmark_queries",
    "ordered_benchmark_queries",
    "BenchmarkQuery",
    "render_table",
    "write_report",
    "results_dir",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "fig6",
    "fig7",
    "fig8",
    "ablations",
]
