"""Tests for the experiment harness and table drivers (smoke-level)."""

import pytest

from repro.core.join_graph import JoinGraph
from repro.experiments.benchmark_queries import (
    QUERY_ORDER,
    benchmark_queries,
    ordered_benchmark_queries,
)
from repro.experiments.harness import (
    ALGORITHMS,
    AlgorithmRun,
    cumulative_frequency,
    run_algorithm,
)
from repro.experiments.tables import render_table
from repro.workloads.generators import chain_query, star_query


class TestHarness:
    def test_run_algorithm_success(self):
        run = run_algorithm("TD-CMD", chain_query(5), deadline_seconds=30)
        assert not run.timed_out
        assert run.cost is not None and run.cost > 0
        assert run.plans_considered > 0
        assert run.time_label.endswith("s")
        assert run.result is not None

    def test_run_algorithm_timeout(self):
        run = run_algorithm("TD-CMD", star_query(16), deadline_seconds=0.01)
        assert run.timed_out
        assert run.cost is None
        assert run.time_label == ">0s"
        assert run.cost_label == "N/A"
        assert run.plans_label == "N/A" or run.plans_label.replace(",", "").isdigit()

    def test_registry_covers_paper_algorithms(self):
        assert {
            "TD-CMD",
            "TD-CMDP",
            "HGR-TD-CMD",
            "TD-Auto",
            "MSC",
            "DP-Bushy",
            "TriAD-DP",
        } == set(ALGORITHMS)

    def test_all_algorithms_run_one_query(self):
        query = chain_query(4)
        for algorithm in ALGORITHMS:
            run = run_algorithm(algorithm, query, deadline_seconds=30)
            assert not run.timed_out, algorithm
            assert run.cost > 0

    def test_cumulative_frequency(self):
        ratios = [1.0, 1.0, 2.5, 9.0]
        assert cumulative_frequency(ratios, (1, 2, 4, 8)) == [0.5, 0.5, 0.75, 0.75]
        assert cumulative_frequency([], (1, 2)) == [0.0, 0.0]


class TestTables:
    def test_render_table_alignment(self):
        content = render_table(
            "Demo", ["a", "bbbb"], [["1", "2"], ["333", "4"]], note="n"
        )
        lines = content.splitlines()
        assert lines[0] == "Demo"
        assert "a    bbbb" in lines[2]
        assert lines[-1] == "n"

    def test_render_table_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            render_table("x", ["a", "b"], [["only-one"]])


class TestBenchmarkQueries:
    def test_all_fifteen_present(self):
        queries = benchmark_queries()
        assert set(queries) == set(QUERY_ORDER)

    def test_statistics_align_with_queries(self):
        for bench in ordered_benchmark_queries():
            assert len(bench.statistics.per_pattern) == len(bench.query)
            for stats in bench.statistics.per_pattern:
                assert stats.cardinality >= 1.0

    def test_order_matches_paper(self):
        assert QUERY_ORDER[0] == "L1" and QUERY_ORDER[-1] == "L10"

    def test_shapes_attached(self):
        for bench in ordered_benchmark_queries():
            assert bench.shape in {"star", "chain", "tree", "dense"}
            # and consistent with the classifier
            assert JoinGraph(bench.query).shape().value == bench.shape
