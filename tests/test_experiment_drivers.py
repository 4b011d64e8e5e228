"""Smoke tests for the table/figure drivers at tiny scales.

The real runs live in benchmarks/; these keep the drivers importable,
runnable, and structurally correct inside the fast test suite.
"""

import pytest

from repro.experiments import fig6, fig7, fig8, table3, table7


class TestTable3:
    def test_rows_cover_all_queries(self):
        rows = table3.run()
        assert len(rows) == 15
        names = [row[0] for row in rows]
        assert names[0] == "L1" and names[-1] == "L10"

    def test_report_renders(self):
        content = table3.report()
        assert "Table III" in content


class TestTable7:
    def test_tiny_grid(self):
        results = table7.run(
            sizes=(6,), algorithms=("TD-CMD", "TD-CMDP"), deadline_seconds=30
        )
        assert set(results) == {
            ("chain", 6),
            ("cycle", 6),
            ("tree", 6),
            ("dense", 6),
        }
        for per_algorithm in results.values():
            for run in per_algorithm.values():
                assert not run.timed_out
                assert run.plans_considered > 0


class TestFig6:
    def test_tiny_workload(self):
        averages, ratios = fig6.run(
            templates=3,
            instances_per_template=1,
            algorithms=("TD-CMD", "TD-CMDP"),
            deadline_seconds=30,
        )
        assert set(averages) == {"TD-CMD", "TD-CMDP"}
        assert all(r >= 1.0 - 1e-9 for r in ratios["TD-CMDP"])


class TestFig7:
    def test_tiny_sweep(self):
        series = fig7.run(
            sizes=(4, 6),
            algorithms=("TD-CMD", "HGR-TD-CMD"),
            draws=1,
            deadline_seconds=30,
        )
        assert set(series) == {"chain", "cycle", "tree", "dense"}
        for per_algorithm in series.values():
            for sizes_map in per_algorithm.values():
                for value in sizes_map.values():
                    assert value is None or value >= 0


class TestFig8:
    def test_tiny_sweep(self):
        ratios = fig8.run(sizes=(5,), draws=1, deadline_seconds=30)
        for per_algorithm in ratios.values():
            for algorithm, ratio_list in per_algorithm.items():
                for ratio in ratio_list:
                    assert ratio >= 1.0 - 1e-9


class TestCLIExperiments:
    def test_table3_via_cli(self, capsys):
        from repro.__main__ import main

        assert main(["experiments", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out
