"""Smoke tests for the table/figure drivers at tiny scales.

The full runs are ``python -m repro experiments <name>``, which write
``results/*.txt``; these keep every driver importable, runnable and
structurally correct inside the fast test suite, and hold the shape
claims that are cheap enough to check here.
"""

import random

import pytest

from repro.core.counting import t_chain
from repro.core.join_graph import QueryShape
from repro.experiments import ablations, fig6, fig7, fig8, table3, table7
from repro.experiments.harness import FIGURE_SET, run_algorithm
from repro.workloads.generators import generate_query


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
        results = table7.run(sizes=(6,), algorithms=FIGURE_SET, deadline_seconds=30)
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

    def test_reports_the_search_space_not_the_bounded_work(self):
        """Table VII counts the unbounded space (2·T(Q) candidates on a
        chain); the timing experiments report the search's own work and
        pay for no counting pass."""
        query = generate_query(QueryShape.CHAIN, 6, random.Random(11))
        space = table7.space_run("TD-CMD", query, deadline_seconds=30)
        assert space.plans_considered == 2 * t_chain(6)
        timed = run_algorithm("TD-CMD", query, deadline_seconds=30)
        assert timed.plans_considered == timed.result.stats.plans_considered
        assert timed.plans_considered < space.plans_considered
        baseline = table7.space_run("MSC", query, deadline_seconds=30)
        assert baseline.plans_considered == baseline.result.stats.plans_considered


class TestFig6:
    def test_tiny_workload(self):
        algorithms = ("TD-CMD", "TD-CMDP", "TD-Auto", "DP-Bushy")
        averages, ratios = fig6.run(
            templates=3,
            instances_per_template=1,
            algorithms=algorithms,
            deadline_seconds=30,
        )
        assert set(averages) == set(algorithms)
        for algorithm in algorithms[1:]:
            assert len(ratios[algorithm]) == 3
            assert all(r >= 1.0 - 1e-9 for r in ratios[algorithm])


class TestFig7:
    def test_tiny_sweep(self):
        series = fig7.run(
            sizes=(4, 6),
            algorithms=FIGURE_SET,
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

    def test_heuristics_within_twice_optimal_on_trees(self):
        """Fig. 8c's shape: TD-CMDP and TD-Auto stay within 2x of TD-CMD."""
        for seed in range(3):
            query = generate_query(QueryShape.TREE, 8, random.Random(seed))
            optimum = run_algorithm("TD-CMD", query, seed=seed).cost
            for algorithm in ("TD-CMDP", "TD-Auto"):
                cost = run_algorithm(algorithm, query, seed=seed).cost
                assert cost <= 2.0 * optimum, (algorithm, seed)


class TestAblations:
    def test_every_report_at_a_tiny_size(self, monkeypatch):
        written = {}
        monkeypatch.setattr(
            ablations, "write_report", lambda name, text: written.update({name: text})
        )
        ablations.rules(size=5)
        ablations.thresholds()
        ablations.cluster_size(sizes=(2, 50), queries=2)
        ablations.flat_vs_bushy(labels=("tree-8", "cycle-7"))
        ablations.fault_tolerance(queries=("L7",), rates=(0.0, 0.2), seeds=1)
        assert set(written) == {
            "ablation_rules.txt",
            "ablation_thresholds.txt",
            "ablation_cluster_size.txt",
            "ablation_flat_vs_bushy.txt",
            "fault_tolerance.txt",
        }
        assert "no-rule3" in written["ablation_rules.txt"]
        assert "HGR-TD-CMD" in written["ablation_thresholds.txt"]
        assert "flat wins above" in written["ablation_flat_vs_bushy.txt"]
        assert "bushy(TD-CMD)  2      0.20" in written["fault_tolerance.txt"]

    def test_broadcast_share_does_not_rise_with_cluster_size(self):
        """Broadcast transfer grows with n, repartition does not (Table I)."""
        shares = [ablations.broadcast_share(n)[0] for n in (2, 50)]
        assert shares[1] <= shares[0]


class TestCLIExperiments:
    def test_table3_via_cli(self, capsys):
        from repro.__main__ import main

        assert main(["experiments", "table3"]) == 0
        assert "Table III" in capsys.readouterr().out
