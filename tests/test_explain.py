"""Tests for EXPLAIN ANALYZE (estimated vs measured diagnostics)."""

import pytest

from repro import OptimizeOptions, Optimizer
from repro.core import StatisticsCatalog
from repro.engine import Cluster, evaluate_reference
from repro.engine.explain import OperatorExplain
from repro.partitioning import HashSubjectObject


@pytest.fixture
def executed(toy_dataset, toy_query):
    method = HashSubjectObject()
    statistics = StatisticsCatalog.from_dataset(toy_query, toy_dataset)
    session = Optimizer(OptimizeOptions(statistics=statistics, partitioning=method))
    session.bind_cluster(Cluster.build(toy_dataset, method, cluster_size=3))
    run = session.run(toy_query, explain=True)
    return run.result, run.relation, run.explain


class TestExplain:
    def test_result_is_still_correct(self, executed, toy_dataset, toy_query):
        _, relation, _ = executed
        reference = evaluate_reference(toy_query, toy_dataset.graph)
        assert relation.rows == reference.rows

    def test_one_row_per_join_operator(self, executed):
        result, _, report = executed
        assert len(report.rows) == sum(1 for _ in result.plan.joins())

    def test_plan_costs_reported(self, executed):
        result, _, report = executed
        assert report.estimated_plan_cost == pytest.approx(result.cost)
        assert report.measured_plan_cost > 0

    def test_q_error_at_least_one(self, executed):
        _, _, report = executed
        for row in report.rows:
            assert row.q_error >= 1.0
        assert report.max_q_error >= 1.0

    def test_render_contains_all_operators(self, executed):
        _, _, report = executed
        text = report.render()
        for row in report.rows:
            assert row.operator in text
        assert "max q-error" in text


class TestQErrorMath:
    def test_symmetric(self):
        over = OperatorExplain("x", "local", 2, 100.0, 10, 0.0, 0.0)
        under = OperatorExplain("x", "local", 2, 10.0, 100, 0.0, 0.0)
        assert over.q_error == pytest.approx(under.q_error) == pytest.approx(10.0)

    def test_exact_estimate_is_one(self):
        exact = OperatorExplain("x", "local", 2, 50.0, 50, 0.0, 0.0)
        assert exact.q_error == pytest.approx(1.0)

    def test_zero_actual_clamped(self):
        row = OperatorExplain("x", "local", 2, 5.0, 0, 0.0, 0.0)
        assert row.q_error == pytest.approx(5.0)


class TestCLIExplain:
    def test_run_with_explain(self, capsys, tmp_path):
        from repro.__main__ import main
        from repro.rdf import save_ntriples, triple

        triples = [
            triple(f"http://e/a{i}", "http://e/p", f"http://e/b{i}") for i in range(6)
        ] + [
            triple(f"http://e/b{i}", "http://e/q", f"http://e/c{i}") for i in range(6)
        ]
        data = tmp_path / "d.nt"
        save_ntriples(triples, data)
        query = tmp_path / "q.sparql"
        query.write_text(
            "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }",
            encoding="utf-8",
        )
        assert main(["run", str(query), "--data", str(data), "--explain"]) == 0
        captured = capsys.readouterr()
        assert "q-err" in captured.err
