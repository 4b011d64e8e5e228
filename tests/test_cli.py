"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.rdf import save_ntriples, triple


@pytest.fixture
def query_file(tmp_path):
    path = tmp_path / "q.sparql"
    path.write_text(
        """
        SELECT ?x ?z WHERE {
          ?x <http://e/p> ?y .
          ?y <http://e/q> ?z .
        }
        """,
        encoding="utf-8",
    )
    return str(path)


@pytest.fixture
def data_file(tmp_path):
    triples = []
    for i in range(10):
        triples.append(triple(f"http://e/a{i}", "http://e/p", f"http://e/b{i}"))
        triples.append(triple(f"http://e/b{i}", "http://e/q", f"http://e/c{i}"))
    path = tmp_path / "data.nt"
    save_ntriples(triples, path)
    return str(path)


class TestOptimize:
    def test_text_output(self, capsys, query_file, data_file):
        assert main(["optimize", query_file, "--data", data_file]) == 0
        out = capsys.readouterr().out
        assert "scan[0]" in out

    def test_json_output(self, capsys, query_file):
        assert main(["optimize", query_file, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] in ("join", "scan")

    def test_dot_output(self, capsys, query_file):
        assert main(["optimize", query_file, "--dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_partitioning_flag(self, capsys, query_file, data_file):
        code = main(
            [
                "optimize",
                query_file,
                "--data",
                data_file,
                "--partitioning",
                "path-bmc",
            ]
        )
        assert code == 0

    def test_unknown_algorithm_fails(self, query_file):
        with pytest.raises(ValueError):
            main(["optimize", query_file, "--algorithm", "bogus"])

    def test_jobs_flag_runs_parallel_search(self, capsys, query_file):
        code = main(
            ["optimize", query_file, "--algorithm", "td-cmd", "--jobs", "2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "scan[0]" in captured.out
        # a 2-pattern query has a single root division: capped to serial
        serial = main(["optimize", query_file, "--algorithm", "td-cmd"])
        assert serial == 0

    def test_plan_cache_hits_across_invocations(
        self, capsys, tmp_path, query_file
    ):
        """Two CLI runs with the same seed: cold miss, then a warm hit
        returning the identical plan (stats are cross-process stable)."""
        cache = str(tmp_path / "plans.json")
        assert main(["optimize", query_file, "--plan-cache", cache]) == 0
        first = capsys.readouterr()
        assert "plan-cache: miss" in first.err
        assert main(["optimize", query_file, "--plan-cache", cache]) == 0
        second = capsys.readouterr()
        assert "plan-cache: hit" in second.err
        assert "+cache" in second.err
        assert second.out == first.out


class TestRun:
    def test_executes_and_prints_rows(self, capsys, query_file, data_file):
        assert main(["run", query_file, "--data", data_file, "--workers", "3"]) == 0
        captured = capsys.readouterr()
        assert "?x" in captured.out and "?z" in captured.out
        assert "result_rows: 10" in captured.err

    def test_limit_truncates_result(self, capsys, query_file, data_file):
        main(["run", query_file, "--data", data_file, "--limit", "2"])
        captured = capsys.readouterr()
        assert "result_rows: 2" in captured.err
        body = [line for line in captured.out.splitlines() if line][1:]
        assert len(body) == 2

    def test_default_print_cap_notes_remaining_rows(
        self, capsys, query_file, data_file
    ):
        # 10 result rows, no --limit: all execute, 20-row print cap is
        # not reached, so no truncation note either way
        main(["run", query_file, "--data", data_file])
        captured = capsys.readouterr()
        assert "result_rows: 10" in captured.err
        assert "more rows" not in captured.err

    def test_limit_pushdown_with_pipelined_engine(
        self, capsys, query_file, data_file
    ):
        main(
            [
                "run",
                query_file,
                "--data",
                data_file,
                "--engine",
                "pipelined",
                "--limit",
                "2",
            ]
        )
        captured = capsys.readouterr()
        assert "limit_pushdown: True" in captured.err
        assert "limit-pushdown: stream stopped after 2 row(s)" in captured.err
        assert "first_row_seconds" in captured.err

    def test_fault_injection_flags(self, capsys, query_file, data_file):
        code = main(
            [
                "run",
                query_file,
                "--data",
                data_file,
                "--workers",
                "3",
                "--fault-rate",
                "0.4",
                "--fault-seed",
                "7",
                "--max-retries",
                "32",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # same bindings as the fault-free run
        assert "result_rows: 10" in captured.err
        assert "faults_injected:" in captured.err
        assert "recovery_cost:" in captured.err

    def test_zero_fault_rate_output_unchanged(self, capsys, query_file, data_file):
        main(["run", query_file, "--data", data_file, "--workers", "3"])
        baseline = capsys.readouterr()
        main(
            [
                "run",
                query_file,
                "--data",
                data_file,
                "--workers",
                "3",
                "--fault-rate",
                "0",
                "--fault-seed",
                "99",
            ]
        )
        faulty = capsys.readouterr()
        assert faulty.out == baseline.out

        def simulated(err):  # drop wall-clock lines, keep simulated metrics
            return [line for line in err.splitlines() if "seconds" not in line]

        assert simulated(faulty.err) == simulated(baseline.err)

    def test_trace_resolves_statistics_under_the_query_root(
        self, capsys, tmp_path, query_file, data_file
    ):
        """``run`` hands the session its dataset: the statistics are
        resolved once, inside the one ``query`` root, and the printed
        rows are those of an untraced run."""
        main(["run", query_file, "--data", data_file])
        untraced = capsys.readouterr().out
        output = tmp_path / "run.json"
        assert main(["run", query_file, "--data", data_file, "--trace", str(output)]) == 0
        assert capsys.readouterr().out == untraced
        spans = {
            event["args"]["span_id"]: event
            for event in json.loads(output.read_text())["traceEvents"]
            if event["ph"] == "X"
        }
        resolves = [s for s in spans.values() if s["name"] == "statistics.resolve"]
        assert len(resolves) == 1
        ancestor = resolves[0]
        while ancestor["args"]["parent_id"] is not None:
            ancestor = spans[ancestor["args"]["parent_id"]]
        assert ancestor["name"] == "query"
        assert [s["name"] for s in spans.values() if s["args"]["parent_id"] is None] == ["query"]

    def test_fault_flags_parse_defaults(self):
        args = build_parser().parse_args(["run", "q.sparql", "--data", "d.nt"])
        assert args.fault_rate == 0.0
        assert args.fault_seed == 0
        assert args.max_retries is None


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_demo_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.query == "L7"
        assert args.workers == 10

    def test_experiments_unknown_name(self):
        with pytest.raises(SystemExit):
            main(["experiments", "table99"])


class TestGovernance:
    """A governance stop exits 4 with the structured report on every
    command, the optimizer's own deadline included."""

    @pytest.mark.parametrize("command", ["run", "optimize"])
    def test_optimizer_deadline_exits_4_with_a_report(
        self, capsys, query_file, data_file, command
    ):
        code = main([command, query_file, "--data", data_file, "--deadline", "1e-9"])
        assert code == 4
        err = capsys.readouterr().err
        assert "cause: deadline" in err
        assert "phase: optimize" in err

    def test_anytime_still_degrades(self, capsys, query_file, data_file):
        code = main(
            ["optimize", query_file, "--data", data_file,
             "--deadline", "1e-9", "--anytime"]
        )
        assert code == 0
        assert "[anytime" in capsys.readouterr().err

    def test_explain_charges_the_row_budget(self, capsys, query_file, data_file):
        code = main(
            ["run", query_file, "--data", data_file, "--explain", "--row-budget", "1"]
        )
        assert code == 4
        assert "cause: row-budget" in capsys.readouterr().err

    def test_demo_charges_the_row_budget(self, capsys):
        code = main(["demo", "--query", "L1", "--workers", "4", "--row-budget", "1"])
        assert code == 4
        assert "cause: row-budget" in capsys.readouterr().err

    def test_trace_run_charges_the_row_budget(self, capsys, tmp_path):
        output = tmp_path / "trace.json"
        code = main(
            ["trace", "L1", "--run", "--row-budget", "1", "--output", str(output)]
        )
        assert code == 4
        assert "cause: row-budget" in capsys.readouterr().err
        assert output.exists()

    def test_explain_with_adapt_prints_the_metrics_footer(
        self, capsys, query_file, data_file
    ):
        code = main(
            [
                "run", query_file, "--data", data_file,
                "--explain", "--adapt", "--adapt-every", "1",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "# result_rows: 10" in err
        assert "q-err" in err


def _jsonl_roots(path):
    spans = [json.loads(line) for line in path.read_text().splitlines() if line]
    return spans, [span for span in spans if span["parent_id"] is None]


class TestTrace:
    def test_run_is_one_query_root(self, capsys, tmp_path):
        output = tmp_path / "run.jsonl"
        code = main(
            ["trace", "L1", "--run", "--format", "jsonl", "--output", str(output)]
        )
        assert code == 0
        spans, roots = _jsonl_roots(output)
        assert [root["name"] for root in roots] == ["query"]
        children = {s["name"] for s in spans if s["parent_id"] == roots[0]["span_id"]}
        assert {"optimize", "execute"} <= children
        assert "rows=" in capsys.readouterr().err

    def test_examples_without_run_are_three_optimize_roots(self, tmp_path):
        output = tmp_path / "examples.jsonl"
        code = main(["trace", "examples", "--format", "jsonl", "--output", str(output)])
        assert code == 0
        _, roots = _jsonl_roots(output)
        assert [root["name"] for root in roots] == ["optimize"] * 3


class TestDemo:
    def test_rows_equal_the_reference(self, capsys):
        from repro.engine import evaluate_reference
        from repro.workloads import generate_lubm, lubm_query

        assert main(["demo", "--query", "L1", "--workers", "4"]) == 0
        expected = len(evaluate_reference(lubm_query("L1"), generate_lubm().graph))
        assert f"# rows={expected} " in capsys.readouterr().err
