"""Integration: every algorithm × every benchmark query, validated.

The fifteen paper queries are optimized with all seven registered
algorithms (MSC is skipped on its known-exponential pairs), every plan
is structurally validated, and the TD family's costs are checked for
the dominance relations the paper relies on:

* TD-CMD is minimal (it explores a superset of every other space),
* TD-Auto's cost equals its chosen variant's cost.
"""

import pytest

from repro.core.plans import validate_plan
from repro.experiments.benchmark_queries import QUERY_ORDER, benchmark_queries
from repro.experiments.harness import ALGORITHMS, run_algorithm
from repro.partitioning import HashSubjectObject

SKIP_PAIRS = {("MSC", "L9"), ("MSC", "L10")}  # paper: 432 s / >10 h


@pytest.fixture(scope="module")
def all_runs():
    queries = benchmark_queries()
    partitioning = HashSubjectObject()
    runs = {}
    for name in QUERY_ORDER:
        bench = queries[name]
        for algorithm in ALGORITHMS:
            if (algorithm, name) in SKIP_PAIRS:
                continue
            runs[(algorithm, name)] = run_algorithm(
                algorithm,
                bench.query,
                statistics=bench.statistics,
                partitioning=partitioning,
                deadline_seconds=20,
            )
    return runs


def test_every_run_produces_a_valid_plan(all_runs):
    queries = benchmark_queries()
    completed = 0
    for (algorithm, name), run in all_runs.items():
        if run.timed_out:
            continue
        completed += 1
        expected_bits = (1 << len(queries[name].query)) - 1
        validate_plan(run.result.plan, expected_bits)
    # everything except a handful of explosive pairs must complete
    assert completed >= len(all_runs) - 3


def test_tdcmd_is_minimal(all_runs):
    for name in QUERY_ORDER:
        best = all_runs[("TD-CMD", name)]
        if best.timed_out:
            continue
        for algorithm in ALGORITHMS:
            run = all_runs.get((algorithm, name))
            if run is None or run.timed_out:
                continue
            assert best.cost <= run.cost * (1 + 1e-9), (algorithm, name)


def test_td_auto_matches_its_choice(all_runs):
    from repro.core import JoinGraph, choose_algorithm

    queries = benchmark_queries()
    for name in QUERY_ORDER:
        auto = all_runs[("TD-Auto", name)]
        if auto.timed_out:
            continue
        choice = choose_algorithm(JoinGraph(queries[name].query))
        chosen = all_runs.get((choice, name))
        if chosen is not None and not chosen.timed_out:
            assert auto.cost == pytest.approx(chosen.cost), (name, choice)


def test_plan_covers_every_pattern(all_runs):
    queries = benchmark_queries()
    for (algorithm, name), run in all_runs.items():
        if run.timed_out:
            continue
        assert run.result.plan.pattern_count == len(queries[name].query)
