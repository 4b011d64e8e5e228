"""Integration: every algorithm × every benchmark query, validated.

The fifteen paper queries are optimized with all seven registered
algorithms (MSC is skipped on its known-exponential pairs), every plan
is structurally validated, and the TD family's costs are checked for
the dominance relations the paper relies on:

* TD-CMD is minimal (it explores a superset of every other space),
* TD-Auto's cost equals its chosen variant's cost,
* TD-Auto's cost is at most MSC's and DP-Bushy's (Table VI).

The TD family's plans also pass the plan-invariant verifier, and
Table V's Path-BMC column is pinned: which queries are local, and what
TD-Auto's executed plans ship on ten workers.
"""

import pytest

from repro.analysis import VerificationContext, verify_result
from repro.core import JoinGraph, LocalQueryIndex
from repro.core.plans import validate_plan
from repro.engine import Cluster, Executor, evaluate_reference
from repro.experiments.benchmark_queries import QUERY_ORDER, benchmark_queries
from repro.experiments.harness import ALGORITHMS, run_algorithm
from repro.partitioning import HashSubjectObject, PathBMC, SemanticHash

SKIP_PAIRS = {("MSC", "L9"), ("MSC", "L10")}  # paper: 432 s / >10 h
TD_FAMILY = ("TD-CMD", "TD-CMDP", "HGR-TD-CMD", "TD-Auto")

#: tuples TD-Auto's executed plan ships under Path-BMC on 10 workers.
#: L3 / L6 / L9 / L10 are not local.  L5, U2 and U4 are local, yet
#: TD-Auto picks TD-CMD there, which has no Rule 3, and a bushy plan
#: prices below the flat local seed.
PATH_BMC_SHIPPED = {
    "L1": 0, "L2": 0, "L3": 50, "L4": 0, "L5": 90, "L6": 20, "L7": 0,
    "L8": 0, "L9": 200, "L10": 838,
    "U1": 0, "U2": 10, "U3": 0, "U4": 10, "U5": 0,
}


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


def test_td_auto_at_most_msc_and_dp_bushy(all_runs):
    """Table VI: TD-Auto's estimated cost ≤ MSC's and DP-Bushy's on
    every query all three complete."""
    compared = 0
    for name in QUERY_ORDER:
        auto = all_runs[("TD-Auto", name)]
        for baseline in ("MSC", "DP-Bushy"):
            run = all_runs.get((baseline, name))
            if auto.timed_out or run is None or run.timed_out:
                continue
            compared += 1
            assert auto.cost <= run.cost * (1 + 1e-9), (baseline, name)
    assert compared >= 2 * len(QUERY_ORDER) - 3


def test_td_family_plans_are_verifier_clean(all_runs):
    queries = benchmark_queries()
    partitioning = HashSubjectObject()
    for name in QUERY_ORDER:
        context = VerificationContext.for_query(
            queries[name].query,
            statistics=queries[name].statistics,
            partitioning=partitioning,
        )
        for algorithm in TD_FAMILY:
            run = all_runs[(algorithm, name)]
            assert not run.timed_out, (algorithm, name)
            report = verify_result(run.result, context)
            assert report.ok, f"{algorithm}/{name}: {report.render()}"


def test_path_bmc_localizes_eleven_of_fifteen_queries():
    queries = benchmark_queries()
    method = PathBMC()
    distributed = set()
    for name in QUERY_ORDER:
        join_graph = JoinGraph(queries[name].query)
        if not LocalQueryIndex(join_graph, method).is_local(join_graph.full):
            distributed.add(name)
    assert distributed == {"L3", "L6", "L9", "L10"}


def _execute(plans, method):
    """Execute each query's plan on 10 workers under *method*, as Table V
    does; the rows must be the reference rows.  Returns tuples shipped."""
    queries = benchmark_queries()
    clusters = {}
    shipped = {}
    for name, plan in plans.items():
        bench = queries[name]
        key = id(bench.dataset)
        if key not in clusters:
            clusters[key] = Cluster.build(bench.dataset, method, cluster_size=10)
        relation, metrics = Executor(clusters[key]).execute(plan, bench.query)
        reference = evaluate_reference(bench.query, bench.dataset.graph)
        assert relation.rows == reference.rows, name
        shipped[name] = metrics.total_tuples_shipped
    return shipped


def _td_auto_plans(method, names=QUERY_ORDER):
    queries = benchmark_queries()
    return {
        name: run_algorithm(
            "TD-Auto",
            queries[name].query,
            statistics=queries[name].statistics,
            partitioning=method,
        ).result.plan
        for name in names
    }


@pytest.mark.parametrize("algorithm", ["TD-Auto", "MSC", "DP-Bushy"])
def test_hash_so_plans_return_the_reference_rows(all_runs, algorithm):
    """Table V's three Hash-SO columns, every completed query."""
    plans = {
        name: run.result.plan
        for (owner, name), run in all_runs.items()
        if owner == algorithm and not run.timed_out
    }
    assert len(_execute(plans, HashSubjectObject())) >= len(QUERY_ORDER) - 2


def test_td_auto_under_2f_returns_the_reference_rows():
    """Table V's 2f column on a star, chain, tree and dense query."""
    method = SemanticHash(2)
    _execute(_td_auto_plans(method, ("L1", "U2", "L5", "L8")), method)


def test_td_auto_under_path_bmc_ships_the_recorded_tuples():
    """Table V's Path-BMC column: exact rows, exact shipping."""
    assert _execute(_td_auto_plans(PathBMC()), PathBMC()) == PATH_BMC_SHIPPED
