"""The pipelined engine and the two-entry engine table.

Covers the `Engine` surface (the `ENGINES` table, name resolution,
bring-your-own instances), bounded batches (boundary sweep, LIMIT
pushdown, bounded buffering, first-row metric), and — for every engine —
the replay when a worker dies while a scan is emitting.
"""

import random

import pytest

from repro.core import StatisticsCatalog, optimize
from repro.core.governance import QueryAborted, QueryBudget
from repro.engine import (
    Cluster,
    Engine,
    Executor,
    PipelinedEngine,
    evaluate_reference,
    plan_depth,
    resolve_engine,
)
from repro.engine.base import ENGINES
from repro.observability import runtime as obs
from repro.observability.spans import Tracer
from repro.partitioning import HashSubjectObject


def span_events(tracer, name):
    return [
        event
        for span in tracer.finished_spans()
        for event in span.events
        if event.name == name
    ]


@pytest.fixture
def planned(toy_dataset, toy_query):
    statistics = StatisticsCatalog.from_dataset(toy_query, toy_dataset)
    method = HashSubjectObject()
    result = optimize(toy_query, statistics=statistics, partitioning=method)
    cluster = Cluster.build(toy_dataset, method, cluster_size=3)
    return cluster, result.plan, toy_query


@pytest.fixture
def reference_rows(toy_dataset, toy_query):
    return evaluate_reference(toy_query, toy_dataset.graph)


# ----------------------------------------------------------------------
# the engine table
# ----------------------------------------------------------------------
class TestEngineRegistry:
    def test_engines_is_the_live_registry_key_view(self):
        assert "pipelined" in ENGINES
        assert "vectorized" not in ENGINES
        assert "reference" not in ENGINES
        assert tuple(ENGINES) == ("columnar", "pipelined")

    def test_specs_in_registration_order(self):
        assert all(spec.description for spec in ENGINES.values())
        assert type(ENGINES["columnar"].factory()) is Engine
        assert type(ENGINES["pipelined"].factory()) is PipelinedEngine
        assert [spec.factory().name for spec in ENGINES.values()] == list(ENGINES)
        # the only thing that tells the two apart
        assert ENGINES["columnar"].factory().chunk_size is None
        assert ENGINES["pipelined"].factory().chunk_size == 1024

    def test_unknown_spec_raises_with_choices(self):
        with pytest.raises(
            ValueError, match=r"unknown engine 'vectorized'.*columnar.*pipelined"
        ):
            resolve_engine("vectorized")

    def test_resolve_name_builds_fresh_instances(self):
        name, first = resolve_engine("pipelined")
        _, second = resolve_engine("pipelined")
        assert name == "pipelined"
        assert isinstance(first, PipelinedEngine)
        assert first is not second

    def test_resolve_instance_passes_through(self):
        instance = PipelinedEngine(chunk_size=4)
        name, resolved = resolve_engine(instance)
        assert name == "pipelined"
        assert resolved is instance

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError, match="chunk_size"):
            PipelinedEngine(chunk_size=0)


class TestExecutorEngineAcceptance:
    def test_executor_accepts_engine_instance(self, planned, reference_rows):
        cluster, plan, query = planned
        executor = Executor(cluster, engine=PipelinedEngine(chunk_size=16))
        relation, metrics = executor.execute(plan, query)
        assert relation.rows == reference_rows.rows
        assert executor.engine == "pipelined"

    def test_executor_accepts_unregistered_instance(self, planned, reference_rows):
        calls = {"scan": 0, "join": 0}

        class LocalEngine(Engine):
            name = "bring-your-own"

            def scan(self, cluster, pattern):
                calls["scan"] += 1
                return super().scan(cluster, pattern)

            def join(self, relations):
                calls["join"] += 1
                return super().join(relations)

        cluster, plan, query = planned
        executor = Executor(cluster, engine=LocalEngine())
        relation, _ = executor.execute(plan, query)
        assert executor.engine == "bring-your-own"
        assert relation.rows == reference_rows.rows
        # the two access-path seams are what the executor calls
        assert calls["scan"] == len(query.patterns) and calls["join"] > 0


# ----------------------------------------------------------------------
# chunk boundaries and equivalence
# ----------------------------------------------------------------------
class TestChunkBoundaries:
    @pytest.mark.parametrize("chunk_size", [1, 2, 7, 64, 1024])
    def test_rows_identical_across_chunk_sizes(
        self, planned, reference_rows, chunk_size
    ):
        """Results must not depend on where chunk boundaries fall —
        including chunk_size=1 (a boundary after every row) and sizes
        larger than any intermediate (a single chunk per stream)."""
        cluster, plan, query = planned
        executor = Executor(
            cluster, engine=PipelinedEngine(chunk_size=chunk_size)
        )
        relation, metrics = executor.execute(plan, query)
        assert relation.variables == reference_rows.variables
        assert relation.rows == reference_rows.rows
        assert metrics.result_rows == len(reference_rows)

    def test_peak_buffered_rows_bounded_by_depth(self, planned):
        cluster, plan, query = planned
        for chunk_size in (1, 4, 32):
            executor = Executor(
                cluster, engine=PipelinedEngine(chunk_size=chunk_size)
            )
            _, metrics = executor.execute(plan, query)
            assert metrics.peak_buffered_rows > 0
            assert (
                metrics.peak_buffered_rows <= chunk_size * plan_depth(plan)
            )

    def test_operator_labels_match_columnar_postorder(self, planned):
        cluster, plan, query = planned
        _, streamed = Executor(cluster, engine="pipelined").execute(plan, query)
        _, materialized = Executor(cluster, engine="columnar").execute(
            plan, query
        )
        assert [op.operator for op in streamed.operators] == [
            op.operator for op in materialized.operators
        ]


# ----------------------------------------------------------------------
# LIMIT pushdown
# ----------------------------------------------------------------------
class TestLimitPushdown:
    def test_limit_stops_the_stream_early(self, planned, reference_rows):
        cluster, plan, query = planned
        executor = Executor(cluster, engine=PipelinedEngine(chunk_size=2))
        relation, metrics = executor.execute(plan, query, limit=3)
        assert len(relation) == 3
        assert relation.rows <= reference_rows.rows
        assert metrics.limit_pushdown
        assert metrics.result_rows == 3

    def test_limit_larger_than_result_returns_everything(
        self, planned, reference_rows
    ):
        cluster, plan, query = planned
        relation, metrics = Executor(cluster, engine="pipelined").execute(
            plan, query, limit=10_000
        )
        assert relation.rows == reference_rows.rows
        assert metrics.limit_pushdown

    def test_limit_zero_returns_no_rows(self, planned):
        cluster, plan, query = planned
        relation, _ = Executor(cluster, engine="pipelined").execute(
            plan, query, limit=0
        )
        assert len(relation) == 0

    def test_negative_limit_rejected(self, planned):
        cluster, plan, query = planned
        with pytest.raises(ValueError, match="limit"):
            Executor(cluster, engine="pipelined").execute(plan, query, limit=-1)

    def test_materialized_engines_post_truncate(self, planned, reference_rows):
        """Emitting once, the limit is a deterministic truncation of the
        full result (the smallest rows by string form) — no pushdown flag."""
        cluster, plan, query = planned
        relation, metrics = Executor(cluster, engine="columnar").execute(
            plan, query, limit=3
        )
        assert not metrics.limit_pushdown
        assert relation.rows == set(sorted(reference_rows.rows, key=str)[:3])


# ----------------------------------------------------------------------
# first-row metric
# ----------------------------------------------------------------------
class TestFirstRow:
    def test_pipelined_first_row_precedes_wall_clock(self, planned):
        cluster, plan, query = planned
        tracer = Tracer()
        with obs.activate(tracer):
            _, metrics = Executor(cluster, engine="pipelined").execute(
                plan, query
            )
        assert metrics.first_row_seconds is not None
        assert 0 < metrics.first_row_seconds <= metrics.wall_seconds
        events = span_events(tracer, "executor.first_row")
        assert len(events) == 1
        assert events[0].attributes["engine"] == "pipelined"
        assert events[0].attributes["seconds"] == pytest.approx(
            metrics.first_row_seconds
        )

    def test_materialized_first_row_reconciles_to_wall(self, planned):
        """One sink stamps the first row for every engine: when the
        operators emit once it lands when the root's only batch does,
        within the wall time."""
        cluster, plan, query = planned
        _, metrics = Executor(cluster, engine="columnar").execute(plan, query)
        assert 0 < metrics.first_row_seconds <= metrics.wall_seconds

    def test_summary_reports_first_row(self, planned):
        cluster, plan, query = planned
        _, metrics = Executor(cluster, engine="pipelined").execute(plan, query)
        assert "first_row_seconds" in metrics.summary()


# ----------------------------------------------------------------------
# governance: per-chunk polls and charges
# ----------------------------------------------------------------------
class TestStreamingGovernance:
    def test_row_budget_aborts_mid_stream(self, planned):
        cluster, plan, query = planned
        budget = QueryBudget(row_budget=5, query_id="streamed")
        executor = Executor(cluster, engine=PipelinedEngine(chunk_size=2))
        with pytest.raises(QueryAborted, match="row budget"):
            executor.execute(plan, query, budget=budget)
        # the breach happened at a chunk boundary, not after the fact
        assert budget.rows_charged > 5

    def test_generous_budget_charges_all_produced_rows(self, planned):
        cluster, plan, query = planned
        budget = QueryBudget(row_budget=1_000_000)
        _, metrics = Executor(cluster, engine="pipelined").execute(
            plan, query, budget=budget
        )
        produced = sum(op.tuples_produced for op in metrics.operators)
        assert budget.rows_charged == produced


# ----------------------------------------------------------------------
# a worker dies while a scan is emitting: every engine replays the plan
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lubm_small():
    from repro.workloads import generate_lubm

    return generate_lubm(0.3)


@pytest.fixture(scope="module")
def lubm_planned(lubm_small):
    from repro.workloads import lubm_query

    dataset = lubm_small
    method = HashSubjectObject()
    planned = {}
    for name in ("L2", "L4", "L7", "L8"):
        query = lubm_query(name)
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = optimize(query, statistics=statistics, partitioning=method).plan
        planned[name] = (query, plan, evaluate_reference(query, dataset.graph))
    return dataset, method, planned


class TestMidScanWorkerDeath:
    @pytest.mark.parametrize(
        "engine",
        ["columnar", PipelinedEngine(1), PipelinedEngine(64)],
        ids=["columnar", "pipelined-1", "pipelined-64"],
    )
    @pytest.mark.parametrize("name", ["L2", "L4", "L7", "L8"])
    def test_kill_after_every_fragment_scan(
        self, lubm_planned, monkeypatch, name, engine
    ):
        """Kill worker 1 right after the k-th per-worker pattern scan,
        for every k: the scan sees the layout epoch move, the plan is
        replayed once on the degraded layout, and the rows are the
        oracle's."""
        from repro.engine import base

        dataset, method, planned = lubm_planned
        query, plan, oracle = planned[name]
        state = {"calls": 0, "kill_at": None, "cluster": None}

        def counting(original):
            def scan(source, pattern):
                relation = original(source, pattern)
                if state["calls"] == state["kill_at"]:
                    state["cluster"].fail_worker(1)
                state["calls"] += 1
                return relation

            return scan

        monkeypatch.setattr(
            base, "scan_pattern_encoded", counting(base.scan_pattern_encoded)
        )
        cluster = state["cluster"] = Cluster.build(dataset, method, cluster_size=4)
        executor = Executor(cluster, engine=engine)
        executor.execute(plan, query)
        scans = state["calls"]
        assert scans == 4 * len(list(query))
        for kill_at in range(scans):
            cluster.heal()
            state.update(calls=0, kill_at=kill_at)
            tracer = Tracer()
            with obs.activate(tracer):
                relation, _ = executor.execute(plan, query)
            assert relation.rows == oracle.rows, kill_at
            assert len(span_events(tracer, "executor.stream_restart")) == 1


# ----------------------------------------------------------------------
# one driver, one set of counters: swept over queries × layouts × chunks
# ----------------------------------------------------------------------
def _generated_cases():
    """Generated BGPs (the paper's shapes) and a small random graph
    over the predicates they use."""
    from repro.core.join_graph import QueryShape
    from repro.rdf import Dataset, triple
    from repro.workloads.generators import generate_query

    shapes = [
        (QueryShape.CHAIN, 4),
        (QueryShape.CYCLE, 4),
        (QueryShape.STAR, 4),
        (QueryShape.TREE, 5),
        (QueryShape.DENSE, 5),
    ]
    queries = [
        generate_query(shape, size, random.Random(seed), name=f"{shape.value}-{size}")
        for seed, (shape, size) in enumerate(shapes)
    ]
    predicates = sorted({str(tp.predicate.value) for q in queries for tp in q})
    rng = random.Random(2017)
    dataset = Dataset.from_triples(
        triple(
            f"http://e/v{rng.randrange(10)}",
            predicate,
            f"http://e/v{rng.randrange(10)}",
        )
        for predicate in predicates
        for _ in range(25)
    )
    return dataset, queries


@pytest.fixture(scope="module")
def sweep_cases(lubm_small):
    from repro.workloads import lubm_query

    generated, queries = _generated_cases()
    return [(generated, query) for query in queries] + [
        (lubm_small, lubm_query(f"L{i}")) for i in range(1, 9)
    ]


class TestCounterSweep:
    @pytest.mark.parametrize("partitioner", ["hash-so", "2f", "path-bmc", "un-1-hop"])
    def test_counters_do_not_depend_on_the_chunk_size(self, sweep_cases, partitioner):
        """Rows equal the oracle's; what is read and shipped, and by
        which operators, is the same for every chunk size; emitting once
        (chunk size None) also produces and prices the same, bounded
        batches never less (a repartition join on the probe spine
        re-produces cross-worker duplicates that arrive in different
        batches)."""
        from repro.__main__ import PARTITIONINGS

        method = PARTITIONINGS[partitioner]()
        clusters = {}
        for dataset, query in sweep_cases:
            if id(dataset) not in clusters:
                clusters[id(dataset)] = Cluster.build(dataset, method, cluster_size=4)
            cluster = clusters[id(dataset)]
            statistics = StatisticsCatalog.from_dataset(query, dataset)
            plan = optimize(query, statistics=statistics, partitioning=method).plan
            oracle = evaluate_reference(query, dataset.graph)
            _, expected = Executor(cluster, engine="columnar").execute(plan, query)
            engines = [Engine()] + [
                PipelinedEngine(chunk) for chunk in (1, 7, 64, 1024)
            ]
            for engine in engines:
                relation, metrics = Executor(cluster, engine=engine).execute(
                    plan, query
                )
                where = (query.name, engine.chunk_size)
                assert relation.rows == oracle.rows, where
                assert [op.operator for op in metrics.operators] == [
                    op.operator for op in expected.operators
                ], where
                assert metrics.total_tuples_read == expected.total_tuples_read, where
                assert (
                    metrics.total_tuples_shipped == expected.total_tuples_shipped
                ), where
                assert metrics.shipped_by_predicate == expected.shipped_by_predicate
                if engine.chunk_size is None:
                    assert (
                        metrics.total_tuples_produced
                        == expected.total_tuples_produced
                    )
                    assert metrics.critical_path_cost == expected.critical_path_cost
                else:
                    assert (
                        metrics.total_tuples_produced
                        >= expected.total_tuples_produced
                    ), where
                    assert (
                        metrics.critical_path_cost >= expected.critical_path_cost
                    ), where
