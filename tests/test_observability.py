"""The observability subsystem: spans, metrics, exporters, merging.

Covers the tentpole guarantees:

* span trees are well-formed (no orphans, no overlapping same-track
  siblings) for real traced optimizations;
* exporters round-trip (JSON-lines is loss-free; the Chrome trace-event
  export passes the format validator);
* the ``jobs > 1`` parallel search merges worker traces
  deterministically (one track per worker, stable ids);
* the session builds the enumerator once, inside ``build``, whatever
  ``jobs`` is: a ``jobs > 1`` call that declines to shard records the
  span tree of a ``jobs=1`` call, governed or not;
* the tracer-side counters reconcile with the optimizer's
  :class:`~repro.core.enumeration.EnumerationStats` and the engine's
  :class:`~repro.engine.metrics.ExecutionMetrics` (the satellite
  property test).
"""

from __future__ import annotations

import json

import pytest

from repro import OptimizeOptions, Optimizer, parse_query
from repro.core.plan_cache import PlanCache
from repro.engine import Cluster, Executor, FaultInjector
from repro.experiments import ordered_benchmark_queries
from repro.observability import (
    MetricsRegistry,
    Span,
    Tracer,
    flame_summary,
    span_coverage,
    spans_from_jsonl,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    validate_span_tree,
)
from repro.observability import runtime as obs
from repro.observability.metrics import Counter
from repro.observability.spans import NULL_SPAN
from repro.partitioning import HashSubjectObject, PathBMC
from repro.workloads.generators import chain_query

SMALL_TEXT = """
PREFIX p: <http://example.org/>
SELECT * WHERE {
  ?x p:advisor ?y .
  ?y p:worksFor ?z .
  ?x p:memberOf ?z .
}
"""


def traced_session(**overrides) -> Optimizer:
    options = OptimizeOptions(trace=True, seed=42, **overrides)
    return Optimizer(options)


# ----------------------------------------------------------------------
# tracer primitives
# ----------------------------------------------------------------------
class TestTracer:
    def test_nested_spans_record_parentage(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert validate_span_tree(tracer.spans) == []

    def test_span_events_carry_timestamps_and_attributes(self):
        tracer = Tracer()
        with tracer.span("phase") as sp:
            sp.event("tick", n=1)
        (event,) = tracer.spans[0].events
        assert event.name == "tick"
        assert event.attributes == {"n": 1}
        assert sp.start <= event.timestamp <= sp.end

    def test_inactive_runtime_hands_out_the_null_span(self):
        assert obs.current_tracer() is None
        assert obs.span("anything") is NULL_SPAN
        assert obs.metrics() is None
        obs.count("nothing")  # all no-ops, no error
        obs.event("nothing")

    def test_activation_is_scoped(self):
        tracer = Tracer()
        with obs.activate(tracer):
            assert obs.current_tracer() is tracer
            with obs.span("work") as sp:
                assert sp is not NULL_SPAN
        assert obs.current_tracer() is None
        assert [sp.name for sp in tracer.spans] == ["work"]

    def test_validate_span_tree_flags_orphans_and_overlaps(self):
        orphan = Span("lost", span_id=2, parent_id=99, track="main", start=0.0)
        orphan.end = 1.0
        assert any("orphan" in p for p in validate_span_tree([orphan]))
        left = Span("a", span_id=1, parent_id=None, track="main", start=0.0)
        left.end = 2.0
        right = Span("b", span_id=2, parent_id=None, track="main", start=1.0)
        right.end = 3.0
        assert any("overlap" in p for p in validate_span_tree([left, right]))


class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.counter("c").inc(4)
        registry.gauge("g").set(7)
        registry.histogram("h").observe(2.0)
        registry.histogram("h").observe(4.0)
        snap = registry.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 7
        assert snap["histograms"]["h"]["count"] == 2
        assert snap["histograms"]["h"]["total"] == pytest.approx(6.0)
        assert registry.histogram("h").mean == pytest.approx(3.0)

    def test_counter_rejects_negative_increments(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("c").inc(-1)

    def test_merge_adds_counters_and_combines_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        b.gauge("g").set(9)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(5.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == 5
        assert snap["gauges"]["g"] == 9
        assert snap["histograms"]["h"]["min"] == 1.0
        assert snap["histograms"]["h"]["max"] == 5.0


# ----------------------------------------------------------------------
# traced optimization
# ----------------------------------------------------------------------
class TestTracedOptimize:
    def test_fig1_trace_is_well_formed_and_covers_the_root(self, fig1_query):
        session = traced_session(algorithm="td-cmdp")
        session.optimize(fig1_query)
        tracer = session.tracer
        assert validate_span_tree(tracer.spans) == []
        (root,) = [sp for sp in tracer.roots() if sp.name == "optimize"]
        names = {sp.name for sp in tracer.spans}
        assert {"optimize", "statistics.resolve", "build", "enumerate"} <= names
        assert span_coverage(tracer, root) >= 0.8
        assert root.attributes["algorithm"] == "td-cmdp"
        assert root.attributes["cost"] > 0

    def test_untraced_session_records_nothing(self, fig1_query):
        session = Optimizer(OptimizeOptions(seed=42))
        session.optimize(fig1_query)
        assert session.tracer is None
        assert obs.current_tracer() is None

    def test_tracing_does_not_change_the_answer(self, fig1_query):
        plain = Optimizer(OptimizeOptions(seed=42)).optimize(fig1_query)
        traced = traced_session().optimize(fig1_query)
        assert traced.cost == plain.cost
        assert traced.algorithm == plain.algorithm
        assert traced.stats.summary() == plain.stats.summary()

    def test_plan_cache_lookups_surface_as_events_and_counters(self, fig1_query):
        session = traced_session(plan_cache=PlanCache())
        session.optimize(fig1_query)
        session.optimize(fig1_query)
        counters = session.tracer.metrics.snapshot()["counters"]
        assert counters["plan_cache.misses"] == 1
        assert counters["plan_cache.stores"] == 1
        assert counters["plan_cache.hits"] == 1
        events = [
            e.name for sp in session.tracer.spans for e in sp.events
        ]
        assert events.count("plan_cache.lookup") == 2

    def test_hgr_trace_records_jgr_rounds(self):
        query = parse_query(SMALL_TEXT, name="small")
        session = traced_session(
            algorithm="hgr-td-cmd", partitioning=HashSubjectObject()
        )
        session.optimize(query)
        names = {sp.name for sp in session.tracer.spans}
        assert "jgr.reduce" in names
        counters = session.tracer.metrics.snapshot()["counters"]
        assert counters["jgr.rounds"] >= 1

    def test_tracing_work_per_optimize_is_bounded(self, monkeypatch):
        """What tracing adds to an optimize, counted instead of timed:
        a few spans, a few registry lookups, and counter increments
        per expanded subquery, never per division (TD-CMD enumerates
        up to 325 393 divisions on these queries)."""
        calls = {"lookups": 0, "increments": 0}
        lookup, increment = MetricsRegistry.counter, Counter.inc

        def counting_lookup(registry, name):
            calls["lookups"] += 1
            return lookup(registry, name)

        def counting_increment(counter, amount=1):
            calls["increments"] += 1
            increment(counter, amount)

        monkeypatch.setattr(MetricsRegistry, "counter", counting_lookup)
        monkeypatch.setattr(Counter, "inc", counting_increment)
        partitioning = HashSubjectObject()
        for bench in ordered_benchmark_queries():
            for algorithm in ("td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto"):
                session = traced_session(
                    algorithm=algorithm,
                    statistics=bench.statistics,
                    partitioning=partitioning,
                )
                calls.update(lookups=0, increments=0)
                result = session.optimize(bench.query)
                where = (bench.name, algorithm, calls)
                assert len(session.tracer) <= 6, where
                assert calls["lookups"] <= 16, where
                assert (
                    calls["increments"] <= 3 * result.stats.subqueries_expanded + 16
                ), where


# ----------------------------------------------------------------------
# exporters
# ----------------------------------------------------------------------
class TestExporters:
    def test_jsonl_round_trip_is_loss_free(self, fig1_query):
        session = traced_session()
        session.optimize(fig1_query)
        text = to_jsonl(session.tracer)
        rebuilt = spans_from_jsonl(text)
        original = session.tracer.finished_spans()
        assert [sp.to_dict() for sp in rebuilt] == [
            sp.to_dict() for sp in original
        ]

    def test_chrome_trace_validates_and_is_json_serializable(self, fig1_query):
        session = traced_session()
        session.optimize(fig1_query)
        data = to_chrome_trace(session.tracer)
        assert validate_chrome_trace(data) == []
        encoded = json.loads(json.dumps(data))
        assert validate_chrome_trace(encoded) == []
        names = {e["name"] for e in encoded["traceEvents"] if e["ph"] == "X"}
        assert "optimize" in names
        assert "optimizer.plans_considered" in (
            encoded["otherData"]["metrics"]["counters"]
        )

    def test_chrome_trace_validator_rejects_malformed_events(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": [{"ph": "X"}]}) != []
        bad_dur = {
            "traceEvents": [
                {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0, "dur": -1}
            ]
        }
        assert any("dur" in p for p in validate_chrome_trace(bad_dur))

    def test_flame_summary_renders_the_span_tree(self, fig1_query):
        session = traced_session()
        session.optimize(fig1_query)
        text = flame_summary(session.tracer)
        assert "optimize" in text
        assert "100.0%" in text


# ----------------------------------------------------------------------
# parallel worker-trace merge
# ----------------------------------------------------------------------
class TestParallelMerge:
    @pytest.fixture
    def parallel_session(self, fig1_query):
        session = traced_session(algorithm="td-cmd", jobs=2)
        session.optimize(fig1_query)
        return session

    def test_worker_spans_land_on_worker_tracks(self, parallel_session):
        tracer = parallel_session.tracer
        tracks = {sp.track for sp in tracer.spans}
        assert {"main", "worker-0", "worker-1"} <= tracks
        assert validate_span_tree(tracer.spans) == []

    def test_worker_roots_parent_under_the_parallel_span(self, parallel_session):
        tracer = parallel_session.tracer
        (parallel_span,) = [
            sp for sp in tracer.spans if sp.name == "parallel.search"
        ]
        worker_roots = [sp for sp in tracer.spans if sp.name == "worker"]
        assert len(worker_roots) == 2
        assert all(sp.parent_id == parallel_span.span_id for sp in worker_roots)

    def test_merge_is_deterministic(self, fig1_query):
        def shape(session):
            return [
                (sp.name, sp.track, sp.parent_id, sp.span_id)
                for sp in session.tracer.spans
            ]

        first = traced_session(algorithm="td-cmd", jobs=2)
        first.optimize(fig1_query)
        second = traced_session(algorithm="td-cmd", jobs=2)
        second.optimize(fig1_query)
        assert shape(first) == shape(second)
        assert len({sp.span_id for sp in first.tracer.spans}) == len(
            first.tracer.spans
        )


# ----------------------------------------------------------------------
# the serial fallback of the parallel search
# ----------------------------------------------------------------------
class TestSerialFallbackSpans:
    """One build site: ``jobs`` never changes the shape of the trace.

    A ``jobs > 1`` call that declines to shard records exactly the span
    tree of a ``jobs=1`` call, and a call that does shard still has one
    ``optimize`` and one ``build``.
    """

    CASES = {
        "too-small": (chain_query(2), None),
        "rule3-root": (chain_query(3), PathBMC()),  # chains are local there
    }

    @staticmethod
    def span_tree(session):
        by_id = {sp.span_id: sp.name for sp in session.tracer.spans}
        return sorted(
            (by_id.get(sp.parent_id, ""), sp.name) for sp in session.tracer.spans
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("governed", [False, True])
    def test_one_optimize_span_and_one_span_tree(self, case, governed):
        query, method = self.CASES[case]
        trees = []
        for jobs in (1, 2):
            session = traced_session(
                algorithm="td-cmdp",
                jobs=jobs,
                partitioning=method,
                deadline_seconds=600.0 if governed else None,
            )
            assert session.optimize(query).stats.workers == 1
            trees.append(self.span_tree(session))
        assert trees[0] == trees[1] == [
            ("", "optimize"),
            ("optimize", "build"),
            ("optimize", "enumerate"),
            ("optimize", "statistics.resolve"),
        ]

    def test_a_sharded_run_builds_once(self, fig1_query):
        session = traced_session(algorithm="td-cmdp", jobs=2)
        assert session.optimize(fig1_query).stats.workers == 2
        names = [sp.name for sp in session.tracer.spans]
        for name in ("optimize", "build", "parallel.search"):
            assert names.count(name) == 1, name
        assert ("optimize", "build") in self.span_tree(session)
        assert ("optimize", "parallel.search") in self.span_tree(session)


# ----------------------------------------------------------------------
# counter reconciliation (the satellite property test)
# ----------------------------------------------------------------------
class TestCounterReconciliation:
    @pytest.mark.parametrize("algorithm", ["td-cmd", "td-cmdp", "td-auto"])
    def test_optimizer_counters_match_enumeration_stats(
        self, fig1_query, algorithm
    ):
        session = traced_session(algorithm=algorithm)
        result = session.optimize(fig1_query)
        counters = session.tracer.metrics.snapshot()["counters"]
        for name, value in result.stats.summary().items():
            assert counters[f"optimizer.{name}"] == value

    @pytest.mark.parametrize("engine", ["columnar", "pipelined"])
    def test_engine_counters_match_execution_metrics(self, toy_dataset, engine):
        query = parse_query(
            """
            PREFIX e: <http://e/>
            SELECT * WHERE {
              ?a e:knows ?b .
              ?b e:worksFor ?o .
              ?a e:type ?t .
            }
            """,
            name="toy",
        )
        method = HashSubjectObject()
        session = traced_session(
            dataset=toy_dataset, partitioning=method
        )
        result = session.optimize(query)
        cluster = Cluster.build(toy_dataset, method, cluster_size=4)
        executor = Executor(
            cluster, fault_injector=FaultInjector(0.3, seed=5), engine=engine
        )
        with session.tracing():
            _, metrics = executor.execute(result.plan, query)
        counters = session.tracer.metrics.snapshot()["counters"]
        assert counters["engine.tuples_read"] == metrics.total_tuples_read
        assert counters["engine.tuples_shipped"] == metrics.total_tuples_shipped
        assert (
            counters["engine.tuples_produced"] == metrics.total_tuples_produced
        )
        assert counters["engine.retries"] == metrics.total_retries
        assert (
            counters["engine.faults_injected"] == metrics.total_faults_injected
        )
        # the executor's span attributes carry the same per-operator counts
        operator_spans = [
            sp
            for sp in session.tracer.spans
            if sp.name in ("scan", "join") and "operator" in sp.attributes
        ]
        assert len(operator_spans) == len(metrics.operators)
        assert sum(
            sp.attributes["tuples_produced"] for sp in operator_spans
        ) == metrics.total_tuples_produced
