"""The redesigned session API: :class:`OptimizeOptions` + :class:`Optimizer`.

The contract under test: a session produces *exactly* the plans the
legacy :func:`repro.core.optimizer.optimize` facade produced, while
owning cross-call state (statistics cache, plan cache, tracer) that the
facade rebuilt on every call.
"""

from __future__ import annotations

import pytest

from repro import OptimizeOptions, Optimizer, parse_query
from repro.core.optimizer import ALGORITHMS, optimize
from repro.core.plan_cache import PlanCache
from repro.partitioning import HashSubjectObject


class TestOptimizeOptions:
    def test_defaults_mirror_the_legacy_facade(self):
        options = OptimizeOptions()
        assert options.algorithm == "td-auto"
        assert options.jobs == 1
        assert options.seed == 0
        assert options.plan_cache is None
        assert options.verify is False
        assert options.trace is False

    def test_algorithm_key_lowercases(self):
        assert OptimizeOptions(algorithm="TD-CMDP").algorithm_key == "td-cmdp"

    def test_with_overrides_returns_a_modified_copy(self):
        base = OptimizeOptions(algorithm="td-cmd", seed=7)
        derived = base.with_overrides(jobs=4)
        assert derived.jobs == 4
        assert derived.algorithm == "td-cmd"
        assert derived.seed == 7
        assert base.jobs == 1  # the original is untouched


class TestSessionConstruction:
    def test_unknown_algorithm_fails_at_construction(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            Optimizer(OptimizeOptions(algorithm="bogus"))

    def test_nonpositive_jobs_fails_at_construction(self):
        with pytest.raises(ValueError, match="jobs"):
            Optimizer(OptimizeOptions(jobs=0))

    def test_keyword_overrides_compose_with_options(self):
        session = Optimizer(OptimizeOptions(seed=3), algorithm="td-cmdp")
        assert session.options.algorithm == "td-cmdp"
        assert session.options.seed == 3

    def test_bare_constructor_uses_defaults(self):
        session = Optimizer()
        assert session.options == OptimizeOptions()
        assert session.tracer is None


class TestSessionMatchesShim:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_same_plan_as_the_legacy_facade(self, fig1_query, algorithm):
        via_shim = optimize(fig1_query, algorithm=algorithm, seed=42)
        via_session = Optimizer(
            OptimizeOptions(algorithm=algorithm, seed=42)
        ).optimize(fig1_query)
        assert via_session.cost == via_shim.cost
        assert via_session.algorithm == via_shim.algorithm
        assert via_session.stats.summary() == via_shim.stats.summary()
        assert (
            via_session.plan.describe() == via_shim.plan.describe()
        )

    def test_partitioning_aware_session(self, fig1_query):
        method = HashSubjectObject()
        via_shim = optimize(
            fig1_query, algorithm="td-cmdp", seed=42, partitioning=method
        )
        via_session = Optimizer(
            OptimizeOptions(
                algorithm="td-cmdp", seed=42, partitioning=method
            )
        ).optimize(fig1_query)
        assert via_session.cost == via_shim.cost
        assert via_session.plan.describe() == via_shim.plan.describe()


class TestSessionState:
    def test_statistics_resolved_once_per_query_object(self, fig1_query):
        session = Optimizer(OptimizeOptions(seed=42))
        first = session.resolve_statistics(fig1_query)
        second = session.resolve_statistics(fig1_query)
        assert first is second
        session.optimize(fig1_query)
        assert session.resolve_statistics(fig1_query) is first

    def test_prime_statistics_short_circuits_resolution(self, fig1_query):
        session = Optimizer(OptimizeOptions(seed=42))
        catalog = Optimizer(OptimizeOptions(seed=7)).resolve_statistics(
            fig1_query
        )
        session.prime_statistics(fig1_query, catalog)
        assert session.resolve_statistics(fig1_query) is catalog

    def test_explicit_statistics_win(self, fig1_query):
        catalog = Optimizer(OptimizeOptions(seed=9)).resolve_statistics(
            fig1_query
        )
        session = Optimizer(OptimizeOptions(statistics=catalog, seed=42))
        assert session.resolve_statistics(fig1_query) is catalog

    def test_plan_cache_is_shared_across_calls(self, fig1_query):
        cache = PlanCache()
        session = Optimizer(
            OptimizeOptions(algorithm="td-cmdp", seed=42, plan_cache=cache)
        )
        first = session.optimize(fig1_query)
        second = session.optimize(fig1_query)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert second.cost == first.cost
        assert second.plan.describe() == first.plan.describe()

    def test_optimize_many_reuses_the_session(self, fig1_query):
        other = parse_query(
            """
            PREFIX p: <http://example.org/>
            SELECT * WHERE {
              ?x p:a ?y .
              ?y p:b ?z .
            }
            """,
            name="pair",
        )
        cache = PlanCache()
        session = Optimizer(
            OptimizeOptions(algorithm="td-cmd", seed=42, plan_cache=cache)
        )
        results = session.optimize_many([fig1_query, other, fig1_query])
        assert len(results) == 3
        assert results[0].cost == results[2].cost
        assert cache.stats.hits == 1  # third call reuses the first plan

    def test_verified_session_matches_unverified(self, fig1_query):
        plain = Optimizer(
            OptimizeOptions(algorithm="td-cmdp", seed=42)
        ).optimize(fig1_query)
        verified = Optimizer(
            OptimizeOptions(algorithm="td-cmdp", seed=42, verify=True)
        ).optimize(fig1_query)
        assert verified.cost == plain.cost
        assert verified.plan.describe() == plain.plan.describe()

    def test_repr_reflects_session_state(self, fig1_query):
        session = Optimizer(
            OptimizeOptions(
                algorithm="td-cmd", plan_cache=PlanCache(), trace=True
            )
        )
        session.optimize(fig1_query)
        text = repr(session)
        assert "td-cmd" in text
        assert "cache=1" in text
        assert "spans=" in text


@pytest.mark.usefixtures("shard_small")
class TestParallelSession:
    def test_parallel_session_matches_serial(self, fig1_query):
        serial = Optimizer(
            OptimizeOptions(algorithm="td-cmd", seed=42)
        ).optimize(fig1_query)
        parallel = Optimizer(
            OptimizeOptions(algorithm="td-cmd", seed=42, jobs=2)
        ).optimize(fig1_query)
        assert parallel.cost == serial.cost
        assert parallel.plan.describe() == serial.plan.describe()


class TestSessionRun:
    """``Optimizer.run``: the one optimize -> execute -> observe path."""

    @pytest.fixture(scope="class")
    def lubm(self):
        from repro.workloads import generate_lubm, lubm_query

        dataset = generate_lubm()
        return dataset, [lubm_query(f"L{i}") for i in range(1, 11)]

    @staticmethod
    def _session(dataset, query, **overrides):
        from repro.core import StatisticsCatalog

        return Optimizer(
            OptimizeOptions(
                statistics=StatisticsCatalog.from_dataset(query, dataset),
                partitioning=HashSubjectObject(),
                **overrides,
            )
        )

    @pytest.mark.parametrize("engine", ["columnar", "pipelined"])
    def test_run_equals_optimize_then_execute(self, lubm, engine):
        from repro.engine import Cluster, Executor

        dataset, queries = lubm
        cluster = Cluster.build(dataset, HashSubjectObject(), cluster_size=4)
        for query in queries:
            session = self._session(dataset, query, engine=engine)
            session.bind_cluster(cluster)
            run = session.run(query)
            plan = session.optimize(query).plan
            relation, metrics = Executor(cluster, engine=engine).execute(plan, query)
            assert run.relation.rows == relation.rows, query.name
            measured = (
                run.metrics.total_tuples_read,
                run.metrics.total_tuples_shipped,
                run.metrics.total_tuples_produced,
                run.metrics.peak_buffered_rows,
            )
            assert measured == (
                metrics.total_tuples_read,
                metrics.total_tuples_shipped,
                metrics.total_tuples_produced,
                metrics.peak_buffered_rows,
            ), query.name
            assert run.explain is None and run.adaptation is None

    @staticmethod
    def _charged_budgets(monkeypatch):
        """The budgets every ``Executor.execute`` call receives."""
        from repro.engine import Executor

        budgets = []
        execute = Executor.execute

        def spy(self, plan, query=None, budget=None, limit=None):
            budgets.append(budget)
            return execute(self, plan, query, budget=budget, limit=limit)

        monkeypatch.setattr(Executor, "execute", spy)
        return budgets

    def test_ungoverned_run_charges_no_budget(self, lubm, monkeypatch):
        from repro.engine import Cluster

        dataset, queries = lubm
        query = queries[0]
        session = self._session(dataset, query)
        assert session.budget_for(query) is None
        budgets = self._charged_budgets(monkeypatch)
        session.bind_cluster(Cluster.build(dataset, HashSubjectObject(), 4))
        session.run(query)
        assert budgets == [None]

    def test_governed_run_charges_one_budget(self, lubm, monkeypatch):
        from repro.engine import Cluster

        dataset, queries = lubm
        query = queries[0]
        session = self._session(dataset, query, row_budget=10**9)
        issued = []
        budget_for = Optimizer.budget_for

        def issue(self, query):
            issued.append(budget_for(self, query))
            return issued[-1]

        monkeypatch.setattr(Optimizer, "budget_for", issue)
        budgets = self._charged_budgets(monkeypatch)
        session.bind_cluster(Cluster.build(dataset, HashSubjectObject(), 4))
        session.run(query)
        assert len(issued) == 1 and issued[0] is not None
        assert len(budgets) == 1 and budgets[0] is issued[0]

    def test_run_before_bind_cluster_raises(self, lubm):
        dataset, queries = lubm
        with pytest.raises(ValueError, match="bind_cluster"):
            self._session(dataset, queries[0]).run(queries[0])

    def test_adapt_session_rejects_a_plain_cluster(self, lubm):
        from repro.engine import Cluster

        dataset, queries = lubm
        session = self._session(dataset, queries[0], adapt=True)
        with pytest.raises(ValueError, match="AdaptiveCluster"):
            session.bind_cluster(Cluster.build(dataset, HashSubjectObject(), 4))

    def test_traced_run_is_one_query_root(self, lubm):
        from repro.engine import Cluster

        dataset, queries = lubm
        query = queries[6]
        session = self._session(dataset, query, trace=True)
        session.bind_cluster(Cluster.build(dataset, HashSubjectObject(), 4))
        session.run(query)
        tracer = session.tracer
        (root,) = tracer.roots()
        assert root.name == "query"
        assert root.attributes["query"] == query.name
        children = {sp.name for sp in tracer.spans if sp.parent_id == root.span_id}
        assert {"optimize", "execute"} <= children

    def test_abort_inside_run_carries_the_root_id(self, lubm):
        from repro import QueryAborted
        from repro.engine import Cluster

        dataset, queries = lubm
        query = queries[6]
        session = self._session(dataset, query, trace=True, row_budget=1)
        session.bind_cluster(Cluster.build(dataset, HashSubjectObject(), 4))
        with pytest.raises(QueryAborted) as aborted:
            session.run(query)
        (root,) = session.tracer.roots()
        assert root.name == "query"
        assert aborted.value.query_id == root.attributes["query"] == query.name
        assert aborted.value.phase == "execute"

    def test_adaptive_run_observes_inside_the_query_root(self, lubm):
        from repro.partitioning import AdaptiveCluster

        dataset, queries = lubm
        query = queries[6]  # L7 ships under hash-so
        session = self._session(
            dataset, query, adapt=True, adapt_every=1, trace=True
        )
        session.bind_cluster(AdaptiveCluster.build(dataset, HashSubjectObject(), 4))
        run = session.run(query)
        assert run.metrics.total_tuples_shipped > 0
        assert run.adaptation is not None  # adapt_every=1: a round ran
        (root,) = session.tracer.roots()
        applied = [sp for sp in session.tracer.spans if sp.name == "adaptive.apply"]
        assert [sp.parent_id for sp in applied] == [root.span_id]
