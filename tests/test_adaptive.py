"""Tests for workload-adaptive online repartitioning.

Covers the advisor's heat mining (decay, recurrence gating, ranking),
the adapted layout's query-side growth and plan-cache fingerprinting,
the cluster's budgeted incremental application (epoch semantics,
incremental ≡ from scratch, durable placements across fail and heal,
governance polling), the session-level feedback loop end to end, and
the skewed-workload replay with its exact counters.
"""

import pytest

from repro import parse_query
from repro.core import (
    CancellationToken,
    JoinGraph,
    LocalQueryIndex,
    PlanCache,
    QueryAborted,
    QueryBudget,
    StatisticsCatalog,
    optimize,
)
from repro.core.session import OptimizeOptions, Optimizer
from repro.engine import ENGINES, Cluster, Executor, evaluate_reference
from repro.partitioning import (
    AdaptiveCluster,
    DynamicPartitioning,
    HashSubjectObject,
    MigrationProposal,
    RepartitioningAdvisor,
)
from repro.partitioning.adaptive import (
    COLOCATE,
    MAX_PROPOSALS,
    REPLICATE_PREDICATE,
    WINDOW,
    structural_signature,
)
from repro.rdf import Dataset, triple
from repro.workloads import generate_lubm, lubm_query


@pytest.fixture
def chain_data():
    triples = []
    for i in range(30):
        triples.append(triple(f"http://e/a{i}", "http://e/p", f"http://e/b{i}"))
        triples.append(triple(f"http://e/b{i}", "http://e/q", f"http://e/c{i}"))
        triples.append(triple(f"http://e/c{i}", "http://e/r", f"http://e/d{i}"))
    return Dataset.from_triples(triples, name="chain-data")


@pytest.fixture
def chain_query():
    return parse_query(
        """
        SELECT * WHERE {
          ?x <http://e/p> ?y .
          ?y <http://e/q> ?z .
          ?z <http://e/r> ?w .
        }
        """,
        name="hot-chain",
    )


class _FakeMetrics:
    """Just the two attributes the advisor reads."""

    def __init__(self, shipped=0, by_predicate=None):
        self.total_tuples_shipped = shipped
        self.shipped_by_predicate = dict(by_predicate or {})


def _colocate(query, heat=100.0, key=None):
    return MigrationProposal(
        kind=COLOCATE,
        key=key or structural_signature(query),
        heat=heat,
        query=query,
    )


def _replicate(predicate, heat=100.0):
    return MigrationProposal(
        kind=REPLICATE_PREDICATE, key=predicate, heat=heat, predicate=predicate
    )


class TestStructuralSignature:
    def test_invariant_under_renaming(self):
        """Same canonicalization as the plan cache: variable names do
        not matter, so recurrence counting agrees with cache keying."""
        a = parse_query(
            "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }"
        )
        b = parse_query(
            "SELECT * WHERE { ?m <http://e/p> ?n . ?n <http://e/q> ?o . }"
        )
        assert structural_signature(a) == structural_signature(b)

    def test_different_shapes_differ(self):
        a = parse_query("SELECT * WHERE { ?x <http://e/p> ?y . }")
        b = parse_query("SELECT * WHERE { ?x <http://e/q> ?y . }")
        assert structural_signature(a) != structural_signature(b)


class TestAdvisor:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RepartitioningAdvisor(adapt_every=0)

    def test_due_cadence(self, chain_query):
        advisor = RepartitioningAdvisor(adapt_every=3)
        assert not advisor.due()
        for i in range(1, 7):
            advisor.observe(chain_query, _FakeMetrics())
            assert advisor.due() == (i % 3 == 0)

    def test_heat_decays_over_window(self, chain_query):
        advisor = RepartitioningAdvisor()
        advisor.observe(chain_query, _FakeMetrics(shipped=100))
        sig = structural_signature(chain_query)
        initial = advisor._query_heat[sig]
        cold = parse_query("SELECT * WHERE { ?a <http://e/zzz> ?b . }")
        for _ in range(2 * WINDOW):
            advisor.observe(cold, _FakeMetrics())
        assert advisor._query_heat[sig] < initial * 0.2

    def test_promotion_requires_recurrence(self, chain_query):
        """A one-off shipper never triggers a migration; repetition does."""
        advisor = RepartitioningAdvisor(adapt_every=1)
        advisor.observe(chain_query, _FakeMetrics(shipped=10_000))
        assert advisor.propose() == []
        for _ in range(4):
            advisor.observe(chain_query, _FakeMetrics(shipped=10_000))
        kinds = [p.kind for p in advisor.propose()]
        assert COLOCATE in kinds

    def test_cache_hits_count_as_recurrence(self, chain_query):
        """Repetition served from the plan cache is recurrence evidence
        even though the advisor saw only one observation."""
        advisor = RepartitioningAdvisor(adapt_every=1)
        advisor.observe(chain_query, _FakeMetrics(shipped=500), cache_hits=5)
        proposals = advisor.propose()
        assert [p.kind for p in proposals] == [COLOCATE]
        assert proposals[0].query is chain_query

    def test_predicate_replication_proposed_for_dominant_heat(self, chain_query):
        advisor = RepartitioningAdvisor(adapt_every=1)
        advisor.observe(
            chain_query,
            _FakeMetrics(by_predicate={"<http://e/hot>": 900, "<http://e/c>": 10}),
        )
        proposals = advisor.propose()
        assert [p.kind for p in proposals] == [REPLICATE_PREDICATE]
        assert proposals[0].predicate == "<http://e/hot>"

    def test_promoted_colocation_covers_its_predicates(self, chain_query):
        """Predicates explained by a promoted co-location are not also
        proposed for full replication."""
        advisor = RepartitioningAdvisor(adapt_every=1)
        for _ in range(4):
            advisor.observe(
                chain_query,
                _FakeMetrics(
                    shipped=1000, by_predicate={"<http://e/p>": 1000}
                ),
            )
        proposals = advisor.propose()
        assert [p.kind for p in proposals] == [COLOCATE]

    def test_ranking_hottest_first(self):
        advisor = RepartitioningAdvisor(adapt_every=1)
        small = parse_query("SELECT * WHERE { ?x <http://e/s> ?y . ?y <http://e/s2> ?z . }")
        big = parse_query("SELECT * WHERE { ?x <http://e/b> ?y . ?y <http://e/b2> ?z . }")
        for _ in range(4):
            advisor.observe(small, _FakeMetrics(shipped=10))
            advisor.observe(big, _FakeMetrics(shipped=10_000))
        proposals = advisor.propose()
        assert len(proposals) == 2
        assert proposals[0].key == structural_signature(big)
        assert proposals[0].heat > proposals[1].heat

    def test_max_proposals_cap(self):
        advisor = RepartitioningAdvisor(adapt_every=1)
        queries = [
            parse_query(
                f"SELECT * WHERE {{ ?x <http://e/p{i}> ?y . ?y <http://e/q{i}> ?z . }}"
            )
            for i in range(MAX_PROPOSALS + 2)
        ]
        for _ in range(5):  # interleaved, so every shape stays recurrent
            for i, q in enumerate(queries):
                advisor.observe(q, _FakeMetrics(shipped=100 + i))
        assert len(advisor.propose()) == MAX_PROPOSALS

    def test_mark_handled_retires_applied_and_skipped(self, chain_query):
        from repro.partitioning import AdaptationReport

        advisor = RepartitioningAdvisor(adapt_every=1)
        for _ in range(4):
            advisor.observe(chain_query, _FakeMetrics(shipped=100))
        proposals = advisor.propose()
        assert proposals
        advisor.mark_handled(AdaptationReport(skipped=list(proposals)))
        assert advisor.propose() == []


class TestAdaptiveOverlay:
    """The adapted layout's description: a ``DynamicPartitioning`` over
    hot queries *and* replicated predicates (what the class of this
    name was, before 2.2 folded it into its parent)."""

    def test_repr_fingerprints_hot_queries_and_predicates(self, chain_query):
        base = HashSubjectObject()
        other = parse_query("SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }")
        a = DynamicPartitioning(base, [chain_query])
        assert a.name == "dynamic(hash-so+1hot)"
        assert repr(DynamicPartitioning(base, [chain_query])) == repr(a)
        # another hot query, or a promoted predicate, rolls the cache key
        b = DynamicPartitioning(base, [other])
        c = DynamicPartitioning(base, [chain_query], ["<http://e/q>"])
        assert b.name == a.name and repr(b) != repr(a)
        assert c.name == "dynamic(hash-so+1hot+1pred)"
        assert len({repr(a), repr(b), repr(c)}) == 3

    def test_combine_query_absorbs_replicated_predicates(self, chain_query):
        """With q and r fully replicated, the whole 3-chain joins
        locally at the ?x star even though only p is co-located."""
        jg = JoinGraph(chain_query)
        base = LocalQueryIndex(jg, HashSubjectObject())
        assert not base.is_local(jg.full)
        overlay = DynamicPartitioning(
            HashSubjectObject(), [], ["<http://e/q>", "<http://e/r>"]
        )
        grown = LocalQueryIndex(jg, overlay)
        assert grown.is_local(jg.full)

    def test_disconnected_replicated_pattern_not_absorbed(self):
        """A replicated-predicate pattern sharing no variable with the
        local core stays out — absorbing it would cross-product."""
        query = parse_query(
            """
            SELECT * WHERE {
              ?x <http://e/p> ?y .
              ?a <http://e/q> ?b .
            }
            """
        )
        jg = JoinGraph(query)
        overlay = DynamicPartitioning(HashSubjectObject(), [], ["<http://e/q>"])
        index = LocalQueryIndex(jg, overlay)
        assert not index.is_local(jg.full)

    def test_partition_replicates_extent_everywhere(self, chain_data):
        overlay = DynamicPartitioning(HashSubjectObject(), [], ["<http://e/q>"])
        layout = overlay.partition(chain_data, 4)
        extent = {
            t for t in chain_data.graph if str(t.predicate) == "<http://e/q>"
        }
        for graph in layout.node_graphs:
            assert extent <= set(graph)


class TestAdaptiveCluster:
    def _optimized(self, query, dataset, method):
        stats = StatisticsCatalog.from_dataset(query, dataset)
        return optimize(
            query, algorithm="td-cmdp", statistics=stats, partitioning=method
        )

    def test_colocation_makes_hot_query_local(self, chain_data, chain_query):
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        reference = evaluate_reference(chain_query, chain_data.graph)
        static_plan = self._optimized(chain_query, chain_data, cluster.base_method)
        _, before = Executor(cluster).execute(static_plan.plan, chain_query)
        assert before.total_tuples_shipped > 0

        report = cluster.apply(
            [_colocate(chain_query)], replication_budget=1.0
        )
        assert report.changed
        assert report.migrations > 0
        assert report.replicated_triples > 0
        assert cluster.epoch == 1  # one bump per applied batch
        assert cluster.layout_version == 1

        adapted = cluster.adapted_method()
        assert isinstance(adapted, DynamicPartitioning)
        result = self._optimized(chain_query, chain_data, adapted)
        relation, after = Executor(cluster).execute(result.plan, chain_query)
        assert relation.rows == reference.rows
        assert after.total_tuples_shipped == 0

    def test_zero_budget_skips_everything(self, chain_data, chain_query):
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        report = cluster.apply([_colocate(chain_query)], replication_budget=0.0)
        assert not report.changed
        assert report.skipped == [_colocate(chain_query)]
        assert cluster.epoch == 0
        assert cluster.replicated_triples == 0
        assert cluster.adapted_method() is cluster.base_method

    def test_budget_cumulative_across_batches(self, chain_data, chain_query):
        """Copies already stored count against later batches."""
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        first = cluster.apply([_colocate(chain_query)], replication_budget=1.0)
        assert first.changed
        # a budget exactly covering what is already stored leaves no
        # allowance for the (expensive) full-predicate replication
        exhausted = (cluster.replicated_triples + 0.5) / len(chain_data.graph)
        second = cluster.apply(
            [_replicate("<http://e/q>")], replication_budget=exhausted
        )
        assert not second.changed
        assert second.skipped and second.skipped[0].predicate == "<http://e/q>"
        assert cluster.layout_version == 1

    def test_epoch_bumps_once_per_batch(self, chain_data, chain_query):
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        report = cluster.apply(
            [_colocate(chain_query), _replicate("<http://e/q>")],
            replication_budget=10.0,
        )
        assert len(report.applied) == 2
        assert cluster.epoch == 1
        assert report.epoch == 1

    def test_incremental_layout_equals_from_scratch(self):
        """After a batch, every worker serves exactly what the adapted
        method's ``partition`` builds on a fresh cluster, and the
        reported cost is the growth in stored triples."""
        dataset = generate_lubm()
        cluster = AdaptiveCluster.build(dataset, HashSubjectObject(), 4)
        stored = cluster.partitioning.total_stored_triples()
        predicate = str(lubm_query("L2").patterns[0].predicate)
        report = cluster.apply(
            [
                _colocate(lubm_query("L7")),
                _colocate(lubm_query("L8")),
                _replicate(predicate),
            ],
            replication_budget=10.0,
        )
        assert len(report.applied) == 3
        scratch = cluster.adapted_method().partition(dataset, 4)
        for worker in range(4):
            assert set(cluster.worker_fragment(worker).triples()) == set(
                scratch.fragments[worker].triples()
            )
            assert len(cluster.worker_fragment(worker)) == len(scratch.fragments[worker])
        assert scratch.total_stored_triples() - stored == cluster.replicated_triples
        assert report.replicated_triples == cluster.replicated_triples == 2769

    def test_placements_survive_fail_and_heal(self, chain_data, chain_query):
        """The adaptive layout is durable: fail-stop re-routing carries
        it in degraded mode and heal restores it."""
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        cluster.apply([_colocate(chain_query)], replication_budget=1.0)
        reference = evaluate_reference(chain_query, chain_data.graph)
        adapted = cluster.adapted_method()
        result = self._optimized(chain_query, chain_data, adapted)
        healthy = [set(f.triples()) for f in cluster.worker_fragments()]

        target, _ = cluster.fail_worker(0)
        relation, metrics = Executor(cluster).execute(result.plan, chain_query)
        assert relation.rows == reference.rows  # replica re-route kept matches
        assert len(cluster.worker_fragment(0)) == 0
        assert set(cluster.worker_fragment(target).triples()) == healthy[0] | healthy[target]

        cluster.heal()
        relation, metrics = Executor(cluster).execute(result.plan, chain_query)
        assert relation.rows == reference.rows
        assert metrics.total_tuples_shipped == 0  # placements restored
        assert [set(f.triples()) for f in cluster.worker_fragments()] == healthy

    def test_apply_while_degraded_is_served_now_and_after_heal(
        self, chain_data, chain_query
    ):
        """A batch applied with a worker down: matches anchored on the
        dead slot are served by a live worker meanwhile, and the healed
        layout is the from-scratch one."""
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        reference = evaluate_reference(chain_query, chain_data.graph)
        cluster.fail_worker(1)
        report = cluster.apply([_colocate(chain_query)], replication_budget=1.0)
        assert report.changed
        adapted = cluster.adapted_method()
        result = self._optimized(chain_query, chain_data, adapted)
        relation, metrics = Executor(cluster).execute(result.plan, chain_query)
        assert relation.rows == reference.rows
        assert metrics.total_tuples_shipped == 0
        assert len(cluster.worker_fragment(1)) == 0

        cluster.heal()
        relation, metrics = Executor(cluster).execute(result.plan, chain_query)
        assert relation.rows == reference.rows
        assert metrics.total_tuples_shipped == 0
        scratch = adapted.partition(chain_data, 4)
        assert [set(f.triples()) for f in cluster.worker_fragments()] == [
            set(f.triples()) for f in scratch.fragments
        ]

    def test_cancellation_interrupts_apply(self, chain_data, chain_query):
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        token = CancellationToken()
        token.cancel("session torn down")
        with pytest.raises(QueryAborted):
            cluster.apply(
                [_colocate(chain_query)],
                replication_budget=1.0,
                budget=QueryBudget(cancellation=token),
            )

    def test_negative_budget_rejected(self, chain_data, chain_query):
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        with pytest.raises(ValueError):
            cluster.apply([_colocate(chain_query)], replication_budget=-0.1)


class TestSessionFeedbackLoop:
    def _session(self, dataset, **overrides):
        options = OptimizeOptions(
            algorithm="td-cmdp",
            dataset=dataset,
            adapt=True,
            adapt_every=1,
            replication_budget=1.0,
            **overrides,
        )
        return Optimizer(options)

    def test_bind_cluster_requires_adapt(self, chain_data):
        session = Optimizer(OptimizeOptions(dataset=chain_data))
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        with pytest.raises(ValueError):
            session.bind_cluster(cluster)

    def test_observe_execution_noop_without_adapt(self, chain_data, chain_query):
        session = Optimizer(OptimizeOptions(dataset=chain_data))
        assert session.observe_execution(chain_query, _FakeMetrics()) is None

    def test_loop_converges_to_local_execution(self, chain_data, chain_query):
        """Driving the loop on a recurring shipper eventually migrates
        its matches; afterwards it ships nothing, results unchanged."""
        session = self._session(chain_data)
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        session.bind_cluster(cluster)
        reference = evaluate_reference(chain_query, chain_data.graph)

        changed = None
        shipped = []
        for _ in range(8):
            result = session.optimize(chain_query)
            relation, metrics = Executor(cluster).execute(
                result.plan, chain_query
            )
            assert relation.rows == reference.rows
            shipped.append(metrics.total_tuples_shipped)
            report = session.observe_execution(chain_query, metrics)
            if report is not None and report.changed:
                changed = report
                break
        assert changed is not None, f"never adapted; shipped={shipped}"
        assert shipped[0] > 0

        result = session.optimize(chain_query)
        relation, metrics = Executor(cluster).execute(result.plan, chain_query)
        assert relation.rows == reference.rows
        assert metrics.total_tuples_shipped == 0

    def test_plan_cache_rolls_over_on_layout_change(
        self, chain_data, chain_query
    ):
        """Entries keyed on the old layout stop matching after an
        adaptation round; other layouts' entries are untouched."""
        cache = PlanCache()
        session = self._session(chain_data, plan_cache=cache)
        cluster = AdaptiveCluster.build(chain_data, HashSubjectObject(), 4)
        session.bind_cluster(cluster)

        changed = None
        for _ in range(8):
            result = session.optimize(chain_query)
            relation, metrics = Executor(cluster).execute(
                result.plan, chain_query
            )
            report = session.observe_execution(chain_query, metrics)
            if report is not None and report.changed:
                changed = report
                break
        assert changed is not None
        hits_before = cache.stats.hits
        misses_before = cache.stats.misses

        # first optimization on the new layout: a miss (the adapted
        # overlay's fingerprint keys it differently), then steady hits
        session.optimize(chain_query)
        assert cache.stats.misses == misses_before + 1
        assert cache.stats.hits == hits_before
        session.optimize(chain_query)
        assert cache.stats.hits == hits_before + 1
        assert cache.stats.misses == misses_before + 1


class TestSkewedWorkloadReplay:
    """The 80/20 LUBM replay that used to be ``benchmarks/bench_adaptive.py
    --quick``, as exact counters: shipped tuples and replication costs are
    deterministic properties of (workload, layout), not of the runner."""

    #: one round — 8 hot (recurring shapes that ship under hash-so), 2 cold stars
    ROUND = ("L7", "L8", "L7", "L8", "L7", "L8", "L7", "L8", "L1", "L2")
    ROUNDS, WARMUP_ROUNDS = 4, 2

    def test_replay_stops_shipping_at_the_recorded_cost(self):
        dataset = generate_lubm()
        method = HashSubjectObject()
        queries = {name: lubm_query(name) for name in set(self.ROUND)}
        reference = {
            name: evaluate_reference(query, dataset.graph).rows
            for name, query in queries.items()
        }

        def run(session, cluster, name):
            """Optimize and execute on every engine: the same rows as the
            single-node reference, the same shipping on each."""
            plan = session.optimize(queries[name]).plan
            runs = [
                Executor(cluster, engine=engine).execute(plan, queries[name])
                for engine in ENGINES
            ]
            assert all(relation.rows == reference[name] for relation, _ in runs), name
            assert len({m.total_tuples_shipped for _, m in runs}) == 1, name
            return runs[0][1]

        static_cluster = Cluster.build(dataset, method, 4)
        static_session = Optimizer(OptimizeOptions(dataset=dataset, partitioning=method))
        static = {
            name: run(static_session, static_cluster, name).total_tuples_shipped
            for name in queries
        }
        assert static == {"L1": 0, "L2": 0, "L7": 448, "L8": 1846}

        session = Optimizer(
            OptimizeOptions(
                dataset=dataset,
                partitioning=method,
                adapt=True,
                adapt_every=5,
                replication_budget=0.3,
                plan_cache=PlanCache(),
            )
        )
        cluster = AdaptiveCluster.build(dataset, method, 4)
        session.bind_cluster(cluster)
        warmup = self.WARMUP_ROUNDS * len(self.ROUND)
        timeline, shipped_before, shipped_after = [], 0, 0
        for index, name in enumerate(self.ROUND * self.ROUNDS):
            metrics = run(session, cluster, name)
            if index >= warmup:
                shipped_before += static[name]
                shipped_after += metrics.total_tuples_shipped
            report = session.observe_execution(queries[name], metrics)
            if report is not None:
                assert not report.skipped
                timeline.append(
                    (index + 1, len(report.applied), report.replicated_triples, report.epoch)
                )
        assert (shipped_before, shipped_after) == (18352, 0)
        assert timeline == [(5, 1, 221, 1), (10, 1, 1612, 2)]
        assert cluster.replicated_triples == 1833  # 14.3 % of the dataset
        assert round(1833 / dataset.triple_count, 3) == 0.143
        assert [structural_signature(q) for q in cluster.hot_queries] == [
            structural_signature(queries["L7"]),
            structural_signature(queries["L8"]),
        ]
