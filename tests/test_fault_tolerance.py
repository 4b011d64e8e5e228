"""Fault injection and recovery: the engine survives worker failure.

Covers the injector's determinism, the cluster's liveness/re-routing,
the retry policy's pricing, executor correctness under every fault
model, the zero-rate no-overhead guarantee, and the degenerate-cluster
validation fix.
"""

import random

import pytest

from repro import AbortCause, QueryAborted
from repro.core import StatisticsCatalog, optimize
from repro.engine import (
    ENGINES,
    CircuitBreaker,
    Cluster,
    Executor,
    FailStop,
    FaultInjector,
    FaultKind,
    FaultToleranceError,
    MapReduceSimulator,
    RetryPolicy,
    Straggler,
    Transient,
    evaluate_reference,
)
from repro.partitioning import (
    AdaptiveCluster,
    DynamicPartitioning,
    HashSubjectObject,
    MigrationProposal,
)
from repro.partitioning.adaptive import COLOCATE
from repro.partitioning.base import Partitioning
from repro.rdf import Dataset, triple
from repro.rdf.terms import Variable
from repro.sparql.ast import BGPQuery, TriplePattern
from repro.workloads import generate_lubm, lubm_query


@pytest.fixture(scope="module")
def lubm():
    dataset = generate_lubm()
    query = lubm_query("L7")
    method = HashSubjectObject()
    statistics = StatisticsCatalog.from_dataset(query, dataset)
    plan = optimize(query, statistics=statistics, partitioning=method).plan
    reference = evaluate_reference(query, dataset.graph)
    return dataset, query, method, plan, reference


def _fresh_cluster(lubm, size=5):
    dataset, _, method, _, _ = lubm
    return Cluster.build(dataset, method, cluster_size=size)


class TestFaultInjector:
    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(-0.1)
        with pytest.raises(ValueError):
            FaultInjector(1.5)

    def test_zero_rate_is_inactive(self):
        injector = FaultInjector(0.0, seed=1)
        assert not injector.active
        assert injector.draw("op", 0, [0, 1, 2]) is None

    def test_same_seed_same_event_sequence(self):
        def events(seed):
            injector = FaultInjector(0.6, seed=seed)
            drawn = []
            for i in range(50):
                event = injector.draw(f"op{i}", 0, [0, 1, 2, 3])
                if event is not None:
                    drawn.append((event.kind, event.worker, event.slowdown))
            return drawn

        assert events(7) == events(7)
        assert events(7) != events(8)
        assert events(7)  # rate 0.6 over 50 draws must fire at least once

    def test_reset_replays_from_seed(self):
        injector = FaultInjector(0.5, seed=3)
        first = [injector.draw(f"op{i}", 0, [0, 1]) for i in range(20)]
        injector.reset()
        second = [injector.draw(f"op{i}", 0, [0, 1]) for i in range(20)]
        assert [e and (e.kind, e.worker) for e in first] == [
            e and (e.kind, e.worker) for e in second
        ]

    def test_fail_stop_downgraded_on_last_worker(self):
        injector = FaultInjector(1.0, seed=0, models=(FailStop(),))
        for i in range(10):
            event = injector.draw(f"op{i}", 0, [4])
            assert event is not None
            assert event.kind is FaultKind.TRANSIENT

    def test_events_are_recorded_and_stamped(self):
        injector = FaultInjector(1.0, seed=0, models=(Transient(),))
        injector.draw("join-x", 2, [0, 1])
        assert len(injector.events) == 1
        assert injector.events[0].operator == "join-x"
        assert injector.events[0].attempt == 2

    def test_weights_must_match_models(self):
        with pytest.raises(ValueError):
            FaultInjector(0.5, models=(Transient(),), weights=(1.0, 2.0))

    def test_straggler_slowdown_bounds_validated(self):
        with pytest.raises(ValueError):
            Straggler(min_slowdown=0.5)
        with pytest.raises(ValueError):
            Straggler(min_slowdown=4.0, max_slowdown=2.0)


class TestRetryPolicy:
    def test_exponential_backoff_sequence(self):
        policy = RetryPolicy(max_retries=4, backoff_base=10.0, backoff_multiplier=2.0)
        assert [policy.backoff_cost(k) for k in (1, 2, 3)] == [10.0, 20.0, 40.0]
        assert policy.total_backoff(3) == 70.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)

    def test_expected_attempts_truncated_geometric(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.expected_attempts(0.0) == 1.0
        # 1 + p + p² with p = 0.5
        assert policy.expected_attempts(0.5) == pytest.approx(1.75)

    def test_expected_backoff(self):
        policy = RetryPolicy(max_retries=2, backoff_base=10.0, backoff_multiplier=2.0)
        # p·b + p²·(b·m) with p = 0.5
        assert policy.expected_backoff(0.5) == pytest.approx(0.5 * 10 + 0.25 * 20)
        assert policy.expected_backoff(0.0) == 0.0


class TestClusterLiveness:
    def _cluster(self, size=4):
        dataset = Dataset.from_triples(
            [triple(f"http://e/a{i}", "http://e/p", f"http://e/b{i}") for i in range(20)]
        )
        return Cluster.build(dataset, HashSubjectObject(), cluster_size=size)

    def test_degenerate_cluster_size_rejected(self):
        dataset = Dataset.from_triples([triple("http://e/a", "http://e/p", "http://e/b")])
        with pytest.raises(ValueError, match="cluster_size"):
            Cluster.build(dataset, HashSubjectObject(), cluster_size=0)
        with pytest.raises(ValueError, match="cluster_size"):
            Cluster.build(dataset, HashSubjectObject(), cluster_size=-3)

    def test_partitioning_without_workers_rejected(self):
        empty = Partitioning(method_name="broken", fragments=[])
        with pytest.raises(ValueError, match="no node graphs"):
            Cluster(empty)

    def test_fail_worker_preserves_data(self):
        cluster = self._cluster()
        stored_before = set()
        for graph in cluster.worker_graphs():
            stored_before.update(graph)
        target, moved = cluster.fail_worker(1)
        assert not cluster.is_live(1)
        assert cluster.live_size == 3
        assert cluster.failed_workers == [1]
        assert target in cluster.live_workers
        assert moved == len(cluster.partitioning.node_graphs[1])
        # every stored triple survives in the degraded layout
        stored_after = set()
        for graph in cluster.worker_graphs():
            stored_after.update(graph)
        assert stored_after == stored_before
        assert len(cluster.worker_graph(1)) == 0

    def test_replica_is_never_mutated(self):
        cluster = self._cluster()
        originals = [len(g) for g in cluster.partitioning.node_graphs]
        cluster.fail_worker(0)
        cluster.fail_worker(2)
        assert [len(g) for g in cluster.partitioning.node_graphs] == originals
        cluster.heal()
        # healed: every slot serves the durable replica itself again
        assert cluster.worker_fragments() == cluster.partitioning.fragments
        assert [len(g) for g in cluster.worker_graphs()] == originals

    def test_route_avoids_dead_workers(self):
        cluster = self._cluster()
        cluster.fail_worker(0)
        cluster.fail_worker(1)
        for ident in range(50):
            assert cluster.route_id(ident) in cluster.live_workers

    def test_route_unchanged_while_healthy(self):
        cluster = self._cluster()
        for ident in range(20):
            # Knuth's multiplicative hash of the id, nothing folded
            assert cluster.route_id(ident) == (ident * 2654435761 % 2**32) % cluster.size

    def test_cannot_fail_last_worker_or_dead_worker(self):
        cluster = self._cluster(size=2)
        cluster.fail_worker(0)
        with pytest.raises(ValueError, match="already dead"):
            cluster.fail_worker(0)
        with pytest.raises(ValueError, match="last live"):
            cluster.fail_worker(1)
        with pytest.raises(ValueError, match="no such worker"):
            cluster.fail_worker(9)

    def test_cascading_failures_chain_reroutes(self):
        cluster = self._cluster()
        stored = set()
        for graph in cluster.worker_graphs():
            stored.update(graph)
        cluster.fail_worker(1)
        cluster.fail_worker(2)  # absorbs worker 1's re-routed partition, then dies
        assert cluster.live_workers == [0, 3]
        survivors = set()
        for graph in cluster.worker_graphs():
            survivors.update(graph)
        assert survivors == stored


class TestExecutorUnderFaults:
    def test_zero_rate_injector_is_byte_identical(self, lubm):
        _, query, _, plan, _ = lubm
        baseline_rel, baseline = Executor(_fresh_cluster(lubm)).execute(plan, query)
        injector = FaultInjector(0.0, seed=9)
        relation, metrics = Executor(
            _fresh_cluster(lubm), fault_injector=injector
        ).execute(plan, query)
        assert relation.rows == baseline_rel.rows
        assert metrics.critical_path_cost == baseline.critical_path_cost
        assert metrics.summary().keys() == baseline.summary().keys()
        assert not metrics.fault_injection_enabled
        assert metrics.total_recovery_cost == 0.0

    @pytest.mark.parametrize(
        "models",
        [(FailStop(),), (Transient(),), (Straggler(),), None],
        ids=["fail-stop", "transient", "straggler", "mixed"],
    )
    def test_recovered_execution_matches_reference(self, lubm, models):
        _, query, _, plan, reference = lubm
        for seed in range(4):
            cluster = _fresh_cluster(lubm)
            injector = FaultInjector(0.4, seed=seed, models=models)
            executor = Executor(
                cluster,
                fault_injector=injector,
                retry_policy=RetryPolicy(max_retries=64),
            )
            relation, metrics = executor.execute(plan, query)
            assert relation.rows == reference.rows
            assert metrics.fault_injection_enabled

    def test_recovered_dense_bushy_plan_matches_reference(self, lubm):
        """L9's five-wave TD-CMD plan exposes the most fault sites."""
        dataset, _, method, _, _ = lubm
        query = lubm_query("L9")
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = optimize(
            query, algorithm="td-cmd", statistics=statistics, partitioning=method
        ).plan
        executor = Executor(
            _fresh_cluster(lubm),
            fault_injector=FaultInjector(0.2, seed=1),
            retry_policy=RetryPolicy(max_retries=16),
        )
        relation, metrics = executor.execute(plan, query)
        assert relation.rows == evaluate_reference(query, dataset.graph).rows
        assert metrics.total_faults_injected > 0

    def test_metrics_reproducible_for_fixed_seed(self, lubm):
        _, query, _, plan, _ = lubm

        def run():
            executor = Executor(
                _fresh_cluster(lubm),
                fault_injector=FaultInjector(0.35, seed=11),
                retry_policy=RetryPolicy(max_retries=64),
            )
            _, metrics = executor.execute(plan, query)
            return (
                metrics.total_faults_injected,
                metrics.total_retries,
                metrics.workers_failed,
                metrics.total_recovery_cost,
                metrics.critical_path_cost,
            )

        first, second = run(), run()
        assert first == second
        assert first[0] > 0  # the seed actually injects something

    def test_nonzero_recovery_counters_under_faults(self, lubm):
        _, query, _, plan, _ = lubm
        executor = Executor(
            _fresh_cluster(lubm),
            fault_injector=FaultInjector(0.5, seed=2),
            retry_policy=RetryPolicy(max_retries=64),
        )
        _, metrics = executor.execute(plan, query)
        assert metrics.total_faults_injected > 0
        assert metrics.total_recovery_cost > 0.0
        summary = metrics.summary()
        assert summary["recovery_cost"] == pytest.approx(metrics.total_recovery_cost)
        assert summary["retries"] == metrics.total_retries
        # recovery is priced into the critical path
        no_fault_rel, no_fault = Executor(_fresh_cluster(lubm)).execute(plan, query)
        assert metrics.critical_path_cost > no_fault.critical_path_cost

    def test_same_injector_replays_across_executions(self, lubm):
        _, query, _, plan, reference = lubm
        injector = FaultInjector(0.35, seed=4)
        costs = []
        for _ in range(2):
            executor = Executor(
                _fresh_cluster(lubm),
                fault_injector=injector,
                retry_policy=RetryPolicy(max_retries=64),
            )
            relation, metrics = executor.execute(plan, query)
            assert relation.rows == reference.rows
            costs.append(metrics.critical_path_cost)
        assert costs[0] == costs[1]

    def test_retry_exhaustion_raises(self, lubm):
        _, query, _, plan, _ = lubm
        executor = Executor(
            _fresh_cluster(lubm),
            fault_injector=FaultInjector(1.0, seed=0, models=(Transient(),)),
            retry_policy=RetryPolicy(max_retries=2),
        )
        with pytest.raises(FaultToleranceError, match="retry budget"):
            executor.execute(plan, query)

    def test_straggler_only_never_retries(self, lubm):
        _, query, _, plan, reference = lubm
        executor = Executor(
            _fresh_cluster(lubm),
            fault_injector=FaultInjector(0.6, seed=1, models=(Straggler(),)),
        )
        relation, metrics = executor.execute(plan, query)
        assert relation.rows == reference.rows
        assert metrics.total_retries == 0
        assert metrics.workers_failed == 0
        assert metrics.total_faults_injected > 0
        assert metrics.total_recovery_cost > 0.0

    def test_cluster_stays_degraded_and_heals(self, lubm):
        _, query, _, plan, reference = lubm
        cluster = _fresh_cluster(lubm)
        executor = Executor(
            cluster,
            fault_injector=FaultInjector(0.5, seed=0, models=(FailStop(),)),
            retry_policy=RetryPolicy(max_retries=64),
        )
        _, metrics = executor.execute(plan, query)
        assert metrics.workers_failed == len(cluster.failed_workers) > 0
        cluster.heal()
        assert cluster.live_size == cluster.size
        relation, healed = Executor(cluster).execute(plan, query)
        assert relation.rows == reference.rows
        assert healed.total_recovery_cost == 0.0


class TestSimulatorFaultPricing:
    def _plan(self):
        from repro.core.optimizer import make_builder
        from repro.core.plans import JoinAlgorithm
        from repro.workloads.generators import chain_query

        builder = make_builder(chain_query(4), seed=1)
        plan = builder.scan(0)
        for i in range(1, 4):
            plan = builder.join(JoinAlgorithm.REPARTITION, [plan, builder.scan(i)])
        return builder, plan

    def test_zero_rate_matches_historical_makespan(self):
        builder, plan = self._plan()
        base = MapReduceSimulator(builder.parameters).simulate_plan(plan)[1]
        faulty = MapReduceSimulator(builder.parameters, fault_rate=0.0).simulate_plan(
            plan
        )[1]
        assert faulty == base

    def test_fault_rate_inflates_makespan_monotonically(self):
        builder, plan = self._plan()
        makespans = [
            MapReduceSimulator(builder.parameters, fault_rate=rate).simulate_plan(plan)[1]
            for rate in (0.0, 0.1, 0.3, 0.5)
        ]
        assert makespans == sorted(makespans)
        assert makespans[-1] > makespans[0]

    def test_invalid_fault_rate_rejected(self):
        with pytest.raises(ValueError):
            MapReduceSimulator(fault_rate=1.0)
        with pytest.raises(ValueError):
            MapReduceSimulator(fault_rate=-0.2)


class TestDoubleFailStop:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_two_workers_die_in_one_query(self, lubm, engine):
        _, query, _, plan, reference = lubm
        seen_double = False
        for seed in range(6):
            cluster = _fresh_cluster(lubm)
            executor = Executor(
                cluster,
                fault_injector=FaultInjector(
                    0.7, seed=seed, models=(FailStop(),)
                ),
                retry_policy=RetryPolicy(max_retries=64),
                engine=engine,
            )
            relation, metrics = executor.execute(plan, query)
            assert relation.rows == reference.rows
            if metrics.workers_failed >= 2:
                seen_double = True
        assert seen_double  # high-rate fail-stops must cascade somewhere

    @pytest.mark.parametrize("engine", ENGINES)
    def test_replica_merge_target_dies_too(self, lubm, engine):
        _, query, _, plan, reference = lubm
        cluster = _fresh_cluster(lubm)
        # the worker that absorbed the first victim's partition dies as
        # well, so its merged slice must chain-reroute a second time
        target, _ = cluster.fail_worker(1)
        cluster.fail_worker(target)
        relation, _ = Executor(cluster, engine=engine).execute(plan, query)
        assert relation.rows == reference.rows
        assert cluster.live_size == 3


class TestAbortTaxonomy:
    def test_fault_tolerance_error_is_structured_abort(self, lubm):
        _, query, _, plan, _ = lubm
        executor = Executor(
            _fresh_cluster(lubm),
            fault_injector=FaultInjector(1.0, seed=0, models=(Transient(),)),
            retry_policy=RetryPolicy(max_retries=1),
        )
        with pytest.raises(FaultToleranceError) as exc:
            executor.execute(plan, query)
        abort = exc.value
        assert isinstance(abort, QueryAborted)
        assert abort.cause is AbortCause.RETRY_EXHAUSTED
        assert abort.phase == "execute"
        assert abort.operator
        assert abort.attempts  # the per-attempt fault history rode along
        assert all(event.operator == abort.operator for event in abort.attempts)
        assert abort.partial_metrics is not None
        assert abort.partial_metrics.abort_cause == "retry-exhausted"
        report = abort.describe()
        assert abort.operator in report
        assert "attempt history" in report


class TestCircuitBreaker:
    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=4, window=2)

    def test_trips_after_threshold_in_window(self):
        breaker = CircuitBreaker(threshold=3, window=8)
        assert not breaker.record_fault(2)
        assert not breaker.record_fault(2)
        assert breaker.state(2) == "closed"
        assert breaker.record_fault(2)
        assert breaker.state(2) == "open"
        assert breaker.open_workers == [2]
        assert breaker.trips == 1
        # an open breaker swallows further faults without re-tripping
        assert not breaker.record_fault(2)
        assert breaker.trips == 1

    def test_window_forgets_old_faults(self):
        breaker = CircuitBreaker(threshold=3, window=3)
        assert not breaker.record_fault(1)
        assert not breaker.record_fault(1)
        assert not breaker.record_fault(2)  # fills the window
        # the oldest fault of worker 1 was evicted: still only two in view
        assert not breaker.record_fault(1)
        assert breaker.state(1) == "closed"

    def test_reset_closes_but_keeps_trip_count(self):
        breaker = CircuitBreaker(threshold=1, window=1)
        assert breaker.record_fault(3)
        breaker.reset()
        assert breaker.open_workers == []
        assert breaker.state(3) == "closed"
        assert breaker.trips == 1  # cumulative across resets

    def test_quarantine_drains_flaky_worker_and_heals(self, lubm):
        _, query, _, plan, reference = lubm
        cluster = _fresh_cluster(lubm)
        breaker = CircuitBreaker(threshold=1, window=4)
        executor = Executor(
            cluster,
            fault_injector=FaultInjector(0.6, seed=1, models=(Transient(),)),
            retry_policy=RetryPolicy(max_retries=64),
            circuit_breaker=breaker,
        )
        relation, metrics = executor.execute(plan, query)
        assert relation.rows == reference.rows
        assert breaker.trips >= 1
        assert breaker.open_workers  # the flaky worker was quarantined
        assert metrics.workers_failed >= 1
        cluster.heal()  # the heal listener closes the breaker again
        assert breaker.open_workers == []
        assert breaker.trips >= 1

    def test_executors_sharing_a_breaker_leave_one_heal_listener(self, lubm):
        cluster = _fresh_cluster(lubm)
        resets = []

        class CountingBreaker(CircuitBreaker):
            def reset(self):
                resets.append(self)
                super().reset()

        breaker = CountingBreaker(threshold=1, window=4)
        for _ in range(5):
            Executor(cluster, circuit_breaker=breaker)
        assert len(cluster._heal_listeners) == 1
        cluster.heal()
        assert resets == [breaker]  # one reset per heal, not one per executor
        # a second breaker is a different listener
        Executor(cluster, circuit_breaker=CircuitBreaker(threshold=1, window=4))
        assert len(cluster._heal_listeners) == 2


class TestHotReplicaSurvival:
    """Hot-query placements — static (DynamicPartitioning) or migrated
    online (AdaptiveCluster.apply) — are part of a worker's served
    graph, so fail-stop re-routing must carry them to the re-route
    target exactly like base partitions."""

    def test_dynamic_hot_layout_survives_worker_death(self, lubm):
        dataset, query, _, _, reference = lubm
        method = DynamicPartitioning(HashSubjectObject(), [query])
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = optimize(query, statistics=statistics, partitioning=method).plan
        for victim in range(3):
            cluster = Cluster.build(dataset, method, cluster_size=3)
            _, healthy = Executor(cluster).execute(plan, query)
            assert healthy.total_tuples_shipped == 0  # co-located: all local
            cluster.fail_worker(victim)
            relation, _ = Executor(cluster).execute(plan, query)
            assert relation.rows == reference.rows

    def test_adaptive_placements_survive_worker_death(self, lubm):
        dataset, query, method, _, reference = lubm
        cluster = AdaptiveCluster.build(dataset, method, cluster_size=3)
        report = cluster.apply(
            [
                MigrationProposal(
                    kind=COLOCATE, key="hot-L7", heat=1.0, query=query
                )
            ],
            replication_budget=1.0,
        )
        assert report.changed
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = optimize(
            query, statistics=statistics, partitioning=cluster.adapted_method()
        ).plan
        _, adapted = Executor(cluster).execute(plan, query)
        assert adapted.total_tuples_shipped == 0

        victim = 0
        base = set(method.partition(dataset, 3).fragments[victim].triples())
        placed = set(cluster.worker_fragment(victim).triples()) - base
        assert placed  # the batch migrated something onto the victim
        target, _ = cluster.fail_worker(victim)
        relation, _ = Executor(cluster).execute(plan, query)
        assert relation.rows == reference.rows
        # the victim's migrated fragments now live on the re-route target
        assert placed <= set(cluster.worker_fragment(target).triples())
        cluster.heal()
        relation, healed = Executor(cluster).execute(plan, query)
        assert relation.rows == reference.rows
        assert healed.total_tuples_shipped == 0
        assert placed <= set(cluster.worker_fragment(victim).triples())
