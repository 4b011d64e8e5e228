"""Chaos harness: seeded lifecycle episodes, every one classified.

Runs 300 randomized governance episodes — 2 engines × 2 LUBM queries ×
5 scenarios × 15 seeds — through the full lifecycle (optimize under an
anytime deadline where the scenario says so, then execute under faults
and budgets).  Every episode must land in exactly one class:

* ``completed`` — the result is bit-identical to the
  :func:`~repro.engine.relations.evaluate_reference` oracle;
* ``degraded-anytime`` — the optimizer deadline expired, the degraded
  plan passes :class:`~repro.analysis.PlanVerifier`, and executing it
  still reproduces the oracle (anytime plans are complete plans);
* ``aborted:<cause>`` — a structured :class:`QueryAborted` whose cause,
  phase, and context fields are populated.

No episode can hang by construction: deadlines run on deterministic
:class:`SteppingClock` instances (no sleeps), execution is serial (no
process pools), and retries are bounded by policy and budget.  All
randomness is derived from string-keyed :class:`random.Random` seeds,
so the sweep is exactly reproducible.
"""

import random
from collections import Counter

import pytest

from repro import (
    AbortCause,
    Deadline,
    OptimizeOptions,
    Optimizer,
    QueryAborted,
    QueryBudget,
    SteppingClock,
)
from repro.analysis import VerificationContext, verify_result
from repro.core import StatisticsCatalog
from repro.engine import (
    ENGINES,
    CircuitBreaker,
    Cluster,
    Executor,
    FailStop,
    FaultInjector,
    RetryPolicy,
    Straggler,
    Transient,
    evaluate_reference,
)
from repro.partitioning import HashSubjectObject
from repro.workloads import generate_lubm, lubm_query

ALGORITHMS = ("td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto")
QUERIES = ("L2", "L7")
SCENARIOS = (
    "baseline",
    "anytime",
    "row-budget",
    "retry-budget",
    "exec-deadline",
)
SEEDS = range(15)

#: generous per-operator retry cap so only *budgets* end episodes
PATIENT = RetryPolicy(max_retries=64)

#: classification tally across the whole parametrized sweep
EPISODES: Counter = Counter()


@pytest.fixture(scope="module")
def world():
    dataset = generate_lubm(scale=0.3)
    method = HashSubjectObject()
    cluster = Cluster.build(dataset, method, cluster_size=4)
    queries = {}
    for name in QUERIES:
        query = lubm_query(name)
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = (
            Optimizer(
                OptimizeOptions(statistics=statistics, partitioning=method)
            )
            .optimize(query)
            .plan
        )
        oracle = evaluate_reference(query, dataset.graph)
        queries[name] = (query, statistics, plan, oracle)
    return method, cluster, queries


def _rng(engine, qname, scenario, seed):
    return random.Random(f"{engine}|{qname}|{scenario}|{seed}")


def _injector(rng, rate):
    if rate == 0.0:
        return None
    models = rng.choice(
        [None, (FailStop(),), (Transient(),), (Straggler(),)]
    )
    return FaultInjector(rate, seed=rng.randrange(2**16), models=models)


def _executor(cluster, engine, injector, breaker=None):
    return Executor(
        cluster,
        fault_injector=injector,
        retry_policy=PATIENT,
        engine=engine,
        circuit_breaker=breaker,
    )


def _classify_abort(abort):
    assert isinstance(abort, QueryAborted)
    assert abort.cause in AbortCause
    assert abort.phase in ("optimize", "execute")
    return f"aborted:{abort.cause.value}"


def _run_episode(world, engine, qname, scenario, seed):
    method, cluster, queries = world
    query, statistics, plan, oracle = queries[qname]
    rng = _rng(engine, qname, scenario, seed)
    cluster.heal()

    if scenario == "baseline":
        rate = rng.choice([0.0, 0.3, 0.6])
        breaker = CircuitBreaker() if rng.random() < 0.5 else None
        executor = _executor(cluster, engine, _injector(rng, rate), breaker)
        relation, metrics = executor.execute(plan, query)
        assert relation.rows == oracle.rows
        assert "abort_cause" not in metrics.summary()
        return "completed"

    if scenario == "anytime":
        ticks = rng.choice([0, 5, 20, 80, 320])
        budget = QueryBudget(
            deadline=Deadline.after(float(ticks), SteppingClock(step=1.0)),
            anytime=True,
            query_id=qname,
        )
        session = Optimizer(
            OptimizeOptions(
                algorithm=rng.choice(ALGORITHMS),
                statistics=statistics,
                partitioning=method,
            )
        )
        result = session.optimize(query, budget=budget)
        relation, _ = _executor(cluster, engine, None).execute(
            result.plan, query
        )
        assert relation.rows == oracle.rows
        if not result.stats.degraded:
            return "completed"
        assert "[anytime" in result.algorithm
        report = verify_result(
            result,
            VerificationContext.for_query(
                query, statistics=statistics, partitioning=method
            ),
        )
        assert report.ok, report.render()
        return "degraded-anytime"

    if scenario == "row-budget":
        budget = QueryBudget(
            row_budget=rng.choice([1, 25, 500, 10**9]), query_id=qname
        )
        rate = rng.choice([0.0, 0.4])
        executor = _executor(cluster, engine, _injector(rng, rate))
        try:
            relation, _ = executor.execute(plan, query, budget=budget)
        except QueryAborted as abort:
            assert abort.cause is AbortCause.ROW_BUDGET
            assert abort.operator
            assert abort.partial_metrics is not None
            return _classify_abort(abort)
        assert relation.rows == oracle.rows
        return "completed"

    if scenario == "retry-budget":
        budget = QueryBudget(retry_budget=rng.randint(0, 4), query_id=qname)
        executor = _executor(cluster, engine, _injector(rng, 0.8))
        try:
            relation, _ = executor.execute(plan, query, budget=budget)
        except QueryAborted as abort:
            assert abort.cause is AbortCause.RETRY_EXHAUSTED
            assert abort.attempts
            return _classify_abort(abort)
        assert relation.rows == oracle.rows
        return "completed"

    assert scenario == "exec-deadline"
    budget = QueryBudget(
        deadline=Deadline.after(
            float(rng.choice([0, 2, 5, 9, 14])), SteppingClock(step=1.0)
        ),
        query_id=qname,
    )
    rate = rng.choice([0.0, 0.4])
    executor = _executor(cluster, engine, _injector(rng, rate))
    try:
        relation, _ = executor.execute(plan, query, budget=budget)
    except QueryAborted as abort:
        assert abort.cause is AbortCause.DEADLINE
        assert abort.partial_metrics is not None
        return _classify_abort(abort)
    assert relation.rows == oracle.rows
    return "completed"


@pytest.mark.parametrize("qname", QUERIES)
@pytest.mark.parametrize("engine", ENGINES)
def test_chaos_episodes(world, engine, qname):
    tally = Counter()
    for scenario in SCENARIOS:
        for seed in SEEDS:
            outcome = _run_episode(world, engine, qname, scenario, seed)
            tally[outcome] += 1
            EPISODES[outcome] += 1
    assert sum(tally.values()) == len(SCENARIOS) * len(SEEDS)
    # every class of outcome occurs for every engine × query slice
    assert tally["completed"] > 0
    assert tally["degraded-anytime"] > 0
    assert tally["aborted:row-budget"] > 0
    assert tally["aborted:retry-exhausted"] > 0
    assert tally["aborted:deadline"] > 0


def test_episode_volume():
    """The harness ran the full sweep (≥300 episodes, all classified)."""
    if not EPISODES:
        pytest.skip("episode sweep deselected")
    assert sum(EPISODES.values()) >= 300
    assert set(EPISODES) <= {
        "completed",
        "degraded-anytime",
        "aborted:row-budget",
        "aborted:retry-exhausted",
        "aborted:deadline",
        "aborted:cancelled",
    }
