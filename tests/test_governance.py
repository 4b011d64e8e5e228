"""Query lifecycle governance: budgets, deadlines, cancellation, anytime.

Unit coverage for the :mod:`repro.core.governance` vocabulary (clocks,
deadlines, tokens, budgets, the abort taxonomy), the anytime
degradation ladder across every algorithm (driven by deterministic
stepping clocks — no sleeps), and the zero-cost-off guarantee: an
ungoverned query behaves byte-identically to the pre-governance code
in both phases.  The deadline sweep runs every registry algorithm and
both engines under a real wall-clock deadline: a search or execution
that stops polling its budget shows up as a missed bound.
"""

import random
import signal
import time
from contextlib import contextmanager

import pytest

from repro import (
    AbortCause,
    CancellationToken,
    Deadline,
    ManualClock,
    OptimizeOptions,
    Optimizer,
    QueryAborted,
    QueryBudget,
    SteppingClock,
)
from repro.analysis import VerificationContext, verify_result
from repro.core import (
    OptimizationTimeout,
    PlanCache,
    StatisticsCatalog,
    plan_signature,
)
from repro.core.governance import MonotonicClock
from repro.core.optimizer import ALGORITHMS as REGISTRY
from repro.engine import Cluster, Executor, FaultInjector, RetryPolicy
from repro.partitioning import HashSubjectObject
from repro.workloads import dense_query, generate_lubm, lubm_query, star_query

ALGORITHMS = ("td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto")


@pytest.fixture(scope="module")
def lubm():
    dataset = generate_lubm()
    query = lubm_query("L7")
    method = HashSubjectObject()
    statistics = StatisticsCatalog.from_dataset(query, dataset)
    return dataset, query, method, statistics


def _session(statistics, method, **overrides):
    return Optimizer(
        OptimizeOptions(statistics=statistics, partitioning=method, **overrides)
    )


class TestClocks:
    def test_monotonic_clock_moves_forward(self):
        clock = MonotonicClock()
        assert clock.now() <= clock.now()

    def test_manual_clock_is_inert(self):
        clock = ManualClock(start=5.0)
        assert clock.now() == 5.0
        assert clock.now() == 5.0
        clock.advance(2.5)
        assert clock.now() == 7.5

    def test_manual_clock_rejects_backwards(self):
        with pytest.raises(ValueError):
            ManualClock().advance(-1.0)

    def test_stepping_clock_advances_per_read(self):
        clock = SteppingClock(start=0.0, step=2.0)
        assert [clock.now() for _ in range(3)] == [0.0, 2.0, 4.0]
        assert clock.calls == 3

    def test_stepping_clock_rejects_negative_step(self):
        with pytest.raises(ValueError):
            SteppingClock(step=-0.1)


class TestDeadline:
    def test_after_rejects_negative(self):
        with pytest.raises(ValueError):
            Deadline.after(-1.0)

    def test_expiry_on_manual_clock(self):
        clock = ManualClock()
        deadline = Deadline.after(10.0, clock)
        assert not deadline.expired
        assert deadline.remaining() == 10.0
        clock.advance(10.0)
        assert not deadline.expired  # boundary is inclusive
        clock.advance(0.5)
        assert deadline.expired
        assert deadline.remaining() == 0.0

    def test_seconds_keeps_requested_allowance(self):
        assert Deadline.after(3.5, ManualClock()).seconds == 3.5


class TestCancellationToken:
    def test_first_cancel_wins(self):
        token = CancellationToken()
        assert not token.cancelled
        token.cancel("user hit ^C")
        token.cancel("later reason")
        assert token.cancelled
        assert token.reason == "user hit ^C"

    def test_repr_states_lifecycle(self):
        token = CancellationToken()
        assert "active" in repr(token)
        token.cancel("shed load")
        assert "shed load" in repr(token)


class TestQueryBudget:
    def test_negative_limits_rejected(self):
        with pytest.raises(ValueError):
            QueryBudget(row_budget=-1)
        with pytest.raises(ValueError):
            QueryBudget(retry_budget=-1)

    def test_unlimited_budget_never_raises(self):
        budget = QueryBudget()
        budget.check_cancelled(phase="optimize")
        budget.check_deadline(phase="execute")
        budget.charge_rows(10**9)
        budget.charge_retry()
        assert not budget.deadline_expired()

    def test_row_budget_breach(self):
        budget = QueryBudget(row_budget=100, query_id="q1")
        budget.charge_rows(60, operator="scan[0]")
        with pytest.raises(QueryAborted) as exc:
            budget.charge_rows(41, operator="join[root]")
        abort = exc.value
        assert abort.cause is AbortCause.ROW_BUDGET
        assert abort.query_id == "q1"
        assert abort.phase == "execute"
        assert abort.operator == "join[root]"
        assert budget.rows_charged == 101

    def test_retry_budget_breach(self):
        budget = QueryBudget(retry_budget=2)
        budget.charge_retry()
        budget.charge_retry()
        with pytest.raises(QueryAborted) as exc:
            budget.charge_retry(operator="scan[1]")
        assert exc.value.cause is AbortCause.RETRY_EXHAUSTED

    def test_deadline_breach(self):
        clock = ManualClock()
        budget = QueryBudget(deadline=Deadline.after(1.0, clock))
        budget.check_deadline(phase="optimize")
        clock.advance(2.0)
        assert budget.deadline_expired()
        with pytest.raises(QueryAborted) as exc:
            budget.check_deadline(phase="optimize")
        assert exc.value.cause is AbortCause.DEADLINE
        assert "1s" in str(exc.value)

    def test_cancellation_breach(self):
        token = CancellationToken()
        budget = QueryBudget(cancellation=token)
        budget.check_cancelled(phase="optimize")
        token.cancel("session torn down")
        with pytest.raises(QueryAborted) as exc:
            budget.check_cancelled(phase="optimize")
        assert exc.value.cause is AbortCause.CANCELLED
        assert "session torn down" in str(exc.value)

    def test_repr_lists_configured_limits(self):
        assert repr(QueryBudget()) == "QueryBudget(unlimited)"
        budget = QueryBudget(
            deadline=Deadline.after(2.0, ManualClock()),
            row_budget=5,
            retry_budget=3,
            anytime=True,
        )
        text = repr(budget)
        for fragment in ("deadline=2s", "rows<=5", "retries<=3", "anytime"):
            assert fragment in text


class TestQueryAbortedReport:
    def test_describe_carries_structured_context(self):
        abort = QueryAborted(
            "row budget of 10 exceeded",
            cause=AbortCause.ROW_BUDGET,
            query_id="L7",
            phase="execute",
            operator="join[root]",
            trace=("execute", "operator"),
        )
        report = abort.describe()
        assert "query aborted: row budget of 10 exceeded" in report
        assert "cause: row-budget" in report
        assert "query: L7" in report
        assert "phase: execute" in report
        assert "operator: join[root]" in report
        assert "execute > operator" in report

    def test_describe_omits_empty_fields(self):
        report = QueryAborted("cancelled", cause=AbortCause.CANCELLED).describe()
        assert "query:" not in report
        assert "operator:" not in report
        assert "attempt history" not in report


class TestAnytimeDegradation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_zero_allowance_degrades_to_greedy(self, lubm, algorithm):
        _, query, method, statistics = lubm
        budget = QueryBudget(
            deadline=Deadline.after(0.0, SteppingClock(step=1.0)), anytime=True
        )
        session = _session(statistics, method, algorithm=algorithm)
        result = session.optimize(query, budget=budget)
        assert result.stats.degraded
        assert result.algorithm.endswith("[anytime-greedy]")
        assert "greedy fallback" in result.stats.degradation_reason
        report = verify_result(
            result,
            VerificationContext.for_query(
                query, statistics=statistics, partitioning=method
            ),
        )
        assert report.ok, report.render()

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_late_expiry_returns_best_complete_plan(self, lubm, algorithm):
        _, query, method, statistics = lubm
        # calibrate: run to completion on a stepping clock to learn how
        # many deadline checks the search performs, then rerun with an
        # allowance one tick short — expiry fires at the very last
        # check, when complete root candidates must exist
        probe = SteppingClock(step=1.0)
        full = _session(statistics, method, algorithm=algorithm).optimize(
            query,
            budget=QueryBudget(
                deadline=Deadline.after(10.0**9, probe), anytime=True
            ),
        )
        assert not full.stats.degraded
        checks = probe.calls
        assert checks > 2  # the search must actually poll the deadline
        result = _session(statistics, method, algorithm=algorithm).optimize(
            query,
            budget=QueryBudget(
                deadline=Deadline.after(
                    float(checks - 2), SteppingClock(step=1.0)
                ),
                anytime=True,
            ),
        )
        assert result.stats.degraded
        assert result.algorithm.endswith("[anytime]")
        assert result.stats.summary()["degraded"] == 1.0
        if algorithm in ("td-cmd", "td-cmdp"):
            # exact searches: a mid-search candidate can never beat the
            # optimum (HGR/auto re-cost expanded plans, so no such bound)
            assert result.cost >= full.cost
        report = verify_result(
            result,
            VerificationContext.for_query(
                query, statistics=statistics, partitioning=method
            ),
        )
        assert report.ok, report.render()

    def test_without_anytime_deadline_still_raises_timeout(self, lubm):
        _, query, method, statistics = lubm
        budget = QueryBudget(
            deadline=Deadline.after(0.0, SteppingClock(step=1.0))
        )
        with pytest.raises(OptimizationTimeout):
            _session(statistics, method, algorithm="td-cmd").optimize(
                query, budget=budget
            )

    def test_cancellation_aborts_even_in_anytime_mode(self, lubm):
        _, query, method, statistics = lubm
        token = CancellationToken()
        token.cancel("shutdown")
        budget = QueryBudget(cancellation=token, anytime=True)
        with pytest.raises(QueryAborted) as exc:
            _session(statistics, method, algorithm="td-cmdp").optimize(
                query, budget=budget
            )
        assert exc.value.cause is AbortCause.CANCELLED
        assert exc.value.phase == "optimize"

    def test_degraded_plans_are_not_cached(self, lubm):
        _, query, method, statistics = lubm
        cache = PlanCache()
        session = _session(
            statistics, method, algorithm="td-cmd", plan_cache=cache
        )
        degraded = session.optimize(
            query,
            budget=QueryBudget(
                deadline=Deadline.after(0.0, SteppingClock(step=1.0)),
                anytime=True,
            ),
        )
        assert degraded.stats.degraded
        assert len(cache) == 0
        complete = session.optimize(query)
        assert not complete.stats.degraded
        assert len(cache) == 1


class TestBudgetFor:
    def test_ungoverned_options_yield_no_budget(self, lubm):
        _, query, method, statistics = lubm
        session = _session(statistics, method)
        assert not session.options.governed
        assert session.budget_for(query) is None

    def test_governed_options_build_fresh_budgets(self, lubm):
        _, query, method, statistics = lubm
        token = CancellationToken()
        session = _session(
            statistics,
            method,
            deadline_seconds=30.0,
            row_budget=1000,
            retry_budget=8,
            cancellation=token,
            anytime=True,
        )
        assert session.options.governed
        first = session.budget_for(query)
        second = session.budget_for(query)
        assert first is not second  # fresh counters per query
        assert first.deadline is not None and first.deadline.seconds == 30.0
        assert first.row_budget == 1000
        assert first.retry_budget == 8
        assert first.cancellation is token  # token is session-wide
        assert first.anytime
        assert first.query_id == "L7"


class TestZeroCostOff:
    def test_optimizer_identical_with_generous_budget(self, lubm):
        _, query, method, statistics = lubm
        for algorithm in ALGORITHMS:
            plain = _session(statistics, method, algorithm=algorithm).optimize(
                query
            )
            governed = _session(
                statistics,
                method,
                algorithm=algorithm,
                deadline_seconds=3600.0,
                row_budget=10**9,
                retry_budget=10**6,
                anytime=True,
            ).optimize(query)
            assert plan_signature(governed.plan) == plan_signature(plain.plan)
            assert governed.cost == plain.cost
            assert governed.algorithm == plain.algorithm
            assert governed.stats.summary() == plain.stats.summary()

    def test_executor_identical_with_generous_budget(self, lubm):
        dataset, query, method, statistics = lubm
        plan = _session(statistics, method).optimize(query).plan
        baseline_rel, baseline = Executor(
            Cluster.build(dataset, method, cluster_size=4)
        ).execute(plan, query)
        budget = QueryBudget(
            deadline=Deadline.after(3600.0),
            row_budget=10**9,
            retry_budget=10**6,
        )
        relation, metrics = Executor(
            Cluster.build(dataset, method, cluster_size=4)
        ).execute(plan, query, budget=budget)
        assert relation.rows == baseline_rel.rows
        assert metrics.critical_path_cost == baseline.critical_path_cost
        assert metrics.summary().keys() == baseline.summary().keys()
        assert "abort_cause" not in metrics.summary()


class TestExecutionGovernance:
    def test_row_budget_abort_carries_partial_metrics(self, lubm):
        dataset, query, method, statistics = lubm
        plan = _session(statistics, method).optimize(query).plan
        executor = Executor(Cluster.build(dataset, method, cluster_size=4))
        budget = QueryBudget(row_budget=1, query_id="L7")
        with pytest.raises(QueryAborted) as exc:
            executor.execute(plan, query, budget=budget)
        abort = exc.value
        assert abort.cause is AbortCause.ROW_BUDGET
        assert abort.phase == "execute"
        assert abort.operator.startswith("scan")
        assert abort.query_id == "L7"
        assert abort.partial_metrics is not None
        assert abort.partial_metrics.abort_cause == "row-budget"
        assert len(abort.partial_metrics.operators) >= 1
        assert "partial metrics" in abort.describe()

    def test_deadline_abort_mid_execution(self, lubm):
        dataset, query, method, statistics = lubm
        plan = _session(statistics, method).optimize(query).plan
        executor = Executor(Cluster.build(dataset, method, cluster_size=4))
        budget = QueryBudget(
            deadline=Deadline.after(0.0, SteppingClock(step=1.0)),
            query_id="L7",
        )
        with pytest.raises(QueryAborted) as exc:
            executor.execute(plan, query, budget=budget)
        abort = exc.value
        assert abort.cause is AbortCause.DEADLINE
        assert abort.phase == "execute"
        assert abort.partial_metrics is not None
        assert abort.partial_metrics.abort_cause == "deadline"

    def test_query_retry_budget_abort_under_faults(self, lubm):
        dataset, query, method, statistics = lubm
        plan = _session(statistics, method).optimize(query).plan
        executor = Executor(
            Cluster.build(dataset, method, cluster_size=4),
            fault_injector=FaultInjector(1.0, seed=3),
            retry_policy=RetryPolicy(max_retries=64),
        )
        budget = QueryBudget(retry_budget=0, query_id="L7")
        with pytest.raises(QueryAborted) as exc:
            executor.execute(plan, query, budget=budget)
        abort = exc.value
        assert abort.cause is AbortCause.RETRY_EXHAUSTED
        assert abort.attempts  # the fault history rode along
        assert abort.partial_metrics is not None
        assert "attempt history" in abort.describe()

    def test_cancellation_aborts_execution(self, lubm):
        dataset, query, method, statistics = lubm
        plan = _session(statistics, method).optimize(query).plan
        executor = Executor(Cluster.build(dataset, method, cluster_size=4))
        token = CancellationToken()
        token.cancel("client went away")
        budget = QueryBudget(cancellation=token)
        with pytest.raises(QueryAborted) as exc:
            executor.execute(plan, query, budget=budget)
        assert exc.value.cause is AbortCause.CANCELLED


@contextmanager
def _watchdog(seconds):
    """Fail the test when the block outlasts *seconds* of wall time.

    SIGALRM interrupts the main thread between bytecodes, so a search that
    never polls its budget fails here instead of hanging the suite.
    """

    def expire(signum, frame):
        pytest.fail(f"still running after {seconds}s: no budget poll", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestDeadlineSweep:
    """Every algorithm and engine stops at a real deadline, promptly."""

    #: optimizer deadline; a search that honours it returns within WALL_BOUND
    OPTIMIZE_DEADLINE = 0.05
    #: execution deadline: LUBM L9 takes several milliseconds on either engine
    EXECUTE_DEADLINE = 0.001
    WALL_BOUND = 1.0

    @staticmethod
    def _sweep_query(algorithm, size):
        if size == "large":
            # connected-subquery enumeration alone takes seconds here: a
            # pre-phase that never polls misses the wall bound
            return dense_query(21, extra_cycles=9)
        # finishes in under a second unpolled, so a main loop that never
        # polls fails the test instead of running for minutes.  HGR's
        # join-graph reduction can collapse a dense query into parts small
        # enough to finish inside the deadline; a 13-pattern star does not
        return star_query(13) if algorithm == "hgr-td-cmd" else dense_query(12)

    def _optimize(self, query, algorithm, deadline_seconds):
        session = Optimizer(
            OptimizeOptions(
                algorithm=algorithm,
                statistics=StatisticsCatalog.from_random(query, random.Random(0)),
                deadline_seconds=deadline_seconds,
            )
        )
        started = time.perf_counter()
        try:
            session.optimize(query)
            timed_out = False
        except OptimizationTimeout:
            timed_out = True
        return timed_out, time.perf_counter() - started

    @pytest.mark.parametrize("size", ["small", "large"])
    @pytest.mark.parametrize("algorithm", sorted(REGISTRY))
    def test_every_algorithm_stops_at_a_real_deadline(self, algorithm, size):
        query = self._sweep_query(algorithm, size)
        with _watchdog(self.WALL_BOUND):
            timed_out, _ = self._optimize(query, algorithm, self.OPTIMIZE_DEADLINE)
        assert timed_out, f"{algorithm} finished inside {self.OPTIMIZE_DEADLINE}s"
        # not vacuous: under a 4x looser deadline the same search still
        # outlasts the tight one (it times out there too, or finishes later)
        with _watchdog(self.WALL_BOUND):
            _, loose = self._optimize(query, algorithm, 4 * self.OPTIMIZE_DEADLINE)
        assert loose > self.OPTIMIZE_DEADLINE, (algorithm, loose)

    @pytest.fixture(scope="class")
    def l9(self):
        dataset = generate_lubm()
        query = lubm_query("L9")
        method = HashSubjectObject()
        statistics = StatisticsCatalog.from_dataset(query, dataset)
        plan = _session(statistics, method).optimize(query).plan
        return Cluster.build(dataset, method, cluster_size=4), query, plan

    @pytest.mark.parametrize("engine", ["columnar", "pipelined"])
    def test_both_engines_stop_at_a_real_deadline(self, l9, engine):
        cluster, query, plan = l9
        executor = Executor(cluster, engine=engine)
        # not vacuous: the ungoverned run outlasts the deadline
        started = time.perf_counter()
        executor.execute(plan, query)
        assert time.perf_counter() - started > self.EXECUTE_DEADLINE
        budget = QueryBudget(
            deadline=Deadline.after(self.EXECUTE_DEADLINE), query_id="L9"
        )
        with _watchdog(self.WALL_BOUND), pytest.raises(QueryAborted) as exc:
            executor.execute(plan, query, budget=budget)
        assert exc.value.cause is AbortCause.DEADLINE
        assert exc.value.phase == "execute"
