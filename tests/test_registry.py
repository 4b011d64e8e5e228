"""One registry, one deadline: every optimizer through the session.

A sweep over :data:`repro.core.optimizer.ALGORITHMS` — the paper's four
and the three baselines — instead of per-family copies: each key must
behave the same way ungoverned, under a deadline and under a cancelled
token, because the session builds all seven and all seven poll the one
budget check.  Deadlines here run on a :class:`SteppingClock`, so
"expires after the N-th poll" is exact and no test sleeps.
"""

import random

import pytest

from repro.core import (
    ALGORITHMS,
    AbortCause,
    CancellationToken,
    Deadline,
    LocalQueryIndex,
    OptimizationTimeout,
    OptimizeOptions,
    Optimizer,
    QueryAborted,
    QueryBudget,
    SteppingClock,
    make_builder,
    validate_plan,
)
from repro.experiments.harness import ALGORITHMS as DISPLAY_NAMES, run_algorithm
from repro.partitioning import HashSubjectObject
from repro.workloads.generators import dense_query, star_query

KEYS = sorted(ALGORITHMS)
#: large enough that every algorithm polls its budget > 1000 times
DENSE_10 = dense_query(10, random.Random(3))
#: whose search raises the timeout (HGR and TD-Auto delegate: an
#: unpartitioned dense-10 reduces to itself and Figure 5 picks TD-CMD)
SEARCHER = {
    "td-cmd": "TD-CMD",
    "td-cmdp": "TD-CMDP",
    "hgr-td-cmd": "TD-CMD",
    "td-auto": "TD-CMD",
    "msc": "MSC",
    "dp-bushy": "DP-Bushy",
    "triad-dp": "TriAD-DP",
}


def stepping_budget(seconds, readings, **limits):
    """A deadline of *seconds* that expires at the *readings*-th poll."""
    clock = SteppingClock(step=seconds / readings)
    return QueryBudget(deadline=Deadline.after(seconds, clock), **limits)


class TripToken(CancellationToken):
    """Cancels itself at the N-th poll: a deterministic mid-search cancel."""

    def __init__(self, at_poll):
        super().__init__()
        self.at_poll = at_poll
        self.polls = 0

    @property
    def cancelled(self):
        self.polls += 1
        if self.polls == self.at_poll:
            self.cancel("tripped")
        return super().cancelled


class TestEveryKeyThroughTheSession:
    def test_registry_and_display_names_agree(self):
        assert {name.lower() for name in DISPLAY_NAMES} == set(ALGORITHMS)

    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("governed", [False, True])
    def test_plan_equals_the_class_run_directly(self, key, governed):
        query = dense_query(7, random.Random(1))
        method = HashSubjectObject()
        session = Optimizer(
            OptimizeOptions(
                algorithm=key,
                partitioning=method,
                seed=5,
                verify=True,
                deadline_seconds=600.0 if governed else None,
            )
        )
        result = session.optimize(query)
        builder = make_builder(query, seed=5)
        direct = ALGORITHMS[key](
            builder.join_graph, builder, LocalQueryIndex(builder.join_graph, method)
        ).optimize()
        validate_plan(result.plan, builder.join_graph.full)
        assert result.cost == direct.cost
        assert result.plan.describe() == direct.plan.describe()
        assert result.algorithm == direct.algorithm
        assert result.stats.summary() == direct.stats.summary()

    @pytest.mark.parametrize("key", KEYS)
    def test_deadline_message_names_the_searcher_and_the_allowance(self, key):
        """One poll, so one format — whichever of the seven raised it."""
        session = Optimizer(OptimizeOptions(algorithm=key))
        with pytest.raises(OptimizationTimeout) as timeout:
            session.optimize(DENSE_10, stepping_budget(0.25, readings=200))
        assert str(timeout.value) == f"{SEARCHER[key]} exceeded 0.25s"

    @pytest.mark.parametrize("key", KEYS)
    def test_cancellation_stops_the_search_at_the_poll(self, key):
        token = TripToken(at_poll=20)
        session = Optimizer(OptimizeOptions(algorithm=key, cancellation=token))
        with pytest.raises(QueryAborted) as abort:
            session.optimize(DENSE_10)
        assert abort.value.cause is AbortCause.CANCELLED
        assert token.polls == 20

    @pytest.mark.parametrize("key", KEYS)
    def test_anytime_expiry_degrades_to_a_complete_plan(self, key):
        """The baselines share the anytime ladder: no ``AnytimeExpiry``
        escapes, the plan covers the query and verifies."""
        session = Optimizer(OptimizeOptions(algorithm=key, verify=True))
        budget = stepping_budget(0.25, readings=200, anytime=True)
        result = session.optimize(DENSE_10, budget)
        assert result.stats.degraded
        assert "[anytime" in result.algorithm
        validate_plan(result.plan, (1 << len(DENSE_10)) - 1)


class TestHarnessTimeouts:
    @pytest.mark.parametrize("name", DISPLAY_NAMES)
    def test_zero_deadline_expires_every_algorithm(self, name):
        """``0`` means "already expired" to all seven (it used to mean
        "no deadline" to the baselines)."""
        run = run_algorithm(name, star_query(9), deadline_seconds=0)
        assert run.timed_out and run.result is None
        assert run.time_label == ">0s"

    @pytest.mark.parametrize("name", DISPLAY_NAMES)
    def test_explosive_query_is_reported_not_raised(self, name):
        run = run_algorithm(
            name, dense_query(16, random.Random(5)), deadline_seconds=0.05
        )
        assert run.timed_out
        assert run.cost_label == run.plans_label == "N/A"

    def test_hgr_expiring_inside_reduction_is_a_timeout_too(self):
        """HGR's reduction phase reports expiry as a deadline
        ``QueryAborted``, not an ``OptimizationTimeout``."""
        query = dense_query(8, random.Random(2))
        session = Optimizer(OptimizeOptions(algorithm="hgr-td-cmd"))
        with pytest.raises(QueryAborted) as abort:
            session.optimize(query, stepping_budget(0.25, readings=3))
        assert abort.value.cause is AbortCause.DEADLINE
        assert abort.value.phase.startswith("jgr.")
        assert run_algorithm("HGR-TD-CMD", query, deadline_seconds=0).timed_out

    def test_other_aborts_still_propagate(self):
        token = CancellationToken()
        token.cancel("operator request")
        with pytest.raises(QueryAborted):
            run_algorithm("MSC", star_query(5), cancellation=token)


class TestTriADDeadlineBoundsTheEnumeration:
    def test_expiry_fires_before_any_subquery_is_expanded(self):
        """The connected-subquery enumeration polls as it goes; the
        first poll used to come only after all of it (115 s on a
        dense-30 under a 0.05 s deadline)."""
        builder = make_builder(dense_query(22, random.Random(3)), seed=3)
        triad = ALGORITHMS["triad-dp"](
            builder.join_graph, builder, budget=stepping_budget(1.0, readings=10)
        )
        with pytest.raises(OptimizationTimeout, match=r"TriAD-DP exceeded 1s"):
            triad.optimize()
        assert triad.stats.subqueries_expanded == 0
