"""The flat enumeration kernel keeps every number the old one produced.

Three pins on the costing loop shared by the serial search and the
memo-shard workers (``TopDownEnumerator._search``):

* **golden file** — ``tests/data/enumeration_golden.json`` was recorded
  from the generator implementation (commit e17cc1f, before the kernel
  rewrite) for the paper's random suite, five shapes × sizes 4–12, under
  td-cmd / td-cmdp / td-auto, unpartitioned and hash-so partitioned:
  cost, plan signature and all five ``EnumerationStats`` counters must
  come out equal to the last bit, and the ``jobs=2`` memo-shard search
  must agree with them on the large queries;
* **exact counters on expiry** — a deadline that fires *inside* the
  division loop (strict or anytime) must leave ``stats`` equal to the
  sum of the per-subquery records, because the loop counts in locals
  and flushes in a ``finally``;
* **poll cadence** — one deadline poll per expanded subquery plus one
  every 256 divisions of a subquery, as before.

Re-record (only ever from a commit whose numbers are the reference)::

    PYTHONPATH=<that checkout>/src python tests/test_enumeration_kernel.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import OptimizeOptions, Optimizer
from repro.analysis.plan_verifier import PlanVerifier, VerificationContext
from repro.core.enumeration import OptimizationTimeout, TopDownEnumerator
from repro.core.governance import Deadline, QueryBudget, SteppingClock
from repro.core.join_graph import QueryShape
from repro.core.optimizer import make_builder
from repro.core.plans import plan_signature
from repro.core.pruning import PrunedTopDownEnumerator
from repro.partitioning import HashSubjectObject
from repro.workloads import generate_workload
from repro.workloads.generators import dense_query, star_query

GOLDEN = Path(__file__).parent / "data" / "enumeration_golden.json"
SHAPES = (
    QueryShape.CHAIN,
    QueryShape.CYCLE,
    QueryShape.STAR,
    QueryShape.TREE,
    QueryShape.DENSE,
)
ALGORITHMS = ("td-cmd", "td-cmdp", "td-auto")
PARTITIONINGS = {"none": None, "hash-so": HashSubjectObject()}
COUNTERS = (
    "plans_considered",
    "divisions_enumerated",
    "subqueries_expanded",
    "memo_hits",
    "local_short_circuits",
)
#: TD-CMD walks every set partition of a star (Bell numbers): star-10
#: is 678k divisions, star-12 28M.  The unpruned search stops at 9.
TD_CMD_STAR_LIMIT = 9


def suite():
    """The paper's random generator suite, one statistics draw."""
    return list(
        generate_workload(
            shapes=SHAPES, sizes=tuple(range(4, 13)), statistics_draws=1, seed=2017
        )
    )


def cases(items):
    for item in items:
        for algorithm in ALGORITHMS:
            if (
                algorithm == "td-cmd"
                and item.shape is QueryShape.STAR
                and len(item.query) > TD_CMD_STAR_LIMIT
            ):
                continue
            for layout in PARTITIONINGS:
                yield item, algorithm, layout


def observe(result):
    """Everything of an ``OptimizationResult`` the kernel may not change."""
    observed = {
        "algorithm": result.algorithm,
        "cost": result.cost,
        "signature": plan_signature(result.plan),
    }
    for name in COUNTERS:
        observed[name] = getattr(result.stats, name)
    return observed


def run_case(item, algorithm, layout, jobs=1):
    session = Optimizer(
        OptimizeOptions(
            algorithm=algorithm,
            statistics=item.statistics,
            partitioning=PARTITIONINGS[layout],
            jobs=jobs,
        )
    )
    return session.optimize(item.query)


def record():
    golden = {
        f"{item.query.name}/{algorithm}/{layout}": observe(
            run_case(item, algorithm, layout)
        )
        for item, algorithm, layout in cases(suite())
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(  # one case per line, so a re-record diffs readably
        f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}"
        for key in sorted(golden)
    )
    GOLDEN.write_text("{\n" + lines + "\n}\n")
    return golden


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def items():
    return suite()


class TestGoldenFile:
    def test_covers_the_suite(self, golden, items):
        expected = {
            f"{item.query.name}/{algorithm}/{layout}"
            for item, algorithm, layout in cases(items)
        }
        assert set(golden) == expected
        assert len(expected) == 45 * 3 * 2 - 3 * 2  # stars 10-12 skip td-cmd

    def test_serial_search_is_bit_identical(self, golden, items):
        for item, algorithm, layout in cases(items):
            key = f"{item.query.name}/{algorithm}/{layout}"
            assert observe(run_case(item, algorithm, layout)) == golden[key], key

    def test_memo_shard_agrees_on_the_large_queries(self, golden, items):
        """jobs=2 runs the same loop in the workers: same cost and plan,
        and — where the tiers are exactly the serial traversal, i.e.
        without partitioning — the same counters."""
        for item, algorithm, layout in cases(items):
            if algorithm == "td-auto" or len(item.query) < 10:
                continue  # td-auto ignores jobs
            key = f"{item.query.name}/{algorithm}/{layout}"
            sharded = run_case(item, algorithm, layout, jobs=2)
            expected = golden[key]
            assert sharded.cost == expected["cost"], key
            assert plan_signature(sharded.plan) == expected["signature"], key
            if layout == "none" and sharded.stats.workers > 1:
                for name in COUNTERS:
                    assert getattr(sharded.stats, name) == expected[name], (key, name)


def _stepping_budget(allowance, anytime=False):
    clock = SteppingClock(step=1.0)
    budget = QueryBudget(
        deadline=Deadline.after(float(allowance), clock), anytime=anytime
    )
    return budget, clock


def _record_totals(enumerator):
    records = enumerator.subquery_records.values()
    return {
        "plans_considered": sum(r.plans_considered for r in records),
        "divisions_enumerated": sum(r.divisions_enumerated for r in records),
        "local_short_circuits": sum(r.local_short_circuits for r in records),
    }


def _stats_totals(enumerator):
    stats = enumerator.stats
    return {
        "plans_considered": stats.plans_considered,
        "divisions_enumerated": stats.divisions_enumerated,
        "local_short_circuits": stats.local_short_circuits,
    }


#: (enumerator class, query) whose roots have thousands of divisions:
#: the search's last deadline polls fall inside the root's loop
MID_LOOP = [
    (TopDownEnumerator, star_query(8)),
    (PrunedTopDownEnumerator, star_query(11)),
]
#: a dense TD-CMDP search, where the ticks belong to inner subqueries
CADENCE = MID_LOOP + [(PrunedTopDownEnumerator, dense_query(12, random.Random(3)))]


def _enumerator(cls, query, budget):
    builder = make_builder(query, seed=11)
    return cls(builder.join_graph, builder, budget=budget)


def _polls_of_full_run(cls, query):
    budget, clock = _stepping_budget(10**9)
    enumerator = _enumerator(cls, query, budget)
    result = enumerator.optimize()
    return enumerator, result, clock.calls - 1  # Deadline.after read it once


class TestPollCadence:
    @pytest.mark.parametrize("cls,query", CADENCE)
    def test_once_per_subquery_and_every_256_divisions(self, cls, query):
        enumerator, _, polls = _polls_of_full_run(cls, query)
        ticks = sum(
            r.divisions_enumerated // 256
            for r in enumerator.subquery_records.values()
        )
        assert ticks > 0
        assert polls == enumerator.stats.subqueries_expanded + ticks


class TestExpiryMidLoop:
    @pytest.mark.parametrize("cls,query", MID_LOOP)
    def test_strict_expiry_leaves_exact_counters(self, cls, query):
        """Expire at each of the last polls of the search.  All of them
        fall inside the root's division loop: some are the loop's own
        every-256 tick, the others a child expansion it recursed into.
        Either way the loop's ``finally`` must have flushed its locals."""
        full, _, polls = _polls_of_full_run(cls, query)
        total = full.subquery_records[full.join_graph.full].divisions_enumerated
        raised_by = set()
        for short_by in (1, 2, 3, 10):
            budget, _ = _stepping_budget(polls - short_by)
            enumerator = _enumerator(cls, query, budget)
            with pytest.raises(OptimizationTimeout):
                enumerator.optimize()
            root = enumerator.subquery_records[enumerator.join_graph.full]
            assert 0 < root.divisions_enumerated <= total
            assert _stats_totals(enumerator) == _record_totals(enumerator)
            # the division the deadline fired in was counted, not costed
            assert root.plans_considered < (
                full.subquery_records[full.join_graph.full].plans_considered
            )
            raised_by.add(
                "tick" if root.divisions_enumerated % 256 == 0 else "child"
            )
        assert raised_by == {"tick", "child"}

    @pytest.mark.parametrize("cls,query", MID_LOOP)
    def test_anytime_expiry_leaves_exact_counters_and_a_plan(self, cls, query):
        full, optimum, polls = _polls_of_full_run(cls, query)
        budget, _ = _stepping_budget(polls - 2, anytime=True)
        enumerator = _enumerator(cls, query, budget)
        result = enumerator.optimize()
        assert result.stats.degraded
        assert result.algorithm.endswith("[anytime]")
        assert _stats_totals(enumerator) == _record_totals(enumerator)
        assert result.stats.divisions_enumerated < full.stats.divisions_enumerated
        assert result.cost >= optimum.cost
        context = VerificationContext.for_query(
            query, statistics=enumerator.builder.estimator.catalog
        )
        report = PlanVerifier(
            context.with_profile(enumerator.invariant_profile())
        ).verify(result.plan)
        assert report.ok, report.render()


class TestTimeoutMessage:
    def test_serial_message_keeps_sub_second_deadlines(self):
        budget = QueryBudget(
            deadline=Deadline.after(0.25, SteppingClock(step=1.0))
        )
        enumerator = _enumerator(TopDownEnumerator, star_query(5), budget)
        with pytest.raises(OptimizationTimeout) as raised:
            enumerator.optimize()
        assert str(raised.value) == "TD-CMD exceeded 0.25s"

    def test_memo_shard_message_keeps_sub_second_deadlines(self):
        """The pool search reports the configured deadline — the text a
        serial session raises — not the remainder it shipped to workers."""
        # far too large to finish: the driver's own poll expires first
        query = dense_query(16, random.Random(5))
        messages = []
        for jobs in (1, 2):
            session = Optimizer(
                OptimizeOptions(algorithm="td-cmdp", jobs=jobs, deadline_seconds=0.25)
            )
            with pytest.raises(OptimizationTimeout) as raised:
                session.optimize(query)
            messages.append(str(raised.value))
        assert messages == ["TD-CMDP exceeded 0.25s"] * 2


if __name__ == "__main__":
    print(f"recorded {len(record())} cases into {GOLDEN}")
