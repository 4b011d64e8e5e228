"""The flat enumeration kernel keeps every number the old one produced.

Three pins on the costing loop shared by the serial search and the
pool workers (``TopDownEnumerator._search``):

* **golden file** — ``tests/data/enumeration_golden.json`` holds, for
  the paper's random suite (five shapes × sizes 4–12, under td-cmd /
  td-cmdp / td-auto, unpartitioned and hash-so partitioned), the cost,
  algorithm label and plan signature recorded from the generator
  implementation (commit e17cc1f, before the kernel rewrite) — they
  must come out equal to the last bit — plus the six work counters of
  the bounded search and, under ``search_space``, the five counters of
  the unbounded one (the values e17cc1f recorded), which the uncosted
  pass (:meth:`Optimizer.search_space`) must reproduce.  The ``jobs=2``
  cooperative search must agree on the large queries.  Under
  ``cooperative`` the file records, for those without partitioning, the
  work counters the two-worker pool reports: they do not depend on which
  worker solves a subquery first, so the pool, and its two shares run
  one after the other in process in either order, count exactly them;
* **exact counters on expiry** — a deadline that fires *inside* the
  division loop (strict or anytime) must leave ``stats`` exact, because
  the loop counts in locals and flushes in a ``finally``: each
  subquery's own share of ``stats`` (recorded by a wrapper around
  ``_search``) counts exactly the divisions the ``divisions`` hook
  handed it;
* **poll cadence** — one deadline poll per expanded subquery plus one
  every 256 divisions of a subquery, as before.

Re-record (only ever from a commit whose numbers are the reference)::

    PYTHONPATH=<that checkout>/src python tests/test_enumeration_kernel.py
"""

from __future__ import annotations

import json
import random
import threading
from collections import Counter
from pathlib import Path

import pytest

from repro import OptimizeOptions, Optimizer
from repro.analysis.plan_verifier import PlanVerifier, VerificationContext
from repro.core.enumeration import OptimizationTimeout, TopDownEnumerator
from repro.core.governance import Deadline, QueryBudget, SteppingClock
from repro.core.join_graph import QueryShape
from repro.core.local_query import LocalQueryIndex
from repro.core.cooperative import _CooperativeDriver, _CostTable, _run_share
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
#: what the search space counts ...
SPACE_COUNTERS = (
    "plans_considered",
    "divisions_enumerated",
    "subqueries_expanded",
    "memo_hits",
    "local_short_circuits",
)
#: ... and what the bounded search reports doing
COUNTERS = SPACE_COUNTERS + ("divisions_bounded",)
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


def session(item, algorithm, layout, jobs=1):
    return Optimizer(
        OptimizeOptions(
            algorithm=algorithm,
            statistics=item.statistics,
            partitioning=PARTITIONINGS[layout],
            jobs=jobs,
        )
    )


def run_case(item, algorithm, layout, jobs=1):
    return session(item, algorithm, layout, jobs).optimize(item.query)


def observe_space(item, algorithm, layout):
    space = session(item, algorithm, layout).search_space(item.query)
    return {name: getattr(space, name) for name in SPACE_COUNTERS}


def sharded(item, algorithm):
    """Whether the cooperative-search test runs this case."""
    return algorithm != "td-auto" and len(item.query) >= 10


def observe_shares(item, algorithm, layout, jobs=2, order=None):
    """The cooperative search's summed counters, in process: the workers'
    shares of the root run one after another (in *order*, by default
    0 … jobs−1) on one table generation, so each finds in the table
    whatever the earlier ones published."""
    builder = make_builder(item.query, item.statistics)
    search_class = {"td-cmd": TopDownEnumerator, "td-cmdp": PrunedTopDownEnumerator}
    enumerator = search_class[algorithm](
        builder.join_graph,
        builder,
        LocalQueryIndex(builder.join_graph, PARTITIONINGS[layout]),
    )
    payload = _CooperativeDriver(enumerator, jobs).payload + (1,)
    table = _CostTable(threading.Lock())
    table.attach()
    summed = Counter()
    for worker in range(jobs) if order is None else order:
        counted = _run_share(table, payload, worker, jobs).counted
        for name in COUNTERS:
            summed[name] += getattr(counted, name)
    return dict(summed)


def record():
    golden = {}
    for item, algorithm, layout in cases(suite()):
        entry = dict(
            observe(run_case(item, algorithm, layout)),
            search_space=observe_space(item, algorithm, layout),
        )
        if sharded(item, algorithm) and layout == "none":
            entry["cooperative"] = observe_shares(item, algorithm, layout)
        golden[f"{item.query.name}/{algorithm}/{layout}"] = entry
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
            expected = dict(golden[key])
            del expected["search_space"]
            expected.pop("cooperative", None)
            assert observe(run_case(item, algorithm, layout)) == expected, key

    def test_uncosted_pass_is_the_unbounded_search_space(self, golden, items):
        for item, algorithm, layout in cases(items):
            key = f"{item.query.name}/{algorithm}/{layout}"
            space = observe_space(item, algorithm, layout)
            assert space == golden[key]["search_space"], key

    def test_the_bound_only_saves_work(self, golden, items):
        """Every work counter is at most its search-space value, and a
        counter the bound moved moved because divisions were bounded —
        where no binary division repeats: TD-CMD's space, and a forest's.
        Elsewhere TD-CMDP's search skips the repeats the space counts."""
        shapes = {item.query.name: item.shape for item in items}
        forests = (QueryShape.CHAIN, QueryShape.STAR, QueryShape.TREE)
        for key, entry in golden.items():
            space = entry["search_space"]
            for name in SPACE_COUNTERS:
                assert entry[name] <= space[name], (key, name)
            repeats = "TD-CMDP" in entry["algorithm"] and (
                shapes[key.split("/")[0]] not in forests
            )
            if entry["divisions_bounded"] == 0 and not repeats:
                assert {name: entry[name] for name in SPACE_COUNTERS} == space, key

    @pytest.mark.usefixtures("shard_small")
    def test_memo_shard_agrees_on_the_large_queries(self, golden, items):
        """jobs=2 runs the same loop in the workers: same cost and plan.
        Without partitioning, the pool counts exactly the recorded
        ``cooperative`` counters, and so do its two shares run one after
        the other in process, whichever runs first (the second then finds
        every subquery the first solved in the table: as far from the
        pool's timing as an order gets).  Every worker expands the root,
        and the bound finds every subquery the serial search solves, so
        the pool expands at least as many."""
        for item, algorithm, layout in cases(items):
            if not sharded(item, algorithm):
                continue  # td-auto is pooled through its choice (test_parallel)
            key = f"{item.query.name}/{algorithm}/{layout}"
            result = run_case(item, algorithm, layout, jobs=2)
            expected = golden[key]
            assert result.cost == expected["cost"], key
            assert plan_signature(result.plan) == expected["signature"], key
            if layout == "none":
                assert result.stats.workers == 2, key
                counted = expected["cooperative"]
                assert {name: getattr(result.stats, name) for name in COUNTERS} == counted, key
                for order in ((0, 1), (1, 0)):
                    assert observe_shares(item, algorithm, layout, order=order) == counted, key
                expanded = result.stats.subqueries_expanded
                assert expanded >= expected["subqueries_expanded"], key


def _stepping_budget(allowance, anytime=False):
    clock = SteppingClock(step=1.0)
    budget = QueryBudget(
        deadline=Deadline.after(float(allowance), clock), anytime=anytime
    )
    return budget, clock


RECORD_COUNTERS = (
    "plans_considered",
    "divisions_enumerated",
    "divisions_bounded",
    "local_short_circuits",
)


class PerSubquery:
    """Each expanded subquery's own share of ``enumerator.stats``.

    Wraps the enumerator's ``_search`` (the one costing loop) and its
    ``divisions`` hook.  A subquery's share (:attr:`own`) is the stats
    delta across its ``_search`` call minus the deltas of the child
    searches it recursed into, recorded in a ``finally`` so an expiry
    mid-loop is recorded too.  :attr:`yielded` counts the divisions the
    hook handed each subquery, independently of the loop's counting.
    """

    def __init__(self, enumerator):
        self.stats = enumerator.stats
        self.own = {}
        self.yielded = Counter()
        self._open = []  # per open search: its children's summed deltas
        search, divisions = enumerator._search, enumerator.divisions

        def counted_search(bits, *args):
            before = self._current()
            self._open.append(dict.fromkeys(RECORD_COUNTERS, 0))
            try:
                return search(bits, *args)
            finally:
                children = self._open.pop()
                after = self._current()
                inclusive = {n: after[n] - before[n] for n in RECORD_COUNTERS}
                self.own[bits] = {
                    n: inclusive[n] - children[n] for n in RECORD_COUNTERS
                }
                if self._open:
                    for n in RECORD_COUNTERS:
                        self._open[-1][n] += inclusive[n]

        def counted_divisions(bits):
            for division in divisions(bits):
                self.yielded[bits] += 1
                yield division

        enumerator._search = counted_search
        enumerator.divisions = counted_divisions

    def _current(self):
        return {name: getattr(self.stats, name) for name in RECORD_COUNTERS}

    def totals(self):
        """The shares summed: must be ``stats`` itself."""
        return {
            name: sum(share[name] for share in self.own.values())
            for name in RECORD_COUNTERS
        }

    def exact(self):
        """Every share counted the divisions it was handed, no more."""
        return all(
            share["divisions_enumerated"] == self.yielded[bits]
            for bits, share in self.own.items()
        )


def _stats_totals(enumerator):
    return {name: getattr(enumerator.stats, name) for name in RECORD_COUNTERS}


#: (enumerator class, query) whose roots have thousands of divisions:
#: the search's last deadline polls fall inside the root's loop
MID_LOOP = [
    (TopDownEnumerator, star_query(8)),
    (PrunedTopDownEnumerator, star_query(11)),
]
#: a dense TD-CMDP search, where the ticks belong to inner subqueries
#: (one with a subquery of ≥ 256 divisions once each is priced once)
CADENCE = MID_LOOP + [(PrunedTopDownEnumerator, dense_query(13, random.Random(1)))]


def _enumerator(cls, query, budget):
    builder = make_builder(query, seed=11)
    return cls(builder.join_graph, builder, budget=budget)


def _accounted(cls, query, budget):
    enumerator = _enumerator(cls, query, budget)
    return enumerator, PerSubquery(enumerator)


def _polls_of_full_run(cls, query):
    budget, clock = _stepping_budget(10**9)
    enumerator, shares = _accounted(cls, query, budget)
    result = enumerator.optimize()
    # Deadline.after read the clock once
    return enumerator, shares, result, clock.calls - 1


class TestPollCadence:
    @pytest.mark.parametrize("cls,query", CADENCE)
    def test_once_per_subquery_and_every_256_divisions(self, cls, query):
        enumerator, shares, _, polls = _polls_of_full_run(cls, query)
        assert shares.exact()
        ticks = sum(
            share["divisions_enumerated"] // 256 for share in shares.own.values()
        )
        assert ticks > 0
        assert polls == enumerator.stats.subqueries_expanded + ticks


class TestExpiryMidLoop:
    @pytest.mark.parametrize("cls,query", MID_LOOP)
    def test_strict_expiry_leaves_exact_counters(self, cls, query):
        """Expire at the last polls of the search, from the very last
        one back, until both kinds were hit.  All of them fall inside
        the root's division loop: some are the loop's own every-256
        tick, the others a child expansion it recursed into (the bound
        solves children early, so those are further back).  Either way
        the loop's ``finally`` must have flushed its locals."""
        full, full_shares, _, polls = _polls_of_full_run(cls, query)
        full_root = full_shares.own[full.join_graph.full]
        total = full_root["divisions_enumerated"]
        raised_by = set()
        for short_by in range(1, 33):
            budget, _ = _stepping_budget(polls - short_by)
            enumerator, shares = _accounted(cls, query, budget)
            with pytest.raises(OptimizationTimeout):
                enumerator.optimize()
            root = shares.own[enumerator.join_graph.full]
            assert 0 < root["divisions_enumerated"] <= total
            assert _stats_totals(enumerator) == shares.totals()
            assert shares.exact()
            # the division the deadline fired in was counted, not costed
            assert root["plans_considered"] < full_root["plans_considered"]
            raised_by.add(
                "tick" if root["divisions_enumerated"] % 256 == 0 else "child"
            )
            if short_by >= 4 and raised_by == {"tick", "child"}:
                break
        assert raised_by == {"tick", "child"}

    @pytest.mark.parametrize("cls,query", MID_LOOP)
    def test_anytime_expiry_leaves_exact_counters_and_a_plan(self, cls, query):
        full, _, optimum, polls = _polls_of_full_run(cls, query)
        budget, _ = _stepping_budget(polls - 2, anytime=True)
        enumerator, shares = _accounted(cls, query, budget)
        result = enumerator.optimize()
        assert result.stats.degraded
        assert result.algorithm.endswith("[anytime]")
        assert _stats_totals(enumerator) == shares.totals()
        assert shares.exact()
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
