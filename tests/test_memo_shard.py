"""Tests for the memo-sharded parallel search (core.memo_shard).

Three contracts:

* **tiering** — :func:`subquery_tiers` enumerates exactly the connected
  subqueries, grouped by popcount (checked against a brute-force
  connectivity sweep);
* **equivalence** — the sharded search returns bit-identical plan costs
  and verifier-clean plans across algorithms × partitioners × seeds
  (hypothesis property test);
* **governance** — an expiring anytime deadline yields a *complete*,
  labelled, verifier-clean degraded plan assembled from finished tiers;
  without ``anytime`` it raises :class:`OptimizationTimeout`.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import PlanVerifier, VerificationContext, verify_result
from repro.core import OptimizeOptions, Optimizer, optimize
from repro.core.enumeration import OptimizationTimeout
from repro.core.governance import Deadline, QueryBudget
from repro.core.join_graph import JoinGraph
from repro.core.memo_shard import subquery_tiers
from repro.core import bitset as bs
from repro.partitioning import (
    DynamicPartitioning,
    HashSubjectObject,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
)
from repro.workloads.generators import (
    chain_query,
    cycle_query,
    dense_query,
    star_query,
    tree_query,
)


def sharded(query, algorithm, jobs, budget=None, **options):
    """One query through a ``jobs > 1`` session (the sharded search)."""
    session = Optimizer(OptimizeOptions(algorithm=algorithm, jobs=jobs, **options))
    return session.optimize(query, budget)


def brute_force_connected(join_graph):
    """Every connected subquery bitset, by exhaustive enumeration."""
    return {
        bits
        for bits in range(1, join_graph.full + 1)
        if join_graph.is_connected(bits)
    }


class TestSubqueryTiers:
    @pytest.mark.parametrize(
        "query",
        [
            chain_query(5),
            cycle_query(6),
            star_query(5),
            tree_query(7, random.Random(1)),
            dense_query(7, random.Random(2)),
        ],
        ids=["chain5", "cycle6", "star5", "tree7", "dense7"],
    )
    def test_tiers_are_exactly_the_connected_subqueries(self, query):
        join_graph = JoinGraph(query)
        tiers = subquery_tiers(join_graph)
        flattened = {bits for tier in tiers for bits in tier}
        assert flattened == brute_force_connected(join_graph)
        for k, tier in enumerate(tiers):
            assert all(bs.popcount(bits) == k for bits in tier)
            assert tier == sorted(tier)  # deterministic schedule order
        assert tiers[0] == []
        assert tiers[len(query)] == [join_graph.full]

    def test_chain_tier_sizes(self):
        """A chain of n patterns has n-k+1 connected k-subqueries."""
        join_graph = JoinGraph(chain_query(6))
        tiers = subquery_tiers(join_graph)
        assert [len(tier) for tier in tiers[1:]] == [6, 5, 4, 3, 2, 1]


class TestMemoShardEquivalence:
    """Serial ≡ memo-sharded: cost, plan shape, and verifier verdict."""

    PARTITIONERS = [
        None,
        HashSubjectObject(),
        SemanticHash(2),
        PathBMC(),
        UndirectedOneHop(),
        "dynamic",  # built per query: DynamicPartitioning needs hot queries
    ]

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        algorithm=st.sampled_from(["td-cmd", "td-cmdp"]),
        partitioner=st.sampled_from(range(len(PARTITIONERS))),
        seed=st.integers(min_value=0, max_value=7),
        shape=st.sampled_from(["cycle", "tree", "dense"]),
    )
    def test_cost_identity_and_verifier_clean(
        self, algorithm, partitioner, seed, shape
    ):
        rng = random.Random(seed)
        query = {
            "cycle": lambda: cycle_query(7),
            "tree": lambda: tree_query(8, rng),
            "dense": lambda: dense_query(7, rng),
        }[shape]()
        method = self.PARTITIONERS[partitioner]
        if method == "dynamic":
            method = DynamicPartitioning(HashSubjectObject(), [query])
        serial = optimize(
            query, algorithm=algorithm, partitioning=method, seed=seed
        )
        parallel = sharded(query, algorithm, 2, partitioning=method, seed=seed)
        assert parallel.cost == serial.cost  # bit-identical, not approx
        assert parallel.plan.describe() == serial.plan.describe()
        context = VerificationContext.for_query(
            query, partitioning=method, seed=seed
        )
        verify_result(parallel, context).raise_if_failed()

    def test_small_query_declines_to_serial(self):
        """A search space too small to shard runs the serial search."""
        query = chain_query(2)
        result = sharded(query, "td-cmd", 4)
        assert result.stats.workers == 1
        assert "[parallel" not in result.algorithm
        assert result.cost == optimize(query, algorithm="td-cmd").cost


class TestMemoShardGovernance:
    def test_anytime_deadline_yields_complete_labelled_plan(self):
        """An expired deadline mid-search degrades to a complete plan
        merged from the finished tiers, labelled and verifier-clean."""
        query = dense_query(10, random.Random(3))
        budget = QueryBudget(
            deadline=Deadline.after(0.0), anytime=True, query_id="q-any"
        )
        result = sharded(query, "td-cmdp", 2, budget)
        assert result.stats.degraded
        assert "[anytime]" in result.algorithm
        assert "finished tiers" in result.stats.degradation_reason
        # the degraded plan still answers the *whole* query
        join_graph = JoinGraph(query)
        assert result.plan.bits == join_graph.full
        context = VerificationContext.for_query(query)
        report = PlanVerifier(
            context.with_profile(context.profile)
        ).verify(result.plan)
        report.raise_if_failed()

    def test_deadline_without_anytime_raises_timeout(self):
        query = dense_query(10, random.Random(3))
        budget = QueryBudget(deadline=Deadline.after(0.0), anytime=False)
        with pytest.raises(OptimizationTimeout):
            sharded(query, "td-cmdp", 2, budget)

    def test_generous_deadline_is_not_degraded(self):
        query = cycle_query(7)
        budget = QueryBudget(deadline=Deadline.after(600.0), anytime=True)
        result = sharded(query, "td-cmdp", 2, budget)
        assert not result.stats.degraded
        assert result.cost == optimize(query, algorithm="td-cmdp").cost
