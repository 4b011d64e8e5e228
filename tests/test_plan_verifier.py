"""Tests for the static plan verifier (analysis.plan_verifier).

Adversarial plans are hand-built with the raw ``JoinNode`` / ``ScanNode``
constructors, deliberately bypassing :class:`PlanBuilder` (which refuses
to build most of them) — each must raise its own *named* violation.  A
hypothesis property test then asserts the positive direction: every
algorithm x partitioner x seed combination emits verifier-clean plans.
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import (
    ChildCoverageGap,
    CostMismatch,
    DisconnectedDivision,
    InvariantViolation,
    KAryBroadcast,
    MalformedPlanNode,
    NonCoLocatedLocalQuery,
    OverlappingChildBitsets,
    PlanVerifier,
    VariableBindingViolation,
    VerificationContext,
    profile_for_algorithm,
    verify_result,
)
from repro.core import OptimizeOptions, Optimizer, StatisticsCatalog, optimize
from repro.core import bitset as bs
from repro.core.enumeration import InvariantProfile
from repro.core.plan_cache import PlanCache
from repro.core.plans import JoinAlgorithm, JoinNode, ScanNode
from repro.partitioning import (
    HashSubjectObject,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
)
from repro.rdf.terms import Variable
from repro.workloads.generators import (
    chain_query,
    cycle_query,
    star_query,
    tree_query,
)

ALL_ALGORITHMS = ["td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto"]
ALL_METHODS = [None, HashSubjectObject(), SemanticHash(2), PathBMC(), UndirectedOneHop()]


# ----------------------------------------------------------------------
# hand-construction helpers (bypass PlanBuilder on purpose)
# ----------------------------------------------------------------------
def raw_scan(graph, index):
    return ScanNode(
        bits=bs.bit(index),
        cardinality=1.0,
        cost=0.0,
        pattern_index=index,
        pattern=graph.patterns[index],
    )


def raw_join(children, algorithm=JoinAlgorithm.REPARTITION, variable=None, bits=None):
    if bits is None:
        bits = 0
        for child in children:
            bits |= child.bits
    return JoinNode(
        bits=bits,
        cardinality=1.0,
        cost=0.0,
        algorithm=algorithm,
        join_variable=variable,
        children=tuple(children),
        operator_cost=0.0,
    )


@pytest.fixture
def chain3():
    """Chain of 3 patterns with its structure-only context."""
    query = chain_query(3)
    context = VerificationContext.for_query(query, structure_only=True)
    return query, context


def jvar(context, *pattern_indices):
    """The join variable whose Ntp is exactly the given patterns."""
    graph = context.join_graph
    want = bs.from_indices(pattern_indices)
    for v in graph.join_variables:
        if graph.ntp(v) == want:
            return v
    raise AssertionError(f"no join variable with ntp {want:#x}")


# ----------------------------------------------------------------------
# the five named adversarial plans (+ PV000, PV003, PV007 variants)
# ----------------------------------------------------------------------
class TestNamedViolations:
    def test_disconnected_division_pv001(self, chain3):
        _, context = chain3
        graph = context.join_graph
        s0, s1, s2 = (raw_scan(graph, i) for i in range(3))
        # {tp0, tp2} of a chain share no join variable: disconnected.
        inner = raw_join([s0, s2], variable=jvar(context, 0, 1))
        root = raw_join([inner, s1], variable=jvar(context, 0, 1))
        report = PlanVerifier(context).verify(root)
        assert "PV001" in report.codes()
        with pytest.raises(DisconnectedDivision):
            PlanVerifier(context).check(root)

    def test_overlapping_child_bitsets_pv002(self, chain3):
        _, context = chain3
        graph = context.join_graph
        s0, s1, s2 = (raw_scan(graph, i) for i in range(3))
        j01 = raw_join([s0, s1], variable=jvar(context, 0, 1))
        # s1 appears both inside j01 and as a direct child.
        root = raw_join([j01, s1, s2], variable=jvar(context, 1, 2))
        report = PlanVerifier(context).verify(root)
        assert report.codes() == ("PV002",)
        with pytest.raises(OverlappingChildBitsets):
            PlanVerifier(context).check(root)

    def test_child_coverage_gap_pv003(self, chain3):
        _, context = chain3
        graph = context.join_graph
        s0, s1, _ = (raw_scan(graph, i) for i in range(3))
        # claims the full query but only joins the first two patterns
        root = raw_join([s0, s1], variable=jvar(context, 0, 1), bits=graph.full)
        report = PlanVerifier(context).verify(root)
        assert report.codes() == ("PV003",)
        with pytest.raises(ChildCoverageGap):
            PlanVerifier(context).check(root)

    def test_kary_broadcast_pv004_under_td_cmdp_only(self):
        query = star_query(3)
        context = VerificationContext.for_query(query, structure_only=True)
        graph = context.join_graph
        center = graph.join_variables[0]
        scans = [raw_scan(graph, i) for i in range(3)]
        root = raw_join(scans, algorithm=JoinAlgorithm.BROADCAST, variable=center)
        # legal for plain TD-CMD (k-ary broadcasts allowed)...
        assert PlanVerifier(context).verify(root).ok
        # ...but a Rule-2 violation under any TD-CMDP-labeled profile
        pruned = context.with_profile(profile_for_algorithm("TD-CMDP[parallel x4]"))
        report = PlanVerifier(pruned).verify(root)
        assert report.codes() == ("PV004",)
        with pytest.raises(KAryBroadcast):
            PlanVerifier(pruned).check(root)

    def test_non_colocated_local_query_pv005(self):
        query = chain_query(3)
        context = VerificationContext.for_query(
            query, partitioning=HashSubjectObject(), structure_only=True
        )
        graph = context.join_graph
        # precondition: hash-so does not co-locate the whole 3-chain
        assert not context.local_index.is_local(graph.full)
        scans = [raw_scan(graph, i) for i in range(3)]
        root = raw_join(
            scans, algorithm=JoinAlgorithm.LOCAL, variable=jvar(context, 0, 1)
        )
        report = PlanVerifier(context).verify(root)
        assert report.codes() == ("PV005",)
        with pytest.raises(NonCoLocatedLocalQuery):
            PlanVerifier(context).check(root)

    def test_cost_mismatch_pv006(self):
        query = cycle_query(4)
        statistics = StatisticsCatalog.from_random(query, random.Random(0))
        result = optimize(query, algorithm="td-cmd", statistics=statistics)
        context = VerificationContext.for_query(query, statistics=statistics)
        assert PlanVerifier(context).verify(result.plan).ok
        corrupted = dataclasses.replace(result.plan, cost=result.plan.cost + 1.0)
        report = PlanVerifier(context).verify(corrupted)
        assert report.codes() == ("PV006",)
        with pytest.raises(CostMismatch):
            PlanVerifier(context).check(corrupted)

    def test_variable_binding_violation_pv007(self, chain3):
        _, context = chain3
        graph = context.join_graph
        s0, s1, s2 = (raw_scan(graph, i) for i in range(3))
        j01 = raw_join([s0, s1], variable=jvar(context, 0, 1))
        # tp2 contains no pattern binding the tp0/tp1 join variable
        root = raw_join([j01, s2], variable=jvar(context, 0, 1))
        report = PlanVerifier(context).verify(root)
        assert report.codes() == ("PV007",)
        with pytest.raises(VariableBindingViolation):
            PlanVerifier(context).check(root)

    def test_distributed_join_without_variable_pv007(self, chain3):
        _, context = chain3
        graph = context.join_graph
        s0, s1, s2 = (raw_scan(graph, i) for i in range(3))
        j01 = raw_join([s0, s1], variable=jvar(context, 0, 1))
        root = raw_join([j01, s2], variable=None)
        assert PlanVerifier(context).verify(root).codes() == ("PV007",)

    def test_foreign_join_variable_pv007(self, chain3):
        _, context = chain3
        graph = context.join_graph
        s0, s1, s2 = (raw_scan(graph, i) for i in range(3))
        j01 = raw_join([s0, s1], variable=jvar(context, 0, 1))
        root = raw_join([j01, s2], variable=Variable("not_a_join_var"))
        assert PlanVerifier(context).verify(root).codes() == ("PV007",)

    def test_malformed_root_and_scan_pv000(self, chain3):
        _, context = chain3
        graph = context.join_graph
        # root does not cover the whole query
        report = PlanVerifier(context).verify(raw_scan(graph, 0))
        assert "PV000" in report.codes()
        # scan whose pattern_index disagrees with its bitset
        bad_scan = ScanNode(
            bits=bs.bit(1), cardinality=1.0, cost=0.0, pattern_index=0
        )
        s2 = raw_scan(graph, 2)
        s0 = raw_scan(graph, 0)
        root = raw_join(
            [raw_join([s0, bad_scan], variable=jvar(context, 0, 1)), s2],
            variable=jvar(context, 1, 2),
        )
        assert "PV000" in PlanVerifier(context).verify(root).codes()
        # unary "join"
        unary = dataclasses.replace(root, children=(root.children[0],))
        assert "PV000" in PlanVerifier(context).verify(unary).codes()

    def test_raise_if_failed_picks_lowest_code(self, chain3):
        _, context = chain3
        graph = context.join_graph
        s0, s1, s2 = (raw_scan(graph, i) for i in range(3))
        # disconnected (PV001) AND badly-bound (PV007) in one node
        inner = raw_join([s0, s2], variable=jvar(context, 0, 1))
        root = raw_join([inner, s1], variable=jvar(context, 0, 1))
        report = PlanVerifier(context).verify(root)
        assert {"PV001", "PV007"} <= set(report.codes())
        with pytest.raises(DisconnectedDivision):
            report.raise_if_failed()


class TestReport:
    def test_render_and_describe(self, chain3):
        _, context = chain3
        graph = context.join_graph
        s0, s1, _ = (raw_scan(graph, i) for i in range(3))
        root = raw_join([s0, s1], variable=jvar(context, 0, 1), bits=graph.full)
        report = PlanVerifier(context).verify(root)
        text = report.render()
        assert "FAILED" in text and "PV003" in text
        violation = report.violations[0]
        assert violation.describe().startswith("PV003 [bits=0x7]")
        assert isinstance(violation, InvariantViolation)

    def test_clean_report_bookkeeping(self):
        query = cycle_query(4)
        statistics = StatisticsCatalog.from_random(query, random.Random(0))
        result = optimize(query, algorithm="td-cmdp", statistics=statistics)
        context = VerificationContext.for_query(query, statistics=statistics)
        report = verify_result(result, context)
        assert report.ok
        assert report.codes() == ()
        assert report.nodes_checked >= len(query)
        assert report.checks_run > report.nodes_checked
        assert report.elapsed_seconds >= 0.0
        assert "OK" in report.render()


class TestProfiles:
    def test_profile_for_algorithm_labels(self):
        for label in ("td-cmdp", "TD-CMDP[parallel x4]", "td-cmdp+cache",
                      "TD-Auto[TD-CMDP]"):
            assert profile_for_algorithm(label).broadcast_binary_only
        for label in ("td-cmd", "TD-CMD[parallel x2]", "hgr-td-cmd", "td-auto"):
            assert not profile_for_algorithm(label).broadcast_binary_only

    def test_with_profile_is_non_destructive(self, chain3):
        _, context = chain3
        pruned = context.with_profile(InvariantProfile(broadcast_binary_only=True))
        assert pruned.profile.broadcast_binary_only
        assert not context.profile.broadcast_binary_only
        assert pruned.join_graph is context.join_graph


# ----------------------------------------------------------------------
# the positive direction: real optimizer output is always clean
# ----------------------------------------------------------------------
class TestOptimizerOutputIsClean:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    @pytest.mark.parametrize("method", ALL_METHODS, ids=lambda m: repr(m))
    def test_all_algorithms_and_partitioners(self, algorithm, method):
        query = cycle_query(5)
        statistics = StatisticsCatalog.from_random(query, random.Random(0))
        result = optimize(
            query, algorithm=algorithm, statistics=statistics, partitioning=method
        )
        context = VerificationContext.for_query(
            query, statistics=statistics, partitioning=method
        )
        report = verify_result(result, context)
        assert report.ok, report.render()

    def test_parallel_search_results_verify(self):
        query = cycle_query(6)
        statistics = StatisticsCatalog.from_random(query, random.Random(1))
        session = Optimizer(
            OptimizeOptions(
                algorithm="td-cmdp", statistics=statistics, jobs=2, verify=True
            )
        )
        result = session.optimize(query)
        assert "parallel" in result.algorithm
        context = VerificationContext.for_query(query, statistics=statistics)
        assert verify_result(result, context).ok

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        shape=st.sampled_from(["chain", "cycle", "star", "tree"]),
        size=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=5000),
        method_index=st.integers(min_value=0, max_value=len(ALL_METHODS) - 1),
        algorithm=st.sampled_from(ALL_ALGORITHMS),
    )
    def test_property_verifier_clean(self, shape, size, seed, method_index, algorithm):
        maker = {
            "chain": chain_query,
            "cycle": cycle_query,
            "star": star_query,
            "tree": tree_query,
        }[shape]
        query = maker(max(size, 3) if shape == "cycle" else size)
        statistics = StatisticsCatalog.from_random(query, random.Random(seed))
        method = ALL_METHODS[method_index]
        result = optimize(
            query, algorithm=algorithm, statistics=statistics, partitioning=method
        )
        context = VerificationContext.for_query(
            query, statistics=statistics, partitioning=method
        )
        report = verify_result(result, context)
        assert report.ok, report.render()


# ----------------------------------------------------------------------
# the --verify path through the session: cache hits and corruption
# ----------------------------------------------------------------------
class TestVerifiedOptimize:
    def setup_method(self):
        self.query = cycle_query(5)
        self.statistics = StatisticsCatalog.from_random(self.query, random.Random(0))

    def _optimize(self, cache, verify=True, algorithm="td-cmdp"):
        session = Optimizer(
            OptimizeOptions(
                algorithm=algorithm,
                statistics=self.statistics,
                plan_cache=cache,
                verify=verify,
            )
        )
        return session.optimize(self.query)

    def test_verified_cache_hit_passes(self):
        cache = PlanCache()
        first = self._optimize(cache)
        hit = self._optimize(cache)
        assert hit.algorithm.endswith("+cache")
        assert hit.cost == pytest.approx(first.cost)
        assert cache.stats.hits == 1
        assert cache.stats.invalidations == 0

    def test_corrupted_cache_entry_is_treated_as_a_miss(self):
        cache = PlanCache()
        first = self._optimize(cache)
        key = next(iter(cache._entries))
        cache._entries[key]["plan"]["cost"] = first.cost + 100.0
        # the corrupted hit must be detected, dropped, and re-optimized
        fresh = self._optimize(cache)
        assert not fresh.algorithm.endswith("+cache")
        assert fresh.cost == pytest.approx(first.cost)
        assert cache.stats.invalidations == 1
        # the fresh result was re-stored: the next lookup hits cleanly
        again = self._optimize(cache)
        assert again.algorithm.endswith("+cache")
        assert cache.stats.invalidations == 1

    def test_corrupted_cache_entry_returned_without_verify(self):
        # control: without --verify the corruption goes unnoticed,
        # which is exactly why the verified path exists
        cache = PlanCache()
        first = self._optimize(cache, verify=False)
        key = next(iter(cache._entries))
        cache._entries[key]["plan"]["cost"] = first.cost + 100.0
        stale = self._optimize(cache, verify=False)
        assert stale.algorithm.endswith("+cache")
        assert stale.cost == pytest.approx(first.cost + 100.0)

    def test_fresh_result_verification_is_silent(self):
        result = self._optimize(None, algorithm="td-auto")
        assert result.plan.bits == (1 << len(self.query)) - 1
