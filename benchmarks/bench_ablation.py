"""Ablation benchmarks for the design choices DESIGN.md calls out.

* each TD-CMDP rule toggled individually (space and plan-cost impact),
* JGR greedy cover vs. collapsing maximal local queries directly,
* TD-Auto threshold sensitivity,
* memoization on/off for TD-CMD.
"""

import random

import pytest

from repro.core import (
    AutoThresholds,
    JoinGraph,
    LocalQueryIndex,
    PrunedTopDownEnumerator,
    TopDownEnumerator,
    choose_algorithm,
)
from repro.core.governance import Deadline, QueryBudget
from repro.core.optimizer import make_builder
from repro.experiments.tables import render_table, write_report
from repro.partitioning import HashSubjectObject
from repro.workloads.generators import dense_query, star_query, tree_query


def _run_pruned(builder, local_index, **rules):
    optimizer = PrunedTopDownEnumerator(
        builder.join_graph, builder, local_index, **rules
    )
    result = optimizer.optimize()
    return result, optimizer.stats


RULE_VARIANTS = {
    "all-rules": {},
    "no-rule1": {"rule1_ccmd_only": False},
    "no-rule2": {"rule2_binary_broadcast": False},
    "no-rule3": {"rule3_local_short_circuit": False},
}


@pytest.mark.parametrize("variant", list(RULE_VARIANTS))
def test_rule_ablation_runtime(benchmark, variant):
    query = tree_query(9, random.Random(7))
    builder = make_builder(query, seed=7)
    local_index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
    result, stats = benchmark.pedantic(
        _run_pruned,
        args=(builder, local_index),
        kwargs=RULE_VARIANTS[variant],
        rounds=1,
        iterations=1,
    )
    assert result.cost > 0


@pytest.mark.report
def test_rule_ablation_report(benchmark):
    """Quantify each rule's contribution on a tree and a dense query."""

    def build_report():
        rows = []
        for label, query in (
            ("tree-9", tree_query(9, random.Random(7))),
            ("dense-9", dense_query(9, random.Random(7))),
            ("star-9", star_query(9)),
        ):
            builder = make_builder(query, seed=7)
            local_index = LocalQueryIndex(builder.join_graph, HashSubjectObject())
            baseline = TopDownEnumerator(builder.join_graph, builder, local_index)
            base_result = baseline.optimize()
            for variant, rules in RULE_VARIANTS.items():
                result, stats = _run_pruned(builder, local_index, **rules)
                rows.append(
                    [
                        label,
                        variant,
                        f"{stats.plans_considered:,}",
                        f"{result.cost / base_result.cost:.3f}",
                    ]
                )
            rows.append(
                [
                    label,
                    "TD-CMD",
                    f"{baseline.stats.plans_considered:,}",
                    "1.000",
                ]
            )
        return render_table(
            "Ablation — TD-CMDP rules (space and plan-cost vs TD-CMD)",
            ["Query", "Variant", "#Plans", "Cost/TD-CMD"],
            rows,
            note=(
                "Rule 1 (ccmd-only k-way) drives the reduction on tree/dense; "
                "Rule 3 (local short-circuit) is decisive on hash-local stars "
                "(1 plan vs tens of thousands); plan costs stay at the optimum."
            ),
        )

    content = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ablation_rules.txt", content)
    print()
    print(content)
    assert "no-rule1" in content


@pytest.mark.report
def test_threshold_sensitivity_report(benchmark):
    """How the Fig. 5 thresholds move TD-Auto's choices."""

    def build_report():
        queries = {
            "star-12": star_query(12),
            "tree-16": tree_query(16, random.Random(3)),
            "dense-16": dense_query(16, random.Random(3)),
        }
        rows = []
        for theta_d in (3, 5, 8):
            for theta_n in (15, 30):
                thresholds = AutoThresholds(
                    degree=theta_d, pattern_count=theta_n, dense_pattern_count=14
                )
                for name, query in queries.items():
                    choice = choose_algorithm(JoinGraph(query), thresholds)
                    rows.append([f"θd={theta_d},θn={theta_n}", name, choice])
        return render_table(
            "Ablation — TD-Auto decision-tree threshold sensitivity",
            ["Thresholds", "Query", "Chosen algorithm"],
            rows,
        )

    content = benchmark.pedantic(build_report, rounds=1, iterations=1)
    write_report("ablation_thresholds.txt", content)
    print()
    print(content)


def test_memoization_speedup(benchmark):
    """Algorithm 1's memo table: measure the win on a tree query."""
    query = tree_query(10, random.Random(5))
    builder = make_builder(query, seed=5)

    class NeverHits(dict):
        """A memo table that stores but never answers a probe."""

        def get(self, key, default=None):
            return default

    class NoMemo(TopDownEnumerator):
        algorithm_name = "TD-CMD-nomemo"

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            # the costing loop probes the memo inline; a table whose
            # probes all miss re-solves every child reference
            self._memo = NeverHits()

    import time

    start = time.perf_counter()
    memo_result = TopDownEnumerator(builder.join_graph, builder).optimize()
    memo_elapsed = time.perf_counter() - start

    builder2 = make_builder(query, seed=5)
    budget = QueryBudget(deadline=Deadline.after(120))
    no_memo = NoMemo(builder2.join_graph, builder2, budget=budget)
    result = benchmark.pedantic(no_memo.optimize, rounds=1, iterations=1)
    assert result.cost == pytest.approx(memo_result.cost)
    assert result.elapsed_seconds > memo_elapsed  # memoization must win
