#!/usr/bin/env python
"""Adaptive-repartitioning benchmark: skewed workload replay with gates.

Replays a skewed 80/20 LUBM workload (80% of queries drawn from two
hot, heavy-shipping shapes — L7 and L8 — 20% from cold star queries)
through the :meth:`Optimizer.observe_execution` feedback loop against
an :class:`AdaptiveCluster`, then compares steady-state shipping on the
adapted layout against the static hash-so layout.

Reported per run (``BENCH_adaptive.json``):

* the adaptation timeline (when each round fired, what it applied, the
  replication cost and layout epoch);
* post-warm-up ``total_tuples_shipped`` for the static layout vs the
  adaptive replay, and the steady-state per-query shipped counts on
  both layouts for every registered engine;
* a bit-identity section: every workload query's decoded result set on
  the adapted layout must equal the single-node reference on every
  engine (and the static layout's rows) — asserted in-run;
* with ``--micro``, the encoded-vs-reference hot-query matching
  micro-benchmark backing the ``DynamicPartitioning.partition``
  switch to :func:`~repro.partitioning.dynamic.hot_query_matches`.

The ``--baseline`` gate is machine-independent: shipped-tuple counts
are deterministic properties of (workload, layout), not of the runner.
It requires, for every registered engine (all run the same operators,
so all ship the same tuples), a post-warm-up shipping reduction of at
least ``max(2.0, baseline reduction / 2)`` — the adapted layout must
ship at most half of what the static layout ships, with slack for
workload re-tuning.

Usage::

    PYTHONPATH=src python benchmarks/bench_adaptive.py --quick \
        --output BENCH_adaptive.json --baseline benchmarks/baseline_adaptive.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import PlanCache, StatisticsCatalog
from repro.core.session import OptimizeOptions, Optimizer
from repro.engine import ENGINES, Cluster, Executor, evaluate_reference
from repro.partitioning import AdaptiveCluster, HashSubjectObject
from repro.partitioning.dynamic import _instantiate, hot_query_matches
from repro.sparql.ast import BGPQuery
from repro.workloads import generate_lubm, lubm_query

#: the hot 80%: recurring shapes that ship heavily under static hash-so
HOT = ("L7", "L8")
#: the cold 20%: star queries that are already local
COLD = ("L1", "L2")
#: one workload round — 8 hot, 2 cold (the 80/20 skew)
ROUND = ("L7", "L8", "L7", "L8", "L7", "L8", "L7", "L8", "L1", "L2")


def _workload(rounds: int):
    return [name for _ in range(rounds) for name in ROUND]


def _prepare():
    dataset = generate_lubm()
    names = sorted(set(HOT) | set(COLD))
    queries = {name: lubm_query(name) for name in names}
    statistics = {
        name: StatisticsCatalog.from_dataset(queries[name], dataset)
        for name in names
    }
    reference_rows = {
        name: evaluate_reference(queries[name], dataset.graph).rows
        for name in names
    }
    return dataset, queries, statistics, reference_rows


def _steady_state(cluster, session, queries, reference_rows):
    """Per-engine, per-query shipped counts on the session's current
    layout, with bit-identity asserted against the reference rows."""
    shipped = {engine: {} for engine in ENGINES}
    for name in sorted(queries):
        query = queries[name]
        plan = session.optimize(query).plan
        for engine in ENGINES:
            relation, metrics = Executor(cluster, engine=engine).execute(
                plan, query
            )
            assert relation.rows == reference_rows[name], (
                f"{name}: {engine} rows diverged from the single-node "
                f"reference on {cluster.partitioning.method_name}"
            )
            shipped[engine][name] = metrics.total_tuples_shipped
    return shipped


def bench_adaptive(
    cluster_size: int,
    rounds: int,
    warmup_rounds: int,
    adapt_every: int,
    replication_budget: float,
):
    """Replay the skewed workload through the feedback loop."""
    dataset, queries, statistics, reference_rows = _prepare()
    workload = _workload(rounds)
    warmup = warmup_rounds * len(ROUND)
    method = HashSubjectObject()

    # static layout: per-query shipped counts (deterministic, so one
    # execution per query prices the whole replay), plus bit-identity
    static_cluster = Cluster.build(dataset, method, cluster_size)
    static_session = Optimizer(OptimizeOptions(partitioning=method))
    for name in sorted(queries):
        static_session.prime_statistics(queries[name], statistics[name])
    static_shipped = _steady_state(
        static_cluster, static_session, queries, reference_rows
    )

    # adaptive replay: one session drives optimize -> execute -> observe
    session = Optimizer(
        OptimizeOptions(
            partitioning=method,
            adapt=True,
            adapt_every=adapt_every,
            replication_budget=replication_budget,
            plan_cache=PlanCache(),
        )
    )
    for name in sorted(queries):
        session.prime_statistics(queries[name], statistics[name])
    cluster = AdaptiveCluster.build(dataset, method, cluster_size)
    session.bind_cluster(cluster)

    timeline = []
    replay_shipped_after_warmup = 0
    started = time.perf_counter()
    for index, name in enumerate(workload):
        query = queries[name]
        result = session.optimize(query)
        relation, metrics = Executor(cluster).execute(result.plan, query)
        assert relation.rows == reference_rows[name], (
            f"{name}: rows diverged mid-replay at observation {index + 1}"
        )
        if index >= warmup:
            replay_shipped_after_warmup += metrics.total_tuples_shipped
        report = session.observe_execution(query, metrics)
        if report is not None:
            timeline.append(
                {
                    "observation": index + 1,
                    "applied": [p.label for p in report.applied],
                    "skipped": [p.label for p in report.skipped],
                    "migrations": report.migrations,
                    "replicated_triples": report.replicated_triples,
                    "epoch": report.epoch,
                }
            )
    replay_seconds = time.perf_counter() - started

    # steady state on the adapted layout, every engine, bit-identical
    adaptive_shipped = _steady_state(cluster, session, queries, reference_rows)

    # post-warm-up totals priced from the per-query steady-state counts
    tail = workload[warmup:]
    per_engine = {}
    for engine in ENGINES:
        before = sum(static_shipped[engine][name] for name in tail)
        after = sum(adaptive_shipped[engine][name] for name in tail)
        per_engine[engine] = {
            "shipped_before": before,
            "shipped_after": after,
            # None encodes "infinite" (nothing shipped after adaptation)
            "reduction": (before / after) if after > 0 else None,
        }

    return {
        "cluster_size": cluster_size,
        "rounds": rounds,
        "warmup_rounds": warmup_rounds,
        "adapt_every": adapt_every,
        "replication_budget": replication_budget,
        "workload_round": list(ROUND),
        "observations": len(workload),
        "replay_seconds": replay_seconds,
        "replay_shipped_after_warmup": replay_shipped_after_warmup,
        "timeline": timeline,
        "replicated_triples": cluster.replicated_triples,
        "replication_fraction": cluster.replicated_triples
        / len(dataset.graph),
        "layout_version": cluster.layout_version,
        "final_method": cluster.adapted_method().name,
        "static_shipped": static_shipped,
        "adaptive_shipped": adaptive_shipped,
        "per_engine": per_engine,
        "identical_results": True,  # the assertions above passed
    }


def _reference_matches(dataset, hot: BGPQuery):
    """The pre-switch matcher: term-tuple reference joins."""
    bindings = evaluate_reference(
        BGPQuery(hot.patterns, projection=None, name=hot.name), dataset.graph
    )
    matches = []
    for binding in bindings.bindings():
        anchor = min(binding.values(), key=str)
        grounded = []
        for tp in hot.patterns:
            t = _instantiate(tp, binding)
            if t is not None and t in dataset.graph:
                grounded.append(t)
        matches.append((anchor, grounded))
    return matches


def bench_micro_matching(repetitions: int):
    """Encoded vs reference hot-query matching (the satellite switch).

    `DynamicPartitioning.partition` used to ground hot queries through
    `evaluate_reference`; it now goes through `hot_query_matches` (the
    encoded/columnar path).  Results are asserted identical here; the
    speedup column is what the `dynamic.py` docstring cites.
    """
    dataset = generate_lubm()
    dataset.encoded_graph().predicate_ids()  # index build is one-time
    results = []
    for name in HOT:
        hot = lubm_query(name)

        def canonical(matches):
            return sorted(
                (str(anchor), sorted(map(str, triples)))
                for anchor, triples in matches
            )

        encoded = hot_query_matches(dataset, hot)
        reference = _reference_matches(dataset, hot)
        assert canonical(encoded) == canonical(reference), (
            f"{name}: encoded matching diverged from the reference path"
        )

        started = time.perf_counter()
        for _ in range(repetitions):
            hot_query_matches(dataset, hot)
        encoded_seconds = (time.perf_counter() - started) / repetitions

        started = time.perf_counter()
        for _ in range(repetitions):
            _reference_matches(dataset, hot)
        reference_seconds = (time.perf_counter() - started) / repetitions

        results.append(
            {
                "query": name,
                "matches": len(encoded),
                "encoded_seconds": encoded_seconds,
                "reference_seconds": reference_seconds,
                "speedup": (
                    reference_seconds / encoded_seconds
                    if encoded_seconds > 0
                    else 0.0
                ),
            }
        )
    return {"repetitions": repetitions, "queries": results}


def check_baseline(report: dict, baseline_path: Path) -> int:
    """Gate post-warm-up shipping reduction per registered engine.

    ``reduction: null`` means the adapted layout shipped nothing — the
    strongest possible pass.  Otherwise the reduction must reach
    ``max(2.0, baseline reduction / 2)``; a missing baseline engine
    entry gates at the 2.0 floor.
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failed = False
    for engine in ENGINES:
        entry = report["adaptive"]["per_engine"][engine]
        base_entry = baseline["adaptive"]["per_engine"].get(engine, {})
        base_reduction = base_entry.get("reduction")
        floor = 2.0 if base_reduction is None else max(2.0, base_reduction / 2)
        reduction = entry["reduction"]
        shown = "inf" if reduction is None else f"{reduction:.2f}"
        print(
            f"baseline gate [{engine}]: shipped "
            f"{entry['shipped_before']} -> {entry['shipped_after']} "
            f"post-warm-up (reduction {shown}x, floor {floor:.2f}x)"
        )
        if reduction is not None and reduction < floor:
            print(
                f"FAIL: {engine} shipping reduction fell below the gate",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer rounds (CI smoke)"
    )
    parser.add_argument("--cluster-size", type=int, default=4)
    parser.add_argument("--adapt-every", type=int, default=5)
    parser.add_argument("--replication-budget", type=float, default=0.3)
    parser.add_argument(
        "--micro",
        action="store_true",
        help="also run the encoded-vs-reference hot-matching micro bench",
    )
    parser.add_argument("--output", default="BENCH_adaptive.json")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline JSON; exit non-zero if the post-warm-up "
        "shipping reduction drops below max(2.0, baseline / 2)",
    )
    args = parser.parse_args(argv)
    rounds = 4 if args.quick else 6
    warmup_rounds = 2

    report = {
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    report["adaptive"] = bench_adaptive(
        args.cluster_size,
        rounds,
        warmup_rounds,
        args.adapt_every,
        args.replication_budget,
    )
    adaptive = report["adaptive"]
    for event in adaptive["timeline"]:
        print(
            f"obs {event['observation']:>3d}: "
            f"applied={event['applied']} skipped={event['skipped']} "
            f"cost={event['replicated_triples']} epoch={event['epoch']}"
        )
    print(
        f"layout: {adaptive['final_method']} "
        f"({adaptive['replicated_triples']} replicated triples, "
        f"{adaptive['replication_fraction']:.1%} of the dataset)"
    )
    for engine in ENGINES:
        entry = adaptive["per_engine"][engine]
        reduction = entry["reduction"]
        shown = "inf" if reduction is None else f"{reduction:.2f}"
        print(
            f"{engine:>10s}: shipped {entry['shipped_before']} -> "
            f"{entry['shipped_after']} post-warm-up "
            f"(reduction {shown}x)"
        )
    if args.micro:
        report["micro_matching"] = bench_micro_matching(
            3 if args.quick else 10
        )
        for entry in report["micro_matching"]["queries"]:
            print(
                f"micro {entry['query']}: encoded="
                f"{entry['encoded_seconds'] * 1000:7.2f}ms "
                f"reference={entry['reference_seconds'] * 1000:7.2f}ms "
                f"speedup={entry['speedup']:.2f}x "
                f"({entry['matches']} matches)"
            )

    Path(args.output).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    if args.baseline:
        return check_baseline(report, Path(args.baseline))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
