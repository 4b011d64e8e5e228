#!/usr/bin/env python
"""Throughput benchmark: batch optimization, parallel search, plan cache.

Four sections, written to ``BENCH_parallel_opt.json``:

* **batch** — a Table IV-style workload of random chain/cycle/tree
  queries (10–40 patterns) pushed through ``Optimizer.optimize_many``
  with ``jobs=1`` vs. ``jobs=N``; reports wall-clock throughput and the
  speedup.
* **intra_query** — one larger query optimized serially vs. with the
  DP memo sharded across workers; asserts the two costs are
  bit-identical (the correctness contract of the parallel search).
* **cache** — the same workload run cold and then repeated against a
  warm :class:`~repro.core.plan_cache.PlanCache`; reports mean cold
  optimization latency, mean cache-hit latency, and their ratio.
* **scaling** — the Table-7-style dense section (also emitted on its
  own to ``BENCH_parallel_scaling.json``): 30+-pattern chain/cycle
  queries plus dense/tree queries, memo-sharded across workers ∈
  {1, 2, 4, 8}.  The reported numbers are *work units* (DP subqueries
  solved per worker), not wall time: ``scaling_efficiency`` = serial
  subqueries / max per-worker subqueries (the critical-path shrinkage
  an ideal machine would see).  It is a deterministic property of the
  scheduler, so the gate holds on any runner regardless of core count
  or oversubscription.

The ``--baseline`` gate compares the *cache speedup ratio* (cold mean /
hit mean) against a committed baseline and fails if the cached path has
regressed more than 2× relative to it; ``--scaling-baseline`` gates the
scaling section — every query must reach a 4-worker scaling efficiency
of ≥ 2.5× over serial and must not regress below half its committed
baseline efficiency.
The ratios are properties of the code, not of the machine, so the
gates are stable across runner hardware; absolute times and
``cpu_count`` are recorded for context only.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel_opt.py --quick \
        --output BENCH_parallel_opt.json \
        --baseline benchmarks/baseline_parallel_opt.json \
        --scaling-baseline benchmarks/baseline_parallel_scaling.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import VerificationContext, verify_result
from repro.core import OptimizeOptions, Optimizer, optimize
from repro.core.cardinality import StatisticsCatalog
from repro.core.join_graph import QueryShape
from repro.core.plan_cache import PlanCache
from repro.workloads.generators import generate_query

#: (shape, sizes) sweep per mode; star is excluded — on a subject-star
#: every pattern subset is connected, so enumeration is exponential in
#: the query size and drowns the throughput signal
WORKLOADS = {
    "full": [
        (QueryShape.CHAIN, (10, 20, 30, 40)),
        (QueryShape.CYCLE, (10, 20, 30, 40)),
        (QueryShape.TREE, (10, 12, 14, 16)),
    ],
    "quick": [
        (QueryShape.CHAIN, (10, 14)),
        (QueryShape.CYCLE, (10, 14)),
        (QueryShape.TREE, (10, 12)),
    ],
}
ALGORITHM = "td-cmdp"


def build_workload(mode: str, seed: int = 2017):
    """The benchmark's query/statistics pairs, deterministically seeded."""
    rng = random.Random(seed)
    items = []
    for shape, sizes in WORKLOADS[mode]:
        for size in sizes:
            query = generate_query(shape, size, random.Random(rng.randrange(2**31)))
            statistics = StatisticsCatalog.from_random(
                query, random.Random(rng.randrange(2**31))
            )
            items.append((query, statistics))
    return items


def session(jobs: int, **options) -> Optimizer:
    """A fresh ``ALGORITHM`` session allowed *jobs* processes."""
    return Optimizer(OptimizeOptions(algorithm=ALGORITHM, jobs=jobs, **options))


def bench_batch(items, jobs: int):
    """``optimize_many`` with one process vs. a pool of *jobs*."""
    started = time.perf_counter()
    serial = session(1).optimize_many(items)
    serial_wall = time.perf_counter() - started

    started = time.perf_counter()
    pooled = session(jobs).optimize_many(items)
    pooled_wall = time.perf_counter() - started

    for a, b in zip(serial, pooled):
        assert a.cost == b.cost, "batch parallel result diverged from serial"
    return {
        "queries": len(items),
        "jobs": jobs,
        "serial_wall_seconds": serial_wall,
        "pooled_wall_seconds": pooled_wall,
        "speedup": serial_wall / pooled_wall if pooled_wall > 0 else 0.0,
        "serial_throughput_qps": len(items) / serial_wall,
        "pooled_throughput_qps": len(items) / pooled_wall,
    }


def bench_intra_query(mode: str, jobs: int):
    """Serial vs. memo-sharded parallel search on one larger query."""
    size = 16 if mode == "full" else 12
    query = generate_query(QueryShape.TREE, size, random.Random(7))
    serial = optimize(query, algorithm=ALGORITHM, seed=7)
    parallel = session(jobs, seed=7).optimize(query)
    assert parallel.cost == serial.cost, "parallel search cost diverged from serial"
    return {
        "query": query.name,
        "patterns": len(query),
        "jobs": parallel.stats.workers,
        "serial_seconds": serial.elapsed_seconds,
        "parallel_seconds": parallel.elapsed_seconds,
        "wall_speedup": (
            serial.elapsed_seconds / parallel.elapsed_seconds
            if parallel.elapsed_seconds > 0
            else 0.0
        ),
        "worker_speedup": parallel.stats.speedup,
        "per_worker_subqueries": parallel.stats.per_worker_subqueries,
        "cost": serial.cost,
        "plans_considered": serial.stats.plans_considered,
    }


def bench_cache(items):
    """Cold enumeration vs. warm cache hits over the same workload."""
    cache = PlanCache(capacity=len(items) + 8)

    def optimize_cached(query, statistics):
        # a one-shot session per call, inside the timed region
        return session(1, statistics=statistics, plan_cache=cache).optimize(query)

    cold_times = []
    for query, statistics in items:
        started = time.perf_counter()
        optimize_cached(query, statistics)
        cold_times.append(time.perf_counter() - started)
    hit_times = []
    for query, statistics in items:
        started = time.perf_counter()
        result = optimize_cached(query, statistics)
        hit_times.append(time.perf_counter() - started)
        assert result.algorithm.endswith("+cache"), "expected a cache hit"
    cold_mean = sum(cold_times) / len(cold_times)
    hit_mean = sum(hit_times) / len(hit_times)
    return {
        "queries": len(items),
        "cold_mean_seconds": cold_mean,
        "hit_mean_seconds": hit_mean,
        "hit_speedup": cold_mean / hit_mean if hit_mean > 0 else 0.0,
        "hits": cache.stats.hits,
        "misses": cache.stats.misses,
    }


#: (name, shape, size) per mode for the dense scaling section; dense
#: sizes stay moderate because TD-CMDP on a dense query enumerates all
#: 2^n subqueries — the 30+-pattern chains/cycles supply the query
#: *size* axis, the dense/tree entries the search-space *density* axis
SCALING_WORKLOADS = {
    "full": [
        ("chain-30", QueryShape.CHAIN, 30),
        ("cycle-30", QueryShape.CYCLE, 30),
        ("dense-14", QueryShape.DENSE, 14),
        ("tree-16", QueryShape.TREE, 16),
    ],
    "quick": [
        ("chain-30", QueryShape.CHAIN, 30),
        ("cycle-30", QueryShape.CYCLE, 30),
        ("dense-12", QueryShape.DENSE, 12),
    ],
}
SCALING_WORKERS = (1, 2, 4, 8)
SCALING_SEED = 7


def bench_scaling(mode: str):
    """Memo-shard vs. serial in deterministic work units."""
    queries = []
    for name, shape, size in SCALING_WORKLOADS[mode]:
        query = generate_query(shape, size, random.Random(SCALING_SEED))
        queries.append((name, query))
    rows = []
    for name, query in queries:
        serial = optimize(query, algorithm=ALGORITHM, seed=SCALING_SEED)
        context = VerificationContext.for_query(
            query, seed=SCALING_SEED, algorithm=ALGORITHM
        )
        row = {
            "query": name,
            "patterns": len(query),
            "serial_subqueries": serial.stats.subqueries_expanded,
            "serial_seconds": serial.elapsed_seconds,
            "cost": serial.cost,
            "memo_shard": {},
        }
        for jobs in SCALING_WORKERS:
            result = session(jobs, seed=SCALING_SEED).optimize(query)
            assert result.cost == serial.cost, (
                f"{name} x{jobs}: memo-shard cost diverged from serial"
            )
            verify_result(result, context).raise_if_failed()
            shares = result.stats.per_worker_subqueries or [
                result.stats.subqueries_expanded
            ]
            row["memo_shard"][str(jobs)] = {
                "workers": result.stats.workers,
                "wall_seconds": result.elapsed_seconds,
                "per_worker_subqueries": shares,
                "scaling_efficiency": serial.stats.subqueries_expanded
                / max(max(shares), 1),
                "worker_balance": result.stats.worker_balance,
                "steals": result.stats.steals,
                "pool_startup_seconds": result.stats.pool_startup_seconds,
            }
        rows.append(row)
        print(
            f"scaling {name}: eff4="
            f"{row['memo_shard']['4']['scaling_efficiency']:.2f} "
            f"steals={row['memo_shard']['4']['steals']} "
            f"balance={row['memo_shard']['4']['worker_balance']:.2f}"
        )
    return {
        "algorithm": ALGORITHM,
        "seed": SCALING_SEED,
        "workers": list(SCALING_WORKERS),
        "queries": rows,
    }


#: absolute gate from the acceptance criteria; the committed baseline
#: additionally guards against relative regressions
MIN_SCALING_EFFICIENCY = 2.5


def check_scaling_baseline(scaling: dict, baseline_path: Path) -> int:
    """Gate the scaling section on work-unit ratios (machine-independent)."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_by_query = {row["query"]: row for row in baseline["queries"]}
    failures = 0
    for row in scaling["queries"]:
        efficiency = row["memo_shard"]["4"]["scaling_efficiency"]
        floor = MIN_SCALING_EFFICIENCY
        base = base_by_query.get(row["query"])
        if base is not None:
            floor = max(
                floor, base["memo_shard"]["4"]["scaling_efficiency"] / 2.0
            )
        print(
            f"scaling gate {row['query']}: efficiency {efficiency:.2f} "
            f"(floor {floor:.2f})"
        )
        if efficiency < floor:
            print(
                f"FAIL: {row['query']} 4-worker scaling efficiency "
                f"{efficiency:.2f} below floor {floor:.2f}",
                file=sys.stderr,
            )
            failures += 1
    return 1 if failures else 0


def check_baseline(report: dict, baseline_path: Path) -> int:
    """Gate: the cache speedup ratio must not regress >2x vs. baseline."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_speedup = baseline["cache"]["hit_speedup"]
    current_speedup = report["cache"]["hit_speedup"]
    floor = base_speedup / 2.0
    print(
        f"baseline gate: cache hit speedup {current_speedup:.1f}x "
        f"(baseline {base_speedup:.1f}x, floor {floor:.1f}x)"
    )
    if current_speedup < floor:
        print(
            "FAIL: cached-path latency regressed more than 2x relative "
            "to the committed baseline",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI workload")
    parser.add_argument("--jobs", type=int, default=4, help="pool size (default 4)")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--output", default="BENCH_parallel_opt.json")
    parser.add_argument(
        "--scaling-output",
        default="BENCH_parallel_scaling.json",
        help="where to write the dense scaling section on its own",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline JSON; exit non-zero if the cache-hit "
        "speedup drops below half the baseline's",
    )
    parser.add_argument(
        "--scaling-baseline",
        default=None,
        help="committed scaling baseline JSON; exit non-zero if any "
        "query misses the 2.5x efficiency floor or regresses below half "
        "its baseline efficiency",
    )
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"

    items = build_workload(mode, seed=args.seed)
    print(f"mode={mode} queries={len(items)} jobs={args.jobs}")

    report = {
        "mode": mode,
        "algorithm": ALGORITHM,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "affinity_cpus": (
            len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count()
        ),
        "python": sys.version.split()[0],
    }
    report["batch"] = bench_batch(items, args.jobs)
    print(
        f"batch: {report['batch']['serial_wall_seconds']:.2f}s serial vs "
        f"{report['batch']['pooled_wall_seconds']:.2f}s x{args.jobs} "
        f"(speedup {report['batch']['speedup']:.2f})"
    )
    report["intra_query"] = bench_intra_query(mode, args.jobs)
    print(
        f"intra-query: {report['intra_query']['serial_seconds']:.2f}s serial vs "
        f"{report['intra_query']['parallel_seconds']:.2f}s parallel "
        f"(cost identical: {report['intra_query']['cost']:.2f})"
    )
    report["cache"] = bench_cache(items)
    print(
        f"cache: cold {report['cache']['cold_mean_seconds'] * 1000:.1f}ms vs "
        f"hit {report['cache']['hit_mean_seconds'] * 1000:.2f}ms "
        f"({report['cache']['hit_speedup']:.0f}x)"
    )

    report["scaling"] = bench_scaling(mode)

    Path(args.output).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    scaling_report = {"mode": mode, **report["scaling"]}
    Path(args.scaling_output).write_text(
        json.dumps(scaling_report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.scaling_output}")
    status = 0
    if args.baseline:
        status |= check_baseline(report, Path(args.baseline))
    if args.scaling_baseline:
        status |= check_scaling_baseline(
            report["scaling"], Path(args.scaling_baseline)
        )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
