#!/usr/bin/env python
"""Verifier overhead benchmark: what does ``--verify`` cost?

Three sections, written to ``BENCH_verifier.json``:

* **per_query** — all four algorithms over the paper's benchmark
  queries (LUBM L1–L10, UniProt U1–U5, exact dataset statistics);
  every emitted plan must be verifier-clean, and the report records
  optimization time, verification time, and their ratio per run.
* **cache** — the workload repeated against a warm plan cache with
  ``verify=True``: every hit re-checks the rebuilt plan, so this is
  the worst case for relative overhead (verification cost against a
  near-zero lookup cost).
* **parallel** — the parallelizable algorithms with ``jobs=2`` and
  ``verify=True``: merged multi-worker results must verify too.

The headline number is ``overhead.verify_over_optimize_ratio`` —
total verification wall-clock as a fraction of total optimization
wall-clock.  Verification is a linear tree walk against exponential
enumeration, so the ratio is expected to be well under 1.

Usage::

    PYTHONPATH=src python benchmarks/bench_verifier.py --quick \
        --output BENCH_verifier.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.analysis import VerificationContext, verify_result
from repro.core import (
    PARALLELIZABLE_ALGORITHMS,
    OptimizeOptions,
    Optimizer,
    PlanCache,
    optimize,
)
from repro.experiments import ordered_benchmark_queries
from repro.partitioning import HashSubjectObject

ALGORITHMS = ("td-cmd", "td-cmdp", "hgr-td-cmd", "td-auto")
#: quick mode keeps one query per shape family
QUICK_QUERIES = ("L1", "L2", "L3", "U1", "U2", "L7")


def build_workload(mode: str):
    queries = ordered_benchmark_queries()
    if mode == "quick":
        queries = [bq for bq in queries if bq.name in QUICK_QUERIES]
    method = HashSubjectObject()
    return [
        (
            bq,
            method,
            VerificationContext.for_query(
                bq.query, statistics=bq.statistics, partitioning=method
            ),
        )
        for bq in queries
    ]


def optimize_with(bq, method, algorithm, **session_state):
    """One query through a one-shot session carrying *session_state*
    (``plan_cache`` / ``verify`` / ``jobs``); built inside the caller's
    timed region, as one CLI invocation would."""
    session = Optimizer(
        OptimizeOptions(
            algorithm=algorithm,
            statistics=bq.statistics,
            partitioning=method,
            **session_state,
        )
    )
    return session.optimize(bq.query)


def bench_per_query(workload):
    """Optimize + verify every query under every algorithm."""
    runs = []
    for bq, method, context in workload:
        for algorithm in ALGORITHMS:
            started = time.perf_counter()
            result = optimize(
                bq.query,
                algorithm=algorithm,
                statistics=bq.statistics,
                partitioning=method,
            )
            optimize_seconds = time.perf_counter() - started
            report = verify_result(result, context)
            assert report.ok, f"{bq.name}/{algorithm}: {report.render()}"
            runs.append(
                {
                    "query": bq.name,
                    "shape": bq.shape,
                    "algorithm": result.algorithm,
                    "patterns": len(bq.query),
                    "cost": result.plan.cost,
                    "optimize_seconds": optimize_seconds,
                    "verify_seconds": report.elapsed_seconds,
                    "verify_nodes": report.nodes_checked,
                    "verify_checks": report.checks_run,
                    "overhead_ratio": (
                        report.elapsed_seconds / optimize_seconds
                        if optimize_seconds > 0
                        else 0.0
                    ),
                }
            )
    return runs


def bench_cache(workload):
    """Verified cache hits: the worst case for relative overhead."""
    cache = PlanCache(capacity=4 * len(workload) + 8)
    algorithm = "td-cmdp"
    for bq, method, _ in workload:
        optimize_with(bq, method, algorithm, plan_cache=cache)
    plain_times = []
    for bq, method, _ in workload:
        started = time.perf_counter()
        result = optimize_with(bq, method, algorithm, plan_cache=cache)
        plain_times.append(time.perf_counter() - started)
        assert result.algorithm.endswith("+cache"), "expected a cache hit"
    verified_times = []
    for bq, method, _ in workload:
        started = time.perf_counter()
        result = optimize_with(
            bq, method, algorithm, plan_cache=cache, verify=True
        )
        verified_times.append(time.perf_counter() - started)
        assert result.algorithm.endswith("+cache"), "verified hit fell through"
    plain_mean = sum(plain_times) / len(plain_times)
    verified_mean = sum(verified_times) / len(verified_times)
    return {
        "queries": len(workload),
        "algorithm": algorithm,
        "hit_mean_seconds": plain_mean,
        "verified_hit_mean_seconds": verified_mean,
        "verified_hit_overhead": (
            verified_mean / plain_mean if plain_mean > 0 else 0.0
        ),
        "invalidations": cache.stats.invalidations,
    }


def bench_parallel(workload, jobs: int):
    """Multi-worker plan search with verification of merged results."""
    runs = []
    for bq, method, context in workload:
        for algorithm in PARALLELIZABLE_ALGORITHMS:
            started = time.perf_counter()
            result = optimize_with(bq, method, algorithm, jobs=jobs, verify=True)
            wall = time.perf_counter() - started
            report = verify_result(result, context)
            assert report.ok, f"{bq.name}/{algorithm} x{jobs}: {report.render()}"
            runs.append(
                {
                    "query": bq.name,
                    "algorithm": result.algorithm,
                    "jobs": jobs,
                    "wall_seconds": wall,
                    "verify_seconds": report.elapsed_seconds,
                    "cost": result.plan.cost,
                }
            )
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI workload")
    parser.add_argument("--jobs", type=int, default=2, help="parallel-search pool")
    parser.add_argument("--output", default="BENCH_verifier.json")
    args = parser.parse_args(argv)
    mode = "quick" if args.quick else "full"

    workload = build_workload(mode)
    print(f"mode={mode} queries={len(workload)} algorithms={len(ALGORITHMS)}")

    report = {
        "mode": mode,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    runs = bench_per_query(workload)
    report["per_query"] = runs
    total_optimize = sum(r["optimize_seconds"] for r in runs)
    total_verify = sum(r["verify_seconds"] for r in runs)
    report["overhead"] = {
        "runs": len(runs),
        "total_optimize_seconds": total_optimize,
        "total_verify_seconds": total_verify,
        "verify_over_optimize_ratio": (
            total_verify / total_optimize if total_optimize > 0 else 0.0
        ),
    }
    print(
        f"per-query: {len(runs)} runs, optimize {total_optimize:.3f}s, "
        f"verify {total_verify:.3f}s "
        f"(ratio {report['overhead']['verify_over_optimize_ratio']:.4f})"
    )
    report["cache"] = bench_cache(workload)
    print(
        f"cache: hit {report['cache']['hit_mean_seconds'] * 1000:.2f}ms vs "
        f"verified hit "
        f"{report['cache']['verified_hit_mean_seconds'] * 1000:.2f}ms "
        f"({report['cache']['verified_hit_overhead']:.2f}x)"
    )
    report["parallel"] = bench_parallel(workload, args.jobs)
    print(f"parallel: {len(report['parallel'])} verified runs at jobs={args.jobs}")

    Path(args.output).write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
