#!/usr/bin/env python
"""Engine benchmarks: micro operators plus the columnar-vs-reference sweep.

Two layers:

* **pytest-benchmark micro tests** (run via ``pytest benchmarks/bench_engine.py``)
  — scan, hash join, and distributed operators on both engines; substrate
  health checks, not a paper table.
* **standalone sweep** (run as a script) — the 15-query benchmark sweep
  (L1–L10, U1–U5) executed end to end on every registered engine
  (reference, columnar, pipelined), written to ``BENCH_engine.json``:

  - per query: wall seconds per engine, the columnar speedup, and a
    bit-identical check of the decoded result sets (same rows, same
    schemas) across all engines;
  - a fault-injection section repeating part of the sweep with a seeded
    injector on every engine (results must still match);
  - the aggregate speedup (Σ reference wall / Σ columnar wall);
  - a ``streaming`` section for the pipelined engine: per-query
    first-row latency as a *fraction* of that query's own wall time,
    plus a hard assertion that ``peak_buffered_rows`` stays within the
    ``chunk_size × plan_depth`` bound.

  The ``--baseline`` gates are machine-independent: the columnar gate
  checks the *speedup ratio*, requiring ``aggregate >= max(3.0,
  baseline_aggregate / 2)`` (a property of int-tuple hashing + indexed
  scans vs. term-object hashing, not of the runner); the streaming gate
  checks the gate query's first-row *fraction of its own wall time*
  against ``min(0.95, max(0.5, baseline_fraction * 2))`` — again a
  ratio of two timings on the same machine.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py --quick \
        --output BENCH_engine.json --baseline benchmarks/baseline_engine.json
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from itertools import islice
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

try:
    import pytest
except ImportError:  # standalone sweep must run with the stdlib only
    class _MarkShim:
        @staticmethod
        def parametrize(*args, **kwargs):
            return lambda function: function

    class _PytestShim:
        mark = _MarkShim()

        @staticmethod
        def fixture(*args, **kwargs):
            return lambda function: function

    pytest = _PytestShim()  # type: ignore[assignment]

from repro.core import StatisticsCatalog, optimize
from repro.core.session import OptimizeOptions, Optimizer
from repro.engine import (
    Cluster,
    EncodedRelation,
    Executor,
    FaultInjector,
    RetryPolicy,
    evaluate_reference,
    hash_join_encoded,
    multi_join_encoded,
    scan_pattern_encoded,
)
from repro.engine.cluster import Cluster as _Cluster
from repro.engine.relations import Relation, hash_join, scan_pattern
from repro.partitioning import HashSubjectObject
from repro.rdf import Dataset, IRI, triple
from repro.rdf.terms import Variable
from repro.sparql.ast import TriplePattern
from repro.sparql.parser import parse_query


@pytest.fixture(scope="module")
def big_dataset():
    rng = random.Random(123)
    triples = []
    for _ in range(5000):
        a, b = rng.randrange(800), rng.randrange(800)
        triples.append(triple(f"http://e/n{a}", "http://e/knows", f"http://e/n{b}"))
    for i in range(800):
        triples.append(triple(f"http://e/n{i}", "http://e/worksFor", f"http://e/o{i % 20}"))
    return Dataset.from_triples(triples, name="bench")


def test_scan_throughput(benchmark, big_dataset):
    tp = TriplePattern(Variable("x"), IRI("http://e/knows"), Variable("y"))
    relation = benchmark(scan_pattern, big_dataset.graph, tp)
    assert len(relation) > 4000


def test_encoded_scan_throughput(benchmark, big_dataset):
    tp = TriplePattern(Variable("x"), IRI("http://e/knows"), Variable("y"))
    encoded = big_dataset.encoded_graph()
    encoded.predicate_ids()  # index build is one-time, not per scan
    relation = benchmark(scan_pattern_encoded, encoded, tp)
    assert len(relation) > 4000


def test_hash_join_throughput(benchmark, big_dataset):
    knows = scan_pattern(
        big_dataset.graph,
        TriplePattern(Variable("x"), IRI("http://e/knows"), Variable("y")),
    )
    works = scan_pattern(
        big_dataset.graph,
        TriplePattern(Variable("y"), IRI("http://e/worksFor"), Variable("o")),
    )
    result = benchmark(hash_join, knows, works)
    assert len(result) > 0


def test_encoded_hash_join_throughput(benchmark, big_dataset):
    encoded = big_dataset.encoded_graph()
    knows = scan_pattern_encoded(
        encoded, TriplePattern(Variable("x"), IRI("http://e/knows"), Variable("y"))
    )
    works = scan_pattern_encoded(
        encoded, TriplePattern(Variable("y"), IRI("http://e/worksFor"), Variable("o"))
    )
    result = benchmark(hash_join_encoded, knows, works)
    assert len(result) > 0


def test_encoded_index_probe_tiny_outer(benchmark, big_dataset):
    """Five rows against a 5000-pair scan: bisected in its index, never read."""
    encoded = big_dataset.encoded_graph()
    y, o = Variable("y"), Variable("o")
    works = scan_pattern_encoded(encoded, TriplePattern(y, IRI("http://e/worksFor"), o))
    outer = EncodedRelation([y, o], encoded.dictionary, set(islice(works, 5)))
    knows = scan_pattern_encoded(
        encoded, TriplePattern(Variable("x"), IRI("http://e/knows"), y)
    )
    result = benchmark(hash_join_encoded, outer, knows)
    assert 0 < len(result) < 100


def test_encoded_unary_filter_star(benchmark, big_dataset):
    """``?x knows ?y`` under two ``worksFor <C>`` scans: membership filters."""
    encoded = big_dataset.encoded_graph()
    x, y = Variable("x"), Variable("y")
    works_for = IRI("http://e/worksFor")
    star = [
        scan_pattern_encoded(encoded, TriplePattern(x, IRI("http://e/knows"), y)),
        scan_pattern_encoded(encoded, TriplePattern(x, works_for, IRI("http://e/o3"))),
        scan_pattern_encoded(encoded, TriplePattern(y, works_for, IRI("http://e/o5"))),
    ]
    result = benchmark(multi_join_encoded, star)
    assert 0 < len(result) < len(star[0])


@pytest.mark.parametrize("engine", ["reference", "columnar", "pipelined"])
@pytest.mark.parametrize("workers", [2, 8])
def test_distributed_execution_throughput(benchmark, big_dataset, workers, engine):
    query = parse_query(
        """
        SELECT * WHERE {
          ?x <http://e/knows> ?y .
          ?y <http://e/worksFor> ?o .
          ?x <http://e/worksFor> ?o .
        }
        """
    )
    method = HashSubjectObject()
    statistics = StatisticsCatalog.from_dataset(query, big_dataset)
    plan = optimize(query, statistics=statistics, partitioning=method).plan
    cluster = Cluster.build(big_dataset, method, cluster_size=workers)
    executor = Executor(cluster, engine=engine)
    executor.execute(plan, query)  # warm fragment/index caches

    relation, _ = benchmark.pedantic(
        lambda: executor.execute(plan, query), rounds=1, iterations=1
    )
    assert relation.rows == evaluate_reference(query, big_dataset.graph).rows


def test_partitioning_throughput(benchmark, big_dataset):
    partitioning = benchmark.pedantic(
        lambda: HashSubjectObject().partition(big_dataset, 8),
        rounds=1,
        iterations=1,
    )
    assert partitioning.cluster_size == 8


# ----------------------------------------------------------------------
# standalone sweep: every registered engine over the 15 benchmark queries
# ----------------------------------------------------------------------
from repro.engine import ENGINES  # noqa: E402  (the live registry view)


def _prepare_sweep(cluster_size: int):
    """Plans, shared partitionings, and per-engine executors per query.

    One partitioning per dataset (LUBM, UniProt) is shared across its
    queries and across both engines, so the sweep times execution, not
    partitioning; fragments/indexes are warmed before any timing.
    """
    from repro.experiments.benchmark_queries import ordered_benchmark_queries

    partitionings = {}
    prepared = []
    for bq in ordered_benchmark_queries():
        key = id(bq.dataset)
        if key not in partitionings:
            partitionings[key] = HashSubjectObject().partition(
                bq.dataset, cluster_size
            )
        partitioning = partitionings[key]
        session = Optimizer(
            OptimizeOptions(
                statistics=bq.statistics, partitioning=HashSubjectObject()
            )
        )
        plan = session.optimize(bq.query).plan
        executors = {
            engine: Executor(
                _Cluster(partitioning, bq.dataset.dictionary), engine=engine
            )
            for engine in ENGINES
        }
        prepared.append((bq, plan, executors))
    return prepared


def bench_sweep(cluster_size: int, repetitions: int):
    """Time all 15 queries on every engine; verify identical results."""
    prepared = _prepare_sweep(cluster_size)
    queries = []
    totals = dict.fromkeys(ENGINES, 0.0)
    for bq, plan, executors in prepared:
        walls = {}
        rows = {}
        for engine in ENGINES:
            executor = executors[engine]
            relation, _ = executor.execute(plan, bq.query)  # warm caches
            rows[engine] = relation
            started = time.perf_counter()
            for _ in range(repetitions):
                executor.execute(plan, bq.query)
            walls[engine] = (time.perf_counter() - started) / repetitions
            totals[engine] += walls[engine]
        reference = rows["reference"]
        for engine in ENGINES:
            assert rows[engine].variables == reference.variables, bq.name
            assert rows[engine].rows == reference.rows, (
                f"{bq.name}: decoded {engine} result diverged from reference"
            )
        queries.append(
            {
                "query": bq.name,
                "rows": len(reference),
                "reference_seconds": walls["reference"],
                "columnar_seconds": walls["columnar"],
                "pipelined_seconds": walls["pipelined"],
                "speedup": (
                    walls["reference"] / walls["columnar"]
                    if walls["columnar"] > 0
                    else 0.0
                ),
            }
        )
    return {
        "cluster_size": cluster_size,
        "repetitions": repetitions,
        "queries": queries,
        "reference_total_seconds": totals["reference"],
        "columnar_total_seconds": totals["columnar"],
        "pipelined_total_seconds": totals["pipelined"],
        "aggregate_speedup": (
            totals["reference"] / totals["columnar"]
            if totals["columnar"] > 0
            else 0.0
        ),
    }


def bench_faulted(cluster_size: int, fault_rate: float, fault_seed: int):
    """Re-run a slice of the sweep under fault injection on every engine.

    Fresh clusters per engine run (faults leave a cluster degraded); the
    same injector seed drives every engine, so the fault sequences are
    identical and the decoded results must still match.
    """
    from repro.experiments.benchmark_queries import ordered_benchmark_queries

    checked = []
    for bq in ordered_benchmark_queries()[::3]:  # every third query
        plan = optimize(
            bq.query, statistics=bq.statistics, partitioning=HashSubjectObject()
        ).plan
        rows = {}
        for engine in ENGINES:
            cluster = Cluster.build(
                bq.dataset, HashSubjectObject(), cluster_size=cluster_size
            )
            executor = Executor(
                cluster,
                fault_injector=FaultInjector(fault_rate, seed=fault_seed),
                retry_policy=RetryPolicy(max_retries=64),
                engine=engine,
            )
            relation, metrics = executor.execute(plan, bq.query)
            rows[engine] = relation
            assert metrics.fault_injection_enabled
        for engine in ENGINES:
            assert rows[engine].rows == rows["reference"].rows, (
                f"{bq.name}: {engine} diverged under fault injection"
            )
        checked.append({"query": bq.name, "rows": len(rows["reference"])})
    return {
        "fault_rate": fault_rate,
        "fault_seed": fault_seed,
        "queries_checked": checked,
        "identical_results": True,
    }


def bench_streaming(cluster_size: int, chunk_size: int = 256):
    """Streaming metrics for the pipelined engine over the sweep.

    Two properties, both machine-independent:

    * ``peak_buffered_rows <= chunk_size × plan_depth(plan)`` — the
      bounded-buffering construction; asserted per query right here;
    * first-row latency, reported as a *fraction of the same run's
      wall time*. The gate query is the one with the largest result
      (the case streaming exists for); its fraction is what the
      committed baseline gates.
    """
    from repro.engine import PipelinedEngine, plan_depth

    prepared = _prepare_sweep(cluster_size)
    queries = []
    for bq, plan, executors in prepared:
        executor = Executor(
            executors["pipelined"].cluster,
            engine=PipelinedEngine(chunk_size=chunk_size),
        )
        executor.execute(plan, bq.query)  # warm fragment/index caches
        relation, metrics = executor.execute(plan, bq.query)
        bound = chunk_size * plan_depth(plan)
        assert metrics.peak_buffered_rows <= bound, (
            f"{bq.name}: peak buffered rows {metrics.peak_buffered_rows} "
            f"exceed the chunk_size × depth bound {bound}"
        )
        wall = metrics.wall_seconds
        queries.append(
            {
                "query": bq.name,
                "rows": len(relation),
                "wall_seconds": wall,
                "first_row_seconds": metrics.first_row_seconds,
                "first_row_fraction": (
                    metrics.first_row_seconds / wall if wall > 0 else 0.0
                ),
                "peak_buffered_rows": metrics.peak_buffered_rows,
                "buffer_bound": bound,
            }
        )
    gate = max(queries, key=lambda entry: entry["rows"])
    return {
        "chunk_size": chunk_size,
        "queries": queries,
        "buffer_bound_satisfied": True,  # the assertions above passed
        "gate_query": gate["query"],
        "gate_first_row_fraction": gate["first_row_fraction"],
    }


def check_baseline(report: dict, baseline_path: Path) -> int:
    """Gates against the committed baseline (both machine-independent):

    * columnar aggregate speedup >= max(3.0, baseline / 2);
    * pipelined first-row fraction on the gate query <=
      min(0.95, max(0.5, baseline fraction × 2)).
    """
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    base_speedup = baseline["sweep"]["aggregate_speedup"]
    current = report["sweep"]["aggregate_speedup"]
    floor = max(3.0, base_speedup / 2.0)
    print(
        f"baseline gate: columnar aggregate speedup {current:.2f}x "
        f"(baseline {base_speedup:.2f}x, floor {floor:.2f}x)"
    )
    failed = False
    if current < floor:
        print(
            "FAIL: columnar-engine speedup regressed below the gate floor",
            file=sys.stderr,
        )
        failed = True
    base_streaming = baseline.get("streaming")
    if base_streaming is not None:
        fraction = report["streaming"]["gate_first_row_fraction"]
        base_fraction = base_streaming["gate_first_row_fraction"]
        ceiling = min(0.95, max(0.5, base_fraction * 2.0))
        print(
            f"streaming gate: first-row fraction "
            f"{fraction:.3f} of wall on "
            f"{report['streaming']['gate_query']} "
            f"(baseline {base_fraction:.3f}, ceiling {ceiling:.3f})"
        )
        if fraction > ceiling:
            print(
                "FAIL: pipelined first-row latency regressed above the "
                "gate ceiling",
                file=sys.stderr,
            )
            failed = True
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer repetitions (CI smoke)"
    )
    parser.add_argument("--cluster-size", type=int, default=4)
    parser.add_argument("--fault-rate", type=float, default=0.2)
    parser.add_argument("--fault-seed", type=int, default=2017)
    parser.add_argument("--output", default="BENCH_engine.json")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed baseline JSON; exit non-zero if the aggregate "
        "speedup drops below max(3.0, baseline / 2)",
    )
    args = parser.parse_args(argv)
    repetitions = 3 if args.quick else 7

    report = {
        "mode": "quick" if args.quick else "full",
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
    }
    report["sweep"] = bench_sweep(args.cluster_size, repetitions)
    for entry in report["sweep"]["queries"]:
        print(
            f"{entry['query']:>4s}: ref={entry['reference_seconds'] * 1000:7.2f}ms "
            f"col={entry['columnar_seconds'] * 1000:7.2f}ms "
            f"speedup={entry['speedup']:5.2f}x rows={entry['rows']}"
        )
    print(
        f"aggregate: ref={report['sweep']['reference_total_seconds'] * 1000:.1f}ms "
        f"col={report['sweep']['columnar_total_seconds'] * 1000:.1f}ms "
        f"speedup={report['sweep']['aggregate_speedup']:.2f}x"
    )
    report["faulted"] = bench_faulted(
        args.cluster_size, args.fault_rate, args.fault_seed
    )
    print(
        f"faulted (rate={args.fault_rate}): "
        f"{len(report['faulted']['queries_checked'])} queries, "
        f"results identical across engines"
    )
    report["streaming"] = bench_streaming(args.cluster_size)
    for entry in report["streaming"]["queries"]:
        print(
            f"{entry['query']:>4s}: first_row="
            f"{entry['first_row_seconds'] * 1000:6.2f}ms "
            f"({entry['first_row_fraction']:5.1%} of wall) "
            f"buffered={entry['peak_buffered_rows']}/{entry['buffer_bound']}"
        )
    print(
        f"streaming: buffer bound satisfied on all queries; gate query "
        f"{report['streaming']['gate_query']} first-row fraction "
        f"{report['streaming']['gate_first_row_fraction']:.3f}"
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
