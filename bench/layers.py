"""Per-layer metrics, computed from the trace of one traced run.

Every timing here is read off the spans :mod:`spans` recorded around
the calls into a layer, and every count off the attributes stored on
those spans at the same boundary.  Conventions:

* ``*_s`` — seconds per round (the measured operations of one pass over
  the workload's mix); for a layer the workload calls only during
  set-up, the seconds it took there.
* ``*_ms_p50`` — median span duration; ``partitioning.<m>.partition_s``
  is likewise the median of one ``partition`` call, so that the four
  methods compare per call whatever the round holds.
* counts (``core.enumeration.*``, ``core.auto.*``, ``engine.tuples_*``,
  ``core.parallel.steals``) — totals over the first traced round, so
  they repeat exactly from run to run whatever the number of rounds.
* 0 — the workload never calls that layer (or, for the per-operator
  seconds of the pipelined engine, the engine does not report them).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from spans import Span, children_seconds
from summary import median
from workloads import PARTITIONERS, PROGRAM_PHASES, Outcome, Workload

ENUMERATION_COUNTS = (
    "plans_considered",
    "subqueries_expanded",
    "divisions_enumerated",
    "memo_hits",
    "local_short_circuits",
)
JOIN_SECONDS = {
    "engine.scan_s": "scan",
    "engine.join_local_s": "local",
    "engine.join_broadcast_s": "broadcast",
    "engine.join_repartition_s": "repartition",
}


def round_walls(outcomes: Sequence[Outcome], traced: bool) -> List[float]:
    """Σ op latency (at reference speed) of each round run with tracing on (or off)."""
    walls: Dict[int, float] = {}
    for out in outcomes:
        if out.traced == traced:
            walls[out.round] = walls.get(out.round, 0.0) + out.latency_s / out.speed
    return list(walls.values())


def _total(spans: Sequence[Span]) -> float:
    return sum(s.duration for s in spans)


def _ms_p50(spans: Sequence[Span]) -> float:
    return median([s.duration for s in spans]) * 1e3


def per_layer_metrics(
    workload: Workload,
    outcomes: Sequence[Outcome],
    cache_lookups: int,
    cache_hits: int,
    extras: Dict[str, List[float]],
) -> Dict[str, float]:
    spans = workload.recorder.spans
    roots = [s for s in spans if s.name == "op" and s.attrs["round"] >= 0]
    root_by_id = {s.span_id: s for s in roots}
    rounds = len({s.attrs["round"] for s in roots})
    first_round = min(s.attrs["round"] for s in roots)
    measured: Dict[str, List[Span]] = {}
    elsewhere: Dict[str, List[Span]] = {}
    for s in spans:
        pool = measured if s.parent_id in root_by_id else elsewhere
        pool.setdefault(s.name, []).append(s)

    def called(name: str) -> List[Span]:
        """Spans of a layer: in measured ops if any, else from set-up."""
        return measured.get(name) or elsewhere.get(name, [])

    def seconds(name: str) -> float:
        if name in measured:
            return _total(measured[name]) / rounds
        return _total(elsewhere.get(name, []))

    def in_first_round(name: str) -> List[Span]:
        return [
            s for s in measured.get(name, [])
            if root_by_id[s.parent_id].attrs["round"] == first_round
        ]

    op_seconds = _total(roots)
    m: Dict[str, float] = {}

    loads = called("rdf.ntriples.load")
    m["rdf.ntriples.load_s"] = seconds("rdf.ntriples.load")
    m["rdf.ntriples.triples_per_s"] = (
        sum(s.attrs["triples"] for s in loads) / _total(loads) if loads else 0.0
    )
    m["rdf.ntriples.bytes"] = sum(s.attrs["bytes"] for s in loads) / (
        rounds if "rdf.ntriples.load" in measured else 1
    )
    m["rdf.dataset.build_s"] = seconds("rdf.dataset.build")
    encodes = called("rdf.encoding.encode")
    m["rdf.encoding.encode_s"] = _total(encodes)
    m["rdf.encoding.terms"] = max((s.attrs["terms"] for s in encodes), default=0)

    optimizes = measured.get("core.optimizer.optimize", [])
    executes = measured.get("engine.executor.execute", [])
    optimize_of = {s.parent_id: s for s in optimizes}
    execute_of = {s.parent_id: s for s in executes}
    for method in PARTITIONERS:
        prefix = f"partitioning.{method}"
        partitions = called(f"{prefix}.partition")
        m[f"{prefix}.partition_s"] = median([s.duration for s in partitions])
        m[f"{prefix}.replication_factor"] = median(
            [s.attrs["replication_factor"] for s in partitions]
        )
        ops = [r for r in roots if r.attrs["partitioner"] == method and r.span_id in execute_of]
        m[f"{prefix}.shipped_tuples"] = (
            sum(execute_of[r.span_id].attrs["tuples_shipped"] for r in ops) / len(ops)
            if ops and partitions else 0.0
        )
        m[f"{prefix}.query_ms_p50"] = median([
            optimize_of[r.span_id].duration + execute_of[r.span_id].duration for r in ops
        ]) * 1e3 if partitions else 0.0

    m["engine.cluster.build_s"] = seconds("engine.cluster.build")
    m["engine.executor.cold_execute_ms_p50"] = _ms_p50([
        s for pool in (measured, elsewhere)
        for s in pool.get("engine.executor.execute", []) if s.attrs.get("cold")
    ])
    parses = called("sparql.parser.parse")
    m["sparql.parser.parse_ms_p50"] = _ms_p50(parses)
    m["sparql.parser.queries_per_s"] = len(parses) / _total(parses) if parses else 0.0
    m["core.cardinality.stats_ms_p50"] = _ms_p50(called("core.cardinality.stats"))

    searched = [s for s in optimizes if not s.attrs["cache_hit"]]
    m["core.optimizer.optimize_ms_p50"] = _ms_p50(optimizes)
    m["core.optimizer.share"] = _total(optimizes) / op_seconds
    m["core.optimizer.plans_per_s"] = (
        sum(s.attrs["plans_considered"] for s in searched) / _total(searched)
        if searched else 0.0
    )
    searched_first = [s for s in in_first_round("core.optimizer.optimize")
                      if not s.attrs["cache_hit"]]
    for count in ENUMERATION_COUNTS:
        m[f"core.enumeration.{count}"] = sum(s.attrs[count] for s in searched_first)
    for algorithm in ("td-cmd", "td-cmdp", "hgr-td-cmd"):
        m[f"core.auto.{algorithm}"] = sum(
            1 for s in searched_first if s.attrs["algorithm"] == algorithm
        )
    for metric, names in PROGRAM_PHASES.items():
        m[metric] = sum(workload.program_self.get(n, 0.0) for n in names) / rounds
    m["core.plan_cache.hit_rate"] = cache_hits / cache_lookups if cache_lookups else 0.0
    m["core.plan_cache.hit_ms_p50"] = _ms_p50([s for s in optimizes if s.attrs["cache_hit"]])

    serial_cpu = workload.spec.get("serial_cpu_s")
    pooled = [s for s in optimizes if s.attrs["workers"] > 1]
    if serial_cpu and pooled:
        by_op: Dict[str, List[float]] = {}
        for r in roots:
            by_op.setdefault(r.attrs["op"], []).append(r.duration)
        parallel_wall = sum(median(v) for v in by_op.values())
        serial_wall = sum(op["serial_s"] for op in workload.spec["ops"])
        cpu_by_round: Dict[int, float] = {}
        for out in outcomes:
            cpu_by_round[out.round] = cpu_by_round.get(out.round, 0.0) + out.cpu_s
        m["core.parallel.wall_speedup"] = serial_wall / parallel_wall
        m["core.parallel.cpu_ratio"] = median(list(cpu_by_round.values())) / serial_cpu
        m["core.parallel.worker_balance"] = median([s.attrs["worker_balance"] for s in pooled])
        m["core.parallel.steals"] = sum(s.attrs["steals"] for s in searched_first)
        m["core.parallel.pool_startup_ms_p50"] = median(
            [s.attrs["pool_startup_s"] for s in pooled]
        ) * 1e3
    else:
        for name in ("wall_speedup", "cpu_ratio", "worker_balance", "steals",
                     "pool_startup_ms_p50"):
            m[f"core.parallel.{name}"] = 0.0

    m["engine.executor.execute_ms_p50"] = _ms_p50(executes)
    m["engine.executor.share"] = _total(executes) / op_seconds
    m["engine.executor.rows_per_s"] = (
        sum(s.attrs["rows"] for s in executes) / _total(executes) if executes else 0.0
    )
    for metric, algorithm in JOIN_SECONDS.items():
        m[metric] = sum(s.attrs["operator_s"].get(algorithm, 0.0) for s in executes) / rounds
    executes_first = in_first_round("engine.executor.execute")
    for count in ("tuples_read", "tuples_shipped", "tuples_produced"):
        m[f"engine.{count}"] = sum(s.attrs[count] for s in executes_first)
    m["engine.tuples_shipped_per_op"] = (
        m["engine.tuples_shipped"] / len(executes_first) if executes_first else 0.0
    )
    streamed = [s for s in executes if s.attrs["peak_buffered_rows"]]
    m["engine.pipelined.first_row_fraction"] = median(
        [s.attrs["first_row_s"] / s.attrs["wall_s"] for s in streamed if s.attrs["wall_s"]]
    )
    m["engine.pipelined.peak_buffered_rows"] = max(
        (s.attrs["peak_buffered_rows"] for s in streamed), default=0
    )
    m["engine.pipelined.limit10_ms_p50"] = median(extras.get("limit10_s", [])) * 1e3
    m["analysis.plan_verifier.verify_ms_p50"] = _ms_p50(
        elsewhere.get("analysis.plan_verifier.verify", [])
    )

    reference = round_walls(outcomes, traced=False)
    m["observability.trace_overhead"] = (
        median(round_walls(outcomes, traced=True)) / median(reference) if reference else 0.0
    )
    covered = children_seconds(spans)
    m["bench.unattributed_share"] = (
        sum(r.duration - covered.get(r.span_id, 0.0) for r in roots) / op_seconds
    )
    m["bench.oracle_s"] = workload.spec["oracle_s"]
    return m


def partitioner_table(metrics: Dict[str, Any]) -> str:
    """The four partitioners side by side, on total cost (Curé et al.)."""
    lines = [f"{'partitioner':<10} {'prepare_s':>10} {'replication':>12} "
             f"{'shipped/op':>11} {'query_ms_p50':>13}"]
    for method in PARTITIONERS:
        prefix = f"partitioning.{method}"
        lines.append(
            f"{method:<10} {metrics[prefix + '.partition_s']:>10.3f} "
            f"{metrics[prefix + '.replication_factor']:>12.3f} "
            f"{metrics[prefix + '.shipped_tuples']:>11.1f} "
            f"{metrics[prefix + '.query_ms_p50']:>13.2f}"
        )
    return "\n".join(lines)
