"""The five workloads, as the measured subprocess runs them.

Every layer is driven from outside through its public functions; the
only thing a workload adds around a call is a span (traced run) and a
clock read.  Load model, all workloads: closed loop, one client, one
operation in flight — the callers are library and CLI users who wait
for the reply.  The only extra processes are the program's own search
workers in ``optimize_parallel_random``.

``repro`` is imported inside :meth:`Workload.setup` so that its import
time is part of ``setup_s``.
"""

from __future__ import annotations

import json
import os
import resource
import time
import traceback
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

from calibrate import Calibrator
from spans import Recorder, null_span

#: CLI names of the four partitioners ``python -m repro run`` offers
PARTITIONERS = ("hash-so", "2f", "path-bmc", "un-1-hop")
#: cluster size of every data-backed workload
WORKERS = 4
#: program-tracer span names folded into each optimiser-phase metric
PROGRAM_PHASES = {
    "core.session.statistics_s": ("statistics.resolve",),
    "core.session.build_s": ("build",),
    "core.enumeration.enumerate_s": ("enumerate", "parallel.search", "parallel.tier"),
    "core.reduction.jgr_s": ("jgr.reduce", "jgr.optimize_reduced", "jgr.expand"),
    "core.session.verify_s": ("verify", "verify.context"),
}


def canonical_rows(relation: Any) -> Dict[str, Any]:
    """A result as sorted rows of term strings (schema sorted by name)."""
    return {
        "variables": [str(v) for v in relation.variables],
        "rows": sorted([str(term) for term in row] for row in relation.rows),
    }


def cpu_seconds() -> float:
    """CPU this process and its reaped children have used so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def search_jobs() -> int:
    """Search workers for the parallel workload: never more than cores."""
    return min(2, len(os.sched_getaffinity(0)))


def _program() -> SimpleNamespace:
    """Import the program's public surface (timed: part of set-up)."""
    from repro import OptimizeOptions, Optimizer, PlanCache, StatisticsCatalog, parse_query
    from repro.__main__ import PARTITIONINGS as methods  # the CLI's own name -> method table
    from repro.analysis import PlanVerifier, VerificationContext, profile_for_algorithm
    from repro.core import PatternStatistics
    from repro.engine import Cluster, Executor
    from repro.partitioning import HashSubjectObject
    from repro.rdf import Dataset, Variable, load_ntriples

    return SimpleNamespace(**locals())


class Outcome:
    """What one operation gave the caller, and whether it was right."""

    __slots__ = ("name", "ok", "traced", "round", "started", "latency_s", "first_row_s",
                 "cpu_s", "cost", "speed")

    def __init__(self, name: str, round_index: int, traced: bool) -> None:
        self.name = name
        self.ok = False
        self.traced = traced
        self.round = round_index
        self.started = 0.0
        self.latency_s = 0.0
        self.first_row_s = 0.0
        self.cpu_s = 0.0
        self.cost = 0.0
        #: how slow the machine ran around this op (calibrate.py); the
        #: end-to-end times are the clock's divided by this
        self.speed = 1.0


class Workload:
    """Set-up once, then rounds of operations; subclasses fill the hooks."""

    name = ""
    #: the session's plan cache, where the workload has one
    cache: Any = None
    #: the percentile ``latency_tail_ms`` takes across the ops' medians
    tail_percentile = 95

    def __init__(self, inputs: Path, recorder: Optional[Recorder],
                 calibrator: Calibrator) -> None:
        self.inputs = inputs
        self.recorder = recorder
        self.calibrator = calibrator
        self.spec: Dict[str, Any] = {}
        #: why each failed operation failed, for the report
        self.errors: List[str] = []
        #: row sets that passed the oracle comparison, by oracle key
        self._accepted: Dict[str, frozenset] = {}
        #: program-tracer self seconds by span name, over traced ops
        self.program_self: Dict[str, float] = {}

    @property
    def tracing(self) -> bool:
        return self.recorder is not None

    def span_for(self, traced: bool) -> Callable[..., Any]:
        return self.recorder.span if traced and self.recorder else null_span

    # -- hooks ----------------------------------------------------------
    def setup(self) -> None:
        """Everything before the first measured operation can be issued."""
        self.p = _program()
        self.spec = json.loads((self.inputs / "ops.json").read_text(encoding="utf-8"))
        self.prepare(self.span_for(self.tracing))

    def prepare(self, span: Callable[..., Any]) -> None:
        raise NotImplementedError

    def operate(self, op: Dict[str, Any], span: Callable[..., Any],
                traced: bool, started: float, out: Outcome) -> Any:
        """Run *op*; fill ``out.first_row_s`` and ``out.cost``; return what
        :meth:`check` and :meth:`annotate` need."""
        raise NotImplementedError

    def check(self, op: Dict[str, Any], done: Any, span: Callable[..., Any]) -> bool:
        raise NotImplementedError

    def annotate(self, done: Any) -> None:
        """Copy counts onto the spans of a traced op (outside its timing)."""

    def after_measure(self) -> Dict[str, List[float]]:
        """Extra traced-only samples taken once the measured phase ended."""
        return {}

    # -- the loop body --------------------------------------------------
    def warm_up(self, op: Dict[str, Any], traced: bool = False) -> None:
        """One set-up operation (round -1); a failure here ends the run."""
        if not self.run(op, -1, traced).ok:
            raise RuntimeError(f"set-up operation failed:\n{self.errors[-1]}")

    def round_ops(self, round_index: int) -> List[Dict[str, Any]]:
        rounds = self.spec["rounds"]
        return [self.spec["ops"][i] for i in rounds[round_index % len(rounds)]]

    def run(self, op: Dict[str, Any], round_index: int, traced: bool) -> Outcome:
        span = self.span_for(traced)
        out = Outcome(op["name"], round_index, traced)
        self.calibrator.tick()
        try:
            cpu_started = cpu_seconds()
            out.started = started = time.perf_counter()
            with span("op", op_id=f"{round_index}:{op['name']}", op=op["name"],
                      round=round_index, partitioner=op.get("partitioner", "hash-so")):
                done = self.operate(op, span, traced, started, out)
            out.latency_s = time.perf_counter() - started
            out.cpu_s = cpu_seconds() - cpu_started
            if traced:
                self.annotate(done)
            out.ok = self.check(op, done, span)
            if not out.ok:
                self.errors.append(f"{op['name']}: output differs from the oracle")
        except Exception:  # a failed op is counted, the run goes on
            self.errors.append(f"{op['name']}: {traceback.format_exc()}")
        return out

    # -- shared helpers -------------------------------------------------
    def harvest(self, tracer: Any, since: int = 0) -> int:
        """Fold the program's own spans into :attr:`program_self`.

        Self time per span name, children on the same track subtracted
        (search workers run on tracks of their own and overlap).
        """
        spans = tracer.spans[since:]
        covered: Dict[int, float] = {}
        tracks = {s.span_id: s.track for s in spans}
        for s in spans:
            if s.parent_id is not None and tracks.get(s.parent_id) == s.track:
                covered[s.parent_id] = covered.get(s.parent_id, 0.0) + s.duration
        for s in spans:
            own = max(0.0, s.duration - covered.get(s.span_id, 0.0))
            self.program_self[s.name] = self.program_self.get(s.name, 0.0) + own
        return since + len(spans)

    def check_rows(self, op: Dict[str, Any], relation: Any) -> bool:
        """Decoded rows equal the oracle's, as a sorted multiset.

        The string comparison runs once per query; later rounds compare
        against the row set that passed it.
        """
        key = op["oracle"]
        rows = frozenset(relation.rows)
        if self._accepted.get(key) == rows:
            return True
        if canonical_rows(relation) != self.spec["oracle"][key]:
            return False
        self._accepted[key] = rows
        return True

    def annotate_execute(self, sp: Any, metrics: Any, cold: bool) -> None:
        by_algorithm: Dict[str, float] = {}
        for operator in metrics.operators:
            by_algorithm[operator.algorithm] = (
                by_algorithm.get(operator.algorithm, 0.0) + operator.wall_seconds
            )
        sp.set(
            cold=cold,
            rows=metrics.result_rows,
            tuples_read=metrics.total_tuples_read,
            tuples_shipped=metrics.total_tuples_shipped,
            tuples_produced=metrics.total_tuples_produced,
            wall_s=metrics.wall_seconds,
            first_row_s=metrics.first_row_seconds,
            peak_buffered_rows=metrics.peak_buffered_rows,
            operator_s=by_algorithm,
        )

    @staticmethod
    def annotate_optimize(sp: Any, result: Any, cache_hit: bool = False) -> None:
        stats = result.stats
        label = result.algorithm.lower()
        sp.set(
            algorithm=next(
                (a for a in ("hgr-td-cmd", "td-cmdp", "td-cmd") if a in label), label
            ),
            cache_hit=cache_hit,
            plans_considered=stats.plans_considered,
            subqueries_expanded=stats.subqueries_expanded,
            divisions_enumerated=stats.divisions_enumerated,
            memo_hits=stats.memo_hits,
            local_short_circuits=stats.local_short_circuits,
            workers=stats.workers,
            worker_balance=stats.worker_balance,
            steals=stats.steals,
            pool_startup_s=stats.pool_startup_seconds,
        )


class OneShot(Workload):
    """What ``python -m repro run q.sparql --data d.nt`` does, per op.

    Why: the only place ``rdf/*``, ``partitioning/*`` and cluster build
    sit on the blocking path of every operation, and the only place the
    four partitioners are compared on total cost.  L9/L10 are left out
    so a 2 s enumeration does not mask the set-up layers.
    """

    name = "oneshot_mixed"
    tail_percentile = 75

    def prepare(self, span: Callable[..., Any]) -> None:
        if self.tracing:
            # the CLI path never encodes the whole graph (fragments are
            # encoded lazily per worker), so this layer is timed once
            # here, in the traced run only
            dataset = self.p.Dataset(self.p.load_ntriples(self.inputs / "lubm.nt"))
            with span("rdf.encoding.encode") as sp:
                dataset.encoded_graph()
            sp.set(terms=len(dataset.dictionary))
        self.warm_up(self.spec["ops"][0])  # one discarded op, the same for any seed

    def operate(self, op, span, traced, started, out):
        p = self.p
        path = self.inputs / op["data"]
        with span("rdf.ntriples.load") as load_span:
            graph = p.load_ntriples(path)
        with span("rdf.dataset.build"):
            dataset = p.Dataset(graph, name=path.stem)
        method = p.methods[op["partitioner"]]()
        with span(f"partitioning.{op['partitioner']}.partition") as partition_span:
            partitioning = method.partition(dataset, WORKERS)
        with span("engine.cluster.build"):
            cluster = p.Cluster(partitioning, dataset.dictionary)
        with span("sparql.parser.parse"):
            query = p.parse_query(op["text"], name=op["name"])
        with span("core.cardinality.stats"):
            statistics = p.StatisticsCatalog.from_dataset(query, dataset)
        session = p.Optimizer(p.OptimizeOptions(
            statistics=statistics, partitioning=method, engine="columnar", trace=traced,
        ))
        with span("core.optimizer.optimize") as optimize_span:
            result = session.optimize(query)
        executor = p.Executor(cluster, engine="columnar")
        execute_started = time.perf_counter()
        with span("engine.executor.execute") as execute_span, session.tracing():
            relation, metrics = executor.execute(result.plan, query)
        out.first_row_s = execute_started - started + metrics.first_row_seconds
        out.cost = result.cost
        return SimpleNamespace(
            relation=relation, metrics=metrics, result=result, session=session,
            graph=graph, path=path, partitioning=partitioning,
            load_span=load_span, partition_span=partition_span,
            optimize_span=optimize_span, execute_span=execute_span,
        )

    def annotate(self, done):
        done.load_span.set(triples=len(done.graph), bytes=done.path.stat().st_size)
        done.partition_span.set(
            replication_factor=done.partitioning.replication_factor(len(done.graph))
        )
        self.annotate_optimize(done.optimize_span, done.result)
        self.annotate_execute(done.execute_span, done.metrics, cold=True)
        self.harvest(done.session.tracer)

    def check(self, op, done, span):
        return self.check_rows(op, done.relation)


class Serve(Workload):
    """One session, one cluster, prepared queries, plan-cache hits.

    Why (columnar): steady-state serving — engine scan/join/ship/decode
    is most of an op, the optimiser is a cache probe; L10's cold
    enumeration and the partitioning land in ``setup_s``, so work moved
    into set-up shows.  Why (pipelined): the same engine layer used as
    a stream — first-row latency, bounded buffering — so a change that
    helps one driver and costs the other shows.
    """

    engine = ""

    def prepare(self, span: Callable[..., Any]) -> None:
        p = self.p
        self._harvested = 0
        path = self.inputs / self.spec["data"]
        with span("rdf.ntriples.load") as sp:
            graph = p.load_ntriples(path)
        sp.set(triples=len(graph), bytes=path.stat().st_size)
        self.calibrator.tick()
        with span("rdf.dataset.build"):
            dataset = p.Dataset(graph, name=path.stem)
        if self.tracing:
            with span("rdf.encoding.encode") as sp:
                dataset.encoded_graph()
            sp.set(terms=len(dataset.dictionary))
        method = p.HashSubjectObject()
        self.calibrator.tick()
        with span("partitioning.hash-so.partition") as sp:
            partitioning = method.partition(dataset, WORKERS)
        sp.set(replication_factor=partitioning.replication_factor(len(graph)))
        with span("engine.cluster.build"):
            cluster = p.Cluster(partitioning, dataset.dictionary)
        self.cache = p.PlanCache()
        options = p.OptimizeOptions(
            dataset=dataset, partitioning=method, plan_cache=self.cache, engine=self.engine,
        )
        #: sessions by "traced": the traced run times its reference
        #: rounds on an untraced session sharing cluster and plan cache
        self.sessions = {False: p.Optimizer(options)}
        if self.tracing:
            self.sessions[True] = p.Optimizer(options.with_overrides(trace=True))
        self.executor = p.Executor(cluster, engine=self.engine)
        self.queries = {}
        for op in self.spec["ops"]:
            with span("sparql.parser.parse"):
                self.queries[op["name"]] = p.parse_query(op["text"], name=op["name"])
        # one cold round: statistics, enumeration, fragment encoding
        # (on the traced session first, so that the trace sees it)
        self._executed: set = set()
        for traced in sorted(self.sessions, reverse=True):
            for op in self.round_ops(0):
                self.warm_up(op, traced)
        self._harvested = len(self.sessions[True].tracer) if self.tracing else 0
        self.program_self.clear()

    def operate(self, op, span, traced, started, out):
        session = self.sessions[traced]
        query = self.queries[op["name"]]
        hits = self.cache.stats.hits
        with span("core.optimizer.optimize") as optimize_span:
            result = session.optimize(query)
        execute_started = time.perf_counter()
        with span("engine.executor.execute") as execute_span, session.tracing():
            relation, metrics = self.executor.execute(result.plan, query)
        out.first_row_s = execute_started - started + metrics.first_row_seconds
        out.cost = result.cost
        cold = op["name"] not in self._executed
        self._executed.add(op["name"])
        return SimpleNamespace(
            relation=relation, metrics=metrics, result=result, cold=cold,
            cache_hit=self.cache.stats.hits > hits,
            optimize_span=optimize_span, execute_span=execute_span,
        )

    def annotate(self, done):
        self.annotate_optimize(done.optimize_span, done.result, done.cache_hit)
        self.annotate_execute(done.execute_span, done.metrics, done.cold)
        self._harvested = self.harvest(self.sessions[True].tracer, self._harvested)

    def check(self, op, done, span):
        return self.check_rows(op, done.relation)


class ServeColumnar(Serve):
    name = "serve_warm_columnar"
    engine = "columnar"


class ServePipelined(Serve):
    name = "serve_stream_pipelined"
    engine = "pipelined"

    def after_measure(self):
        """One more round with ``limit=10``: what LIMIT pushdown saves."""
        samples = []
        for op in self.round_ops(0):
            query = self.queries[op["name"]]
            started = time.perf_counter()
            plan = self.sessions[False].optimize(query).plan
            self.executor.execute(plan, query, limit=10)
            samples.append(time.perf_counter() - started)
        return {"limit10_s": samples}


class OptimizeCold(Workload):
    """Optimiser only: parse, fresh session, cold ``optimize``.

    Why: Table IV / Fig. 6 / Fig. 7 in one run; enumeration, cardinality
    and cost are nearly all of the wall (dense 10-14 and tree 12-14
    carry the seconds, WatDiv carries the median), the engine does
    nothing.  Size 15+ is left out: dense-15 alone is 7.6 s.
    """

    name = "optimize_cold_mixed"
    algorithm = "td-auto"
    jobs = 1

    def prepare(self, span: Callable[..., Any]) -> None:
        p = self.p
        self.method = p.HashSubjectObject()
        for op in self.spec["ops"]:
            op["per_pattern"] = [
                p.PatternStatistics(
                    entry["cardinality"],
                    {p.Variable(name): b for name, b in entry["bindings"].items()},
                )
                for entry in op["statistics"]
            ]
        self.warm_up(self.spec["ops"][0])  # one discarded op, the same for any seed

    def operate(self, op, span, traced, started, out):
        p = self.p
        with span("sparql.parser.parse"):
            query = p.parse_query(op["text"], name=op["name"])
        statistics = p.StatisticsCatalog(query, op["per_pattern"])
        session = p.Optimizer(p.OptimizeOptions(
            algorithm=self.algorithm, statistics=statistics,
            partitioning=self.method, jobs=self.jobs, trace=traced,
        ))
        with span("core.optimizer.optimize") as optimize_span:
            result = session.optimize(query)
        # the plan is the only result item of an optimise-only op
        out.first_row_s = time.perf_counter() - started
        out.cost = result.cost
        return SimpleNamespace(
            query=query, statistics=statistics, result=result, session=session,
            optimize_span=optimize_span,
        )

    def annotate(self, done):
        self.annotate_optimize(done.optimize_span, done.result)
        self.harvest(done.session.tracer)

    def check(self, op, done, span):
        p = self.p
        with span("analysis.plan_verifier.verify"):
            context = p.VerificationContext.for_query(
                done.query, statistics=done.statistics, partitioning=self.method
            )
            profile = p.profile_for_algorithm(done.result.algorithm)
            report = p.PlanVerifier(context.with_profile(profile)).verify(done.result.plan)
        expected = op.get("expected_cost")
        return report.ok and (expected is None or done.result.cost == expected)


class OptimizeParallel(OptimizeCold):
    """The same optimiser layer through the process-pool search.

    Why: tree and dense queries of 10-14 patterns are where ``jobs``
    is supposed to pay; today it loses on the small ops and wins 1.5x
    on dense-14, so this is where a measured break-even, a persistent
    pool, or its removal is judged in wall seconds.  ``td-cmdp``
    because ``td-auto`` ignores ``jobs``.
    """

    name = "optimize_parallel_random"
    tail_percentile = 75
    algorithm = "td-cmdp"

    def prepare(self, span: Callable[..., Any]) -> None:
        self.jobs = search_jobs()
        super().prepare(span)


WORKLOADS = {
    cls.name: cls
    for cls in (OneShot, ServeColumnar, ServePipelined, OptimizeCold, OptimizeParallel)
}
