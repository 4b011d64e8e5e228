"""Command-line interface: optimize and run SPARQL queries.

Usage::

    python -m repro optimize query.sparql --data data.nt --algorithm td-auto
    python -m repro run query.sparql --data data.nt --partitioning path-bmc
    python -m repro experiments table4
    python -m repro demo

``optimize`` prints the chosen plan (text, ``--json``, or ``--dot``);
``run`` also executes it on a simulated cluster and prints bindings;
``experiments`` regenerates one of the paper's tables/figures;
``demo`` runs the whole pipeline on the built-in LUBM-like workload.

``--algorithm`` takes any key of the one optimizer registry: the
paper's ``td-cmd`` / ``td-cmdp`` / ``hgr-td-cmd`` / ``td-auto`` and the
baselines ``msc`` / ``dp-bushy`` / ``triad-dp``.

Throughput flags: ``--jobs N`` shards the td-cmd/td-cmdp DP memo
across N worker processes; ``optimize --plan-cache PATH`` keeps a
persistent cross-query plan cache at PATH, so repeating a query
short-circuits enumeration entirely.

Static analysis (see ``docs/ANALYSIS.md``)::

    python -m repro lint src/repro
    python -m repro verify-plan plan.json query.sparql
    python -m repro optimize query.sparql --verify
    python -m repro run query.sparql --data data.nt --verify

``--verify`` runs the plan-invariant verifier on every emitted plan
(including plan-cache hits, which are invalidated and re-optimized if
the rebuilt plan fails) and, for ``run``, gates execution on it.

Observability (see ``docs/OBSERVABILITY.md``)::

    python -m repro trace examples
    python -m repro trace L3 --run --output l3.json
    python -m repro optimize query.sparql --trace trace.json
    python -m repro run query.sparql --data data.nt --trace trace.json

``trace`` optimizes (and with ``--run`` executes) a query with tracing
on and exports the span tree — Chrome trace-event JSON by default
(loadable in Perfetto / ``chrome://tracing``), ``--format jsonl`` or
``--format flame`` otherwise — plus a terminal flame summary.  The
``--trace PATH`` flag on ``optimize`` / ``run`` / ``demo`` does the
same export for those commands.

Lifecycle governance (see ``docs/RESILIENCE.md``)::

    python -m repro run query.sparql --data data.nt --deadline 5
    python -m repro run query.sparql --data data.nt --row-budget 100000
    python -m repro optimize query.sparql --deadline 1 --anytime

``--deadline`` bounds the whole query lifecycle in seconds and
``--row-budget`` caps the intermediate rows execution may produce; a
breach prints a structured abort report and exits with status 4.  With
``--anytime``, an optimizer deadline degrades to the best complete
plan found so far instead of failing.

Adaptive repartitioning (see ``docs/PERFORMANCE.md``)::

    python -m repro run query.sparql --data data.nt --adapt --adapt-every 1

``--adapt`` turns the run into a feedback loop: execution metrics feed
a :class:`~repro.partitioning.adaptive.RepartitioningAdvisor`, and
every ``--adapt-every`` observations the session migrates/replicates
hot fragments on the cluster under ``--replication-budget`` (a
fraction of the dataset's triples), printing an ``# adaptive:`` footer
when a round ran.

Every subcommand funnels its flags through one
:class:`~repro.core.session.OptimizeOptions` builder (see
``docs/API.md`` for the flag-to-field mapping), so the CLI and the
session API cannot drift apart.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .analysis import InvariantViolation
from .core import ALGORITHMS, QueryAborted, StatisticsCatalog
from .core.serialize import plan_to_dot, plan_to_json
from .core.session import OptimizeOptions, Optimizer
from .engine import ENGINES, Cluster, Executor
from .partitioning import (
    HashSubjectObject,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
)
from .rdf import Dataset, load_ntriples
from .sparql import parse_query

PARTITIONINGS = {
    "hash-so": HashSubjectObject,
    "2f": lambda: SemanticHash(2),
    "path-bmc": PathBMC,
    "un-1-hop": UndirectedOneHop,
}


def _load_query(path: str):
    text = Path(path).read_text(encoding="utf-8")
    return parse_query(text, name=Path(path).stem)


def _load_dataset(path: str | None) -> Dataset | None:
    if path is None:
        return None
    return Dataset(load_ntriples(path), name=Path(path).stem)


def _partitioning(name: str | None):
    if name is None:
        return None
    try:
        return PARTITIONINGS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown partitioning {name!r}; choose from {sorted(PARTITIONINGS)}"
        )


def build_options(args: argparse.Namespace, **overrides) -> OptimizeOptions:
    """The one flag-to-:class:`OptimizeOptions` mapping every command uses.

    Flags a subcommand does not define fall back to the option defaults;
    *overrides* win over flags (e.g. ``run`` forces a partitioning and
    explicit statistics).  The full mapping is documented in
    ``docs/API.md``.
    """
    fields = dict(
        algorithm=getattr(args, "algorithm", None) or "td-auto",
        partitioning=_partitioning(getattr(args, "partitioning", None)),
        deadline_seconds=getattr(args, "deadline", None),
        row_budget=getattr(args, "row_budget", None),
        anytime=getattr(args, "anytime", False),
        seed=getattr(args, "seed", 0),
        jobs=getattr(args, "jobs", 1),
        verify=getattr(args, "verify", False),
        trace=getattr(args, "trace", None) is not None,
        engine=getattr(args, "engine", OptimizeOptions.engine),
        adapt=getattr(args, "adapt", False),
        adapt_every=getattr(args, "adapt_every", 16),
        replication_budget=getattr(args, "replication_budget", 0.1),
    )
    fields.update(overrides)
    return OptimizeOptions(**fields)


def _make_session(args: argparse.Namespace, **overrides) -> Optimizer:
    """Build the :class:`Optimizer` session for one CLI invocation.

    An unknown algorithm raises :class:`ValueError` from the session
    constructor.
    """
    return Optimizer(build_options(args, **overrides))


def _export_trace(session: Optimizer, path: str | None) -> None:
    """Write the session's trace as Chrome trace-event JSON to *path*."""
    if path is None or session.tracer is None:
        return
    from .observability import export

    data = export.to_chrome_trace(session.tracer)
    Path(path).write_text(json.dumps(data), encoding="utf-8")
    print(
        f"# trace: {len(session.tracer)} spans -> {path}",
        file=sys.stderr,
    )


def cmd_optimize(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    dataset = _load_dataset(args.data)
    cache = None
    cache_path = None
    if args.plan_cache:
        from .core import PlanCache

        cache_path = Path(args.plan_cache)
        cache = PlanCache.load(cache_path) if cache_path.exists() else PlanCache()
    session = _make_session(args, dataset=dataset, plan_cache=cache)
    try:
        result = session.optimize(query)
    except InvariantViolation as violation:
        raise SystemExit(f"plan verification failed: {violation.describe()}")
    if args.verify:
        print("# verify: plan passed invariant verification", file=sys.stderr)
    print(
        f"# {result.algorithm}: cost={result.cost:.2f} "
        f"plans={result.stats.plans_considered} "
        f"time={result.elapsed_seconds * 1000:.1f}ms",
        file=sys.stderr,
    )
    if result.stats.workers > 1:
        print(
            f"# workers={result.stats.workers} "
            f"speedup={result.stats.speedup:.2f} "
            f"balance={result.stats.worker_balance:.2f} "
            f"steals={result.stats.steals} "
            f"per_worker_subqueries={result.stats.per_worker_subqueries}",
            file=sys.stderr,
        )
    if cache is not None and cache_path is not None:
        cache.save(cache_path)
        print(
            f"# plan-cache: {'hit' if cache.stats.hits else 'miss'} "
            f"({len(cache)} entries at {cache_path})",
            file=sys.stderr,
        )
    if args.json:
        print(plan_to_json(result.plan, indent=2))
    elif args.dot:
        print(plan_to_dot(result.plan, name=query.name or "plan"))
    else:
        print(result.plan.describe())
    _export_trace(session, args.trace)
    return 0


def _fault_setup(args: argparse.Namespace):
    """Build (injector, policy) from the run subcommand's fault flags."""
    from .engine import DEFAULT_RETRY_POLICY, FaultInjector, RetryPolicy

    policy = DEFAULT_RETRY_POLICY
    if args.max_retries is not None:
        policy = RetryPolicy(max_retries=args.max_retries)
    if args.fault_rate <= 0:
        return None, policy
    return FaultInjector(args.fault_rate, seed=args.fault_seed), policy


def cmd_run(args: argparse.Namespace) -> int:
    query = _load_query(args.query)
    dataset = _load_dataset(args.data)
    if dataset is None:
        raise SystemExit("run requires --data")
    method = _partitioning(args.partitioning) or HashSubjectObject()
    statistics = StatisticsCatalog.from_dataset(query, dataset)
    session = _make_session(args, statistics=statistics, partitioning=method)
    # one budget spans the whole lifecycle: the optimizer and the
    # executor charge the same envelope
    budget = session.budget_for(query)
    try:
        result = session.optimize(query, budget=budget)
    except InvariantViolation as violation:
        raise SystemExit(f"plan verification failed: {violation.describe()}")
    except QueryAborted as abort:
        print(abort.describe(), file=sys.stderr)
        return 4
    if result.stats.degraded:
        print(
            f"# degraded: {result.algorithm} ({result.stats.degradation_reason})",
            file=sys.stderr,
        )
    verifier = None
    if args.verify:
        from .analysis import PlanVerifier, VerificationContext, profile_for_algorithm

        context = VerificationContext.for_query(
            query, statistics=statistics, partitioning=method
        )
        verifier = PlanVerifier(
            context.with_profile(profile_for_algorithm(result.algorithm))
        )
        print("# verify: plan passed invariant verification", file=sys.stderr)
    if session.options.adapt:
        from .partitioning import AdaptiveCluster

        cluster: Cluster = AdaptiveCluster.build(
            dataset, method, cluster_size=args.workers
        )
        session.bind_cluster(cluster)
    else:
        cluster = Cluster.build(dataset, method, cluster_size=args.workers)
    injector, policy = _fault_setup(args)
    if args.explain:
        from .engine import explain

        relation, report = explain(
            result.plan,
            cluster,
            query,
            fault_injector=injector,
            retry_policy=policy,
            engine=session.options.engine,
            limit=args.limit,
        )
        print(report.render(), file=sys.stderr)
    else:
        executor = Executor(
            cluster,
            fault_injector=injector,
            retry_policy=policy,
            plan_verifier=verifier,
            engine=session.options.engine,
        )
        try:
            with session.tracing():
                relation, metrics = executor.execute(
                    result.plan, query, budget=budget, limit=args.limit
                )
        except QueryAborted as abort:
            print(abort.describe(), file=sys.stderr)
            _export_trace(session, args.trace)
            return 4
        for key, value in metrics.summary().items():
            if key == "shipped_by_predicate":
                breakdown = ", ".join(
                    f"{predicate}={count}" for predicate, count in value.items()
                )
                print(f"# {key}: {breakdown}", file=sys.stderr)
            else:
                print(f"# {key}: {value}", file=sys.stderr)
        report = session.observe_execution(query, metrics, budget=budget)
        if report is not None:
            print(
                f"# adaptive: applied={len(report.applied)} "
                f"skipped={len(report.skipped)} "
                f"migrations={report.migrations} "
                f"replicated_triples={report.replicated_triples} "
                f"epoch={report.epoch}",
                file=sys.stderr,
            )
        if metrics.limit_pushdown:
            print(
                f"# limit-pushdown: stream stopped after {len(relation)} "
                f"row(s)",
                file=sys.stderr,
            )
        if metrics.fault_injection_enabled and cluster.failed_workers:
            print(f"# failed_workers: {cluster.failed_workers}", file=sys.stderr)
    variables = list(relation.variables)
    print("\t".join(str(v) for v in variables))
    # --limit caps execution above; the print cap below only limits
    # terminal output when no explicit limit was requested
    print_cap = args.limit if args.limit is not None else 20
    for row in sorted(relation.rows, key=str)[:print_cap]:
        print("\t".join(str(term) for term in row))
    if len(relation) > print_cap:
        print(f"# ... {len(relation) - print_cap} more rows", file=sys.stderr)
    _export_trace(session, args.trace)
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.lint import main as lint_main

    return lint_main(args.paths, select=args.select)


def cmd_check_concurrency(args: argparse.Namespace) -> int:
    from .analysis.concurrency import main as concurrency_main

    return concurrency_main(args.paths, select=args.select)


def cmd_verify_plan(args: argparse.Namespace) -> int:
    from .analysis import PlanVerifier, VerificationContext
    from .core.serialize import plan_from_dict

    query = _load_query(args.query)
    data = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    try:
        plan = plan_from_dict(data, query)
    except (KeyError, ValueError, TypeError) as error:
        raise SystemExit(f"cannot rebuild plan from {args.plan}: {error}")
    options = build_options(args, dataset=_load_dataset(args.data))
    context = VerificationContext.for_query(
        query,
        dataset=options.dataset,
        partitioning=options.partitioning,
        algorithm=args.algorithm,
        seed=options.seed,
        structure_only=args.structure_only,
    )
    report = PlanVerifier(context).verify(plan)
    print(report.render())
    return 0 if report.ok else 1


#: the queries ``trace examples`` sweeps: one star, one tree, one dense
#: (all LUBM, so one generated dataset serves all three)
EXAMPLE_QUERIES = ("L1", "L4", "L7")


def _trace_targets(args: argparse.Namespace):
    """Resolve the trace target into (name, query, statistics, dataset).

    Accepted targets: ``examples`` (the built-in LUBM sweep), a
    benchmark query name (``L1``–``L10``, ``U1``–``U5``), or a path to
    a SPARQL file (statistics from ``--data`` or the seed).
    """
    from .experiments.benchmark_queries import benchmark_queries

    target = args.target
    if target == "examples":
        queries = benchmark_queries()
        return [
            (name, queries[name].query, queries[name].statistics,
             queries[name].dataset)
            for name in EXAMPLE_QUERIES
        ]
    if target in benchmark_queries():
        bq = benchmark_queries()[target]
        return [(bq.name, bq.query, bq.statistics, bq.dataset)]
    if Path(target).exists():
        query = _load_query(target)
        return [(query.name or target, query, None, _load_dataset(args.data))]
    raise SystemExit(
        f"unknown trace target {target!r}: expected 'examples', a benchmark "
        f"query name (L1-L10, U1-U5), or a SPARQL file path"
    )


def cmd_trace(args: argparse.Namespace) -> int:
    from .observability import export

    targets = _trace_targets(args)
    method = _partitioning(args.partitioning) or HashSubjectObject()
    session = _make_session(args, trace=True, partitioning=method)
    for name, query, statistics, dataset in targets:
        if statistics is not None:
            session.prime_statistics(query, statistics)
        try:
            result = session.optimize(query)
        except InvariantViolation as violation:
            raise SystemExit(f"plan verification failed: {violation.describe()}")
        print(
            f"# {name}: {result.algorithm} cost={result.cost:.2f} "
            f"plans={result.stats.plans_considered} "
            f"time={result.elapsed_seconds * 1000:.1f}ms",
            file=sys.stderr,
        )
        if args.run:
            if dataset is None:
                raise SystemExit("trace --run on a query file requires --data")
            cluster = Cluster.build(dataset, method, cluster_size=args.workers)
            with session.tracing():
                relation, metrics = Executor(
                    cluster, engine=session.options.engine
                ).execute(result.plan, query)
            print(
                f"# {name}: rows={len(relation)} "
                f"shipped={metrics.total_tuples_shipped} "
                f"simulated_time={metrics.critical_path_cost:.2f}",
                file=sys.stderr,
            )
    tracer = session.tracer
    assert tracer is not None  # trace=True above
    optimize_roots = [sp for sp in tracer.roots() if sp.name == "optimize"]
    total = sum(root.duration for root in optimize_roots)
    if optimize_roots and total > 0:
        covered = sum(
            export.span_coverage(tracer, root) * root.duration
            for root in optimize_roots
        )
        print(
            f"# coverage: {covered / total * 100:.1f}% of optimize wall-clock "
            f"spanned ({len(optimize_roots)} queries)",
            file=sys.stderr,
        )
    output = Path(args.output)
    if args.format == "chrome":
        output.write_text(
            json.dumps(export.to_chrome_trace(tracer)), encoding="utf-8"
        )
    elif args.format == "jsonl":
        output.write_text(export.to_jsonl(tracer) + "\n", encoding="utf-8")
    else:
        output.write_text(export.flame_summary(tracer) + "\n", encoding="utf-8")
    print(
        f"# trace: {len(tracer)} spans ({args.format}) -> {output}",
        file=sys.stderr,
    )
    print(export.flame_summary(tracer))
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from . import experiments

    drivers = {
        "table3": experiments.table3,
        "table4": experiments.table4,
        "table5": experiments.table5,
        "table6": experiments.table6,
        "table7": experiments.table7,
        "fig6": experiments.fig6,
        "fig7": experiments.fig7,
        "fig8": experiments.fig8,
    }
    if args.name not in drivers:
        raise SystemExit(f"unknown experiment; choose from {sorted(drivers)}")
    print(drivers[args.name].report())
    return 0


def cmd_demo(args: argparse.Namespace) -> int:
    from .workloads import generate_lubm, lubm_query

    dataset = generate_lubm()
    query = lubm_query(args.query)
    method = _partitioning(args.partitioning) or HashSubjectObject()
    session = _make_session(
        args,
        statistics=StatisticsCatalog.from_dataset(query, dataset),
        partitioning=method,
    )
    result = session.optimize(query)
    print(f"# dataset: {dataset}", file=sys.stderr)
    print(result.plan.describe())
    cluster = Cluster.build(dataset, method, cluster_size=args.workers)
    with session.tracing():
        relation, metrics = Executor(
            cluster, engine=session.options.engine
        ).execute(result.plan, query)
    print(f"# rows={len(relation)} shipped={metrics.total_tuples_shipped} "
          f"simulated_time={metrics.critical_path_cost:.2f}", file=sys.stderr)
    _export_trace(session, args.trace)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Parallel SPARQL query optimization (ICDE 2017)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--algorithm",
        default="td-auto",
        help="optimizer (case-insensitive): " + ", ".join(ALGORITHMS),
    )
    common.add_argument("--partitioning", choices=sorted(PARTITIONINGS), default=None)
    common.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds for the whole query lifecycle "
        "(optimization and execution); a breach aborts with a structured "
        "report (exit status 4)",
    )
    common.add_argument(
        "--row-budget",
        type=int,
        default=None,
        dest="row_budget",
        help="ceiling on intermediate rows execution may produce; a "
        "breach aborts with a structured report (exit status 4)",
    )
    common.add_argument(
        "--anytime",
        action="store_true",
        help="degrade gracefully when the deadline fires during "
        "optimization: return the best complete plan found so far "
        "(greedy fallback if none) instead of failing",
    )
    common.add_argument("--workers", type=int, default=10)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="optimizer worker processes (td-cmd/td-cmdp shard their "
        "DP search across them; other algorithms run serially)",
    )
    common.add_argument(
        "--verify",
        action="store_true",
        help="run the plan-invariant verifier on every emitted plan "
        "(cache hits are re-checked; corrupt entries become misses)",
    )
    common.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="collect spans + metrics and export a Chrome trace-event "
        "JSON file (Perfetto-loadable) to PATH",
    )
    # choices and help are generated from the engine table
    common.add_argument(
        "--engine",
        choices=tuple(ENGINES),
        default=OptimizeOptions.engine,
        help="execution engine for plan execution: "
        + "; ".join(
            f"'{name}' ({spec.description})" for name, spec in ENGINES.items()
        ),
    )

    p_opt = sub.add_parser("optimize", parents=[common], help="optimize a query file")
    p_opt.add_argument("query")
    p_opt.add_argument("--data", help="N-Triples file for statistics")
    p_opt.add_argument("--json", action="store_true", help="emit the plan as JSON")
    p_opt.add_argument("--dot", action="store_true", help="emit Graphviz DOT")
    p_opt.add_argument(
        "--plan-cache",
        metavar="PATH",
        default=None,
        help="persistent cross-query plan cache file; a repeated query "
        "skips enumeration entirely",
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_run = sub.add_parser("run", parents=[common], help="optimize and execute")
    p_run.add_argument("query")
    p_run.add_argument("--data", required=True, help="N-Triples file")
    p_run.add_argument(
        "--limit",
        type=int,
        default=None,
        help="cap the result at N rows: the pipelined engine pushes the "
        "limit into the stream and stops executing early; materialized "
        "engines truncate the final result (unset: no execution limit, "
        "20 rows printed)",
    )
    p_run.add_argument(
        "--explain",
        action="store_true",
        help="print estimated-vs-measured per operator",
    )
    p_run.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-operator-attempt fault probability (0 disables injection)",
    )
    p_run.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed for the deterministic fault injector",
    )
    p_run.add_argument(
        "--max-retries",
        type=int,
        default=None,
        help="retry budget per operator before the run aborts (default 3)",
    )
    p_run.add_argument(
        "--adapt",
        action="store_true",
        help="enable workload-adaptive repartitioning: the session mines "
        "hot predicates and recurring join shapes from execution metrics "
        "and migrates/replicates fragments under the replication budget",
    )
    p_run.add_argument(
        "--adapt-every",
        type=int,
        default=16,
        dest="adapt_every",
        help="run an adaptation round every N observed executions "
        "(default 16; use 1 to adapt after every query)",
    )
    p_run.add_argument(
        "--replication-budget",
        type=float,
        default=0.1,
        dest="replication_budget",
        help="ceiling on adaptive replication as a fraction of the "
        "dataset's triples (default 0.1)",
    )
    p_run.set_defaults(func=cmd_run)

    p_lint = sub.add_parser(
        "lint", help="run the repo's determinism/correctness lint"
    )
    p_lint.add_argument("paths", nargs="+", help="files or directories to lint")
    p_lint.add_argument(
        "--select",
        nargs="+",
        metavar="CODE",
        default=None,
        help="restrict to specific rules (e.g. LINT001 LINT003)",
    )
    p_lint.set_defaults(func=cmd_lint)

    p_conc = sub.add_parser(
        "check-concurrency",
        help="run the interprocedural concurrency/process-safety "
        "analyzer (lock discipline, pickle safety, poll reachability)",
    )
    p_conc.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    p_conc.add_argument(
        "--select",
        nargs="+",
        metavar="CODE",
        default=None,
        help="restrict to specific rules (e.g. LINT010 LINT014)",
    )
    p_conc.set_defaults(func=cmd_check_concurrency)

    p_verify = sub.add_parser(
        "verify-plan", help="check a serialized plan against the paper invariants"
    )
    p_verify.add_argument("plan", help="plan JSON file (from optimize --json)")
    p_verify.add_argument("query", help="the query the plan was optimized for")
    p_verify.add_argument("--data", help="N-Triples file for statistics")
    p_verify.add_argument(
        "--partitioning", choices=sorted(PARTITIONINGS), default=None
    )
    p_verify.add_argument(
        "--algorithm",
        default=None,
        help="algorithm label the plan came from (enables Rule-2 checks "
        "for td-cmdp)",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--structure-only",
        action="store_true",
        help="skip cost-model re-derivation (no statistics needed)",
    )
    p_verify.set_defaults(func=cmd_verify_plan)

    p_trace = sub.add_parser(
        "trace",
        parents=[common],
        help="optimize (and optionally execute) with tracing on; "
        "export the span tree",
    )
    p_trace.add_argument(
        "target",
        help="'examples' (built-in LUBM sweep), a benchmark query name "
        "(L1-L10, U1-U5), or a SPARQL file path",
    )
    p_trace.add_argument("--data", help="N-Triples file (file targets only)")
    p_trace.add_argument(
        "--output",
        default="trace.json",
        help="output file (default: trace.json)",
    )
    p_trace.add_argument(
        "--format",
        choices=("chrome", "jsonl", "flame"),
        default="chrome",
        help="export format (default: chrome trace-event JSON)",
    )
    p_trace.add_argument(
        "--run",
        action="store_true",
        help="also execute the plan on the simulated cluster "
        "(execution spans join the trace)",
    )
    p_trace.set_defaults(func=cmd_trace)

    p_exp = sub.add_parser("experiments", help="regenerate a paper table/figure")
    p_exp.add_argument("name")
    p_exp.set_defaults(func=cmd_experiments)

    p_demo = sub.add_parser("demo", parents=[common], help="built-in LUBM demo")
    p_demo.add_argument("--query", default="L7")
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
