"""The optimizer session API: :class:`OptimizeOptions` + :class:`Optimizer`.

Configuration and per-call input are separate things:

* :class:`OptimizeOptions` is the *configuration* — one typed,
  immutable-by-convention dataclass holding every setting of an
  optimization, including ``trace`` (observability is a property of a
  session, not a per-call argument);
* :class:`Optimizer` is the *session* — it owns resolved statistics,
  the plan cache, the tracer, the worker-pool policy and the executor
  **across calls**, so repeated queries share that state::

      from repro import OptimizeOptions, Optimizer

      session = Optimizer(OptimizeOptions(algorithm="td-cmdp", trace=True))
      session.bind_cluster(cluster)
      for query in workload:
          run = session.run(query)  # optimize -> execute -> observe
      print(flame_summary(session.tracer))

:func:`~repro.core.optimizer.optimize` remains as a one-shot
convenience over this class for the per-call inputs (algorithm,
statistics, dataset, partitioning, parameters, seed); session state —
plan cache, jobs, verification, deadlines — lives only here.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import (
    TYPE_CHECKING,
    Any,
    ContextManager,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine → core)
    from ..engine import Cluster, ExecutionMetrics, Executor, ExplainReport
    from ..engine import FaultInjector, Relation, RetryPolicy
    from ..partitioning.adaptive import (
        AdaptationReport,
        AdaptiveCluster,
        RepartitioningAdvisor,
    )

from ..observability import Tracer
from ..observability import runtime as obs
from ..partitioning.base import PartitioningMethod
from ..rdf.dataset import Dataset
from ..sparql.ast import BGPQuery
from .cardinality import StatisticsCatalog
from .cost import CostParameters, PAPER_PARAMETERS
from .enumeration import EnumerationStats, OptimizationResult
from .governance import CancellationToken, Deadline, QueryBudget
from .local_query import LocalQueryIndex
from .plan_cache import PlanCache

#: one item of :meth:`Optimizer.optimize_many`: a query, optionally
#: paired with statistics (tuples and objects with ``query`` /
#: ``statistics`` attributes, e.g.
#: :class:`~repro.workloads.generators.WorkloadQuery`, are accepted)
RequestLike = Union[BGPQuery, Tuple[BGPQuery, Optional[StatisticsCatalog]], Any]


def _query_id(query: BGPQuery) -> str:
    """The one id a query carries: root span, budget, abort report."""
    return query.name or f"q{len(query)}"


@dataclass
class QueryRun:
    """One query through :meth:`Optimizer.run`."""

    result: OptimizationResult
    #: the deduplicated, projected result rows
    relation: "Relation"
    metrics: "ExecutionMetrics"
    #: estimated vs measured per join operator, with ``explain=True``
    explain: Optional["ExplainReport"] = None
    #: the adaptation round this execution triggered, if one ran
    adaptation: Optional["AdaptationReport"] = None


def _normalize_request(
    item: RequestLike,
) -> Tuple[BGPQuery, Optional[StatisticsCatalog]]:
    """Accept a query, a (query, statistics) pair, or a workload record."""
    if isinstance(item, BGPQuery):
        return item, None
    if isinstance(item, tuple):
        query, statistics = item
        return query, statistics
    query = getattr(item, "query", None)
    if isinstance(query, BGPQuery):
        return query, getattr(item, "statistics", None)
    raise TypeError(
        f"cannot interpret {type(item).__name__} as an optimization request"
    )


@dataclass
class OptimizeOptions:
    """Everything that configures an optimization session.

    See ``docs/API.md`` for the field-by-field mapping to the CLI
    flags.  Treat instances as immutable; derive variants with
    :meth:`dataclasses.replace` or :meth:`with_overrides`.
    """

    #: a key of :data:`repro.core.optimizer.ALGORITHMS`, case-insensitive:
    #: ``"td-cmd"``, ``"td-cmdp"``, ``"hgr-td-cmd"``, ``"td-auto"``, or a
    #: baseline — ``"msc"``, ``"dp-bushy"``, ``"triad-dp"``
    algorithm: str = "td-auto"
    #: explicit cardinality catalog (wins over ``dataset`` and ``seed``)
    statistics: Optional[StatisticsCatalog] = None
    #: dataset to derive exact statistics from (per query, cached)
    dataset: Optional[Dataset] = None
    #: data partitioning method; enables local-query detection
    partitioning: Optional[PartitioningMethod] = None
    #: cost-model constants (defaults to the paper's Table II)
    parameters: CostParameters = field(default_factory=lambda: PAPER_PARAMETERS)
    #: seed for synthetic statistics (the paper's random-statistics mode)
    seed: int = 0
    #: cross-query plan cache owned by the session
    plan_cache: Optional[PlanCache] = None
    #: processes this session may use, as one pool of *jobs* workers
    #: per process (:mod:`.cooperative`): across the queries of an
    #: :meth:`Optimizer.optimize_many` batch, and inside the search for
    #: one query (the cooperative TD-CMD / TD-CMDP search, where the
    #: workers split the root and share one cost table, also when
    #: TD-Auto chose one of them; every other algorithm searches
    #: serially); a call that finds the pool lent to another thread's
    #: search runs in process
    jobs: int = 1
    #: run the plan-invariant verifier on every returned plan
    verify: bool = False
    #: collect spans + metrics for every call (``session.tracer``)
    trace: bool = False
    #: execution engine of the executor :meth:`Optimizer.bind_cluster`
    #: builds: a name from :data:`~repro.engine.base.ENGINES`
    #: (``"columnar"`` — dictionary ids with indexed scans, every
    #: operator emits once; ``"pipelined"`` — the same in bounded
    #: batches) or a ready :class:`~repro.engine.base.Engine` instance
    engine: Any = "columnar"
    #: wall-clock deadline for each query's whole lifecycle (optimize,
    #: and execution under :meth:`Optimizer.run`)
    deadline_seconds: Optional[float] = None
    #: ceiling on intermediate rows produced during execution
    row_budget: Optional[int] = None
    #: query-wide retry budget across all operators (on top of the
    #: per-operator :class:`~repro.engine.recovery.RetryPolicy` cap)
    retry_budget: Optional[int] = None
    #: on optimizer deadline, return the best complete plan so far
    #: (flagged ``stats.degraded``) instead of raising
    anytime: bool = False
    #: cooperative cancel flag shared with parallel search drivers
    cancellation: Optional[CancellationToken] = None
    #: enable workload-adaptive repartitioning: the session owns a
    #: :class:`~repro.partitioning.adaptive.RepartitioningAdvisor` and
    #: :meth:`Optimizer.run` drives the feedback loop against a bound
    #: :class:`~repro.partitioning.adaptive.AdaptiveCluster`
    adapt: bool = False
    #: run an adaptation round every N observed executions
    adapt_every: int = 16
    #: ceiling on adaptive replication, as a fraction of the dataset's
    #: triples (extra stored copies summed across workers)
    replication_budget: float = 0.1

    @property
    def governed(self) -> bool:
        """Whether any governance limit is configured.

        False means :meth:`Optimizer.budget_for` returns ``None`` and
        every budget check in the pipeline reduces to one ``is None``
        test — the zero-cost-off guarantee.
        """
        return (
            self.deadline_seconds is not None
            or self.row_budget is not None
            or self.retry_budget is not None
            or self.cancellation is not None
            or self.anytime
        )

    def with_overrides(self, **overrides: Any) -> "OptimizeOptions":
        """A copy with *overrides* applied (``dataclasses.replace``)."""
        return replace(self, **overrides)

    @property
    def algorithm_key(self) -> str:
        """The lower-cased registry key for :attr:`algorithm`."""
        return self.algorithm.lower()


class Optimizer:
    """An optimization session: state that outlives a single query.

    The session owns

    * **statistics** — catalogs resolved from :attr:`OptimizeOptions.dataset`
      (or the random seed) are cached per query object, so re-optimizing
      a query never re-scans the data;
    * **the plan cache** — :attr:`OptimizeOptions.plan_cache`, consulted and
      populated by every call (verification-gated when ``verify=True``);
    * **the tracer** — created once when ``trace=True``; every call adds
      a root span to it, ``optimize`` or :meth:`run`'s ``query`` (see
      ``docs/OBSERVABILITY.md``);
    * **jobs** — the process allowance of every call: one worker pool
      for the cooperative search of one query and for a batch;
    * **the executor** — built by :meth:`bind_cluster`; :meth:`run` is
      the one optimize → execute → observe path over it.

    Construction validates the algorithm eagerly, so a typo fails at
    session setup rather than mid-workload.
    """

    def __init__(
        self, options: Optional[OptimizeOptions] = None, **overrides: Any
    ) -> None:
        base = options if options is not None else OptimizeOptions()
        if overrides:
            base = base.with_overrides(**overrides)
        from .optimizer import ALGORITHMS  # late: optimizer imports us lazily

        if base.algorithm_key not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {base.algorithm!r}; "
                f"choose from {sorted(ALGORITHMS)}"
            )
        if base.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {base.jobs}")
        from ..engine.base import resolve_engine  # late: engine depends on core

        resolve_engine(base.engine)  # raises on a name that is not in ENGINES
        if base.adapt_every < 1:
            raise ValueError(f"adapt_every must be >= 1, got {base.adapt_every}")
        if base.replication_budget < 0:
            raise ValueError(
                f"replication_budget must be >= 0, got {base.replication_budget}"
            )
        self.options = base
        self.plan_cache = base.plan_cache
        self.tracer: Optional[Tracer] = Tracer() if base.trace else None
        #: resolved statistics per query object (the strong reference to
        #: the query keeps ``id()`` from being recycled)
        self._statistics: Dict[int, Tuple[BGPQuery, StatisticsCatalog]] = {}
        #: the adaptive-repartitioning feedback loop (``adapt=True``)
        self.advisor: Optional["RepartitioningAdvisor"] = None
        self._adaptive_cluster: Optional["AdaptiveCluster"] = None
        self._executor: Optional["Executor"] = None
        if base.adapt:
            # imported lazily: partitioning.adaptive depends on engine,
            # which depends on core
            from ..partitioning.adaptive import RepartitioningAdvisor

            self.advisor = RepartitioningAdvisor(adapt_every=base.adapt_every)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def optimize(
        self, query: BGPQuery, budget: Optional[QueryBudget] = None
    ) -> OptimizationResult:
        """Optimize one query under this session's options.

        *budget* overrides the session-derived :meth:`budget_for`
        envelope (:meth:`run` shares one across optimize and execute).
        """
        return self._optimize(query, None, budget)

    def search_space(self, query: BGPQuery) -> Optional[EnumerationStats]:
        """Table VII's "size of the search space" of *query*.

        The counters an exhaustive search of this session's algorithm
        would report, from one uncosted pass
        (:meth:`~repro.core.enumeration.TopDownEnumerator.search_space`):
        the search itself bounds, so its own counters report less.
        ``None`` for a baseline, whose :meth:`optimize` counters are its
        space.  Runs serially, uncached, under this session's budget.
        """
        statistics = self.resolve_statistics(query)
        search = self._build(query, statistics, self.budget_for(query))
        space: Optional[EnumerationStats] = search.search_space()
        return space

    def budget_for(self, query: BGPQuery) -> Optional[QueryBudget]:
        """A fresh :class:`QueryBudget` for *query*, or ``None``.

        ``None`` exactly when no governance field is set
        (:attr:`OptimizeOptions.governed`), so ungoverned sessions pay
        nothing.  Each call starts a fresh deadline and fresh row/retry
        counters; the cancellation token is shared session-wide (one
        cancel stops every in-flight query of this session).
        """
        options = self.options
        if not options.governed:
            return None
        deadline = (
            Deadline.after(options.deadline_seconds)
            if options.deadline_seconds is not None
            else None
        )
        return QueryBudget(
            deadline=deadline,
            row_budget=options.row_budget,
            retry_budget=options.retry_budget,
            cancellation=options.cancellation,
            anytime=options.anytime,
            query_id=_query_id(query),
        )

    def tracing(self) -> ContextManager[object]:
        """Activate this session's tracer for work outside the session.

        Lets callers record adjacent phases — an executor of their own,
        exports — onto the same trace; :meth:`run` needs none of it.  A
        no-op context manager when the session does not trace.
        """
        if self.tracer is None:
            return nullcontext()
        return obs.activate(self.tracer)

    def bind_cluster(
        self,
        cluster: "Cluster",
        fault_injector: Optional["FaultInjector"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
    ) -> None:
        """Build the session's one executor, on *cluster*, for :meth:`run`.

        The executor runs ``options.engine`` and prices with
        ``options.parameters``; binding again replaces it.  An
        :class:`~repro.partitioning.adaptive.AdaptiveCluster` and
        ``adapt=True`` require each other; a session without a
        partitioning takes that cluster's base method, so the optimizer
        and the layout agree from the first query on.
        """
        from ..engine import DEFAULT_RETRY_POLICY, Executor
        from ..partitioning.adaptive import AdaptiveCluster

        if isinstance(cluster, AdaptiveCluster) != (self.advisor is not None):
            raise ValueError(
                "an AdaptiveCluster and OptimizeOptions(adapt=True) "
                "require each other"
            )
        self._executor = Executor(
            cluster, self.options.parameters, fault_injector,
            retry_policy or DEFAULT_RETRY_POLICY, engine=self.options.engine,
        )
        if isinstance(cluster, AdaptiveCluster):
            self._adaptive_cluster = cluster
            if self.options.partitioning is None:
                self.options = self.options.with_overrides(
                    partitioning=cluster.base_method
                )

    def run(
        self, query: BGPQuery, limit: Optional[int] = None, explain: bool = False
    ) -> QueryRun:
        """Optimize *query*, execute it on the bound cluster, observe it.

        One :meth:`budget_for` envelope is charged by search and
        execution alike, under one ``query`` root span whose ``query``
        attribute is the id a :class:`~.governance.QueryAborted`
        reports.  *limit* is :meth:`~repro.engine.executor.Executor.execute`'s;
        *explain* adds this execution's estimated-vs-measured report.
        """
        from ..engine.explain import explain as report_on

        executor = self._executor
        if executor is None:
            raise ValueError("run requires bind_cluster(cluster) first")
        budget = self.budget_for(query)
        with self.tracing(), obs.span("query", query=_query_id(query)):
            result = self._optimize(query, None, budget)
            relation, metrics = executor.execute(
                result.plan, query, budget=budget, limit=limit
            )
            parameters = self.options.parameters
            report = report_on(result.plan, metrics, parameters) if explain else None
            adaptation = self.observe_execution(query, metrics, budget=budget)
        return QueryRun(result, relation, metrics, report, adaptation)

    def observe_execution(
        self,
        query: BGPQuery,
        metrics: "ExecutionMetrics",
        budget: Optional[QueryBudget] = None,
    ) -> Optional["AdaptationReport"]:
        """Feed one executed query into the adaptive feedback loop.

        :meth:`run` calls it; a caller driving its own
        :class:`~repro.engine.executor.Executor` calls it once per
        execution with the metrics it returned.  The advisor heats the
        query's shape and predicates (plan-cache hits count as recurrence);
        every ``adapt_every`` observations a batch of proposals is
        applied to the bound cluster under the session's replication
        budget.  When the batch changes the layout, the session's
        partitioning is swapped for the cluster's
        :meth:`~repro.partitioning.adaptive.AdaptiveCluster.adapted_method`,
        so subsequent optimizations see the hot queries as local and
        plan-cache keys roll over to the new layout fingerprint.

        Returns the :class:`~repro.partitioning.adaptive.AdaptationReport`
        when an adaptation round ran, else ``None``.  A no-op unless
        ``adapt=True``.
        """
        advisor = self.advisor
        if advisor is None:
            return None
        with self.tracing():
            cache_hits = 0
            if self.plan_cache is not None:
                statistics = self.resolve_statistics(query)
                cache_hits = self.plan_cache.hits_for(
                    query,
                    statistics,
                    self.options.algorithm_key,
                    self.options.parameters,
                    self.options.partitioning,
                )
            advisor.observe(query, metrics, cache_hits=cache_hits)
            cluster = self._adaptive_cluster
            if cluster is None or not advisor.due():
                return None
            proposals = advisor.propose()
            if not proposals:
                return None
            with obs.span(
                "adaptive.apply",
                proposals=len(proposals),
                epoch=cluster.epoch,
            ) as sp:
                report = cluster.apply(
                    proposals,
                    replication_budget=self.options.replication_budget,
                    budget=budget,
                )
                advisor.mark_handled(report)
                if report.changed:
                    self.options = self.options.with_overrides(
                        partitioning=cluster.adapted_method()
                    )
                sp.set(
                    applied=len(report.applied),
                    skipped=len(report.skipped),
                    migrations=report.migrations,
                    replicated_triples=report.replicated_triples,
                    epoch_after=report.epoch,
                )
            return report

    def optimize_many(
        self, items: Iterable[RequestLike]
    ) -> List[OptimizationResult]:
        """Optimize a batch, in input order, reusing all session state.

        An item is a query, a ``(query, statistics)`` pair or a record
        with ``.query`` / ``.statistics``; an item's statistics apply to
        that item only.  With ``jobs == 1`` this is :meth:`optimize` per
        item.  With ``jobs > 1`` every statistics and plan-cache lookup
        runs here first; more than one miss goes to the workers of the
        process's one pool, the cooperative search's
        (:func:`repro.core.cooperative.run_batch`); a single miss, and
        every miss while another thread's search holds the pool, is
        searched here as :meth:`optimize` searches.  Each pooled miss is
        a serial session given the options a serial :meth:`optimize`
        reads — dataset, plan cache, tracer and adaptive state stay
        behind, the driver polls the cancellation token — so every
        result equals a serial call's, and an item's exception is raised
        as it is.
        Verification and the cache store then run here, as for one query.
        """
        requests = [_normalize_request(item) for item in items]
        options = self.options
        if options.jobs == 1:
            return [self._optimize(*request) for request in requests]
        from .cooperative import run_batch

        results: Dict[int, OptimizationResult] = {}
        misses: List[Tuple[int, BGPQuery, StatisticsCatalog, Any]] = []
        with self.tracing():
            for index, (query, given) in enumerate(requests):
                statistics, context, hit = self._lookup(query, given)
                if hit is None:
                    misses.append((index, query, statistics, context))
                else:
                    results[index] = hit
            fresh: Optional[List[OptimizationResult]] = None
            if len(misses) > 1:
                serial = OptimizeOptions(
                    algorithm=options.algorithm,
                    partitioning=options.partitioning,
                    parameters=options.parameters,
                    deadline_seconds=options.deadline_seconds,
                    anytime=options.anytime,
                )
                fresh = run_batch(
                    [
                        (query, replace(serial, statistics=statistics))
                        for _, query, statistics, _ in misses
                    ],
                    options.jobs,
                    options.cancellation,
                )
            if fresh is None:
                fresh = [
                    self._search(query, statistics, self.budget_for(query))
                    for _, query, statistics, _ in misses
                ]
            for (index, query, statistics, context), result in zip(misses, fresh):
                results[index] = self._finish(query, statistics, context, result)
        return [results[index] for index in range(len(requests))]

    def resolve_statistics(self, query: BGPQuery) -> StatisticsCatalog:
        """The session's statistics for *query* (resolved once, cached).

        Resolution order: explicit catalog > dataset-derived > seeded
        random.
        """
        explicit = self.options.statistics
        if explicit is not None:
            return explicit
        cached = self._statistics.get(id(query))
        if cached is not None:
            return cached[1]
        from .optimizer import resolve_statistics

        with obs.span("statistics.resolve") as sp:
            catalog = resolve_statistics(
                query, None, self.options.dataset, self.options.seed
            )
            sp.set(
                source="dataset" if self.options.dataset is not None else "random",
                patterns=len(query),
            )
        self._statistics[id(query)] = (query, catalog)
        return catalog

    def prime_statistics(
        self, query: BGPQuery, catalog: StatisticsCatalog
    ) -> None:
        """Pre-seed the session's statistics cache for *query*.

        Used when per-query catalogs exist up front (e.g. the benchmark
        queries ship exact statistics) but the session should stay
        configured without a global :attr:`OptimizeOptions.statistics`.
        """
        self._statistics[id(query)] = (query, catalog)

    # ------------------------------------------------------------------
    # the optimization pipeline (one call)
    # ------------------------------------------------------------------
    def _optimize(
        self,
        query: BGPQuery,
        statistics: Optional[StatisticsCatalog] = None,
        budget: Optional[QueryBudget] = None,
    ) -> OptimizationResult:
        """One traced call: look up, else search and finish."""
        if budget is None:
            budget = self.budget_for(query)
        with self.tracing(), obs.span(
            "optimize",
            query=_query_id(query),
            algorithm=self.options.algorithm_key,
            patterns=len(query),
        ) as root:
            if budget is not None:
                budget.check_cancelled(phase="optimize")
            statistics, context, result = self._lookup(query, statistics)
            if result is None:
                result = self._finish(
                    query, statistics, context,
                    self._search(query, statistics, budget),
                )
            root.set(
                algorithm_used=result.algorithm,
                cost=result.cost,
                plans_considered=result.stats.plans_considered,
                elapsed_seconds=result.elapsed_seconds,
            )
            return result

    def _lookup(
        self, query: BGPQuery, statistics: Optional[StatisticsCatalog] = None
    ) -> Tuple[StatisticsCatalog, Any, Optional[OptimizationResult]]:
        """Before the search: ``(statistics, verifier context, cache hit)``.

        *statistics* given with the query win over the session's.  A
        cached plan that fails verification is invalidated and treated
        as a miss, exactly as if the lookup had missed.
        """
        options = self.options
        if statistics is None:
            statistics = self.resolve_statistics(query)
        context = None
        if options.verify:
            with obs.span("verify.context"):
                # imported lazily: repro.analysis depends on repro.core
                from ..analysis import VerificationContext

                context = VerificationContext.for_query(
                    query,
                    statistics=statistics,
                    partitioning=options.partitioning,
                    parameters=options.parameters,
                    seed=options.seed,
                )
        cached = None
        if self.plan_cache is not None:
            entry = (
                query, statistics, options.algorithm_key,
                options.parameters, options.partitioning,
            )
            cached = self.plan_cache.lookup(*entry)
            if (
                cached is not None
                and context is not None
                and not self._verify(cached, context, cached=True).ok
            ):
                self.plan_cache.invalidate(*entry)
                cached = None
        return statistics, context, cached

    def _search(
        self,
        query: BGPQuery,
        statistics: StatisticsCatalog,
        budget: Optional[QueryBudget],
    ) -> OptimizationResult:
        """The search, for every algorithm and every ``jobs``."""
        enumerator = self._build(query, statistics, budget)
        if self.options.jobs == 1:
            result: OptimizationResult = enumerator.optimize()
            return result
        from .cooperative import search

        return search(enumerator, self.options.jobs)

    def _build(
        self,
        query: BGPQuery,
        statistics: StatisticsCatalog,
        budget: Optional[QueryBudget],
    ) -> Any:
        """The one build site: this session's algorithm on *query*."""
        from .optimizer import ALGORITHMS, make_builder

        options = self.options
        with obs.span("build", patterns=len(query)):
            builder = make_builder(query, statistics, parameters=options.parameters)
            local_index = LocalQueryIndex(builder.join_graph, options.partitioning)
            return ALGORITHMS[options.algorithm_key](
                builder.join_graph,
                builder,
                local_index=local_index,
                budget=budget,
            )

    def _finish(
        self,
        query: BGPQuery,
        statistics: StatisticsCatalog,
        context: Any,
        result: OptimizationResult,
    ) -> OptimizationResult:
        """After the search: verify the fresh plan, then cache it."""
        if context is not None:
            self._verify(result, context, cached=False).raise_if_failed()
        if self.plan_cache is not None and not result.stats.degraded:
            # anytime-degraded plans are deliberately not cached: they
            # are the best answer under *this* deadline, not the query's
            # best plan, and must not shadow a future complete search
            self.plan_cache.store(
                query, statistics, self.options.algorithm_key, result,
                self.options.parameters, self.options.partitioning,
            )
        return result

    def _verify(self, result: OptimizationResult, context: Any, cached: bool) -> Any:
        """One ``verify`` span: the invariant report for *result*."""
        with obs.span("verify", cached=cached) as sp:
            from ..analysis import verify_result

            report = verify_result(result, context)
            sp.set(ok=report.ok)
        return report

    def __repr__(self) -> str:
        flags = [self.options.algorithm_key]
        if self.options.jobs > 1:
            flags.append(f"jobs={self.options.jobs}")
        if self.plan_cache is not None:
            flags.append(f"cache={len(self.plan_cache)}")
        if self.tracer is not None:
            flags.append(f"spans={len(self.tracer)}")
        return f"Optimizer({', '.join(flags)})"
