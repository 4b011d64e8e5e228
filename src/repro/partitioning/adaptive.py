"""Workload-adaptive online repartitioning (the AdPart/PHD-Store loop).

The paper's ``combine``/``distribute`` model fixes the layout before
the first query runs, so a skewed workload keeps paying repartition and
broadcast shipping forever.  PHD-Store and AdPart close the loop by
*observing* the workload and redistributing fragments online; this
module is that loop for the reproduction:

* :class:`RepartitioningAdvisor` mines hot predicates and recurring
  join patterns from execution metrics (the per-predicate shipped
  breakdown of :class:`~repro.engine.metrics.ExecutionMetrics`, or a
  :class:`~repro.observability.metrics.MetricsRegistry` snapshot) plus
  plan-cache hit statistics.  Heat decays geometrically over a sliding
  window of queries, so yesterday's hotspot ages out; a query shape is
  promoted once it both ships tuples and recurs (decayed occurrence
  count or accumulated plan-cache hits).
* :class:`MigrationProposal` is one ranked recommendation: co-locate a
  recurring join pattern's matches (the paper's hot-query
  redistribution) or replicate one hot predicate's full extent.
* :class:`AdaptiveCluster` applies proposals *incrementally* on a live
  cluster under a replication budget (a fraction of the dataset's
  triples), reusing the fail-stop replica machinery
  (:meth:`~repro.engine.cluster.Cluster.merge_replica`) so migrated
  fragments survive worker death, and bumping the layout ``epoch`` once
  per applied batch so in-flight pipelined scans restart cleanly.
* :class:`AdaptiveOverlay` is the :class:`PartitioningMethod` that
  *describes* the adapted layout.  Its name embeds a layout version and
  a fingerprint of the promoted hot queries/predicates, so plan-cache
  keys (which hash ``repr(partitioning)``) roll over precisely: entries
  optimized against the old layout simply stop matching, without
  touching entries for other partitionings.

The loop is driven by :meth:`repro.core.session.Optimizer.observe_execution`
(see ``docs/PERFORMANCE.md`` § Adaptive repartitioning).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set

from ..engine.cluster import Cluster
from ..rdf.dataset import Dataset
from ..rdf.terms import Variable
from ..rdf.triples import RDFGraph, Triple
from ..sparql.ast import BGPQuery
from .base import PartitioningMethod
from .dynamic import DynamicPartitioning, hot_query_matches

if TYPE_CHECKING:  # pragma: no cover - cycle guard (core depends on us)
    from ..core.governance import QueryBudget
    from ..engine.metrics import ExecutionMetrics

#: proposal kinds
COLOCATE = "colocate"
REPLICATE_PREDICATE = "replicate-predicate"

#: registry prefix of the per-predicate shipped counters the executor
#: flushes (``Executor._flush_metrics``); `ingest_snapshot` reads it
SHIPPED_PREDICATE_PREFIX = "engine.tuples_shipped.predicate."


def structural_signature(query: BGPQuery) -> str:
    """A canonical shape key: patterns with variables renamed, sorted.

    Two queries identical up to variable naming and pattern order share
    one signature, so the advisor's recurrence counting matches the
    plan cache's notion of "the same query again".
    """
    from ..core.plan_cache import canonical_variable_map

    mapping = canonical_variable_map(query)
    parts = [
        " ".join(
            f"?{mapping[t.name]}" if isinstance(t, Variable) else str(t)
            for t in tp.terms()
        )
        for tp in query
    ]
    return " | ".join(sorted(parts))


def _concrete_predicates(query: BGPQuery) -> Set[str]:
    """String forms of the concrete predicates appearing in *query*."""
    return {
        str(tp.predicate)
        for tp in query.patterns
        if not isinstance(tp.predicate, Variable)
    }


@dataclass(frozen=True)
class MigrationProposal:
    """One ranked layout change the advisor recommends.

    ``kind`` is :data:`COLOCATE` (pin each match of ``query`` onto one
    worker, the paper's hot-query redistribution) or
    :data:`REPLICATE_PREDICATE` (copy ``predicate``'s full extent onto
    every worker).  ``heat`` is the decayed shipped-tuples heat backing
    the recommendation — the ranking criterion.
    """

    kind: str
    key: str
    heat: float
    query: Optional[BGPQuery] = None
    predicate: Optional[str] = None

    @property
    def label(self) -> str:
        """A short human-readable identifier for logs and spans."""
        key = self.key if len(self.key) <= 60 else self.key[:57] + "..."
        return f"{self.kind}[{key}]"


@dataclass
class AdaptationReport:
    """What one :meth:`AdaptiveCluster.apply` batch actually did."""

    applied: List[MigrationProposal] = field(default_factory=list)
    skipped: List[MigrationProposal] = field(default_factory=list)
    #: worker-fragment merges performed (one per (proposal, worker))
    migrations: int = 0
    #: extra triples stored by this batch, summed across workers
    replicated_triples: int = 0
    #: the cluster layout epoch after the batch
    epoch: int = 0

    @property
    def changed(self) -> bool:
        """Whether any proposal was applied."""
        return bool(self.applied)


class RepartitioningAdvisor:
    """Mines workload heat and proposes budgeted layout changes.

    Feed it one :meth:`observe` call per executed query (the session's
    :meth:`~repro.core.session.Optimizer.observe_execution` does this);
    every :attr:`adapt_every` observations :meth:`due` turns true and
    :meth:`propose` returns a ranked proposal list for
    :meth:`AdaptiveCluster.apply`.

    Heat bookkeeping: every observation first multiplies all heat by
    ``1 - 1/window`` (a geometric decay whose mass concentrates on the
    last *window* queries), then credits the query shape with the run's
    ``total_tuples_shipped`` and each predicate with its share of the
    per-predicate breakdown.  A shape is only promoted once its decayed
    occurrence count plus its plan-cache hits reach
    :attr:`min_recurrence` — one-off analytical queries never trigger a
    migration, no matter how much they shipped.
    """

    def __init__(
        self,
        *,
        adapt_every: int = 16,
        window: int = 64,
        max_proposals: int = 4,
        min_recurrence: float = 3.0,
        predicate_share: float = 0.5,
    ) -> None:
        if adapt_every < 1:
            raise ValueError(f"adapt_every must be >= 1, got {adapt_every}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if max_proposals < 1:
            raise ValueError(f"max_proposals must be >= 1, got {max_proposals}")
        if not 0.0 < predicate_share <= 1.0:
            raise ValueError(
                f"predicate_share must be in (0, 1], got {predicate_share}"
            )
        self.adapt_every = adapt_every
        self.window = window
        self.max_proposals = max_proposals
        self.min_recurrence = min_recurrence
        self.predicate_share = predicate_share
        self._decay = 1.0 - 1.0 / window
        #: decayed shipped-tuples heat per query shape
        self._query_heat: Dict[str, float] = {}
        #: decayed occurrence count per query shape
        self._query_seen: Dict[str, float] = {}
        #: high-water plan-cache hits per query shape (recurrence proof)
        self._cache_hits: Dict[str, int] = {}
        #: a representative query object per shape
        self._queries: Dict[str, BGPQuery] = {}
        #: concrete predicates per shape (precomputed for propose())
        self._query_predicates: Dict[str, Set[str]] = {}
        #: decayed shipped-tuples heat per predicate
        self._predicate_heat: Dict[str, float] = {}
        #: keys already promoted (or rejected for budget) — never re-proposed
        self._handled: Set[str] = set()
        #: concrete predicates covered by promoted co-locations
        self._covered_predicates: Set[str] = set()
        self.observations = 0

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def observe(
        self,
        query: BGPQuery,
        metrics: "ExecutionMetrics",
        cache_hits: int = 0,
    ) -> None:
        """Fold one executed query's metrics into the heat tables.

        *cache_hits* is the accumulated plan-cache hit count for this
        query's cache entry (``PlanCache.hits_for``): repetition served
        from the cache is recurrence evidence even though the optimizer
        never re-ran.
        """
        self.observations += 1
        self._age()
        sig = structural_signature(query)
        self._queries.setdefault(sig, query)
        self._query_predicates.setdefault(sig, _concrete_predicates(query))
        self._query_seen[sig] = self._query_seen.get(sig, 0.0) + 1.0
        if cache_hits > self._cache_hits.get(sig, 0):
            self._cache_hits[sig] = cache_hits
        shipped = float(metrics.total_tuples_shipped)
        if shipped > 0.0:
            self._query_heat[sig] = self._query_heat.get(sig, 0.0) + shipped
        breakdown = sorted(metrics.shipped_by_predicate.items())
        for predicate, count in breakdown:
            self._predicate_heat[predicate] = self._predicate_heat.get(
                predicate, 0.0
            ) + float(count)

    def ingest_snapshot(self, snapshot: Mapping[str, Mapping[str, object]]) -> None:
        """Fold a :meth:`MetricsRegistry.snapshot` into the predicate heat.

        Cross-process input path: a driver that only has registry dumps
        (e.g. merged from worker processes) can still heat predicates —
        every ``engine.tuples_shipped.predicate.<p>`` counter is
        credited to ``<p>``.  Query-shape heat needs :meth:`observe`.
        """
        counters = snapshot.get("counters", {})
        shipped_counters = sorted(
            (name, value)
            for name, value in counters.items()
            if name.startswith(SHIPPED_PREDICATE_PREFIX)
        )
        for name, value in shipped_counters:
            predicate = name[len(SHIPPED_PREDICATE_PREFIX):]
            self._predicate_heat[predicate] = self._predicate_heat.get(
                predicate, 0.0
            ) + float(value)  # type: ignore[arg-type]

    def _age(self) -> None:
        """One decay step: heat slides over the last *window* queries."""
        decay = self._decay
        self._query_heat = {k: v * decay for k, v in self._query_heat.items()}
        self._query_seen = {k: v * decay for k, v in self._query_seen.items()}
        self._predicate_heat = {
            k: v * decay for k, v in self._predicate_heat.items()
        }

    def _recurrence(self, sig: str) -> float:
        """Decayed occurrences plus plan-cache hits for one shape."""
        return self._query_seen.get(sig, 0.0) + float(self._cache_hits.get(sig, 0))

    # ------------------------------------------------------------------
    # the adaptation cadence
    # ------------------------------------------------------------------
    def due(self) -> bool:
        """Whether an adaptation round should run now."""
        return self.observations > 0 and self.observations % self.adapt_every == 0

    def propose(self) -> List[MigrationProposal]:
        """The ranked layout changes supported by the current heat.

        Co-locations for recurring shapes that ship, then predicate
        replications for predicates whose heat dominates the window
        (:attr:`predicate_share` of total predicate heat) without being
        explained by a promoted co-location.  At most
        :attr:`max_proposals` per round, hottest first.
        """
        proposals: List[MigrationProposal] = []
        hot_predicates = set(self._covered_predicates)
        ranked_shapes = sorted(
            self._query_heat.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for sig, heat in ranked_shapes:
            if len(proposals) >= self.max_proposals:
                break
            if sig in self._handled or heat <= 0.0:
                continue
            if self._recurrence(sig) < self.min_recurrence:
                continue
            proposals.append(
                MigrationProposal(
                    kind=COLOCATE, key=sig, heat=heat, query=self._queries[sig]
                )
            )
            hot_predicates.update(self._query_predicates[sig])
        total_heat = sum(self._predicate_heat.values())
        ranked_predicates = sorted(
            self._predicate_heat.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for predicate, heat in ranked_predicates:
            if len(proposals) >= self.max_proposals:
                break
            if predicate in self._handled or predicate in hot_predicates:
                continue
            if heat <= 0.0 or heat < self.predicate_share * total_heat:
                continue
            proposals.append(
                MigrationProposal(
                    kind=REPLICATE_PREDICATE,
                    key=predicate,
                    heat=heat,
                    predicate=predicate,
                )
            )
        proposals.sort(key=lambda p: (-p.heat, p.kind, p.key))
        return proposals

    def mark_handled(self, report: AdaptationReport) -> None:
        """Retire every proposal the cluster applied *or* skipped.

        Budget-skipped proposals are retired too: the budget only
        shrinks, so re-proposing them every round would spin forever.
        """
        decided = report.applied + report.skipped
        for proposal in decided:
            self._handled.add(proposal.key)
            if proposal.kind == COLOCATE and proposal.query is not None:
                self._covered_predicates.update(_concrete_predicates(proposal.query))

    def __repr__(self) -> str:
        return (
            f"RepartitioningAdvisor(observations={self.observations}, "
            f"shapes={len(self._query_heat)}, "
            f"predicates={len(self._predicate_heat)}, "
            f"handled={len(self._handled)})"
        )


class AdaptiveOverlay(DynamicPartitioning):
    """The partitioning method describing an adapted layout.

    A :class:`~repro.partitioning.dynamic.DynamicPartitioning` (base
    method + promoted hot queries) extended with fully replicated
    predicates.  Because every worker holds a replicated predicate's
    complete extent, :meth:`combine_query` may soundly absorb any
    pattern over such a predicate into a maximal local query it shares
    a variable with — the local join loses no matches.

    The ``name`` (and therefore ``repr``, which the plan cache hashes)
    embeds a layout ``version`` plus a fingerprint of the promoted hot
    queries and predicates, so plan-cache entries keyed on an older
    layout stop matching exactly when the layout changes.
    """

    def __init__(
        self,
        base: PartitioningMethod,
        hot_queries: Sequence[BGPQuery],
        replicated_predicates: Iterable[str] = (),
        version: int = 0,
    ) -> None:
        super().__init__(base, hot_queries)
        self.replicated_predicates = tuple(sorted(set(replicated_predicates)))
        self.version = version
        signatures = sorted(structural_signature(q) for q in self.hot_queries)
        payload = "\n".join(signatures + list(self.replicated_predicates))
        self.fingerprint = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]
        self.name = (
            f"adaptive({base.name}+{len(self.hot_queries)}hot"
            f"+{len(self.replicated_predicates)}pred"
            f"@v{version}:{self.fingerprint})"
        )

    def partition(self, dataset: Dataset, cluster_size: int):  # type: ignore[override]
        """Build the adapted layout from scratch (fresh clusters).

        ``DynamicPartitioning.partition`` co-locates the hot-query
        matches; on top, every replicated predicate's extent is copied
        onto every node.  :meth:`AdaptiveCluster.apply` produces the
        same layout incrementally on a live cluster.
        """
        partitioning = super().partition(dataset, cluster_size)
        if self.replicated_predicates:
            replicated = set(self.replicated_predicates)
            extent = [
                t for t in dataset.graph if str(t.predicate) in replicated
            ]
            for node in range(cluster_size):  # lint: disable=LINT014 bounded by cluster size; layout build, not a query path
                partitioning.add_triples(node, extent)
        return partitioning

    def combine_query(self, vertex, query_graph):  # type: ignore[override]
        base_mlq = super().combine_query(vertex, query_graph)
        if not self.replicated_predicates:
            return base_mlq
        replicated = set(self.replicated_predicates)
        grown = set(base_mlq)
        candidates = [
            tp
            for tp in query_graph.query.patterns
            if tp not in grown and str(tp.predicate) in replicated
        ]
        # absorb replicated-predicate patterns connected to the local
        # core: every worker holds their full extent, so the local join
        # sees every possible partner of its co-located rows
        grew = True
        while grew:  # lint: disable=LINT014 bounded by query size (<= 64 patterns)
            grew = False
            for tp in list(candidates):  # lint: disable=LINT014 bounded by query size (<= 64 patterns)
                touches = any(
                    tp.variables() & other.variables() for other in grown
                )
                if touches:
                    grown.add(tp)
                    candidates.remove(tp)
                    grew = True
        return frozenset(grown)


class AdaptiveCluster(Cluster):
    """A cluster that migrates fragments online under a budget.

    Wraps the base :class:`~repro.engine.cluster.Cluster` with a
    durable *adaptive layout*: every triple a proposal placed on a
    worker is recorded per slot and re-merged on :meth:`heal`, exactly
    like ``partitioning.fragments`` is the durable replica for the
    static layout.  Fail-stop re-routing needs no changes — a dead
    worker's served graph (base partition plus adaptive placements)
    already migrates to the re-route target through
    :meth:`~repro.engine.cluster.Cluster.merge_replica`.
    """

    def __init__(
        self,
        partitioning,
        dictionary=None,
        *,
        dataset: Dataset,
        base_method: PartitioningMethod,
    ) -> None:
        super().__init__(partitioning, dictionary)
        self.dataset = dataset
        self.base_method = base_method
        #: query shapes promoted to co-location, in promotion order
        self.hot_queries: List[BGPQuery] = []
        #: predicates promoted to full replication, in promotion order
        self.replicated_predicates: List[str] = []
        #: extra triples stored by adaptation, summed across workers
        self.replicated_triples = 0
        #: worker-fragment merges performed by adaptation
        self.migrations = 0
        #: bumped once per applied batch (plan-cache fingerprint input)
        self.layout_version = 0
        #: durable adaptive placements per worker slot; :meth:`heal`
        #: restores them after the base layout reset
        self._adaptive_layout: Dict[int, RDFGraph] = {}

    @classmethod
    def build(  # type: ignore[override]
        cls, dataset: Dataset, method: PartitioningMethod, cluster_size: int = 10
    ) -> "AdaptiveCluster":
        """Partition *dataset* with *method* and wrap it adaptively."""
        return cls(
            method.partition(dataset, cluster_size),
            dataset=dataset,
            base_method=method,
        )

    # ------------------------------------------------------------------
    # applying proposals
    # ------------------------------------------------------------------
    def apply(
        self,
        proposals: Sequence[MigrationProposal],
        *,
        replication_budget: float,
        budget: Optional["QueryBudget"] = None,
    ) -> AdaptationReport:
        """Apply *proposals* in rank order under the replication budget.

        The budget is a fraction of the dataset's triples: total extra
        stored copies (summed over workers, cumulative across batches)
        never exceed ``replication_budget * len(dataset.graph)``.  A
        proposal that does not fit is skipped, cheaper ones after it
        may still apply.  The layout ``epoch`` is bumped **once** per
        batch that changed anything, so in-flight pipelined scans
        restart against the new layout exactly once.

        *budget* (a :class:`~repro.core.governance.QueryBudget`) is
        polled throughout the migration loops — a deadline or
        cancellation interrupts adaptation like any other phase.
        """
        if replication_budget < 0:
            raise ValueError(
                f"replication_budget must be >= 0, got {replication_budget}"
            )
        allowance = (
            int(replication_budget * len(self.dataset.graph))
            - self.replicated_triples
        )
        report = AdaptationReport(epoch=self.epoch)
        for proposal in proposals:
            self._poll(budget)
            additions = self._plan_proposal(proposal, budget)
            cost = sum(len(graph) for graph in additions.values())
            if cost > allowance:
                report.skipped.append(proposal)
                continue
            allowance -= cost
            merges = self._merge_additions(additions, budget)
            report.applied.append(proposal)
            report.migrations += merges
            report.replicated_triples += cost
            if proposal.kind == COLOCATE and proposal.query is not None:
                self.hot_queries.append(proposal.query)
            elif proposal.predicate is not None:
                self.replicated_predicates.append(proposal.predicate)
        if report.applied:
            self.replicated_triples += report.replicated_triples
            self.migrations += report.migrations
            self.layout_version += 1
            self.epoch += 1
        report.epoch = self.epoch
        return report

    def adapted_method(self) -> PartitioningMethod:
        """The partitioning method describing the current layout.

        The base method until anything was applied; afterwards an
        :class:`AdaptiveOverlay` whose versioned name rolls plan-cache
        keys over to the new layout.
        """
        if not self.hot_queries and not self.replicated_predicates:
            return self.base_method
        return AdaptiveOverlay(
            self.base_method,
            list(self.hot_queries),
            self.replicated_predicates,
            version=self.layout_version,
        )

    def heal(self) -> None:
        """Base heal, then restore the durable adaptive placements."""
        super().heal()
        restored = sorted(self._adaptive_layout)
        for worker in restored:  # lint: disable=LINT014 bounded by cluster size
            self.merge_replica(worker, self._adaptive_layout[worker])
        if restored:
            self.epoch += 1

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _poll(budget: Optional["QueryBudget"]) -> None:
        """One cooperative governance check inside migration loops."""
        if budget is not None:
            budget.check_deadline(phase="adapt", operator="adaptive.apply")
            budget.check_cancelled(phase="adapt", operator="adaptive.apply")

    def _plan_proposal(
        self,
        proposal: MigrationProposal,
        budget: Optional["QueryBudget"],
    ) -> Dict[int, RDFGraph]:
        """Per-worker triples the proposal would add (nothing mutated).

        Costing happens against this plan *before* any merge, so a
        proposal either fits the budget entirely or is skipped whole.
        """
        additions: Dict[int, RDFGraph] = {}
        if proposal.kind == COLOCATE:
            if proposal.query is None:
                raise ValueError(f"colocate proposal {proposal.key!r} has no query")
            matches = hot_query_matches(self.dataset, proposal.query)
            for anchor, triples in matches:
                self._poll(budget)
                node = self.route(anchor)
                bucket = additions.setdefault(node, RDFGraph())
                served = self.worker_graph(node)
                bucket.add_all(t for t in triples if t not in served)
        elif proposal.kind == REPLICATE_PREDICATE:
            if proposal.predicate is None:
                raise ValueError(
                    f"replicate proposal {proposal.key!r} has no predicate"
                )
            extent = [
                t
                for t in self.dataset.graph
                if str(t.predicate) == proposal.predicate
            ]
            for worker in range(self.size):
                self._poll(budget)
                served = self.worker_graph(worker)
                bucket = additions.setdefault(worker, RDFGraph())
                bucket.add_all(t for t in extent if t not in served)
        else:
            raise ValueError(f"unknown proposal kind {proposal.kind!r}")
        return additions

    def _merge_additions(
        self,
        additions: Dict[int, RDFGraph],
        budget: Optional["QueryBudget"],
    ) -> int:
        """Merge a planned proposal into the live layout; count merges.

        Each placement is recorded in the durable adaptive layout (so
        :meth:`heal` restores it) and merged into the worker's served
        graph through the shared replica primitive.  Dead workers only
        get the durable record — they pick the triples up on heal,
        while their traffic is already folded onto live workers.
        """
        merges = 0
        workers = sorted(additions)
        for worker in workers:
            self._poll(budget)
            triples = additions[worker]
            if len(triples) == 0:
                continue
            layout = self._adaptive_layout.setdefault(worker, RDFGraph())
            layout.add_all(triples)
            if self.is_live(worker):
                self.merge_replica(worker, triples)
                merges += 1
        return merges

    def __repr__(self) -> str:
        return (
            f"AdaptiveCluster({self.size} workers, "
            f"method={self.partitioning.method_name}, "
            f"hot={len(self.hot_queries)}, "
            f"predicates={len(self.replicated_predicates)}, "
            f"replicated_triples={self.replicated_triples}, "
            f"version={self.layout_version})"
        )
