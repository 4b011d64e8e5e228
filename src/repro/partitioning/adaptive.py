"""Workload-adaptive online repartitioning (the AdPart/PHD-Store loop).

The paper's ``combine``/``distribute`` model fixes the layout before
the first query runs, so a skewed workload keeps paying repartition and
broadcast shipping forever.  PHD-Store and AdPart close the loop by
*observing* the workload and redistributing fragments online; this
module is that loop for the reproduction:

* :class:`RepartitioningAdvisor` mines hot predicates and recurring
  join patterns from execution metrics (the per-predicate shipped
  breakdown of :class:`~repro.engine.metrics.ExecutionMetrics`) plus
  plan-cache hit statistics.  Heat decays geometrically over a sliding
  window of queries, so yesterday's hotspot ages out; a query shape is
  promoted once it both ships tuples and recurs (decayed occurrence
  count or accumulated plan-cache hits).
* :class:`MigrationProposal` is one ranked recommendation: co-locate a
  recurring join pattern's matches (the paper's hot-query
  redistribution) or replicate one hot predicate's full extent.
* :class:`AdaptiveCluster` applies proposals *incrementally* on a live
  cluster under a replication budget (a fraction of the dataset's
  triples).  What a proposal places is computed by the same
  :func:`~repro.partitioning.dynamic.hot_placements` a from-scratch
  :class:`~repro.partitioning.dynamic.DynamicPartitioning` uses and
  sets bits in the durable replica, the partitioning's node masks, so
  it survives worker death and :meth:`~repro.engine.cluster.Cluster.heal`
  like any static placement; the layout ``epoch`` is bumped once per
  applied batch so in-flight pipelined scans restart cleanly.

The adapted layout is *described* by a ``DynamicPartitioning`` over the
promoted hot queries and predicates
(:meth:`AdaptiveCluster.adapted_method`); its ``repr`` spells out
their signatures, so plan-cache keys (which carry
``repr(partitioning)``) roll over precisely: entries optimized against
the old layout simply stop matching, without touching entries for other
partitionings.

The loop is driven by :meth:`repro.core.session.Optimizer.observe_execution`
(see ``docs/PERFORMANCE.md`` § Adaptive repartitioning).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set

from ..engine.cluster import Cluster
from ..rdf.dataset import Dataset
from ..rdf.terms import Variable
from ..sparql.ast import BGPQuery
from .base import PartitioningMethod
from .dynamic import DynamicPartitioning, hot_placements, poll, structural_signature

if TYPE_CHECKING:  # pragma: no cover - cycle guard (core depends on us)
    from ..core.governance import QueryBudget
    from ..engine.metrics import ExecutionMetrics

#: proposal kinds
COLOCATE = "colocate"
REPLICATE_PREDICATE = "replicate-predicate"

#: heat slides over the last WINDOW observed queries
WINDOW = 64
#: proposals per adaptation round, hottest first
MAX_PROPOSALS = 4
#: decayed occurrences plus plan-cache hits a shape needs to be promoted
MIN_RECURRENCE = 3.0
#: share of the window's predicate heat one predicate needs to be replicated
PREDICATE_SHARE = 0.5


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


@dataclass
class AdaptationReport:
    """What one :meth:`AdaptiveCluster.apply` batch actually did."""

    applied: List[MigrationProposal] = field(default_factory=list)
    skipped: List[MigrationProposal] = field(default_factory=list)
    #: worker fragments grown (one per (proposal, worker) that gained a triple)
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
    ``1 - 1/WINDOW`` (a geometric decay whose mass concentrates on the
    last :data:`WINDOW` queries), then credits the query shape with the
    run's ``total_tuples_shipped`` and each predicate with its share of
    the per-predicate breakdown.  A shape is only promoted once its
    decayed occurrence count plus its plan-cache hits reach
    :data:`MIN_RECURRENCE` — one-off analytical queries never trigger a
    migration, no matter how much they shipped.
    """

    def __init__(self, *, adapt_every: int = 16) -> None:
        if adapt_every < 1:
            raise ValueError(f"adapt_every must be >= 1, got {adapt_every}")
        self.adapt_every = adapt_every
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

    def _age(self) -> None:
        """One decay step: heat slides over the last WINDOW queries."""
        decay = 1.0 - 1.0 / WINDOW
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
        (:data:`PREDICATE_SHARE` of total predicate heat) without being
        explained by a promoted co-location.  At most
        :data:`MAX_PROPOSALS` per round, hottest first.
        """
        proposals: List[MigrationProposal] = []
        hot_predicates = set(self._covered_predicates)
        ranked_shapes = sorted(
            self._query_heat.items(), key=lambda kv: (-kv[1], kv[0])
        )
        for sig, heat in ranked_shapes:
            if len(proposals) >= MAX_PROPOSALS:
                break
            if sig in self._handled or heat <= 0.0:
                continue
            if self._recurrence(sig) < MIN_RECURRENCE:
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
            if len(proposals) >= MAX_PROPOSALS:
                break
            if predicate in self._handled or predicate in hot_predicates:
                continue
            if heat <= 0.0 or heat < PREDICATE_SHARE * total_heat:
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


class AdaptiveCluster(Cluster):
    """A cluster that migrates fragments online under a budget.

    Adapted placements go where static ones are: bits in the durable
    replica, the partitioning's node masks.  So fail-stop re-routing
    needs no changes: the re-route target serves the dead worker's bits,
    base partition and placements alike (also those of a batch applied
    while it is down), and :meth:`~repro.engine.cluster.Cluster.heal`
    restores them.
    """

    def __init__(
        self,
        partitioning,
        *,
        dataset: Dataset,
        base_method: PartitioningMethod,
    ) -> None:
        super().__init__(partitioning)
        self.dataset = dataset
        self.base_method = base_method
        #: query shapes promoted to co-location, in promotion order
        self.hot_queries: List[BGPQuery] = []
        #: predicates promoted to full replication, in promotion order
        self.replicated_predicates: List[str] = []
        #: extra triples stored by adaptation, summed across workers
        self.replicated_triples = 0
        #: worker fragments grown by adaptation
        self.migrations = 0
        #: bumped once per applied batch
        self.layout_version = 0

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
        proposal is priced — the positions whose mask lacks the node's
        bit — before any bit is set, so it either fits
        entirely or is skipped whole; cheaper ones after it may still
        apply.  The layout ``epoch`` is bumped **once** per batch that
        changed anything, so in-flight pipelined scans restart against
        the new layout exactly once.

        *budget* (a :class:`~repro.core.governance.QueryBudget`) is
        polled while each proposal is priced — a deadline or cancellation
        interrupts adaptation like any other phase.  A priced proposal is
        committed whole and counted at once, so an abort leaves the
        proposals before it applied, counted and described by
        :meth:`adapted_method`, the epoch bumped once if any was.
        """
        if replication_budget < 0:
            raise ValueError(
                f"replication_budget must be >= 0, got {replication_budget}"
            )
        limit = int(replication_budget * len(self.dataset.graph))
        report = AdaptationReport(epoch=self.epoch)
        partitioning = self.partitioning
        try:
            for proposal in proposals:
                poll(budget)
                if proposal.kind == COLOCATE and proposal.query is not None:
                    hot, predicates = [proposal.query], []
                elif proposal.kind == REPLICATE_PREDICATE and proposal.predicate is not None:
                    hot, predicates = [], [proposal.predicate]
                else:
                    raise ValueError(f"malformed proposal {proposal!r}")
                masks = partitioning.masks
                additions = {  # the positions whose mask lacks the node's bit, each once
                    node: [p for p in dict.fromkeys(positions) if not masks[p] >> node & 1]
                    for node, positions in hot_placements(
                        partitioning.table, self.size, hot, predicates, budget
                    ).items()
                }
                cost = sum(map(len, additions.values()))
                if self.replicated_triples + cost > limit:
                    report.skipped.append(proposal)
                    continue
                # priced: commit whole and count at once, polling nothing
                if cost:
                    partitioning.place(additions)
                grown = sum(map(bool, additions.values()))
                report.migrations += grown
                self.migrations += grown
                report.applied.append(proposal)
                report.replicated_triples += cost
                self.replicated_triples += cost
                self.hot_queries += hot
                self.replicated_predicates += predicates
        finally:
            # once per batch, also when an abort or a bad proposal ends it early
            if report.applied:
                self.layout_version += 1
                self.epoch += 1
            report.epoch = self.epoch
        return report

    def adapted_method(self) -> PartitioningMethod:
        """The partitioning method describing the current layout: the
        base method until anything was applied, afterwards a
        :class:`~repro.partitioning.dynamic.DynamicPartitioning` whose
        ``partition`` builds this very layout from scratch."""
        if not self.hot_queries and not self.replicated_predicates:
            return self.base_method
        return DynamicPartitioning(
            self.base_method, self.hot_queries, self.replicated_predicates
        )

    def __repr__(self) -> str:
        return (
            f"AdaptiveCluster({self.size} workers, "
            f"method={self.partitioning.method_name}, "
            f"hot={len(self.hot_queries)}, "
            f"predicates={len(self.replicated_predicates)}, "
            f"replicated_triples={self.replicated_triples}, "
            f"version={self.layout_version})"
        )
