"""Top-down join enumeration with memoization (Algorithm 1, "TD-CMD").

``GetBestPlan`` recursively finds the cheapest k-ary bushy plan for
every connected subquery, memoizing results per subquery bitset.  For
each subquery it

1. short-cuts single patterns to scans,
2. seeds the best plan with the flat *local join* plan when the
   subquery is a local query for the configured partitioning,
3. tries every connected multi-division (Algorithm 3) with every
   feasible distributed join algorithm (broadcast, repartition),
   recursing into the parts.

The class is written so the TD-CMDP variant (:mod:`.pruning`) only has
to override :meth:`divisions` and the local-query short-circuit flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..observability import runtime as obs
from ..rdf.terms import Variable
from . import bitset as bs
from .cmd import enumerate_cmds
from .cost import PlanBuilder
from .governance import AnytimeExpiry, QueryBudget
from .join_graph import JoinGraph
from .local_query import LocalQueryIndex
from .plans import JoinAlgorithm, PlanNode


#: a costed division that won: enough to build (or ship) the plan
_Choice = Tuple[JoinAlgorithm, Tuple[int, ...], Variable]

_BROADCAST = JoinAlgorithm.BROADCAST
_REPARTITION = JoinAlgorithm.REPARTITION
_INFINITY = float("inf")


class OptimizationTimeout(Exception):
    """Raised when the optimizer exceeds its deadline (paper: 600 s)."""


class CartesianProductError(ValueError):
    """Raised for disconnected queries: no Cartesian-product-free plan."""


@dataclass(frozen=True)
class InvariantProfile:
    """Which *optional* plan invariants an algorithm's plans satisfy.

    The structural invariants of Section II-D (connectivity, disjoint
    exact cover, cost-model agreement) hold for every algorithm; this
    profile records the pruning-rule guarantees that depend on the
    variant, so the plan verifier knows what it may assert.
    """

    #: Rule 2 (Section IV-A): broadcast joins are binary-only.
    broadcast_binary_only: bool = False
    #: Rule 3 (Section IV-A): local subqueries are planned as the flat
    #: local join (every local join's children are scans anyway, so this
    #: is informational rather than an extra check).
    local_flat_only: bool = False


@dataclass
class SubqueryRecord:
    """Exclusive per-subquery counters from one ``BestPlanGen`` call.

    "Exclusive" means the candidates costed for this subquery only —
    recursion into child subqueries is recorded under their own bitsets.
    The candidate set of a subquery is a deterministic function of its
    bitset, so the records sum to the run's totals however the search
    reached each subquery: the serial enumerator keeps one per expanded
    subquery (:attr:`TopDownEnumerator.subquery_records`, exact even
    when a deadline fires mid-loop) and a memo-shard worker reports one
    per solved entry (see :mod:`.memo_shard`).
    """

    plans_considered: int = 0
    divisions_enumerated: int = 0
    local_short_circuits: int = 0


@dataclass
class EnumerationStats:
    """Counters the experiments report.

    ``plans_considered`` is the "size of the search space" of Table VII:
    the number of candidate plans actually constructed and costed.

    The ``workers`` / ``per_worker_*`` / ``speedup`` / ``steals``
    fields are filled only by the memo-sharded parallel search
    (:mod:`.memo_shard`); a serial run leaves them at their defaults
    (one worker, no breakdown).
    """

    plans_considered: int = 0
    divisions_enumerated: int = 0
    subqueries_expanded: int = 0
    memo_hits: int = 0
    local_short_circuits: int = 0
    #: number of search workers (1 = serial)
    workers: int = 1
    #: subqueries expanded by each worker (parallel search only)
    per_worker_subqueries: List[int] = field(default_factory=list)
    #: wall seconds spent inside each worker (parallel search only)
    per_worker_seconds: List[float] = field(default_factory=list)
    #: Σ worker seconds / parallel search wall seconds, with pool
    #: spin-up excluded from the denominator (parallel search only)
    speedup: float = 0.0
    #: chunks taken from a sibling's queue (parallel search only)
    steals: int = 0
    #: steals performed by each worker (parallel search only)
    per_worker_steals: List[int] = field(default_factory=list)
    #: min/max per-worker subquery share — 1.0 is perfectly balanced,
    #: 0.0 means at least one worker did nothing (parallel search only)
    worker_balance: float = 0.0
    #: seconds from pool spawn until the first worker was ready;
    #: excluded from the :attr:`speedup` denominator
    pool_startup_seconds: float = 0.0
    #: anytime mode returned a degraded (best-so-far / greedy) plan
    degraded: bool = False
    #: why the search degraded ("" unless :attr:`degraded`)
    degradation_reason: str = ""

    def summary(self) -> Dict[str, float]:
        """The headline counters as a flat dictionary.

        The counterpart of
        :meth:`repro.engine.metrics.ExecutionMetrics.summary`; the
        metrics-registry reconciliation test asserts these totals agree
        with the tracer-side ``optimizer.*`` counters.
        """
        data: Dict[str, float] = {
            "plans_considered": self.plans_considered,
            "divisions_enumerated": self.divisions_enumerated,
            "subqueries_expanded": self.subqueries_expanded,
            "memo_hits": self.memo_hits,
            "local_short_circuits": self.local_short_circuits,
        }
        if self.workers > 1:
            data["workers"] = self.workers
            data["speedup"] = self.speedup
            data["worker_balance"] = self.worker_balance
            data["steals"] = self.steals
        if self.degraded:
            data["degraded"] = 1.0
        return data

    def flush_to_metrics(self) -> None:
        """Mirror the counters into the active metrics registry.

        Called once per enumeration (never per candidate), so tracing
        keeps its zero-cost-when-disabled guarantee.  Each counter lands
        under ``optimizer.<field>``; the parallel search flushes the
        driver's merged stats once, like a serial run.
        """
        registry = obs.metrics()
        if registry is None:
            return
        for name, value in (
            ("plans_considered", self.plans_considered),
            ("divisions_enumerated", self.divisions_enumerated),
            ("subqueries_expanded", self.subqueries_expanded),
            ("memo_hits", self.memo_hits),
            ("local_short_circuits", self.local_short_circuits),
        ):
            registry.counter(f"optimizer.{name}").inc(value)
        if self.workers > 1:
            registry.counter("optimizer.steals").inc(self.steals)
            registry.gauge("optimizer.worker_balance").set(self.worker_balance)
        if self.degraded:
            registry.counter("governance.degraded").inc()


@dataclass
class OptimizationResult:
    """A plan plus the bookkeeping every experiment needs."""

    plan: PlanNode
    algorithm: str
    stats: EnumerationStats
    elapsed_seconds: float

    @property
    def cost(self) -> float:
        """The plan's estimated cost (Eq. 3)."""
        return self.plan.cost


class PlanSearch:
    """The frame all five searching optimizers run in.

    TD-CMD, TD-CMDP and the three baselines of :mod:`repro.baselines`
    share the inputs ``(join_graph, builder, local_index, budget)``, the
    counters, the ``enumerate`` span, the anytime ladder and — the point
    — the *one* budget poll (:meth:`_check_deadline`); a subclass
    supplies :meth:`_find_plan`.  HGR-TD-CMD and TD-Auto take the same
    constructor arguments and hand them to the search they delegate to.
    """

    algorithm_name = ""

    def __init__(
        self,
        join_graph: JoinGraph,
        builder: PlanBuilder,
        local_index: Optional[LocalQueryIndex] = None,
        budget: Optional[QueryBudget] = None,
    ) -> None:
        self.join_graph = join_graph
        self.builder = builder
        self.local_index = local_index or LocalQueryIndex(join_graph, None)
        #: governance envelope; ``None`` (ungoverned) keeps every poll a
        #: single ``is None`` test
        self.budget = budget
        self.stats = EnumerationStats()
        self._anytime = budget is not None and budget.anytime

    def optimize(self) -> OptimizationResult:
        """Find the best plan for the whole query.

        With a deadline and ``anytime`` on, expiry mid-search degrades
        to a *complete* plan (:meth:`_degraded_plan`) instead of
        raising; the result is flagged ``stats.degraded`` and the
        algorithm label gains an ``[anytime]`` suffix.  Without
        ``anytime``, expiry raises :class:`OptimizationTimeout`.
        """
        if not self.join_graph.is_connected(self.join_graph.full):
            raise CartesianProductError(
                "query is disconnected; Cartesian-product-free plans do not exist"
            )
        started = time.perf_counter()
        algorithm = self.algorithm_name
        with obs.span(
            "enumerate",
            algorithm=self.algorithm_name,
            patterns=self.join_graph.size,
        ) as sp:
            try:
                plan = self._find_plan()
            except AnytimeExpiry:
                plan, algorithm = self._degraded_plan()
            elapsed = time.perf_counter() - started
            sp.set(cost=plan.cost, **self.stats.summary())
            self.stats.flush_to_metrics()
        return OptimizationResult(
            plan=plan,
            algorithm=algorithm,
            stats=self.stats,
            elapsed_seconds=elapsed,
        )

    def _find_plan(self) -> PlanNode:
        """The search itself: the best plan for ``join_graph.full``."""
        raise NotImplementedError

    def _best_so_far(self) -> Optional[PlanNode]:
        """The best *complete* plan an interrupted search can vouch for."""
        return None

    def _check_deadline(self) -> None:
        """The budget poll: cancellation aborts, expiry times out."""
        budget = self.budget
        if budget is None:
            return
        budget.check_cancelled(phase="optimize")
        deadline = budget.deadline
        if deadline is not None and deadline.expired:
            if self._anytime:
                raise AnytimeExpiry()
            raise OptimizationTimeout(
                f"{self.algorithm_name} exceeded {deadline.seconds:g}s"
            )

    def _degraded_plan(self) -> Tuple[PlanNode, str]:
        """The anytime answer after expiry: best-so-far, else greedy.

        Degradation ladder (docs/RESILIENCE.md): (1) the best complete
        plan the search recorded (:meth:`_best_so_far` — TD-CMD's best
        root candidate, else its root's flat local seed plan), (2) the
        greedy fallback planner.  The returned label keeps the
        algorithm name as a prefix so ``profile_for_algorithm`` still
        applies the right verifier profile to anytime plans.
        """
        plan = self._best_so_far()
        if plan is not None:
            label = f"{self.algorithm_name}[anytime]"
            reason = "deadline: returned best complete plan so far"
        else:
            plan = greedy_fallback_plan(self.builder)
            label = f"{self.algorithm_name}[anytime-greedy]"
            reason = "deadline: no complete candidate; greedy fallback"
        self.stats.degraded = True
        self.stats.degradation_reason = reason
        obs.event("governance.degraded", algorithm=label, reason=reason)
        obs.count("governance.anytime_plans")
        return plan, label


class TopDownEnumerator(PlanSearch):
    """TD-CMD: exhaustive k-ary bushy enumeration over cmds."""

    algorithm_name = "TD-CMD"
    #: Rule 3 behaviour: TD-CMD keeps enumerating below local queries,
    #: TD-CMDP stops at the flat local plan.
    local_short_circuit = False

    def __init__(
        self,
        join_graph: JoinGraph,
        builder: PlanBuilder,
        local_index: Optional[LocalQueryIndex] = None,
        budget: Optional[QueryBudget] = None,
    ) -> None:
        super().__init__(join_graph, builder, local_index, budget)
        #: exclusive counters per expanded subquery (sum to ``stats``)
        self.subquery_records: Dict[int, SubqueryRecord] = {}
        self._memo: Dict[int, PlanNode] = {}
        self._root_bits = join_graph.full
        self._root_seed: Optional[PlanNode] = None
        self._root_choice: Optional[_Choice] = None

    def invariant_profile(self) -> InvariantProfile:
        """The optional invariants this enumerator's plans satisfy.

        TD-CMD prunes nothing, so its plans promise only the universal
        structural invariants (an empty profile).
        """
        return InvariantProfile()

    def _find_plan(self) -> PlanNode:
        return self.get_best_plan(self._root_bits, is_local=False)

    def _best_so_far(self) -> Optional[PlanNode]:
        """The best complete root candidate, else the root's local seed."""
        if self._root_choice is not None:
            return self._join_choice(self._root_choice)
        return self._root_seed

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def get_best_plan(self, bits: int, is_local: bool) -> PlanNode:
        """GetBestPlan: memoized best plan for the subquery *bits*."""
        cached = self._memo.get(bits)
        if cached is not None:
            self.stats.memo_hits += 1
            return cached
        if not is_local:
            is_local = self.local_index.is_local(bits)
        plan = self.best_plan_gen(bits, is_local)
        self._memo[bits] = plan
        return plan

    def best_plan_gen(self, bits: int, is_local: bool) -> PlanNode:
        """BestPlanGen: compare the candidate plans, build only the best.

        Costs are computed directly from child plans and the estimator
        (Eq. 3); the winning plan node is materialized once at the end,
        which keeps the per-candidate work at the Θ(1)-beyond-
        enumeration level the paper's complexity analysis assumes.
        """
        self._check_deadline()
        self.stats.subqueries_expanded += 1
        record = SubqueryRecord()
        self.subquery_records[bits] = record
        if not bits & (bits - 1):
            return self.builder.scan(bs.lowest_index(bits))
        _, seed, choice = self._search(
            bits, is_local, record, self._memo, self.get_best_plan
        )
        if choice is not None:
            return self._join_choice(choice)
        if seed is None:
            raise CartesianProductError(
                f"no connected division for subquery {bits:#x}"
            )
        return seed

    def _search(
        self,
        bits: int,
        is_local: bool,
        record: SubqueryRecord,
        memo: Dict[int, PlanNode],
        solve: Callable[[int, bool], PlanNode],
    ) -> Tuple[float, Optional[PlanNode], Optional[_Choice]]:
        """The one costing loop: price every division of *bits*.

        Returns ``(best cost, flat local seed plan or None, winning
        (operator, parts, variable) or None)`` — the choice is ``None``
        when the seed won (or Rule 3 stopped at it).  Nothing is built
        for a candidate: a child is one ``memo`` probe (only a miss
        calls *solve*, which must store what it returns), and Table I
        is evaluated in closed form with the per-subquery terms hoisted
        — the same float operations, in the same order and association,
        as :meth:`PlanBuilder.join` performs for the winner, so the
        minimum found here *is* the built plan's cost.  Candidates are
        compared with a strict ``<``: the first cheapest one wins.

        The serial search runs this with its own memo and
        :meth:`get_best_plan` (recursion on a miss); a memo-shard worker
        runs it with a memo of lower-tier costs (see
        :mod:`.memo_shard`).  Counters are kept in locals and flushed in
        a ``finally``, so a deadline that fires mid-loop still leaves
        ``stats`` and *record* exact.
        """
        stats = self.stats
        anytime_root = self._anytime and bits == self._root_bits
        seed: Optional[PlanNode] = None
        best_cost = _INFINITY
        if is_local:
            seed = self.builder.local_join_plan(bits)
            best_cost = seed.cost
            record.plans_considered += 1
            stats.plans_considered += 1
            if anytime_root:
                self._root_seed = seed
            if self.local_short_circuit:
                record.local_short_circuits += 1
                stats.local_short_circuits += 1
                return best_cost, seed, None
        parameters = self.builder.parameters
        output = self.builder.estimator.cardinality(bits)
        alpha = parameters.alpha
        beta_broadcast = parameters.beta_broadcast
        beta_repartition = parameters.beta_repartition
        cluster_size = parameters.cluster_size
        join_local = parameters.gamma_local * output
        join_broadcast = parameters.gamma_broadcast * output
        join_repartition = parameters.gamma_repartition * output
        lookup = memo.get
        choice: Optional[_Choice] = None
        plans = divisions = hits = 0
        try:
            for parts, variable, operators in self.divisions(bits):
                divisions += 1
                if not divisions & 0xFF:
                    self._check_deadline()
                # Σ|SQ_i|, max|SQ_i| and the dearest child, accumulated
                # left to right exactly as sum()/max() would
                total: float = 0
                largest = child_cost = -_INFINITY
                for part in parts:
                    child = lookup(part)
                    if child is None:
                        child = solve(part, is_local)
                    else:
                        hits += 1
                    cardinality = child.cardinality
                    total += cardinality
                    if cardinality > largest:
                        largest = cardinality
                    below = child.cost
                    if below > child_cost:
                        child_cost = below
                io = alpha * total
                for operator in operators:
                    if operator is _BROADCAST:
                        cost = child_cost + (
                            io
                            + beta_broadcast * (total - largest) * cluster_size
                            + join_broadcast
                        )
                    elif operator is _REPARTITION:
                        cost = child_cost + (
                            io + beta_repartition * total + join_repartition
                        )
                    else:
                        cost = child_cost + (io + 0.0 + join_local)
                    if cost < best_cost:
                        best_cost = cost
                        choice = (operator, parts, variable)
                plans += len(operators)
        finally:
            record.plans_considered += plans
            record.divisions_enumerated += divisions
            stats.plans_considered += plans
            stats.divisions_enumerated += divisions
            stats.memo_hits += hits
            if anytime_root and choice is not None:
                # every root candidate's children are complete memoized
                # plans, so this is always a complete plan — exactly
                # what anytime mode returns
                self._root_choice = choice
        return best_cost, seed, choice

    def _join_choice(self, choice: _Choice) -> PlanNode:
        """Materialize a winning division from its memoized children."""
        operator, parts, variable = choice
        memo = self._memo
        return self.builder.join(operator, [memo[part] for part in parts], variable)

    # ------------------------------------------------------------------
    # strategy hook
    # ------------------------------------------------------------------
    def divisions(
        self, bits: int
    ) -> Iterator[Tuple[Tuple[int, ...], Variable, Sequence[JoinAlgorithm]]]:
        """The division space: every cmd, with both distributed joins."""
        operators = (_BROADCAST, _REPARTITION)
        for parts, variable in enumerate_cmds(self.join_graph, bits):
            yield parts, variable, operators


def greedy_fallback_plan(
    builder: PlanBuilder, frontier: Optional[List[PlanNode]] = None
) -> PlanNode:
    """A complete plan in O(n³) time: the anytime last resort.

    Greedily merges the two connected frontier plans whose combined
    subquery has the smallest estimated cardinality, joining them with
    a binary repartition join on their lexicographically first shared
    variable.  Never optimal, but always Cartesian-product-free and
    costed by the same builder arithmetic as every other plan.  The
    merge joins are binary repartitions, so the result satisfies every
    optional verifier profile its *frontier* plans satisfy — plain
    scans (the default) trivially, and the memo-sharded search's
    solved-entry plans because they come out of the pruned enumeration
    itself; either way anytime plans pass
    :class:`~repro.analysis.plan_verifier.PlanVerifier` unchanged.

    *frontier* defaults to one scan per pattern; the memo-sharded
    anytime path passes the disjoint cover of the query by its largest
    solved entries instead (see :mod:`.memo_shard`).
    """
    join_graph = builder.join_graph
    if frontier is None:
        frontier = [builder.scan(index) for index in range(join_graph.size)]
    else:
        frontier = list(frontier)
    while len(frontier) > 1:  # lint: disable=LINT014 post-expiry anytime path: O(n³) in pattern count, a poll would re-raise the deadline it degrades from
        best_pair: Optional[Tuple[int, int]] = None
        best_key: Optional[Tuple[float, int]] = None
        for i in range(len(frontier)):  # lint: disable=LINT014 bounded by frontier size (≤ pattern count), same post-expiry rationale
            for j in range(i + 1, len(frontier)):
                combined = frontier[i].bits | frontier[j].bits
                if not join_graph.shared_variables(
                    frontier[i].bits, frontier[j].bits
                ):
                    continue
                key = (builder.estimator.cardinality(combined), combined)
                if best_key is None or key < best_key:
                    best_key = key
                    best_pair = (i, j)
        if best_pair is None:
            raise CartesianProductError(
                "greedy fallback found no connected pair to merge"
            )
        i, j = best_pair
        shared = join_graph.shared_variables(frontier[i].bits, frontier[j].bits)
        variable = sorted(shared, key=lambda v: v.name)[0]
        joined = builder.join(
            JoinAlgorithm.REPARTITION, [frontier[i], frontier[j]], variable
        )
        frontier = [
            plan for k, plan in enumerate(frontier) if k != i and k != j
        ]
        frontier.append(joined)
    return frontier[0]
