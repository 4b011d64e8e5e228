"""TD-CMDP: connected multi-division enumeration with pruning (Section IV-A).

Three pruning rules confine the search space of TD-CMD:

* **Rule 1** — for k-way joins with k > 2, only *connected
  complete-multi-divisions* (ccmds: every part contains exactly one
  pattern of Ntp(v_j)) are considered; binary divisions stay unpruned.
* **Rule 2** — broadcast joins are considered only for binary joins
  (only one input has to be shipped).
* **Rule 3** — a local subquery is planned as the flat local join,
  full stop; nothing below it is enumerated.

The paper notes this is very different from MSC's flattest-plan
heuristic: for every subquery TD-CMDP still considers all binary joins
*plus* the complete multi-way joins, at every level.

The rules can be toggled individually (keyword-only constructor flags),
which the ablation benchmark uses to price each rule separately.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence, Tuple

from ..observability import runtime as obs
from ..observability.metrics import Counter
from ..rdf.terms import Variable
from .cmd import enumerate_cmds, enumerate_cmds_pruned
from .cost import PlanBuilder
from .enumeration import InvariantProfile, TopDownEnumerator
from .governance import QueryBudget
from .join_graph import JoinGraph
from .local_query import LocalQueryIndex
from .plans import JoinAlgorithm


class PrunedTopDownEnumerator(TopDownEnumerator):
    """TD-CMDP: TD-CMD with Rules 1–3 (individually toggleable)."""

    algorithm_name = "TD-CMDP"

    def __init__(
        self,
        join_graph: JoinGraph,
        builder: PlanBuilder,
        local_index: Optional[LocalQueryIndex] = None,
        budget: Optional[QueryBudget] = None,
        *,
        rule1_ccmd_only: bool = True,
        rule2_binary_broadcast: bool = True,
        rule3_local_short_circuit: bool = True,
    ) -> None:
        super().__init__(join_graph, builder, local_index, budget)
        self.rule1_ccmd_only = rule1_ccmd_only
        self.rule2_binary_broadcast = rule2_binary_broadcast
        self.local_short_circuit = rule3_local_short_circuit  # Rule 3
        #: rule-hit counters, resolved once per enumerator (an enumerator
        #: lives inside exactly one optimize call, so the active registry
        #: cannot change under the cache); divisions() runs per subquery,
        #: and a lock-guarded registry lookup there is measurable
        self._rule_counters: Optional[Tuple[Counter, Counter, Counter]] = None

    def invariant_profile(self) -> InvariantProfile:
        """The invariants promised by the rules currently switched on."""
        return InvariantProfile(
            broadcast_binary_only=self.rule2_binary_broadcast,
            local_flat_only=self.local_short_circuit,
        )

    def divisions(
        self, bits: int
    ) -> Iterator[Tuple[Tuple[int, ...], Variable, Sequence[JoinAlgorithm]]]:
        """The pruned division space, with Rule 1/2 hit counting.

        With a metrics registry active, the divisions handed out are
        classified — binary cbd vs k > 2 multi-division, and whether
        Rule 2 pruned its broadcast candidate — and the counts are
        flushed when the generator is exhausted (or closed).  Rule 3
        hits are the ``optimizer.local_short_circuits`` counter.
        """
        registry = obs.metrics()
        if registry is None:
            return self._divisions(bits, None)
        counters = self._rule_counters
        if counters is None:
            counters = self._rule_counters = (
                registry.counter("pruning.rule1_binary_divisions"),
                registry.counter("pruning.rule1_multiway_divisions"),
                registry.counter("pruning.rule2_broadcast_prunes"),
            )
        return self._divisions(bits, counters)

    def _divisions(
        self, bits: int, counters: Optional[Tuple[Counter, Counter, Counter]]
    ) -> Iterator[Tuple[Tuple[int, ...], Variable, Sequence[JoinAlgorithm]]]:
        both = (JoinAlgorithm.BROADCAST, JoinAlgorithm.REPARTITION)
        multiway = (
            (JoinAlgorithm.REPARTITION,) if self.rule2_binary_broadcast else both
        )
        # Rule 1: k > 2 only through ccmds (cbds stay unpruned)
        space = enumerate_cmds_pruned if self.rule1_ccmd_only else enumerate_cmds
        # the rule hits are tallied here, where each division is
        # classified anyway, not in a wrapper generator around this one:
        # a second frame per division was most of what tracing cost
        binary_hits = multiway_hits = 0
        try:
            for parts, variable in space(self.join_graph, bits):
                if len(parts) == 2:
                    binary_hits += 1
                    yield parts, variable, both
                else:
                    multiway_hits += 1
                    yield parts, variable, multiway
        finally:
            if counters is not None:
                counters[0].inc(binary_hits)
                counters[1].inc(multiway_hits)
                if self.rule2_binary_broadcast:
                    counters[2].inc(multiway_hits)
