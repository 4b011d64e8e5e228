"""A TriAD-style baseline: bottom-up binary bushy DP.

Gurajada et al.'s TriAD optimizer enumerates *binary* bushy plans with
a bottom-up dynamic program over connected subgraphs (in the spirit of
Moerkotte & Neumann's DPccp, which the paper cites as the optimally
efficient binary enumerator).  The paper excludes TriAD from its main
comparison because multi-way plans dominate binary plans on
MapReduce-like engines; we include it as an additional baseline and for
the ablation "how much do k-way joins buy?".
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core import bitset as bs
from ..core.counting import connected_subqueries
from ..core.enumeration import CartesianProductError, PlanSearch
from ..core.plans import JoinAlgorithm, PlanNode
from ..rdf.terms import Variable


class TriADOptimizer(PlanSearch):
    """Bottom-up DP over connected subqueries; binary joins only."""

    algorithm_name = "TriAD-DP"

    def _find_plan(self) -> PlanNode:
        """Fill the DP table bottom-up; return the full query's plan."""
        table: Dict[int, PlanNode] = {}
        for i in range(self.join_graph.size):
            table[bs.bit(i)] = self.builder.scan(i)
        order = self._connected_subqueries_by_size()
        for bits in order:
            if bits in table:
                continue
            self._check_deadline()
            self.stats.subqueries_expanded += 1
            best: Optional[PlanNode] = None
            if self.local_index.is_local(bits):
                best = self.builder.local_join_plan(bits)
                self.stats.plans_considered += 1
            anchor = bs.lowest_bit(bits)
            rest = bits & ~anchor
            sub = rest
            while True:
                left = anchor | sub
                right = bits & ~left
                if right and left in table and right in table:
                    if self._connected_pair(left, right):
                        self.stats.divisions_enumerated += 1
                        variable = self._shared_join_variable(left, right)
                        for algorithm in (
                            JoinAlgorithm.BROADCAST,
                            JoinAlgorithm.REPARTITION,
                        ):
                            candidate = self.builder.join(
                                algorithm, [table[left], table[right]], variable
                            )
                            self.stats.plans_considered += 1
                            if best is None or candidate.cost < best.cost:
                                best = candidate
                if sub == 0:
                    break
                sub = (sub - 1) & rest
            if best is not None:
                table[bits] = best
        plan = table.get(self.join_graph.full)
        if plan is None:
            raise CartesianProductError("TriAD-DP produced no plan")
        return plan

    # ------------------------------------------------------------------
    def _connected_subqueries_by_size(self) -> List[int]:
        """Every connected subquery of ≥ 2 patterns, smallest first.

        The enumeration is exponential on dense queries, so it polls the
        budget as it goes: a deadline bounds it, not just the DP after it.
        """
        subqueries: List[int] = []
        for count, sq in enumerate(connected_subqueries(self.join_graph)):
            if not count & 0xFF:
                self._check_deadline()
            if sq & (sq - 1):
                subqueries.append(sq)
        subqueries.sort(key=bs.popcount)
        return subqueries

    def _connected_pair(self, left: int, right: int) -> bool:
        """Both halves connected and sharing a join variable (no ×)."""
        if not self.join_graph.is_connected(left):
            return False
        if not self.join_graph.is_connected(right):
            return False
        return self._shared_join_variable(left, right) is not None

    def _shared_join_variable(self, left: int, right: int) -> Optional[Variable]:
        for variable in self.join_graph.join_variables:
            ntp = self.join_graph.ntp(variable)
            if ntp & left and ntp & right:
                return variable
        return None
