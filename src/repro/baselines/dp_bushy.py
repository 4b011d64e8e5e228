"""The DP-Bushy baseline (Huang, Venkatraman & Abadi, ICDE 2014).

A top-down dynamic program over subqueries that, at every level,
considers

* **all binary set divisions** — enumerated *without* checking
  connectivity in the join graph; divisions that turn out to be
  Cartesian products are only discarded after they were generated
  (Section III of the paper proves this gives exponential amortized
  complexity per join operator on chain and cycle queries, which is why
  the paper's Table VII reports N/A for DP-Bushy on large chains), and
* **one maximal multi-way join**: the division grouping the subquery
  around the join variable of highest degree, joining as many inputs
  as possible at once.

Local subqueries are seeded with the flat local-join plan, mirroring
how DP-Bushy exploits hash-partitioned co-location.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core import bitset as bs
from ..core.enumeration import CartesianProductError, PlanSearch
from ..core.join_graph import JoinGraph
from ..core.plans import JoinAlgorithm, PlanNode
from ..rdf.terms import Variable


class DPBushyOptimizer(PlanSearch):
    """Top-down DP with unchecked binary divisions + one maximal k-way join."""

    algorithm_name = "DP-Bushy"

    def _find_plan(self) -> PlanNode:
        """Run the top-down DP from the full query."""
        self._memo: Dict[int, Optional[PlanNode]] = {}
        plan = self._best_plan(self.join_graph.full)
        if plan is None:
            raise CartesianProductError("DP-Bushy produced no plan")
        return plan

    # ------------------------------------------------------------------
    def _best_plan(self, bits: int) -> Optional[PlanNode]:
        if bits in self._memo:
            self.stats.memo_hits += 1
            return self._memo[bits]
        self._check_deadline()
        self.stats.subqueries_expanded += 1
        if bs.popcount(bits) == 1:
            plan: Optional[PlanNode] = self.builder.scan(bs.lowest_index(bits))
            self._memo[bits] = plan
            return plan
        # disconnected subqueries have no Cartesian-product-free plan;
        # DP-Bushy discovers this only *after* recursing into them
        if not self.join_graph.is_connected(bits):
            self._memo[bits] = None
            return None
        best: Optional[PlanNode] = None
        if self.local_index.is_local(bits):
            best = self.builder.local_join_plan(bits)
            self.stats.plans_considered += 1
        best = self._try_binary_divisions(bits, best)
        best = self._try_maximal_multiway(bits, best)
        self._memo[bits] = best
        return best

    def _try_binary_divisions(
        self, bits: int, best: Optional[PlanNode]
    ) -> Optional[PlanNode]:
        """Every binary set division — connectivity checked only afterwards."""
        anchor = bs.lowest_bit(bits)
        rest = bits & ~anchor
        sub = rest
        while True:
            left = anchor | sub
            right = bits & ~left
            if right:
                self.stats.divisions_enumerated += 1
                # the inefficiency under study: recurse first, then let the
                # connectivity test inside the recursion reject the division
                left_plan = self._best_plan(left)
                right_plan = self._best_plan(right)
                if left_plan is not None and right_plan is not None:
                    for algorithm in (
                        JoinAlgorithm.BROADCAST,
                        JoinAlgorithm.REPARTITION,
                    ):
                        variable = self._shared_join_variable(left, right)
                        candidate = self.builder.join(
                            algorithm, [left_plan, right_plan], variable
                        )
                        self.stats.plans_considered += 1
                        if best is None or candidate.cost < best.cost:
                            best = candidate
            if sub == 0:
                break
            sub = (sub - 1) & rest
        return best

    def _try_maximal_multiway(
        self, bits: int, best: Optional[PlanNode]
    ) -> Optional[PlanNode]:
        """The k-way join with maximal k: group around the busiest variable."""
        division = maximal_multiway_division(self.join_graph, bits)
        if division is None:
            return best
        parts, variable = division
        if len(parts) < 3:
            return best  # binary case already covered
        children: List[PlanNode] = []
        for part in parts:
            child = self._best_plan(part)
            if child is None:
                return best
            children.append(child)
        self.stats.divisions_enumerated += 1
        candidate = self.builder.join(JoinAlgorithm.REPARTITION, children, variable)
        self.stats.plans_considered += 1
        if best is None or candidate.cost < best.cost:
            best = candidate
        return best

    def _shared_join_variable(self, left: int, right: int) -> Optional[Variable]:
        for variable in self.join_graph.join_variables:
            ntp = self.join_graph.ntp(variable)
            if ntp & left and ntp & right:
                return variable
        return None


def maximal_multiway_division(
    join_graph: JoinGraph, bits: int
) -> Optional[Tuple[List[int], Variable]]:
    """Group *bits* around its highest-degree join variable.

    Each pattern adjacent to the variable seeds one part; every other
    pattern is attached to the part it is (transitively) connected to
    once the variable is removed.  Returns ``None`` when no variable
    has degree ≥ 2 inside *bits* or some pattern cannot be attached.
    """
    best_variable: Optional[Variable] = None
    best_degree = 1
    for variable in join_graph.join_variables:
        degree = bs.popcount(join_graph.ntp(variable) & bits)
        if degree > best_degree:
            best_degree = degree
            best_variable = variable
    if best_variable is None:
        return None
    ntp = join_graph.ntp(best_variable) & bits
    parts: List[int] = []
    for component in join_graph.connected_components(bits, exclude=best_variable):
        seeds = component & ntp
        if seeds == 0:
            return None  # stranded component: no valid maximal division
        if bs.popcount(seeds) == 1:
            parts.append(component)
            continue
        # split the component among its seeds: grow each seed over the
        # component (minus the variable) in round-robin BFS
        assigned = {index: bs.bit(index) for index in bs.iter_bits(seeds)}
        claimed = seeds
        changed = True
        while claimed != component and changed:
            changed = False
            for index in list(assigned):
                frontier = (
                    join_graph.neighbors(assigned[index], exclude=best_variable)
                    & component
                    & ~claimed
                )
                if frontier:
                    grab = bs.lowest_bit(frontier)
                    assigned[index] |= grab
                    claimed |= grab
                    changed = True
        if claimed != component:
            return None
        parts.extend(assigned.values())
    return parts, best_variable
