"""The MSC baseline: CliqueSquare-style flat plans via minimum set cover.

Goasdoué et al.'s CliqueSquare optimizer ("MSC" in the paper) builds
*flat* plans level by level.  At every level the current intermediate
results are grouped into *cliques* — one per join variable, containing
every node whose result carries that variable — and an **exact minimum
set cover** of the nodes by cliques decides which multi-way joins to
apply.  All minimum covers are enumerated and the construction branches
on each, so the per-level work is exponential (minimum set cover is
NP-hard), which is precisely the inefficiency Section III of the paper
criticizes: optimization time explodes with the number of patterns
(L9 takes 432 s, L10 more than 10 h in the paper's Table IV).

First-level joins that are local queries for the configured
partitioning run as local joins (CliqueSquare's co-located star joins
under hash partitioning); everything else uses repartition joins —
flat plans cannot exploit broadcast joins, which is why MSC loses on
the paper's tree-shaped benchmarks (L6, U3, U4).
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core import bitset as bs
from ..core.enumeration import CartesianProductError, PlanSearch
from ..core.plans import JoinAlgorithm, PlanNode
from ..rdf.terms import Variable


def _subsets_containing(members: FrozenSet[int], element: int):
    """All subsets of *members* that contain *element* (largest first)."""
    others = sorted(members - {element}, reverse=True)
    for mask in range((1 << len(others)) - 1, -1, -1):
        subset = {element}
        for i, value in enumerate(others):
            if mask & (1 << i):
                subset.add(value)
        yield frozenset(subset)


def minimum_set_covers(
    universe: FrozenSet[int],
    candidates: Sequence[Tuple[Variable, FrozenSet[int]]],
    poll: Callable[[], None] = lambda: None,
    partial_cliques: bool = True,
) -> List[Tuple[Tuple[Variable, FrozenSet[int]], ...]]:
    """Enumerate *all* minimum-cardinality set covers (exact, exponential).

    With ``partial_cliques`` (CliqueSquare semantics) any sub-clique —
    a subset of the nodes sharing a variable — may participate in a
    cover, so the number of minimum covers is exponential in the clique
    degrees.  This per-level enumeration is exactly the inefficiency the
    paper attributes to MSC (Section III: "the complexity of enumerating
    the join operators at each level is exponential").

    Branch and bound on the least-covered element; covers are returned
    as tuples of (variable, covered-elements) groups.  *poll* runs at
    every node of the search — the optimizer passes its budget check.
    """
    best_size = len(universe) + 1
    covers: List[Tuple[Tuple[Variable, FrozenSet[int]], ...]] = []

    def recurse(
        uncovered: FrozenSet[int], chosen: List[Tuple[Variable, FrozenSet[int]]]
    ) -> None:
        nonlocal best_size, covers
        poll()
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                covers = [tuple(chosen)]
            elif len(chosen) == best_size:
                covers.append(tuple(chosen))
            return
        if len(chosen) + 1 > best_size:
            return
        element = min(uncovered)
        for variable, members in candidates:
            if element not in members:
                continue
            if partial_cliques:
                for subset in _subsets_containing(members, element):
                    chosen.append((variable, subset))
                    recurse(uncovered - subset, chosen)
                    chosen.pop()
            else:
                chosen.append((variable, members))
                recurse(uncovered - members, chosen)
                chosen.pop()

    recurse(universe, [])
    # deduplicate order-insensitive covers
    unique = {
        tuple(sorted(c, key=lambda kv: (kv[0].name, sorted(kv[1])))): c
        for c in covers
    }
    return list(unique.values())


class MSCOptimizer(PlanSearch):
    """Level-wise flat-plan optimizer with exact minimum set cover."""

    algorithm_name = "MSC"

    def _find_plan(self) -> PlanNode:
        """Build and cost all minimum-cover flat plans; return the best."""
        leaves: List[PlanNode] = [
            self.builder.scan(i) for i in range(self.join_graph.size)
        ]
        best = self._build_levels(leaves, first_level=True)
        if best is None:
            raise CartesianProductError("MSC found no complete flat plan")
        return best

    # ------------------------------------------------------------------
    def _build_levels(
        self, nodes: List[PlanNode], first_level: bool
    ) -> Optional[PlanNode]:
        """Recursively apply one minimum-cover join level; return best plan."""
        self._check_deadline()
        if len(nodes) == 1:
            return nodes[0]
        cliques = self._cliques(nodes)
        if not cliques:
            return None
        universe = frozenset(range(len(nodes)))
        covers = minimum_set_covers(universe, cliques, self._check_deadline)
        best: Optional[PlanNode] = None
        for cover in covers:
            # CliqueSquare considers every way of assigning a node that
            # belongs to several chosen cliques — this per-level branching
            # is where MSC's exponential optimization time comes from
            for assignment in self._assignments(nodes, cover):
                next_nodes = self._apply_assignment(nodes, cover, assignment)
                if next_nodes is None:
                    continue
                candidate = self._build_levels(next_nodes, first_level=False)
                if candidate is not None and (
                    best is None or candidate.cost < best.cost
                ):
                    best = candidate
        return best

    def _assignments(
        self,
        nodes: List[PlanNode],
        cover: Sequence[Tuple[Variable, FrozenSet[int]]],
    ):
        """Every node→clique assignment (exponential in shared nodes)."""
        choices: List[List[int]] = []
        for node_index in range(len(nodes)):
            owners = [
                clique_index
                for clique_index, (_, members) in enumerate(cover)
                if node_index in members
            ]
            choices.append(owners)
        total = 1
        for owners in choices:
            total *= len(owners)

        def recurse(index: int, current: List[int]):
            self._check_deadline()
            if index == len(choices):
                yield list(current)
                return
            for owner in choices[index]:
                current.append(owner)
                yield from recurse(index + 1, current)
                current.pop()

        yield from recurse(0, [])

    def _cliques(
        self, nodes: List[PlanNode]
    ) -> List[Tuple[Variable, FrozenSet[int]]]:
        """One clique per join variable: the nodes whose output carries it."""
        cliques: List[Tuple[Variable, FrozenSet[int]]] = []
        for variable in self.join_graph.join_variables:
            members = frozenset(
                i
                for i, node in enumerate(nodes)
                if variable in self.join_graph.variables_of(node.bits)
            )
            if len(members) >= 1:
                cliques.append((variable, members))
        return cliques

    def _apply_assignment(
        self,
        nodes: List[PlanNode],
        cover: Sequence[Tuple[Variable, FrozenSet[int]]],
        assignment: Sequence[int],
    ) -> Optional[List[PlanNode]]:
        """Join each clique's assigned nodes into one multi-way join.

        Cliques left with fewer than two nodes pass their node through
        unchanged; a level that makes no progress is rejected.
        """
        groups: Dict[int, List[PlanNode]] = {}
        for node_index, clique_index in enumerate(assignment):
            groups.setdefault(clique_index, []).append(nodes[node_index])
        next_nodes: List[PlanNode] = []
        for clique_index, (variable, _) in enumerate(cover):
            members = groups.get(clique_index, [])
            if not members:
                continue
            if len(members) == 1:
                next_nodes.append(members[0])
                continue
            bits = 0
            for m in members:
                bits |= m.bits
            if self.local_index.is_local(bits) and all(
                bs.popcount(m.bits) == 1 for m in members
            ):
                algorithm = JoinAlgorithm.LOCAL
            else:
                algorithm = JoinAlgorithm.REPARTITION
            join = self.builder.join(algorithm, members, variable)
            self.stats.plans_considered += 1
            self.stats.divisions_enumerated += 1
            next_nodes.append(join)
        if len(next_nodes) >= len(nodes):
            return None  # no progress; avoid infinite recursion
        return next_nodes
