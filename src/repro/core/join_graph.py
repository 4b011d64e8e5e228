"""The join graph J(Q) and query-shape classification.

Definition 1 of the paper: J(Q) = (V_T, V_J, E_J) is a bipartite graph
with one vertex per triple pattern (V_T), one vertex per *join variable*
— a variable shared by at least two patterns — (V_J), and an edge
whenever a pattern contains a join variable.

Subqueries are bitsets over pattern indices (see :mod:`.bitset`); all
connectivity operations here work directly on bitsets so the enumeration
algorithms run at the speed the paper's complexity analysis assumes.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import Variable
from ..sparql.ast import BGPQuery, TriplePattern
from . import bitset as bs


class QueryShape(enum.Enum):
    """The query taxonomy of Section II-B / Figure 2."""

    STAR = "star"
    CHAIN = "chain"
    CYCLE = "cycle"
    TREE = "tree"
    DENSE = "dense"
    SINGLE = "single"  # one triple pattern; no joins at all


class JoinGraph:
    """Bipartite join graph of a BGP query, with bitset operations.

    Attributes
    ----------
    query:
        The underlying :class:`BGPQuery`.
    patterns:
        ``patterns[i]`` is the triple pattern with bitset index ``i``.
    join_variables:
        V_J in first-appearance order.
    """

    def __init__(self, query: BGPQuery) -> None:
        self.query = query
        self.patterns: Tuple[TriplePattern, ...] = query.patterns
        self.size = len(self.patterns)
        self.full = bs.full_set(self.size)

        self.join_variables: Tuple[Variable, ...] = tuple(query.join_variables())
        self._var_index: Dict[Variable, int] = {
            v: i for i, v in enumerate(self.join_variables)
        }
        # Ntp(vj) as a bitset per join variable
        self._ntp: List[int] = [0] * len(self.join_variables)
        # join variables per pattern
        self._pattern_vars: List[FrozenSet[Variable]] = []
        join_var_set = set(self.join_variables)
        for i, tp in enumerate(self.patterns):
            jvars = frozenset(v for v in tp.variables() if v in join_var_set)
            self._pattern_vars.append(jvars)
            for v in sorted(jvars, key=lambda v: v.name):
                self._ntp[self._var_index[v]] |= bs.bit(i)
        # pattern adjacency (shared join variable)
        self._adj: List[int] = self._adjacency_of(self._ntp)
        # adjacency with join variable i removed, computed lazily; like
        # ``_ntp`` it is addressed by variable *index*, so the enumeration
        # kernel never hashes a ``Variable``
        self._adj_without: List[Optional[List[int]]] = [None] * len(self._ntp)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def ntp(self, variable: Variable) -> int:
        """Ntp(vj): bitset of patterns containing join variable *vj*."""
        return self._ntp[self._var_index[variable]]

    def degree(self, variable: Variable) -> int:
        """|Ntp(vj)|: the degree of a join variable."""
        return bs.popcount(self.ntp(variable))

    def max_degree(self) -> int:
        """The highest join-variable degree (0 when there are no joins)."""
        if not self._ntp:
            return 0
        return max(bs.popcount(v) for v in self._ntp)

    def pattern_join_variables(self, index: int) -> FrozenSet[Variable]:
        """Join variables contained in pattern *index*."""
        return self._pattern_vars[index]

    def join_variables_in(self, bits: int) -> List[Variable]:
        """Join variables shared by ≥2 patterns *inside* the subquery."""
        return [
            v
            for v, vbits in zip(self.join_variables, self._ntp)
            if bs.popcount(vbits & bits) >= 2
        ]

    def variables_of(self, bits: int) -> Set[Variable]:
        """All variables (join or not) appearing in the subquery."""
        result: Set[Variable] = set()
        for i in bs.iter_bits(bits):
            result.update(self.patterns[i].variables())
        return result

    def shared_variables(self, left: int, right: int) -> Set[Variable]:
        """Variables appearing in both subqueries."""
        return self.variables_of(left) & self.variables_of(right)

    def pattern_set(self, bits: int) -> List[TriplePattern]:
        """The triple patterns of a subquery bitset, in index order."""
        return [self.patterns[i] for i in bs.iter_bits(bits)]

    def bits_of(self, patterns: Sequence[TriplePattern]) -> int:
        """Bitset of a collection of (already-indexed) patterns."""
        return bs.from_indices(self.query.index_of(tp) for tp in patterns)

    # ------------------------------------------------------------------
    # connectivity
    # ------------------------------------------------------------------
    def _adjacency_of(self, ntps: Sequence[int]) -> List[int]:
        """Pattern adjacency induced by the given Ntp bitsets."""
        adj = [0] * self.size
        for vbits in ntps:
            for i in bs.iter_bits(vbits):
                adj[i] |= vbits
        for i in range(self.size):
            adj[i] &= ~bs.bit(i)
        return adj

    def _adjacency_without(self, index: int) -> List[int]:
        """Pattern adjacency with join variable number *index* removed."""
        cached = self._adj_without[index]
        if cached is None:
            cached = self._adjacency_of(self._ntp[:index] + self._ntp[index + 1 :])
            self._adj_without[index] = cached
        return cached

    def _adjacency(self, exclude: Optional[Variable]) -> List[int]:
        index = None if exclude is None else self._var_index.get(exclude)
        if index is None:  # nothing to remove (also: not a join variable)
            return self._adj
        return self._adjacency_without(index)

    # The three walks below strip the lowest set bit inline
    # (``low = x & -x``) instead of iterating ``bs.iter_bits``: they sit
    # under every enumerated division, where a generator resumption per
    # bit was the single largest line of the optimizer's profile.
    def neighbors(self, bits: int, exclude: Optional[Variable] = None) -> int:
        """Bitset of patterns adjacent to the subquery (outside it)."""
        adj = self._adjacency(exclude)
        result = 0
        rest = bits
        while rest:
            low = rest & -rest
            result |= adj[low.bit_length() - 1]
            rest ^= low
        return result & ~bits

    def is_connected(self, bits: int, exclude: Optional[Variable] = None) -> bool:
        """Whether the subquery's join graph is connected.

        A single pattern (or the empty set) counts as connected.
        """
        if bits == 0:
            return True
        adj = self._adjacency(exclude)
        reached = frontier = bits & -bits
        while frontier:
            grown = 0
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            frontier = grown & bits & ~reached
            reached |= frontier
        return reached == bits

    def connected_components(
        self, bits: int, exclude: Optional[Variable] = None
    ) -> List[int]:
        """Connected components of the subquery, as bitsets.

        With *exclude* set, connectivity ignores that join variable —
        this is the "remove v_j from the join graph" step of Algorithm 2.
        """
        adj = self._adjacency(exclude)
        components: List[int] = []
        remaining = bits
        while remaining:
            component = frontier = remaining & -remaining
            while frontier:
                grown = 0
                while frontier:
                    low = frontier & -frontier
                    grown |= adj[low.bit_length() - 1]
                    frontier ^= low
                frontier = grown & remaining & ~component
                component |= frontier
            components.append(component)
            remaining ^= component
        return components

    # ------------------------------------------------------------------
    # shape classification and summary statistics
    # ------------------------------------------------------------------
    def edge_count(self) -> int:
        """|E_J|: total pattern-to-join-variable incidences."""
        return sum(bs.popcount(v) for v in self._ntp)

    def vt_vj_ratio(self) -> float:
        """|V_T| / |V_J|, the first test of the TD-Auto decision tree."""
        if not self.join_variables:
            return float("inf")
        return self.size / len(self.join_variables)

    def is_cyclic(self) -> bool:
        """Whether the join graph contains a cycle.

        For a bipartite graph with ``c`` connected components, acyclicity
        is equivalent to ``|E| == |V| - c``.
        """
        vertex_count = self.size + len(self.join_variables)
        # components of the bipartite graph = components of the pattern
        # adjacency plus isolated join variables (none by construction)
        components = len(self.connected_components(self.full))
        return self.edge_count() > vertex_count - components

    def cycle_rank(self) -> int:
        """Number of independent cycles (|E| - |V| + components)."""
        vertex_count = self.size + len(self.join_variables)
        components = len(self.connected_components(self.full))
        return self.edge_count() - vertex_count + components

    def shape(self) -> QueryShape:
        """Classify the query per Figure 2 of the paper.

        ``STAR`` requires a single join variable shared by *all* patterns
        with the patterns meeting at a common query-graph vertex role
        (the classic subject-star / object-star); a two-pattern query
        whose shared variable links the object of one to the subject of
        the other is a ``CHAIN`` (this is how the paper distinguishes
        L1/star from L2/chain, both of which have two patterns and one
        join variable).
        """
        if self.size == 1:
            return QueryShape.SINGLE
        if len(self.join_variables) == 1 and self.ntp(self.join_variables[0]) == self.full:
            variable = self.join_variables[0]
            roles: Set[str] = set()
            for tp in self.patterns:
                if tp.subject == variable:
                    roles.add("s")
                elif tp.object == variable:
                    roles.add("o")
                else:
                    roles.add("p")
            if len(roles) == 1 or self.size > 2:
                return QueryShape.STAR
            return QueryShape.CHAIN
        if self.is_cyclic():
            if self._is_simple_cycle():
                return QueryShape.CYCLE
            return QueryShape.DENSE
        if self._is_path():
            return QueryShape.CHAIN
        return QueryShape.TREE

    def _is_path(self) -> bool:
        if not self.is_connected(self.full):
            return False
        var_degrees = [bs.popcount(v) for v in self._ntp]
        tp_degrees = [len(pv) for pv in self._pattern_vars]
        endpoints = sum(1 for d in tp_degrees if d == 1)
        return (
            all(d == 2 for d in var_degrees)
            and all(1 <= d <= 2 for d in tp_degrees)
            and endpoints == 2
        )

    def _is_simple_cycle(self) -> bool:
        if not self.is_connected(self.full):
            return False
        var_degrees = [bs.popcount(v) for v in self._ntp]
        tp_degrees = [len(pv) for pv in self._pattern_vars]
        return (
            all(d == 2 for d in var_degrees)
            and all(d == 2 for d in tp_degrees)
            and self.cycle_rank() == 1
        )

    def __repr__(self) -> str:
        return (
            f"JoinGraph(|V_T|={self.size}, |V_J|={len(self.join_variables)}, "
            f"shape={self.shape().value})"
        )
