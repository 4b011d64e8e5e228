"""Local-query detection via maximal local queries (Appendix A).

A subquery SQ is *local* iff it is contained in some maximal local
query MLQ_v = combine(v, G_Q) (Theorem 5).  Both sides are encoded as
bitsets, so each containment test is one AND + compare — the Θ(|V_Q|)
worst case of the paper, and usually far less because the check walks
the maximal local queries largest-first.

With no partitioning configured the index reports *nothing* as local
except single patterns, which gives optimizers a partitioning-agnostic
default (every multi-pattern join is distributed).
"""

from __future__ import annotations

from typing import List, Optional, Set

from ..partitioning.base import PartitioningMethod
from . import bitset as bs
from .join_graph import JoinGraph


class LocalQueryIndex:
    """Precomputed maximal local queries for one (query, partitioning)."""

    def __init__(
        self,
        join_graph: JoinGraph,
        partitioning: Optional[PartitioningMethod] = None,
    ) -> None:
        self.join_graph = join_graph
        self.partitioning = partitioning
        self._mlq_bits: List[int] = []
        if partitioning is not None:
            seen: Set[int] = set()
            for mlq in partitioning.maximal_local_queries(join_graph.query):
                bits = join_graph.bits_of(list(mlq))
                if bits and bits not in seen:
                    seen.add(bits)
                    self._mlq_bits.append(bits)
            # largest first: big subqueries hit early
            self._mlq_bits.sort(key=bs.popcount, reverse=True)

    @property
    def maximal_local_queries(self) -> List[int]:
        """The distinct maximal local queries, as bitsets, largest first."""
        return list(self._mlq_bits)

    def is_local(self, bits: int) -> bool:
        """Theorem 5: SQ is local iff contained in some MLQ.

        Single triple patterns are always local — a one-pattern match is
        one triple, and every triple lives in at least one partitioning
        element.
        """
        if bs.popcount(bits) <= 1:
            return True
        for mlq in self._mlq_bits:
            if bs.is_subset(bits, mlq):
                return True
        return False
