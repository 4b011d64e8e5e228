"""The cost model of Section II-E (Tables I and II).

The cost of a k-way join operator is::

    C(op) = C_io + C_trans + C_join

with, per Table I (|SQ_i| input cardinalities, n cluster size):

==============  ==============  ====================================  =================
operator        C_io            C_trans                               C_join
==============  ==============  ====================================  =================
local           α·Σ|SQ_i|       0                                     γ_L·|⋈ SQ_i|
broadcast       α·Σ|SQ_i|       β_B·(Σ|SQ_i| − max|SQ_i|)·n           γ_B·|⋈ SQ_i|
repartition     α·Σ|SQ_i|       β_R·Σ|SQ_i|                           γ_R·|⋈ SQ_i|
==============  ==============  ====================================  =================

and the cost of a plan (Eq. 3) is the cost of the most expensive child
(children run concurrently) plus the operator cost.

:class:`PlanBuilder` is the single place plans are constructed: it
computes cardinality via the estimator and attaches costs, so every
optimizer (ours and the baselines) prices plans identically — exactly
the experimental setup of Section V-A.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..rdf.terms import Variable
from . import bitset as bs
from .cardinality import CardinalityEstimator
from .join_graph import JoinGraph
from .plans import JoinAlgorithm, JoinNode, PlanNode, ScanNode


@dataclass(frozen=True)
class CostParameters:
    """Normalization factors (Table II) and the cluster size ``n``.

    The default values are the paper's calibrated constants: α = 0.02,
    β_B = 0.05, β_R = 0.1, γ_L = 0.004, γ_B = 0.008, γ_R = 0.005, and a
    10-node cluster.
    """

    alpha: float = 0.02
    beta_broadcast: float = 0.05
    beta_repartition: float = 0.1
    gamma_local: float = 0.004
    gamma_broadcast: float = 0.008
    gamma_repartition: float = 0.005
    cluster_size: int = 10

    def io_cost(self, input_cardinalities: Sequence[float]) -> float:
        """C_io = α · Σ|SQ_i| (identical for all operators)."""
        return self.alpha * sum(input_cardinalities)

    def transfer_cost(
        self, algorithm: JoinAlgorithm, input_cardinalities: Sequence[float]
    ) -> float:
        """C_trans per Table I (zero for local joins)."""
        total = sum(input_cardinalities)
        if algorithm is JoinAlgorithm.LOCAL:
            return 0.0
        if algorithm is JoinAlgorithm.BROADCAST:
            return (
                self.beta_broadcast
                * (total - max(input_cardinalities))
                * self.cluster_size
            )
        return self.beta_repartition * total

    def join_cost(self, algorithm: JoinAlgorithm, output_cardinality: float) -> float:
        """C_join = γ_op · |⋈ SQ_i|."""
        if algorithm is JoinAlgorithm.BROADCAST:
            return self.gamma_broadcast * output_cardinality
        if algorithm is JoinAlgorithm.REPARTITION:
            return self.gamma_repartition * output_cardinality
        return self.gamma_local * output_cardinality

    def operator_cost(
        self,
        algorithm: JoinAlgorithm,
        input_cardinalities: Sequence[float],
        output_cardinality: float,
    ) -> float:
        """C(op) = C_io + C_trans + C_join (Eq. 4 / Table I).

        The row of Table I in closed form: the same float operations,
        in the same order and association, as ``io_cost + transfer_cost
        + join_cost`` (the three documented pieces; tested bit-equal),
        without the three calls.  The enumerators' costing loop
        (``TopDownEnumerator._search`` in :mod:`.enumeration`)
        inlines this same expression with the per-subquery terms hoisted.
        """
        total = sum(input_cardinalities)
        if algorithm is JoinAlgorithm.BROADCAST:
            return (
                self.alpha * total
                + self.beta_broadcast
                * (total - max(input_cardinalities))
                * self.cluster_size
                + self.gamma_broadcast * output_cardinality
            )
        if algorithm is JoinAlgorithm.REPARTITION:
            return (
                self.alpha * total
                + self.beta_repartition * total
                + self.gamma_repartition * output_cardinality
            )
        return self.alpha * total + 0.0 + self.gamma_local * output_cardinality


#: the paper's calibrated parameters (Table II)
PAPER_PARAMETERS = CostParameters()


class PlanBuilder:
    """Constructs cost-annotated plan nodes for one query.

    All optimizers share one builder per (query, statistics, parameters)
    triple so their plans are directly cost-comparable.
    """

    def __init__(
        self,
        join_graph: JoinGraph,
        estimator: CardinalityEstimator,
        parameters: CostParameters = PAPER_PARAMETERS,
    ) -> None:
        self.join_graph = join_graph
        self.estimator = estimator
        self.parameters = parameters

    # ------------------------------------------------------------------
    # node constructors
    # ------------------------------------------------------------------
    def scan(self, pattern_index: int) -> ScanNode:
        """A leaf scan of one triple pattern (cost 0; operators charge I/O)."""
        return ScanNode(
            bits=bs.bit(pattern_index),
            cardinality=self.estimator.pattern_cardinality(pattern_index),
            cost=0.0,
            pattern_index=pattern_index,
            pattern=self.join_graph.patterns[pattern_index],
        )

    def join(
        self,
        algorithm: JoinAlgorithm,
        children: Sequence[PlanNode],
        join_variable: Optional[Variable] = None,
    ) -> JoinNode:
        """A k-way join of already-built child plans (Eq. 3 cost)."""
        if len(children) < 2:
            raise ValueError("a join needs at least two inputs")
        bits = 0
        for child in children:
            if bits & child.bits:
                raise ValueError("join inputs overlap")
            bits |= child.bits
        inputs = [child.cardinality for child in children]
        output = self.estimator.cardinality(bits)
        op_cost = self.parameters.operator_cost(algorithm, inputs, output)
        total = max(child.cost for child in children) + op_cost
        return JoinNode(
            bits=bits,
            cardinality=output,
            cost=total,
            algorithm=algorithm,
            join_variable=join_variable,
            children=tuple(children),
            operator_cost=op_cost,
        )

    def local_join_plan(self, bits: int) -> PlanNode:
        """The flat local plan: one k-way local join of all scans.

        For a single-pattern subquery this is just the scan.
        """
        indices = bs.to_indices(bits)
        if len(indices) == 1:
            return self.scan(indices[0])
        scans = [self.scan(i) for i in indices]
        shared = self.join_graph.join_variables_in(bits)
        variable = shared[0] if shared else None
        return self.join(JoinAlgorithm.LOCAL, scans, join_variable=variable)

