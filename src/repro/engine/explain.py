"""EXPLAIN ANALYZE: estimated vs. measured, per operator.

Table VI of the paper argues the cost model "provides a good indication
of the general quality of the plans".  :func:`explain` instruments that
claim for a single plan: it executes the plan, aligns each join
operator's *estimated* cardinality and cost with the *measured* tuple
counts and priced cost, and reports the estimation error (q-error) per
operator — the standard way to audit a cardinality estimator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, TYPE_CHECKING

from ..core.cost import CostParameters, PAPER_PARAMETERS
from ..core.plans import JoinNode, PlanNode
from ..sparql.ast import BGPQuery
from .cluster import Cluster
from .executor import Executor
from .relations import Relation

if TYPE_CHECKING:  # pragma: no cover
    from .faults import FaultInjector
    from .recovery import RetryPolicy


@dataclass
class OperatorExplain:
    """One operator's estimated-vs-measured row."""

    operator: str
    algorithm: str
    arity: int
    estimated_cardinality: float
    actual_cardinality: int
    estimated_cost: float
    actual_cost: float

    @property
    def q_error(self) -> float:
        """max(est/act, act/est), the symmetric cardinality error."""
        estimated = max(self.estimated_cardinality, 1.0)
        actual = max(float(self.actual_cardinality), 1.0)
        return max(estimated / actual, actual / estimated)


@dataclass
class ExplainReport:
    rows: List[OperatorExplain]
    result_rows: int
    estimated_plan_cost: float
    measured_plan_cost: float
    #: True when a LIMIT was pushed into the streaming pipeline (the
    #: measured counts then cover only the prefix that ran)
    limit_pushdown: bool = False

    @property
    def max_q_error(self) -> float:
        """The worst per-operator q-error."""
        return max((row.q_error for row in self.rows), default=1.0)

    def render(self) -> str:
        """The report as an aligned plain-text table."""
        lines = [
            f"{'operator':34s} {'arity':>5s} {'est.card':>10s} {'act.card':>10s} "
            f"{'q-err':>7s} {'est.cost':>10s} {'act.cost':>10s}"
        ]
        lines.append("-" * len(lines[0]))
        for row in self.rows:
            lines.append(
                f"{row.operator:34s} {row.arity:>5d} "
                f"{row.estimated_cardinality:>10.0f} {row.actual_cardinality:>10d} "
                f"{row.q_error:>7.2f} {row.estimated_cost:>10.2f} "
                f"{row.actual_cost:>10.2f}"
            )
        lines.append(
            f"plan: estimated cost {self.estimated_plan_cost:.2f}, "
            f"measured cost {self.measured_plan_cost:.2f}, "
            f"result rows {self.result_rows}, max q-error {self.max_q_error:.2f}"
        )
        if self.limit_pushdown:
            lines.append(
                "note: LIMIT pushed into the stream — execution stopped "
                "early, so measured counts cover only the prefix that ran"
            )
        return "\n".join(lines)


def explain(
    plan: PlanNode,
    cluster: Cluster,
    query: Optional[BGPQuery] = None,
    parameters: CostParameters = PAPER_PARAMETERS,
    fault_injector: Optional["FaultInjector"] = None,
    retry_policy: Optional["RetryPolicy"] = None,
    engine: str = "columnar",
    limit: Optional[int] = None,
) -> Tuple[Relation, ExplainReport]:
    """Execute *plan* and build the estimated-vs-measured report.

    Join operators are aligned with execution metrics by post-order
    position (the executor appends one metrics record per operator in
    evaluation order, which is exactly a post-order walk; retried
    operators still produce a single record, so fault injection keeps
    the alignment).
    """
    from .recovery import DEFAULT_RETRY_POLICY

    executor = Executor(
        cluster,
        parameters,
        fault_injector=fault_injector,
        retry_policy=retry_policy if retry_policy is not None else DEFAULT_RETRY_POLICY,
        engine=engine,
    )
    relation, metrics = executor.execute(plan, query, limit=limit)
    joins_postorder = _joins_postorder(plan)
    join_metrics = [op for op in metrics.operators if op.algorithm != "scan"]
    rows: List[OperatorExplain] = []
    for node, measured in zip(joins_postorder, join_metrics):
        # actual produced counts include per-worker duplicates; the
        # deduplicated output is what the estimate predicts, so collect
        # the per-operator produced count as reported
        rows.append(
            OperatorExplain(
                operator=measured.operator,
                algorithm=measured.algorithm,
                arity=node.arity,
                estimated_cardinality=node.cardinality,
                actual_cardinality=measured.tuples_produced,
                estimated_cost=node.operator_cost,
                actual_cost=measured.simulated_cost(parameters),
            )
        )
    report = ExplainReport(
        rows=rows,
        result_rows=len(relation),
        estimated_plan_cost=plan.cost,
        measured_plan_cost=metrics.critical_path_cost,
        limit_pushdown=metrics.limit_pushdown,
    )
    return relation, report


def _joins_postorder(plan: PlanNode) -> List[JoinNode]:
    result: List[JoinNode] = []

    def walk(node: PlanNode) -> None:
        if isinstance(node, JoinNode):
            for child in node.children:
                walk(child)
            result.append(node)

    walk(plan)
    return result
