"""TD-Auto: the autonomous algorithm (Section IV-C, Figure 5).

TD-Auto inspects the join graph and picks the variant whose complexity
profile matches it:

* ``|V_T| / |V_J| ≥ 1`` — the join graph is acyclic or has exactly one
  cycle:

  - all join variables have low degree (``max degree < θ_d``, e.g.
    chains and cycles) → **TD-CMD** (exhaustive is cheap);
  - some variable has a high degree and the query is small
    (``|V_T| < θ_n``) → **TD-CMDP**;
  - otherwise → **HGR-TD-CMD**.

* ``|V_T| / |V_J| < 1`` — more than one cycle (dense):

  - small query (``|V_T| < λ_n``) → **TD-CMD**;
  - otherwise → **HGR-TD-CMD**.

The paper's calibrated thresholds are θ_d = 5, θ_n = 30, λ_n = 14.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..observability import runtime as obs
from .cost import PlanBuilder
from .enumeration import EnumerationStats, OptimizationResult
from .governance import QueryBudget
from .join_graph import JoinGraph
from .local_query import LocalQueryIndex


@dataclass(frozen=True)
class AutoThresholds:
    """The decision-tree thresholds of Figure 5."""

    degree: int = 5  # θ_d
    pattern_count: int = 30  # θ_n
    dense_pattern_count: int = 14  # λ_n


PAPER_THRESHOLDS = AutoThresholds()


def choose_algorithm(
    join_graph: JoinGraph, thresholds: AutoThresholds = PAPER_THRESHOLDS
) -> str:
    """Walk the Figure 5 decision tree; return the chosen variant name."""
    if join_graph.vt_vj_ratio() >= 1.0:
        if join_graph.max_degree() < thresholds.degree:
            return "TD-CMD"
        if join_graph.size < thresholds.pattern_count:
            return "TD-CMDP"
        return "HGR-TD-CMD"
    if join_graph.size < thresholds.dense_pattern_count:
        return "TD-CMD"
    return "HGR-TD-CMD"


class AutonomousOptimizer:
    """TD-Auto: dispatch to TD-CMD / TD-CMDP / HGR-TD-CMD per Figure 5."""

    algorithm_name = "TD-Auto"

    def __init__(
        self,
        join_graph: JoinGraph,
        builder: PlanBuilder,
        local_index: Optional[LocalQueryIndex] = None,
        budget: Optional[QueryBudget] = None,
        *,
        thresholds: AutoThresholds = PAPER_THRESHOLDS,
    ) -> None:
        self.join_graph = join_graph
        self.builder = builder
        self.local_index = local_index
        self.budget = budget
        self.thresholds = thresholds
        #: the variant :meth:`choose` picked ("" before it ran)
        self.choice = ""

    def choose(self) -> Any:
        """Pick a variant per Figure 5; return it, built on these inputs."""
        with obs.span("auto.choose") as sp:
            self.choice = choose_algorithm(self.join_graph, self.thresholds)
            sp.set(
                choice=self.choice,
                vt_vj_ratio=self.join_graph.vt_vj_ratio(),
                max_degree=self.join_graph.max_degree(),
                patterns=self.join_graph.size,
            )
        obs.count(f"optimizer.auto.{self.choice.lower()}")
        from .optimizer import ALGORITHMS  # late: the registry lists this class

        return ALGORITHMS[self.choice.lower()](
            self.join_graph,
            self.builder,
            local_index=self.local_index,
            budget=self.budget,
        )

    def relabel(self, result: OptimizationResult) -> OptimizationResult:
        """The chosen variant's *result* under TD-Auto's name.

        Keeps any suffix the variant attached (``[parallel x2]``,
        ``[anytime]``, ...), so degraded and pooled plans stay
        recognizable through TD-Auto.
        """
        suffix = result.algorithm[len(self.choice):]
        return OptimizationResult(
            plan=result.plan,
            algorithm=f"{self.algorithm_name}[{self.choice}]{suffix}",
            stats=result.stats,
            elapsed_seconds=result.elapsed_seconds,
        )

    def optimize(self) -> OptimizationResult:
        """Pick a variant per Figure 5 and run it."""
        return self.relabel(self.choose().optimize())

    def search_space(self) -> Optional[EnumerationStats]:
        """The chosen variant's search space."""
        space: Optional[EnumerationStats] = self.choose().search_space()
        return space
