"""The paper's primary contribution: partition-aware k-ary plan enumeration."""

from .auto import AutoThresholds, AutonomousOptimizer, choose_algorithm
from .cardinality import CardinalityEstimator, PatternStatistics, StatisticsCatalog
from .cmd import (
    brute_force_cbds,
    brute_force_cmds,
    enumerate_cbds,
    enumerate_ccmds,
    enumerate_cmds,
    enumerate_cmds_pruned,
    is_valid_cmd,
)
from .cost import CostParameters, PAPER_PARAMETERS, PlanBuilder
from .counting import (
    bell_number,
    connected_subqueries,
    count_cmds,
    measured_t,
    t_chain,
    t_cycle,
    t_star,
)
from .enumeration import (
    CartesianProductError,
    EnumerationStats,
    OptimizationResult,
    OptimizationTimeout,
    TopDownEnumerator,
)
from .enumeration import greedy_fallback_plan
from .governance import (
    AbortCause,
    AnytimeExpiry,
    CancellationToken,
    Clock,
    Deadline,
    ManualClock,
    MonotonicClock,
    QueryAborted,
    QueryBudget,
    SteppingClock,
)
from .join_graph import JoinGraph, QueryShape
from .local_query import LocalQueryIndex
from .optimizer import (
    ALGORITHMS,
    make_builder,
    optimize,
    resolve_statistics,
)
from .plan_cache import PlanCache, PlanCacheStats, query_signature
from .plans import (
    JoinAlgorithm,
    JoinNode,
    PlanNode,
    ScanNode,
    count_operators,
    plan_signature,
    validate_plan,
)
from .pruning import PrunedTopDownEnumerator
from .reduction import ReductionOptimizer, greedy_join_graph_reduction
from .session import OptimizeOptions, Optimizer, QueryRun

__all__ = [
    "JoinGraph",
    "QueryShape",
    "CardinalityEstimator",
    "StatisticsCatalog",
    "PatternStatistics",
    "CostParameters",
    "PAPER_PARAMETERS",
    "PlanBuilder",
    "PlanNode",
    "ScanNode",
    "JoinNode",
    "JoinAlgorithm",
    "validate_plan",
    "plan_signature",
    "count_operators",
    "enumerate_cbds",
    "enumerate_cmds",
    "enumerate_ccmds",
    "enumerate_cmds_pruned",
    "brute_force_cbds",
    "brute_force_cmds",
    "is_valid_cmd",
    "bell_number",
    "t_chain",
    "t_cycle",
    "t_star",
    "measured_t",
    "count_cmds",
    "connected_subqueries",
    "LocalQueryIndex",
    "TopDownEnumerator",
    "PrunedTopDownEnumerator",
    "ReductionOptimizer",
    "AutonomousOptimizer",
    "AutoThresholds",
    "choose_algorithm",
    "OptimizationResult",
    "OptimizationTimeout",
    "CartesianProductError",
    "EnumerationStats",
    "greedy_join_graph_reduction",
    "optimize",
    "OptimizeOptions",
    "Optimizer",
    "QueryRun",
    "make_builder",
    "resolve_statistics",
    "ALGORITHMS",
    "PlanCache",
    "PlanCacheStats",
    "query_signature",
    "AbortCause",
    "AnytimeExpiry",
    "CancellationToken",
    "Clock",
    "Deadline",
    "ManualClock",
    "MonotonicClock",
    "QueryAborted",
    "QueryBudget",
    "SteppingClock",
    "greedy_fallback_plan",
]
