"""Simulated parallel execution engine (the RDF-3X + Hadoop stand-in)."""

from .base import ENGINES, Engine, EngineSpec, PipelinedEngine, resolve_engine
from .cluster import Cluster
from .columnar import (
    EncodedRelation,
    evaluate_encoded,
    hash_join_encoded,
    multi_join_encoded,
    scan_pattern_encoded,
)
from .executor import ExecutionError, Executor, plan_depth
from .explain import ExplainReport, OperatorExplain, explain
from .faults import (
    FailStop,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultModel,
    Straggler,
    Transient,
    default_models,
)
from .mapreduce import (
    CrossoverAnalysis,
    MapReduceSchedule,
    MapReduceSimulator,
    Stage,
    compile_stages,
    overhead_crossover,
    overhead_crossover_analysis,
)
from .metrics import ExecutionMetrics, OperatorMetrics
from .recovery import (
    DEFAULT_RETRY_POLICY,
    CircuitBreaker,
    FaultToleranceError,
    RecoveryManager,
    RetryPolicy,
)
from .relations import (
    Relation,
    evaluate_reference,
    hash_join,
    multi_join,
    scan_pattern,
)

__all__ = [
    "Cluster",
    "explain",
    "ExplainReport",
    "OperatorExplain",
    "MapReduceSchedule",
    "MapReduceSimulator",
    "Stage",
    "compile_stages",
    "overhead_crossover",
    "overhead_crossover_analysis",
    "CrossoverAnalysis",
    "Executor",
    "ExecutionError",
    "evaluate_reference",
    "ExecutionMetrics",
    "OperatorMetrics",
    "FaultInjector",
    "FaultEvent",
    "FaultKind",
    "FaultModel",
    "FailStop",
    "Transient",
    "Straggler",
    "default_models",
    "RetryPolicy",
    "RecoveryManager",
    "CircuitBreaker",
    "FaultToleranceError",
    "DEFAULT_RETRY_POLICY",
    "Relation",
    "scan_pattern",
    "hash_join",
    "multi_join",
    "ENGINES",
    "Engine",
    "EngineSpec",
    "PipelinedEngine",
    "resolve_engine",
    "plan_depth",
    "EncodedRelation",
    "scan_pattern_encoded",
    "hash_join_encoded",
    "multi_join_encoded",
    "evaluate_encoded",
]
