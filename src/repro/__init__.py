"""repro — reproduction of "Parallel SPARQL Query Optimization" (ICDE 2017).

The package implements the paper's partition-aware optimizer for
parallel SPARQL engines (TD-CMD / TD-CMDP / HGR-TD-CMD / TD-Auto), the
baselines it compares against (MSC, DP-Bushy, a TriAD-style binary DP),
the generic RDF data partitioning model with four concrete methods, a
simulated parallel execution engine, and the paper's workloads.

Quickstart::

    from repro import parse_query, optimize
    from repro.partitioning import HashSubjectObject

    query = parse_query(\"\"\"
        SELECT ?x ?y WHERE {
            ?x <http://example.org/worksFor> ?y .
            ?y <http://example.org/partOf> <http://example.org/u0> .
        }
    \"\"\")
    result = optimize(query, partitioning=HashSubjectObject())
    print(result.plan.describe())
"""

from .core import (
    AbortCause,
    CancellationToken,
    CostParameters,
    Deadline,
    JoinAlgorithm,
    JoinGraph,
    ManualClock,
    OptimizationResult,
    OptimizationTimeout,
    OptimizeOptions,
    Optimizer,
    PlanCache,
    QueryAborted,
    QueryBudget,
    QueryRun,
    QueryShape,
    StatisticsCatalog,
    SteppingClock,
    optimize,
)
from .rdf import Dataset, IRI, Literal, RDFGraph, Triple, Variable, triple
from .sparql import BGPQuery, QueryGraph, TriplePattern, parse_query

__version__ = "2.19.0"

__all__ = [
    "optimize",
    "OptimizeOptions",
    "Optimizer",
    "QueryRun",
    "PlanCache",
    "parse_query",
    "BGPQuery",
    "TriplePattern",
    "QueryGraph",
    "JoinGraph",
    "QueryShape",
    "JoinAlgorithm",
    "OptimizationResult",
    "OptimizationTimeout",
    "QueryBudget",
    "Deadline",
    "CancellationToken",
    "QueryAborted",
    "AbortCause",
    "ManualClock",
    "SteppingClock",
    "StatisticsCatalog",
    "CostParameters",
    "Dataset",
    "RDFGraph",
    "Triple",
    "triple",
    "IRI",
    "Literal",
    "Variable",
    "__version__",
]
