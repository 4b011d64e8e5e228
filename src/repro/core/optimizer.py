"""The public optimizer facade.

:func:`optimize` wires a query, its statistics, a partitioning method,
and the cost model into the chosen algorithm and returns an
:class:`~repro.core.enumeration.OptimizationResult`.  This is the entry
point the examples, tests, and benchmarks use::

    from repro import optimize, parse_query
    result = optimize(parse_query(text), algorithm="td-auto")
    print(result.plan.describe())

:func:`optimize` is a thin shim over
:class:`repro.core.session.Optimizer`: every call builds a one-shot
session from its per-call inputs.  Anything that holds state across
calls (plan cache, parallel jobs, verification, deadlines, tracing) is
session configuration::

    from repro import OptimizeOptions, Optimizer
    session = Optimizer(OptimizeOptions(algorithm="td-auto", trace=True))
    result = session.optimize(parse_query(text))

:data:`ALGORITHMS` is the one registry of optimizers — the paper's four
and the three baselines it is evaluated against — and
:attr:`OptimizeOptions.algorithm <repro.core.session.OptimizeOptions>`
the one selector.  Every class in it is constructed as
``(join_graph, builder, local_index=None, budget=None)``, and the
session is the only code that turns a (query, options) pair into one.
The helpers :func:`resolve_statistics` and :func:`make_builder` are the
plumbing it builds them from.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

# ``baselines`` is written against ``core``'s submodules (never against
# this package's namespace), which are all loaded by the time
# ``core/__init__`` reaches this module — so the upward import is safe,
# and it is what lets one table hold all seven
from ..baselines import DPBushyOptimizer, MSCOptimizer, TriADOptimizer
from ..partitioning.base import PartitioningMethod
from ..rdf.dataset import Dataset
from ..sparql.ast import BGPQuery
from .auto import AutonomousOptimizer
from .cardinality import CardinalityEstimator, StatisticsCatalog
from .cost import CostParameters, PAPER_PARAMETERS, PlanBuilder
from .enumeration import OptimizationResult, TopDownEnumerator
from .join_graph import JoinGraph
from .pruning import PrunedTopDownEnumerator
from .reduction import ReductionOptimizer

ALGORITHMS: Dict[str, type] = {
    "td-cmd": TopDownEnumerator,
    "td-cmdp": PrunedTopDownEnumerator,
    "hgr-td-cmd": ReductionOptimizer,
    "td-auto": AutonomousOptimizer,
    "msc": MSCOptimizer,
    "dp-bushy": DPBushyOptimizer,
    "triad-dp": TriADOptimizer,
}


def resolve_statistics(
    query: BGPQuery,
    statistics: Optional[StatisticsCatalog] = None,
    dataset: Optional[Dataset] = None,
    seed: int = 0,
) -> StatisticsCatalog:
    """Resolve the statistics source for one query.

    Resolution order: explicit catalog > dataset-derived > random (the
    paper's synthetic-statistics mode, seeded for reproducibility).
    """
    if statistics is not None:
        return statistics
    if dataset is not None:
        return StatisticsCatalog.from_dataset(query, dataset)
    return StatisticsCatalog.from_random(query, random.Random(seed))


def make_builder(
    query: BGPQuery,
    statistics: Optional[StatisticsCatalog] = None,
    dataset: Optional[Dataset] = None,
    parameters: CostParameters = PAPER_PARAMETERS,
    seed: int = 0,
) -> PlanBuilder:
    """Assemble the (join graph, estimator, cost) triple for a query.

    Statistics are resolved via :func:`resolve_statistics`.
    """
    join_graph = JoinGraph(query)
    statistics = resolve_statistics(query, statistics, dataset, seed)
    estimator = CardinalityEstimator(join_graph, statistics)
    return PlanBuilder(join_graph, estimator, parameters)


def optimize(
    query: BGPQuery,
    algorithm: str = "td-auto",
    statistics: Optional[StatisticsCatalog] = None,
    dataset: Optional[Dataset] = None,
    partitioning: Optional[PartitioningMethod] = None,
    parameters: CostParameters = PAPER_PARAMETERS,
    seed: int = 0,
) -> OptimizationResult:
    """Optimize a BGP query into a k-ary bushy plan.

    Builds a one-shot :class:`~repro.core.session.Optimizer` session
    from these per-call inputs; session state (plan cache, ``jobs``,
    verification, deadlines, tracing) is configured on
    :class:`~repro.core.session.OptimizeOptions` instead.

    Parameters
    ----------
    query:
        The parsed query.
    algorithm:
        A key of :data:`ALGORITHMS` (case-insensitive): ``"td-cmd"``,
        ``"td-cmdp"``, ``"hgr-td-cmd"``, ``"td-auto"``, or a baseline —
        ``"msc"``, ``"dp-bushy"``, ``"triad-dp"``.
    statistics / dataset:
        Cardinality sources; see :func:`resolve_statistics`.
    partitioning:
        The data partitioning method; enables local-query detection.
        ``None`` means every multi-pattern subquery is distributed.
    parameters:
        Cost-model constants (defaults to the paper's Table II).
    seed:
        Seed for synthetic statistics when neither *statistics* nor
        *dataset* is given.
    """
    # imported lazily: session.py imports this module's helpers
    from .session import OptimizeOptions, Optimizer

    session = Optimizer(
        OptimizeOptions(
            algorithm=algorithm,
            statistics=statistics,
            dataset=dataset,
            partitioning=partitioning,
            parameters=parameters,
            seed=seed,
        )
    )
    return session.optimize(query)
