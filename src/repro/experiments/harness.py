"""Shared experiment harness.

Runs any registered optimizer (ours or a baseline) on a query under one
deadline, returning uniform :class:`AlgorithmRun` records the table and
figure drivers consume.  A run is a session call —
``Optimizer(OptimizeOptions(algorithm=..., deadline_seconds=...))`` — so
all seven algorithms are built, governed and timed by the same code;
the harness constructs no optimizer and reads no clock.

Scale knobs: the paper ran Java on a server with a 600 s cutoff; this
reproduction defaults to ``REPRO_TIMEOUT`` seconds (default 15) per
run so regenerating all tables stays laptop-friendly.  Timed-out runs
are reported as ``N/A (>Ts)``, exactly how the paper reports MSC on
L10.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..core.enumeration import OptimizationResult, OptimizationTimeout
from ..core.governance import AbortCause, QueryAborted
from ..core.session import OptimizeOptions, Optimizer
from ..sparql.ast import BGPQuery

#: the trio of Table IV/V/VI
PAPER_TRIO = ("TD-Auto", "MSC", "DP-Bushy")

#: the six lines of Figures 6–8 and Table VII
FIGURE_SET = ("TD-CMD", "TD-CMDP", "HGR-TD-CMD", "MSC", "DP-Bushy", "TD-Auto")

#: every algorithm the experiments compare (the figure set plus the
#: TriAD-style extra baseline), by display name; lower-cased, these are
#: the keys of :data:`repro.core.optimizer.ALGORITHMS`
ALGORITHMS = FIGURE_SET + ("TriAD-DP",)


def default_timeout() -> float:
    """Per-run timeout in seconds (env: ``REPRO_TIMEOUT``)."""
    return float(os.environ.get("REPRO_TIMEOUT", "15"))


@dataclass
class AlgorithmRun:
    """One (algorithm, query) measurement; the defaults say "timed out"."""

    algorithm: str
    query_name: str
    deadline_seconds: float
    timed_out: bool = True
    elapsed_seconds: Optional[float] = None
    cost: Optional[float] = None
    plans_considered: Optional[int] = None
    result: Optional[OptimizationResult] = None

    @property
    def time_label(self) -> str:
        """Human-readable elapsed time, '>Ts' on timeout."""
        if self.timed_out:
            return f">{self.deadline_seconds:.0f}s"
        return f"{self.elapsed_seconds:.3f}s"

    @property
    def cost_label(self) -> str:
        """Scientific-notation plan cost, 'N/A' on timeout."""
        if self.timed_out or self.cost is None:
            return "N/A"
        return f"{self.cost:.2E}"

    @property
    def plans_label(self) -> str:
        """Thousands-separated plan count, 'N/A' on timeout."""
        if self.timed_out or self.plans_considered is None:
            return "N/A"
        return f"{self.plans_considered:,}"


def run_algorithm(
    algorithm: str,
    query: BGPQuery,
    deadline_seconds: Optional[float] = None,
    **options: Any,
) -> AlgorithmRun:
    """Run one optimizer on one query under a deadline; a timeout is a result.

    A session call: *options* are the other
    :class:`~repro.core.session.OptimizeOptions` fields (``statistics``,
    ``dataset``, ``partitioning``, ``parameters``, ``seed``).  An expired
    deadline surfaces as :class:`OptimizationTimeout` from a search and
    as a deadline :class:`QueryAborted` from HGR's reduction phase; both
    are reported as ``timed_out``.
    """
    if deadline_seconds is None:
        deadline_seconds = default_timeout()
    session = Optimizer(
        OptimizeOptions(
            algorithm=algorithm, deadline_seconds=deadline_seconds, **options
        )
    )
    timed_out = AlgorithmRun(algorithm, query.name, deadline_seconds)
    try:
        result = session.optimize(query)
    except OptimizationTimeout:
        return timed_out
    except QueryAborted as abort:
        if abort.cause is not AbortCause.DEADLINE:
            raise
        return timed_out
    return AlgorithmRun(
        algorithm,
        query.name,
        deadline_seconds,
        timed_out=False,
        elapsed_seconds=result.elapsed_seconds,
        cost=result.cost,
        plans_considered=result.stats.plans_considered,
        result=result,
    )


def cumulative_frequency(
    ratios: Sequence[float], thresholds: Sequence[float] = (1, 2, 4, 8)
) -> List[float]:
    """Fraction of ratios ≤ each threshold (the Fig. 6b/8 y-axis)."""
    if not ratios:
        return [0.0 for _ in thresholds]
    return [
        sum(1 for r in ratios if r <= t + 1e-9) / len(ratios) for t in thresholds
    ]
