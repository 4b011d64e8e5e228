"""The pipelined backend: the columnar access paths with bounded batches.

Not a driver — the executor runs the same pull-based operator pipeline
for every engine (:mod:`repro.engine.executor`).  This backend only
sets :attr:`~repro.engine.base.Engine.chunk_size`, so the operators on
the plan's probe spine hand over at most that many rows at a time:
the first row arrives early, ``LIMIT`` stops the pull, and
inter-operator buffering is bounded by ``chunk_size × plan_depth``.
"""

from __future__ import annotations

from .base import ColumnarEngine, EngineSpec, engine_spec, register_engine

#: default rows per batch; small enough to bound buffering, large
#: enough that per-batch governance polls are amortized
DEFAULT_CHUNK_SIZE = 1024


class PipelinedEngine(ColumnarEngine):
    """Encoded rows, indexed scans, at most ``chunk_size`` rows per batch."""

    name = "pipelined"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size


register_engine(
    EngineSpec(
        name="pipelined",
        description=(
            "columnar access paths in bounded batches; identical "
            "results, bounded buffering, early first row and LIMIT "
            "pushdown"
        ),
        factory=PipelinedEngine,
        # encoded rows shuffle fixed-width ids, same as columnar
        shuffle_factor=engine_spec("columnar").shuffle_factor,
        encoded=True,
    )
)
