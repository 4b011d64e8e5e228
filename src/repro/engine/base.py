"""The engine: dictionary-id access paths plus a batch size.

The executor runs one pull-based operator pipeline
(:mod:`repro.engine.executor`) over one representation —
:class:`~repro.engine.columnar.EncodedRelation`, one column of
dictionary ids per variable.  What still varies is small:

* :class:`Engine` — the two access-path seams (how a pattern is scanned
  on the cluster, how co-located relations are multi-joined) and
  :attr:`Engine.chunk_size`; registered as ``"columnar"``;
* :class:`PipelinedEngine` — the same access paths with a bounded
  ``chunk_size``; registered as ``"pipelined"``;
* :data:`ENGINES` — the name → :class:`EngineSpec` table the CLI
  ``--engine`` choices, ``OptimizeOptions.engine`` validation and
  :func:`resolve_engine` read.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Tuple,
    Union,
)

from ..sparql.ast import TriplePattern
from .columnar import (
    EncodedRelation,
    multi_join_encoded,
    scan_pattern_encoded,
)

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .cluster import Cluster

#: default rows per pipelined batch; small enough to bound buffering,
#: large enough that per-batch governance polls are amortized
DEFAULT_CHUNK_SIZE = 1024


class Engine:
    """Dictionary-encoded relations with indexed fragment scans.

    The executor keeps operator semantics, plan shapes, distribution,
    fault handling and the priced cost model; an engine supplies the
    access paths.  A subclass may override :meth:`scan` / :meth:`join`
    and carry its own :attr:`name` — an instance handed to the executor
    need not be in :data:`ENGINES`.
    """

    #: what ``Executor.engine``, spans and metrics report
    name: str = "columnar"
    #: most rows an operator on the plan's probe spine hands its
    #: consumer at once; ``None`` means every operator emits exactly
    #: once (its whole per-worker output)
    chunk_size: Optional[int] = None

    def scan(
        self, cluster: "Cluster", pattern: TriplePattern
    ) -> Iterable[EncodedRelation]:
        """One relation of matches per worker slot, in slot order.

        Lazy: the executor consumes slot by slot and can emit a worker's
        rows before the next worker's fragment is fetched.
        """
        return (
            scan_pattern_encoded(cluster.worker_fragment(worker), pattern)
            for worker in range(cluster.size)
        )

    def join(self, relations: List[EncodedRelation]) -> EncodedRelation:
        """k-ary multi-join of co-located relations (greedy pair order)."""
        return multi_join_encoded(relations)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class PipelinedEngine(Engine):
    """The same access paths, at most ``chunk_size`` rows per batch.

    Not a driver: bounding the batches on the plan's probe spine is
    what gives an early first row, a ``LIMIT`` that stops the pull, and
    inter-operator buffering of at most ``chunk_size × plan_depth``.
    """

    name = "pipelined"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> None:
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size


class EngineSpec(NamedTuple):
    """One selectable engine: what ``--engine`` prints and what builds it."""

    #: one-line description (CLI help is generated from these)
    description: str
    #: zero-argument constructor for a fresh :class:`Engine` instance
    factory: Callable[[], Engine]


#: the engines plans can run on, by ``--engine`` / ``OptimizeOptions.engine`` name
ENGINES: Dict[str, EngineSpec] = {
    "columnar": EngineSpec(
        "dictionary-encoded ids with indexed scans; every operator emits once",
        Engine,
    ),
    "pipelined": EngineSpec(
        "the same access paths in bounded batches; identical results, "
        "bounded buffering, early first row and LIMIT pushdown",
        PipelinedEngine,
    ),
}


def resolve_engine(engine: Union[str, Engine]) -> Tuple[str, Engine]:
    """Resolve an :data:`ENGINES` name or an :class:`Engine` instance.

    Returns ``(name, instance)``: a name builds a fresh instance from
    its factory; an instance passes through under its own
    :attr:`Engine.name`.
    """
    if isinstance(engine, Engine):
        return engine.name, engine
    spec = ENGINES.get(engine)
    if spec is None:
        raise ValueError(f"unknown engine {engine!r}; expected one of {tuple(ENGINES)}")
    return engine, spec.factory()
