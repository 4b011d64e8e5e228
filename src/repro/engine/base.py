"""The engine protocol: a formal contract for physical execution backends.

The executor runs one pull-based operator pipeline for every backend
(:mod:`repro.engine.executor`); a backend only chooses the row
representation and how many rows an operator hands over at a time:

* :class:`Engine` — the abstract protocol every backend implements:
  how to scan a pattern on the cluster, how to multi-join co-located
  relations, how to route a binding for repartitioning, how to make an
  empty relation for a schema, how to materialize the final result
  (:meth:`Engine.decode`), and :attr:`Engine.chunk_size`;
* :class:`EngineSpec` — one registry entry per backend: the factory
  plus the analytic properties other subsystems derive choices from
  (the MapReduce simulator's shuffle discount, whether rows are
  dictionary-encoded);
* :data:`ENGINES` — the registry's own live key view (``in``,
  ``len()``, iteration in registration order), so nothing
  hand-maintains the set of engine names.

The CLI ``--engine`` choices, ``OptimizeOptions.engine`` validation,
:class:`~repro.engine.executor.Executor` dispatch, and
:class:`~repro.engine.mapreduce.MapReduceSimulator` pricing all read
this registry; adding a backend is one :func:`register_engine` call
(see ``docs/API.md`` § "Engine protocol").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, Optional, Tuple, Union

from ..rdf.terms import Variable
from ..sparql.ast import TriplePattern
from .columnar import (
    EncodedRelation,
    multi_join_encoded,
    scan_pattern_encoded,
)
from .relations import Relation, multi_join, scan_pattern

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from .cluster import Cluster


class Engine(ABC):
    """A physical execution backend the :class:`Executor` runs plans on.

    Implementations choose the row representation (term tuples,
    dictionary ids, …) and the access paths; the executor keeps operator
    semantics, plan shapes, distribution, fault handling and the priced
    cost model engine-neutral.
    """

    #: registry name of the backend (matches its :class:`EngineSpec`)
    name: str = ""
    #: most rows an operator on the plan's probe spine hands its
    #: consumer at once; ``None`` means every operator emits exactly
    #: once (its whole per-worker output)
    chunk_size: Optional[int] = None

    @abstractmethod
    def scan(self, cluster: "Cluster", pattern: TriplePattern) -> Iterable[object]:
        """One relation of matches per worker slot, in slot order.

        May be lazy: the executor consumes slot by slot and can emit a
        worker's rows before the next worker is scanned.
        """

    @abstractmethod
    def join(self, relations: List[object]) -> object:
        """k-ary multi-join of co-located relations (greedy pair order)."""

    @abstractmethod
    def route(self, cluster: "Cluster") -> Callable[[object], int]:
        """The repartition routing function bound to *cluster*.

        The returned callable maps one join-variable binding (a term or
        a dictionary id, per the backend's representation) to the live
        worker that owns it.
        """

    @abstractmethod
    def relation(self, cluster: "Cluster", variables: Iterable[Variable]) -> object:
        """An empty relation over *variables* in this representation."""

    def decode(self, relation: object) -> Relation:
        """Materialize the final result as a term-level :class:`Relation`."""
        return relation.decode()  # type: ignore[attr-defined]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class ReferenceEngine(Engine):
    """Term-tuple relations: the original, oracle implementation."""

    name = "reference"

    def scan(self, cluster: "Cluster", pattern: TriplePattern) -> Iterable[Relation]:
        return (scan_pattern(graph, pattern) for graph in cluster.worker_graphs())

    def join(self, relations: List[Relation]) -> Relation:
        return multi_join(relations)

    def route(self, cluster: "Cluster") -> Callable[[object], int]:
        return cluster.route

    def relation(self, cluster: "Cluster", variables: Iterable[Variable]) -> Relation:
        return Relation(variables)


class ColumnarEngine(Engine):
    """Dictionary-encoded relations with indexed fragment scans."""

    name = "columnar"

    def scan(
        self, cluster: "Cluster", pattern: TriplePattern
    ) -> Iterable[EncodedRelation]:
        # fragments are fetched (and, cold, encoded) one worker at a time
        return (
            scan_pattern_encoded(cluster.worker_fragment(worker), pattern)
            for worker in range(cluster.size)
        )

    def join(self, relations: List[EncodedRelation]) -> EncodedRelation:
        return multi_join_encoded(relations)

    def route(self, cluster: "Cluster") -> Callable[[object], int]:
        return cluster.route_id

    def relation(
        self, cluster: "Cluster", variables: Iterable[Variable]
    ) -> EncodedRelation:
        return EncodedRelation(variables, cluster.dictionary)


@dataclass(frozen=True)
class EngineSpec:
    """One registered backend: its factory plus analytic properties."""

    #: registry key (the ``--engine`` choice / ``OptimizeOptions.engine``)
    name: str
    #: one-line description (CLI help is generated from these)
    description: str
    #: zero-argument constructor for a fresh :class:`Engine` instance
    factory: Callable[[], Engine]
    #: shuffle-width discount the MapReduce simulator applies to the
    #: per-tuple transfer constants (β): encoded rows ship fixed-width
    #: ids instead of serialized terms
    shuffle_factor: float = 1.0
    #: whether rows are dictionary-encoded ids (late materialization)
    encoded: bool = False


#: registration-ordered registry of engine specs
_REGISTRY: Dict[str, EngineSpec] = {}

#: names of the engines plans can run on — the registry's live key view
ENGINES = _REGISTRY.keys()


def register_engine(spec: EngineSpec) -> EngineSpec:
    """Add *spec* to the registry (name collisions are an error)."""
    if spec.name in _REGISTRY:
        raise ValueError(f"engine {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def engine_spec(name: str) -> EngineSpec:
    """The :class:`EngineSpec` registered under *name*.

    Raises the executor's historical error shape for unknown names so
    every consumer reports the same message.
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown engine {name!r}; expected one of {tuple(ENGINES)}")
    return spec


def engine_specs() -> List[EngineSpec]:
    """All registered specs in registration order."""
    return list(_REGISTRY.values())


def resolve_engine(engine: Union[str, Engine]) -> Tuple[str, Engine]:
    """Resolve a registered name or an :class:`Engine` instance.

    Returns ``(name, instance)``: a name builds a fresh instance from
    its spec's factory; an instance passes through (its :attr:`Engine.name`
    need not be registered — bring-your-own backends are allowed).
    """
    if isinstance(engine, Engine):
        return engine.name or type(engine).__name__, engine
    return engine, engine_spec(engine).factory()


register_engine(
    EngineSpec(
        name="reference",
        description="term tuples; the original, oracle implementation",
        factory=ReferenceEngine,
    )
)
register_engine(
    EngineSpec(
        name="columnar",
        description=(
            "dictionary-encoded ids with indexed scans; identical "
            "results, faster execution"
        ),
        factory=ColumnarEngine,
        shuffle_factor=0.25,
        encoded=True,
    )
)
