"""Generic RDF data partitioning model and concrete methods."""

from .base import Partitioning, PartitioningMethod, hash_term
from .dynamic import DynamicPartitioning
from .hash_so import HashSubjectObject
from .path_bmc import PathBMC
from .semantic_hash import SemanticHash
from .uno_hop import UndirectedOneHop, greedy_edge_cut_partition

#: adaptive-repartitioning names resolved lazily (PEP 562): the
#: :mod:`.adaptive` module subclasses :class:`repro.engine.cluster.Cluster`,
#: and the engine package imports this package's submodules at load
#: time — an eager import here would be circular.
_ADAPTIVE_EXPORTS = frozenset(
    {
        "AdaptationReport",
        "AdaptiveCluster",
        "MigrationProposal",
        "RepartitioningAdvisor",
    }
)


def __getattr__(name: str):
    if name in _ADAPTIVE_EXPORTS:
        from . import adaptive

        return getattr(adaptive, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PartitioningMethod",
    "Partitioning",
    "hash_term",
    "HashSubjectObject",
    "DynamicPartitioning",
    "SemanticHash",
    "PathBMC",
    "UndirectedOneHop",
    "greedy_edge_cut_partition",
    "AdaptationReport",
    "AdaptiveCluster",
    "MigrationProposal",
    "RepartitioningAdvisor",
]
