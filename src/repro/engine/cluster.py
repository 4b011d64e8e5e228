"""The simulated cluster: workers holding partitioned data.

Plays the role of the paper's 10-node RDF-3X + Hadoop testbed.  A
:class:`Cluster` serves one :class:`~repro.rdf.encoding.EncodedGraph`
fragment per worker (a view of the dataset's table through the
partitioning's node masks) plus the id-hash routing used by
repartition joins.

The cluster is *fault-aware*: workers can be marked dead
(:meth:`fail_worker`), in which case their partition is re-routed to
the next live worker from the durable replica the partitioning retains
(its node masks are the HDFS-replica stand-in: liveness changes never
touch them, only hot-query placement, static or online, sets bits in
them); a re-route is a union of node bits.  Repartition routing skips
dead workers, and scans read the degraded layout through
:meth:`worker_fragments`.  A fully healthy
cluster behaves exactly as before faults existed — the healthy paths
return the original structures untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..partitioning.base import Partitioning, PartitioningMethod
from ..rdf.dataset import Dataset
from ..rdf.encoding import EncodedGraph, TermDictionary
from ..rdf.triples import RDFGraph


class Cluster:
    """A set of workers with partitioned RDF data.

    Every worker serves an :class:`~repro.rdf.encoding.EncodedGraph`
    *fragment* over one cluster-wide
    :class:`~repro.rdf.encoding.TermDictionary` (the dataset's), so ids
    are join-compatible across workers and repartition shuffles move
    bare integers.  The term-level :meth:`worker_graph` is a decoded,
    read-only view of the fragment, for tests.
    """

    def __init__(
        self,
        partitioning: Partitioning,
        dictionary: Optional[TermDictionary] = None,
    ) -> None:
        self.partitioning = partitioning
        if partitioning.cluster_size < 1:
            raise ValueError(
                "a cluster needs at least one worker; the partitioning "
                f"{partitioning.method_name!r} produced no node graphs"
            )
        #: the cluster-wide term↔id table: the dataset table's
        #: (*dictionary* is accepted for callers that still pass it)
        self.dictionary = partitioning.table.dictionary
        # liveness/fragment state below is unlocked by design: a Cluster
        # is owned by one executor thread.  Liveness changes between
        # queries, or during one from that same thread (fault recovery;
        # a chaos test killing a worker mid-scan, which the scan's epoch
        # check turns into a replay).  A multi-threaded server
        # must either confine each Cluster to a session thread or add a
        # lock + `#: guarded-by:` declarations (concurrency audit, PR 8).
        self._dead: Set[int] = set()
        #: degraded mode: slot -> the node bits it serves (a dead slot 0, a
        #: re-route target its own and its dead slots'); others serve their own
        self._override: Dict[int, int] = {}
        #: callbacks invoked by :meth:`heal` (e.g. a circuit breaker
        #: closing once its quarantined workers come back)
        self._heal_listeners: List[Callable[[], None]] = []
        #: layout epoch: bumped on every liveness change
        #: (:meth:`fail_worker` and :meth:`heal`).  Every scan
        #: snapshots it and the executor replays the plan on the
        #: degraded layout when it moves while the scan is emitting —
        #: the sink's set semantics absorb the re-emitted rows, so the
        #: replay is idempotent.
        self.epoch = 0

    @classmethod
    def build(
        cls, dataset: Dataset, method: PartitioningMethod, cluster_size: int = 10
    ) -> "Cluster":
        """Partition *dataset* with *method* across *cluster_size* workers.

        The dataset's term dictionary becomes the cluster-wide id
        space: fragments are views cut from the dataset's table
        (:meth:`~repro.rdf.encoding.EncodedGraph.cut`), nothing is
        encoded a second time.
        """
        return cls(method.partition(dataset, cluster_size))

    @property
    def size(self) -> int:
        """Number of worker slots (dead workers keep their slot)."""
        return self.partitioning.cluster_size

    # ------------------------------------------------------------------
    # liveness
    # ------------------------------------------------------------------
    @property
    def live_size(self) -> int:
        """Number of workers still alive."""
        return self.size - len(self._dead)

    @property
    def live_workers(self) -> List[int]:
        """Indexes of the workers still alive, ascending."""
        return [i for i in range(self.size) if i not in self._dead]

    @property
    def failed_workers(self) -> List[int]:
        """Indexes of the workers that have crashed, ascending."""
        return sorted(self._dead)

    def is_live(self, worker: int) -> bool:
        """Whether *worker* is still alive."""
        return worker not in self._dead

    def _bits(self, worker: int) -> int:
        """The node bits *worker* serves (``0`` once dead)."""
        return self._override.get(worker, 1 << worker)

    def worker_fragment(self, worker: int) -> EncodedGraph:
        """The encoded fragment *worker* currently serves (empty once dead)."""
        return self.partitioning.fragment(self._bits(worker))

    def worker_fragments(self) -> List[EncodedGraph]:
        """Per-slot encoded fragments: re-routed and migrated replicas included."""
        return [self.worker_fragment(i) for i in range(self.size)]

    def worker_graph(self, worker: int) -> RDFGraph:
        """A term-level view of :meth:`worker_fragment` (decoded once)."""
        return self.worker_fragment(worker).decoded()

    def worker_graphs(self) -> List[RDFGraph]:
        """Per-slot term-level views (for tests; the executor reads fragments)."""
        return [self.worker_graph(i) for i in range(self.size)]

    def fail_worker(self, worker: int) -> Tuple[int, int]:
        """Crash *worker* and re-route its partition in degraded mode.

        The lost partition is recovered from the durable replica: the
        node bits *worker* served (its own, plus any a previous re-route
        gave it) join those of the next live worker, which so also serves
        what is placed on them later, and *worker* serves none.  Returns
        ``(target, triples_moved)`` so the caller can price the replica
        re-scan.
        """
        if not 0 <= worker < self.size:
            raise ValueError(f"no such worker {worker} (cluster size {self.size})")
        if worker in self._dead:
            raise ValueError(f"worker {worker} is already dead")
        if self.live_size <= 1:
            raise ValueError("cannot fail the last live worker")
        lost = self._bits(worker)
        self._dead.add(worker)
        live = self.live_workers
        target = next((i for i in live if i > worker), live[0])
        self._override[target] = self._bits(target) | lost
        self._override[worker] = 0
        self.epoch += 1
        return target, len(self.partitioning.fragment(lost))

    def add_heal_listener(self, callback: Callable[[], None]) -> None:
        """Register *callback* to run whenever the cluster heals.

        A callback already held is not added again (bound methods of one
        object compare equal), so N executors sharing one circuit
        breaker leave one listener, not N.
        """
        if callback not in self._heal_listeners:
            self._heal_listeners.append(callback)

    def heal(self) -> None:
        """Resurrect every worker and restore the original layout.

        Heal listeners run afterwards, so anything tracking liveness
        (the executor's circuit breaker) observes the healthy cluster.
        """
        self._dead.clear()
        self._override.clear()
        self.epoch += 1
        for callback in self._heal_listeners:
            callback()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route_ids(self, idents: Iterable[int]) -> List[int]:
        """The worker each term *id* hashes to (repartition-join routing).

        The hash is integer arithmetic on the dictionary id — no term
        is ever decoded (or stringified) to route a shuffled row.  Dead
        workers are skipped deterministically: the original target slot
        is folded onto the list of live workers, so routing stays a
        pure function of (id, liveness state).
        """
        size = self.size
        fold = [self._live(slot) for slot in range(size)]
        return [fold[((ident * 2654435761) & 0xFFFFFFFF) % size] for ident in idents]

    def route_id(self, ident: int) -> int:
        """:meth:`route_ids` for one *id*."""
        return self.route_ids((ident,))[0]

    def _live(self, target: int) -> int:
        """*target*, or the live worker a dead target's slot folds onto."""
        if target in self._dead:
            live = self.live_workers
            target = live[target % len(live)]
        return target

    def __repr__(self) -> str:
        sizes = [len(fragment) for fragment in self.worker_fragments()]
        dead = f", dead={self.failed_workers}" if self._dead else ""
        return (
            f"Cluster({self.size} workers, method={self.partitioning.method_name}, "
            f"loads={sizes}{dead})"
        )
