"""The simulated cluster: workers holding partitioned data.

Plays the role of the paper's 10-node RDF-3X + Hadoop testbed.  A
:class:`Cluster` owns one :class:`~repro.rdf.triples.RDFGraph` per
worker (produced by a partitioning method) plus the term-hash routing
used by repartition joins.

The cluster is *fault-aware*: workers can be marked dead
(:meth:`fail_worker`), in which case their partition is re-routed to
the next live worker from the durable replica the partitioning retains
(``partitioning.node_graphs`` is never mutated — it is the HDFS-replica
stand-in), repartition routing skips dead workers, and scans read the
degraded layout through :meth:`worker_graphs`.  A fully healthy cluster
behaves exactly as before faults existed — the healthy paths return the
original structures untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..partitioning.base import Partitioning, PartitioningMethod, hash_term
from ..rdf.dataset import Dataset
from ..rdf.encoding import EncodedGraph, TermDictionary
from ..rdf.terms import Term
from ..rdf.triples import RDFGraph, Triple


class Cluster:
    """A set of workers with partitioned RDF data.

    For the columnar engine, every worker additionally serves an
    :class:`~repro.rdf.encoding.EncodedGraph` *fragment* of its graph,
    built lazily against one cluster-wide
    :class:`~repro.rdf.encoding.TermDictionary` (the dataset's when the
    cluster was built from one), so ids are join-compatible across
    workers and repartition shuffles move bare integers.
    """

    def __init__(
        self,
        partitioning: Partitioning,
        dictionary: Optional[TermDictionary] = None,
    ) -> None:
        self.partitioning = partitioning
        self.workers: List[RDFGraph] = partitioning.node_graphs
        if not self.workers:
            raise ValueError(
                "a cluster needs at least one worker; the partitioning "
                f"{partitioning.method_name!r} produced no node graphs"
            )
        self._dictionary = dictionary
        # liveness/fragment state below is unlocked by design: a Cluster
        # is owned by one executor thread.  Liveness changes between
        # queries, or during one from that same thread (fault recovery;
        # a chaos test killing a worker mid-scan, which the scan's epoch
        # check turns into a replay).  A multi-threaded server
        # must either confine each Cluster to a session thread or add a
        # lock + `#: guarded-by:` declarations (concurrency audit, PR 8).
        #: lazily encoded per-worker fragments; invalidated per worker
        #: by :meth:`fail_worker` (the re-encode is the replica re-scan)
        self._fragments: Dict[int, EncodedGraph] = {}
        self._dead: Set[int] = set()
        #: degraded-mode graph overrides: dead workers -> empty graph,
        #: re-route targets -> their graph merged with the lost partition
        self._override: Dict[int, RDFGraph] = {}
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

        The dataset's term dictionary (already fed during its
        statistics pass) becomes the cluster-wide id space, so fragment
        encoding is pure lookups — the dataset is never re-interned.
        """
        if cluster_size < 1:
            raise ValueError(f"cluster_size must be >= 1, got {cluster_size}")
        return cls(method.partition(dataset, cluster_size), dataset.dictionary)

    @property
    def size(self) -> int:
        """Number of worker slots (dead workers keep their slot)."""
        return len(self.workers)

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

    def worker_graph(self, worker: int) -> RDFGraph:
        """The graph *worker* currently serves (empty once it is dead)."""
        return self._override.get(worker, self.workers[worker])

    def worker_graphs(self) -> List[RDFGraph]:
        """Per-slot effective graphs; the original list while pristine.

        The fast path keys on overrides, not liveness: adaptive
        migration (:mod:`repro.partitioning.adaptive`) merges replicas
        into *healthy* workers, and those placements must be visible to
        scans exactly like a re-routed partition is.
        """
        if not self._override:
            return self.workers
        return [self.worker_graph(i) for i in range(self.size)]

    # ------------------------------------------------------------------
    # encoded fragments (columnar engine)
    # ------------------------------------------------------------------
    @property
    def dictionary(self) -> TermDictionary:
        """The cluster-wide term↔id table (created on first use)."""
        if self._dictionary is None:
            self._dictionary = TermDictionary()
        return self._dictionary

    def worker_fragment(self, worker: int) -> EncodedGraph:
        """The encoded fragment *worker* currently serves (cached).

        Built from :meth:`worker_graph`, so degraded layouts are
        reflected: a re-route target's fragment is re-encoded from its
        merged graph — the simulated replica re-scan of recovery.
        """
        fragment = self._fragments.get(worker)
        if fragment is None:
            fragment = EncodedGraph.from_graph(
                self.worker_graph(worker), self.dictionary
            )
            self._fragments[worker] = fragment
        return fragment

    def worker_fragments(self) -> List[EncodedGraph]:
        """Per-slot encoded fragments under the current liveness state."""
        return [self.worker_fragment(i) for i in range(self.size)]

    def merge_replica(self, worker: int, triples: Iterable[Triple]) -> int:
        """Merge *triples* into the graph *worker* serves; count additions.

        The shared replica primitive behind fail-stop re-routing and
        adaptive migration (:mod:`repro.partitioning.adaptive`): the
        worker's served graph is rebuilt as a copy (so
        ``partitioning.node_graphs`` — the durable replica — is never
        mutated) and its encoded fragment is invalidated, forcing the
        next columnar scan to re-encode from the merged graph (the
        simulated replica re-scan).  Does **not** bump the epoch; the
        caller owns the batching of layout changes.
        """
        merged = RDFGraph(self.worker_graph(worker))
        added = merged.add_all(triples)
        self._override[worker] = merged
        self._fragments.pop(worker, None)
        return added

    def fail_worker(self, worker: int) -> Tuple[int, int]:
        """Crash *worker* and re-route its partition in degraded mode.

        The lost partition (recovered from the durable replica — the
        partitioning's untouched node graph, plus anything a previous
        re-route or adaptive migration already merged into this worker)
        is merged into the next live worker's graph.  Returns
        ``(target, triples_moved)`` so the caller can price the replica
        re-scan.
        """
        if not 0 <= worker < self.size:
            raise ValueError(f"no such worker {worker} (cluster size {self.size})")
        if worker in self._dead:
            raise ValueError(f"worker {worker} is already dead")
        if self.live_size <= 1:
            raise ValueError("cannot fail the last live worker")
        lost_graph = self.worker_graph(worker)
        self._dead.add(worker)
        live = self.live_workers
        target = next((i for i in live if i > worker), live[0])
        self.merge_replica(target, lost_graph)
        self._override[worker] = RDFGraph()
        self._fragments.pop(worker, None)
        self.epoch += 1
        return target, len(lost_graph)

    def add_heal_listener(self, callback: Callable[[], None]) -> None:
        """Register *callback* to run whenever the cluster heals."""
        self._heal_listeners.append(callback)

    def heal(self) -> None:
        """Resurrect every worker and restore the original layout.

        Heal listeners run afterwards, so anything tracking liveness
        (the executor's circuit breaker) observes the healthy cluster.
        """
        self._dead.clear()
        self._override.clear()
        self._fragments.clear()
        self.epoch += 1
        for callback in self._heal_listeners:
            callback()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def route(self, term: Term) -> int:
        """The worker a term hashes to (repartition-join routing).

        Dead workers are skipped deterministically: the original target
        slot is folded onto the list of live workers, so routing stays
        a pure function of (term, liveness state).
        """
        target = hash_term(term, self.size)
        if target in self._dead:
            live = self.live_workers
            target = live[target % len(live)]
        return target

    def route_id(self, ident: int) -> int:
        """The worker a term *id* hashes to (columnar repartition).

        Same liveness-folding contract as :meth:`route`, but the hash
        is integer arithmetic on the dictionary id — no term is ever
        decoded (or stringified) to route a shuffled row.  The two
        routings may place the same binding on different workers; that
        only changes *where* a row is joined, never the result or the
        shipped-tuple counts.
        """
        target = ((ident * 2654435761) & 0xFFFFFFFF) % self.size
        if target in self._dead:
            live = self.live_workers
            target = live[target % len(live)]
        return target

    def __repr__(self) -> str:
        sizes = [len(g) for g in self.worker_graphs()]
        dead = f", dead={self.failed_workers}" if self._dead else ""
        return (
            f"Cluster({self.size} workers, method={self.partitioning.method_name}, "
            f"loads={sizes}{dead})"
        )
