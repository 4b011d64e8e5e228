"""Dataset container with global statistics.

A :class:`Dataset` bundles an :class:`~repro.rdf.triples.RDFGraph` with
the summary statistics the optimizer's cardinality estimator consumes:
per-predicate triple counts and distinct subject/object counts.  The
statistics mirror what RDF-3X exposes to its optimizer in the paper's
prototype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from .encoding import EncodedGraph, TermDictionary
from .terms import Term
from .triples import RDFGraph, Triple


@dataclass
class PredicateStatistics:
    """Summary statistics for one predicate."""

    triple_count: int = 0
    distinct_subjects: int = 0
    distinct_objects: int = 0


class Dataset:
    """An RDF graph plus the statistics the optimizer needs.

    Statistics are computed once on construction (or :meth:`refresh`) and
    then served in O(1).
    """

    def __init__(self, graph: Optional[RDFGraph] = None, name: str = "dataset") -> None:
        self.graph = graph if graph is not None else RDFGraph()
        self.name = name
        self._predicate_stats: Dict[Term, PredicateStatistics] = {}
        #: the dataset-wide term↔id interning table; worker fragments of
        #: any cluster built from this dataset share it, so ids are
        #: join-compatible across the whole cluster (a loaded graph
        #: brings its own, which :meth:`refresh` adopts in place of this)
        self.dictionary = TermDictionary()
        self.refresh()

    @classmethod
    def from_triples(cls, triples: Iterable[Triple], name: str = "dataset") -> "Dataset":
        return cls(RDFGraph(triples), name=name)

    def refresh(self) -> None:
        """Recompute all statistics from the current graph contents.

        A graph that is still a view over id columns — a freshly
        loaded one — is adopted as it is, columns and dictionary.  Any
        other is encoded in one pass: :meth:`EncodedGraph.from_graph`
        interns every term (idempotently — terms that already have ids
        keep them across refreshes) and leaves the triples as three
        integer columns.  The per-predicate counts are read off the
        columns grouped by predicate (:meth:`EncodedGraph.predicate_runs`),
        so no term is hashed a second time.
        """
        encoded = self.graph._encoded
        if encoded is None or (
            len(self.dictionary) and encoded.dictionary is not self.dictionary
        ):
            # hand-built, or changed since it was loaded — or a view whose
            # ids are not the ones this dataset has already handed out
            encoded = EncodedGraph.from_graph(self.graph, self.dictionary)
        self._encoded = encoded
        self.dictionary = encoded.dictionary
        self._predicate_stats = {}
        for predicate, (subjects, objects) in encoded.predicate_runs().items():
            self._predicate_stats[self.dictionary.decode(predicate)] = PredicateStatistics(
                triple_count=len(subjects),
                distinct_subjects=len(set(subjects)),
                distinct_objects=len(set(objects)),
            )

    def encoded_graph(self) -> EncodedGraph:
        """The whole dataset as one :class:`EncodedGraph`.

        Built by :meth:`refresh`.  Partitioners place its triple
        positions and gather every worker fragment from its columns
        (sharing :attr:`dictionary`); statistics and single-node
        columnar evaluation read its indexes.
        """
        return self._encoded

    # ------------------------------------------------------------------
    # statistics accessors
    # ------------------------------------------------------------------
    @property
    def triple_count(self) -> int:
        """Number of triples in the underlying graph."""
        return len(self.graph)

    def predicate_statistics(self, predicate: Term) -> PredicateStatistics:
        """Statistics for *predicate* (zeros if unseen)."""
        return self._predicate_stats.get(predicate, PredicateStatistics())

    def predicate_cardinality(self, predicate: Term) -> int:
        """Triple count for *predicate* (zero if unseen)."""
        return self.predicate_statistics(predicate).triple_count

    def __repr__(self) -> str:
        return f"Dataset({self.name!r}, {self.triple_count} triples)"
