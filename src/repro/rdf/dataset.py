"""Dataset container with global statistics.

A :class:`Dataset` bundles an :class:`~repro.rdf.triples.RDFGraph` with
the summary statistics the optimizer's cardinality estimator consumes:
per-predicate triple counts and distinct subject/object counts.  The
statistics mirror what RDF-3X exposes to its optimizer in the paper's
prototype.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, Iterable, Optional

from .encoding import EncodedGraph, TermDictionary
from .terms import Term
from .triples import RDFGraph, Triple


_FIRST = itemgetter(0)


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
        integer columns.  The per-predicate counts are derived from the
        columns, so no term is hashed a second time.
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
        subjects, predicates, objects = encoded.subjects, encoded.predicates, encoded.objects
        distinct_subjects = Counter(map(_FIRST, set(zip(predicates, subjects))))
        distinct_objects = Counter(map(_FIRST, set(zip(predicates, objects))))
        self._predicate_stats = {
            self.dictionary.decode(p): PredicateStatistics(
                triple_count=count,
                distinct_subjects=distinct_subjects[p],
                distinct_objects=distinct_objects[p],
            )
            for p, count in Counter(predicates).items()
        }

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
