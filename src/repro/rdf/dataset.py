"""Dataset container: a graph and its encoded, dictionary-shared form.

A :class:`Dataset` bundles an :class:`~repro.rdf.triples.RDFGraph` with
its :class:`~repro.rdf.encoding.EncodedGraph` and the dataset-wide
:class:`~repro.rdf.encoding.TermDictionary`.  Partitioners place its
triples, clusters serve worker fragments as views of its id columns, and the
optimizer's exact statistics
(:meth:`~repro.core.cardinality.StatisticsCatalog.from_dataset`) are
counted off the same columns.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .encoding import EncodedGraph, TermDictionary
from .triples import RDFGraph, Triple


class Dataset:
    """An RDF graph plus its encoded form.

    The graph is encoded once on construction (or :meth:`refresh`); later
    changes to :attr:`graph` are not seen until the next :meth:`refresh`.
    """

    def __init__(self, graph: Optional[RDFGraph] = None, name: str = "dataset") -> None:
        self.graph = graph if graph is not None else RDFGraph()
        self.name = name
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
        """Re-encode the dataset from the current graph contents.

        A graph that is still a view over id columns — a freshly
        loaded one — is adopted as it is, columns and dictionary.  Any
        other is encoded in one pass: :meth:`EncodedGraph.from_graph`
        interns every term (idempotently — terms that already have ids
        keep them across refreshes) and leaves the triples as three
        integer columns.
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

    def encoded_graph(self) -> EncodedGraph:
        """The whole dataset as one :class:`EncodedGraph`.

        Built by :meth:`refresh`.  Partitioners mark the nodes that store
        each of its triple positions, and every worker fragment is a view
        cut from it (:meth:`~repro.rdf.encoding.EncodedGraph.cut`,
        sharing :attr:`dictionary`); statistics and single-node columnar
        evaluation read its indexes.
        """
        return self._encoded

    @property
    def triple_count(self) -> int:
        """Number of triples in the underlying graph."""
        return len(self.graph)

    def __repr__(self) -> str:
        return f"Dataset({self.name!r}, {self.triple_count} triples)"
