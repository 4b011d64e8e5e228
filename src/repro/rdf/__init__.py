"""RDF data model substrate: terms, triples, graphs, encoding, N-Triples IO."""

from .dataset import Dataset
from .encoding import EncodedGraph, PredicateIndex, TermDictionary
from .ntriples import (
    NTriplesError,
    load_ntriples,
    parse_ntriples,
    save_ntriples,
    serialize_ntriples,
)
from .terms import IRI, BlankNode, Literal, PatternTerm, Term, Variable, is_concrete
from .triples import RDFGraph, Triple, triple

__all__ = [
    "IRI",
    "BlankNode",
    "Literal",
    "Variable",
    "Term",
    "PatternTerm",
    "is_concrete",
    "Triple",
    "triple",
    "RDFGraph",
    "Dataset",
    "TermDictionary",
    "EncodedGraph",
    "PredicateIndex",
    "NTriplesError",
    "parse_ntriples",
    "load_ntriples",
    "save_ntriples",
    "serialize_ntriples",
]
