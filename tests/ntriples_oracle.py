"""Test oracle: the term-level N-Triples load path, as it stood before
``load_ntriples`` parsed straight into the dictionary and the id columns.

``parse_ntriples`` and ``load_ntriples`` are verbatim from the commit
before that change: one ``Triple`` per line, an insertion-ordered
``RDFGraph`` of them, first occurrence of a repeated triple wins.
``encode`` is what ``Dataset.refresh`` then did with the graph —
``EncodedGraph.from_graph`` over a fresh ``TermDictionary``, with the
``TermDictionary._encode_all`` of that commit — written out over a plain
dict, so it shares no code with the dictionary under test.  The line
grammar (``_CANONICAL_LINE``, ``_parse_line``, ``_parse_term``) did not
change and is imported.  They survive only here, so that
``tests/test_ntriples_load.py`` can assert that the id-level loader
yields the same triples in the same order, the same dictionary and the
same three columns.
"""

from __future__ import annotations

import io
from itertools import chain
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, TextIO, Tuple, Union

from repro.rdf.ntriples import _CANONICAL_LINE, _parse_line, _parse_term
from repro.rdf.terms import Term
from repro.rdf.triples import RDFGraph, Triple


def parse_ntriples(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Yield triples from an N-Triples document (string or file object).

    Equal terms of one document are one object: a token's term is
    parsed once and then served from a per-document memo, so a graph
    holds (and hashes) each distinct term once.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    memo: Dict[str, Term] = {}
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        shape = _CANONICAL_LINE.fullmatch(line)
        if shape is None:
            yield _parse_line(line, line_number)
            continue
        s, p, o = shape.groups()
        try:
            triple = Triple(memo[s], memo[p], memo[o])
        except KeyError:  # a token's first appearance
            for token in (s, p, o):
                if token not in memo:
                    memo[token] = _parse_term(token, 0, line_number)[0]
            triple = Triple(memo[s], memo[p], memo[o])
        yield triple


def load_ntriples(path: Union[str, Path]) -> RDFGraph:
    """Load an N-Triples file into a fresh :class:`RDFGraph`."""
    graph = RDFGraph()
    with open(path, "r", encoding="utf-8") as handle:
        graph.add_all(parse_ntriples(handle))
    return graph


def encode(graph: Iterable[Triple]) -> Tuple[List[Term], List[int], List[int], List[int]]:
    """(terms in id order, subject ids, predicate ids, object ids) of
    *graph*: ids in first-seen s, p, o order."""
    terms = list(chain.from_iterable(t.terms() for t in graph))
    ids: Dict[Term, int] = {}
    known: List[Term] = []
    for term in dict.fromkeys(terms):
        if term not in ids:
            ids[term] = len(known)
            known.append(term)
    flat = list(map(ids.__getitem__, terms))
    return known, flat[0::3], flat[1::3], flat[2::3]
