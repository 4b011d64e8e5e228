"""N-Triples reading and writing.

A small, strict-enough N-Triples codec so datasets can be persisted and
exchanged.  Supports IRIs, blank nodes, and literals with datatype or
language tag, plus ``#`` comments and blank lines.
"""

from __future__ import annotations

import io
import re
from array import array
from itertools import chain, islice
from operator import itemgetter, methodcaller
from pathlib import Path
from typing import Callable, Dict, Iterable, Iterator, List, TextIO, TypeVar, Union

from .encoding import EncodedGraph, IdTriple, TermDictionary
from .terms import BlankNode, IRI, Literal, Term
from .triples import _TERMS_OF, RDFGraph, Triple


class NTriplesError(ValueError):
    """Raised on malformed N-Triples input."""

    def __init__(self, message: str, line_number: int = 0) -> None:
        prefix = f"line {line_number}: " if line_number else ""
        super().__init__(prefix + message)
        self.line_number = line_number


#: The canonical line shape — what serializers (ours included) write:
#: three terms and the dot, no escapes, no trailing comment.  It only
#: splits the line into term tokens; each group ends exactly where
#: :func:`_parse_term` would stop (an IRI at its first ``>``, a blank
#: node label at whitespace), so a token means the same alone as in its
#: line.  Anything else goes through the strict parser below.
_NODE = r"<[^>]*>|_:[^ \t]*(?=[ \t])"
_CANONICAL_LINE = re.compile(
    rf"({_NODE})[ \t]*(<[^>]*>)[ \t]*"
    rf'({_NODE}|"[^"\\]*"(?:@[A-Za-z0-9-]+|\^\^<[^>]*>)?)[ \t]*\.'
)


#: lines recognised at a time: what bounds the transient token lists
_BATCH_LINES = 1024
_GROUPS = methodcaller("groups")
_Value = TypeVar("_Value")


def _recognise(
    stream: Iterable[str], value_of: Callable[[Term], _Value]
) -> Iterator[List[_Value]]:
    """The line recogniser behind both readers.

    Takes *stream* a batch of lines at a time and yields each batch's
    triples as one flat ``[s, p, o, s, p, o, ...]`` list of
    ``value_of(term)``.  A canonical line is split into tokens, and a
    token's value is computed at its first appearance in the document
    and then served from a memo; any other line goes through the strict
    parser where it stands, so values are asked for in s, p, o order of
    the lines.  A malformed line raises after the triples before it
    have been yielded.
    """
    memo: Dict[str, _Value] = {}
    memoised = memo.__getitem__

    def values_of(shapes: List["re.Match[str]"]) -> List[_Value]:
        tokens = list(chain.from_iterable(map(_GROUPS, shapes)))
        try:
            return list(map(memoised, tokens))
        except KeyError:  # first appearances
            for token in dict.fromkeys(tokens):
                if token not in memo:
                    memo[token] = value_of(_parse_term(token, 0, 0)[0])
            return list(map(memoised, tokens))

    lines_before = 0
    while lines := list(map(str.strip, islice(stream, _BATCH_LINES))):
        shapes = list(map(_CANONICAL_LINE.fullmatch, lines))
        values: List[_Value] = []
        start = 0
        # comments, blank lines, and what only the strict parser reads
        for at in [i for i, shape in enumerate(shapes) if shape is None]:
            values += values_of(shapes[start:at])
            start = at + 1
            line = lines[at]
            if line and not line.startswith("#"):
                try:
                    triple = _parse_line(line, lines_before + at + 1)
                except NTriplesError:
                    yield values
                    raise
                values += map(value_of, _TERMS_OF(triple))
        values += values_of(shapes[start:])
        yield values
        lines_before += len(lines)


def parse_ntriples(source: Union[str, TextIO]) -> Iterator[Triple]:
    """Yield triples from an N-Triples document (string or file object).

    Equal terms of one document are one object: a token's term is
    parsed once and then served from a per-document memo, so a graph
    holds (and hashes) each distinct term once.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    for terms in _recognise(stream, lambda term: term):
        yield from map(Triple, terms[0::3], terms[1::3], terms[2::3])


def load_ntriples(path: Union[str, Path]) -> RDFGraph:
    """Load an N-Triples file into a fresh :class:`RDFGraph`.

    The file is parsed straight into a :class:`TermDictionary` and three
    id columns (ids in first-seen s, p, o order, repeated triples
    dropped); the graph returned is a view over them that builds its
    ``Triple`` objects only if something reads it term by term.
    """
    dictionary = TermDictionary()
    rows: Dict[IdTriple, None] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for ids in _recognise(handle, dictionary.encode):
            rows.update(dict.fromkeys(zip(ids[0::3], ids[1::3], ids[2::3])))
    columns = tuple(array("q", map(itemgetter(i), rows)) for i in range(3))
    return RDFGraph._view_of(EncodedGraph(dictionary, columns))


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples to an N-Triples document string."""
    return "".join(f"{t}\n" for t in triples)


def save_ntriples(triples: Iterable[Triple], path: Union[str, Path]) -> int:
    """Write triples to *path*; return the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for t in triples:
            handle.write(f"{t}\n")
            count += 1
    return count


# ----------------------------------------------------------------------
# line-level parser
# ----------------------------------------------------------------------
def _parse_line(line: str, line_number: int) -> Triple:
    pos = 0
    subject, pos = _parse_term(line, pos, line_number)
    pos = _skip_ws(line, pos)
    predicate, pos = _parse_term(line, pos, line_number)
    pos = _skip_ws(line, pos)
    obj, pos = _parse_term(line, pos, line_number)
    pos = _skip_ws(line, pos)
    if pos >= len(line) or line[pos] != ".":
        raise NTriplesError("expected terminating '.'", line_number)
    trailing = line[pos + 1 :].strip()
    if trailing and not trailing.startswith("#"):
        raise NTriplesError(f"unexpected trailing content {trailing!r}", line_number)
    if isinstance(subject, Literal):
        raise NTriplesError("literal in subject position", line_number)
    if not isinstance(predicate, IRI):
        raise NTriplesError("predicate must be an IRI", line_number)
    return Triple(subject, predicate, obj)


def _skip_ws(line: str, pos: int) -> int:
    while pos < len(line) and line[pos] in " \t":
        pos += 1
    return pos


def _parse_term(line: str, pos: int, line_number: int) -> tuple[Term, int]:
    pos = _skip_ws(line, pos)
    if pos >= len(line):
        raise NTriplesError("unexpected end of line", line_number)
    char = line[pos]
    if char == "<":
        end = line.find(">", pos)
        if end < 0:
            raise NTriplesError("unterminated IRI", line_number)
        return IRI(line[pos + 1 : end]), end + 1
    if char == "_":
        if not line.startswith("_:", pos):
            raise NTriplesError("malformed blank node", line_number)
        end = pos + 2
        while end < len(line) and line[end] not in " \t":
            end += 1
        return BlankNode(line[pos + 2 : end]), end
    if char == '"':
        return _parse_literal(line, pos, line_number)
    raise NTriplesError(f"unexpected character {char!r}", line_number)


#: the single-character escapes of the N-Triples grammar (ECHAR)
_ECHAR = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _parse_literal(line: str, pos: int, line_number: int) -> tuple[Literal, int]:
    chars = []
    i = pos + 1
    while i < len(line):
        c = line[i]
        if c == "\\":
            if i + 1 >= len(line):
                raise NTriplesError("dangling escape", line_number)
            escape = line[i + 1]
            if escape in "uU":
                end = i + (6 if escape == "u" else 10)
                if end > len(line):
                    raise NTriplesError(f"short \\{escape} escape", line_number)
                chars.append(chr(int(line[i + 2 : end], 16)))
                i = end
                continue
            if escape not in _ECHAR:
                raise NTriplesError(f"unknown escape \\{escape}", line_number)
            chars.append(_ECHAR[escape])
            i += 2
            continue
        if c == '"':
            break
        chars.append(c)
        i += 1
    else:
        raise NTriplesError("unterminated literal", line_number)
    lexical = "".join(chars)
    i += 1  # past closing quote
    if i < len(line) and line[i] == "@":
        end = i + 1
        while end < len(line) and (line[end].isalnum() or line[end] == "-"):
            end += 1
        return Literal(lexical, language=line[i + 1 : end]), end
    if line.startswith("^^<", i):
        end = line.find(">", i + 3)
        if end < 0:
            raise NTriplesError("unterminated datatype IRI", line_number)
        return Literal(lexical, datatype=line[i + 3 : end]), end + 1
    return Literal(lexical), i
