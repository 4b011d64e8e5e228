"""N-Triples reading and writing.

A small, strict-enough N-Triples codec so datasets can be persisted and
exchanged.  Supports IRIs, blank nodes, and literals with datatype or
language tag, plus ``#`` comments and blank lines.
"""

from __future__ import annotations

import io
import re
from pathlib import Path
from typing import Dict, Iterable, Iterator, TextIO, Union

from .terms import BlankNode, IRI, Literal, Term
from .triples import RDFGraph, Triple


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
