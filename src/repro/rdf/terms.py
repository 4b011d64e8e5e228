"""RDF term model.

Terms are the atoms of the RDF data model: IRIs, literals, and blank
nodes.  Query variables (``?x``) are also modeled here because triple
patterns mix variables with concrete terms.

All terms are immutable, hashable, and ordered, so they can be used as
dictionary keys, set members, and sort keys throughout the engine.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Any, List, TypeVar, Union


class _HashSlot:
    """Base of the term and triple classes: one slot that holds the hash.

    Every dict/set touch hashes its key, and a graph touches each term
    thousands of times.  Each class fills the slot when an object is
    made — ``__post_init__`` for construction and ``replace``,
    :func:`_restored` for pickle and ``copy`` — so ``__hash__`` is a
    plain slot read.  The slot is not a dataclass field: ``==``,
    ordering, ``repr``, ``dataclasses.fields`` and the pickled state
    never see it, so an unpickled object (string hashes are
    per-process) hashes its fields afresh.
    """

    __slots__ = ("_hash",)


def _slot_hash(self: Any) -> int:
    """The ``__hash__`` of a hash-slot class."""
    return self._hash  # type: ignore[no-any-return]


def _restored(self: Any, state: List[Any]) -> None:
    """The ``__setstate__`` of a hash-slot class: the dataclass's own
    (*state* is the field values in order), then ``__post_init__``."""
    for field, value in zip(fields(self), state):
        object.__setattr__(self, field.name, value)
    self.__post_init__()


_C = TypeVar("_C", bound=type)


def _hash_slotted(cls: _C) -> _C:
    """Bind :func:`_slot_hash` and :func:`_restored` to a built dataclass.

    Placed above ``@dataclass``, so it runs last: before CPython 3.11.4
    a frozen slotted dataclass installs its own ``__setstate__`` even
    over one in the class body, and a frozen dataclass generates a
    ``__hash__`` unless the body has one.
    """
    cls.__hash__ = _slot_hash
    cls.__setstate__ = _restored
    return cls


@_hash_slotted
@dataclass(frozen=True, slots=True, order=True)
class IRI(_HashSlot):
    """An IRI reference, e.g. ``<http://example.org/alice>``."""

    value: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.value,)))

    def __str__(self) -> str:
        return f"<{self.value}>"

    @property
    def is_variable(self) -> bool:
        """Whether this term is a query variable."""
        return False


@_hash_slotted
@dataclass(frozen=True, slots=True, order=True)
class Literal(_HashSlot):
    """An RDF literal with optional datatype IRI and language tag.

    ``datatype`` and ``language`` are mutually exclusive per the RDF 1.1
    specification; plain literals leave both empty.
    """

    lexical: str
    datatype: str = ""
    language: str = ""

    def __post_init__(self) -> None:
        if self.datatype and self.language:
            raise ValueError("a literal cannot have both datatype and language")
        object.__setattr__(self, "_hash", hash((self.lexical, self.datatype, self.language)))

    def __str__(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
        )
        if self.language:
            return f'"{escaped}"@{self.language}'
        if self.datatype:
            return f'"{escaped}"^^<{self.datatype}>'
        return f'"{escaped}"'

    @property
    def is_variable(self) -> bool:
        """Whether this term is a query variable."""
        return False


@_hash_slotted
@dataclass(frozen=True, slots=True, order=True)
class BlankNode(_HashSlot):
    """A blank node, e.g. ``_:b42``."""

    label: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.label,)))

    def __str__(self) -> str:
        return f"_:{self.label}"

    @property
    def is_variable(self) -> bool:
        """Whether this term is a query variable."""
        return False


@_hash_slotted
@dataclass(frozen=True, slots=True, order=True)
class Variable(_HashSlot):
    """A SPARQL query variable, e.g. ``?x``."""

    name: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.name,)))

    def __str__(self) -> str:
        return f"?{self.name}"

    @property
    def is_variable(self) -> bool:
        """Whether this term is a query variable."""
        return True


#: A concrete RDF term (anything that may appear in data).
Term = Union[IRI, Literal, BlankNode]

#: Anything that may appear in a triple pattern.
PatternTerm = Union[IRI, Literal, BlankNode, Variable]


#: a literal's quoted lexical form in its text, escapes and all
_QUOTED = re.compile(r'"((?:[^"\\]|\\.)*)"')
#: the escapes ``Literal.__str__`` writes, and what each stands for
_ESCAPED = re.compile(r'\\[\\"nr]')
_UNESCAPED = {"\\\\": "\\", '\\"': '"', "\\n": "\n", "\\r": "\r"}


def term_of_text(text: str) -> Term:
    """The term whose N-Triples text (``str(term)``) is *text*.

    The inverse of ``__str__`` over IRIs, literals and blank nodes, cut
    at known places: an IRI's value is everything between its brackets
    and a literal's suffix everything after its closing quote.  A
    lexical form is unescaped only if it holds a backslash.
    """
    head = text[0]
    if head == "<":
        return IRI(text[1:-1])
    if head == "_":
        return BlankNode(text[2:])
    end = text.index('"', 1)
    lexical = text[1:end]
    if "\\" in lexical:  # the first quote may be an escaped one
        quoted = _QUOTED.match(text)
        lexical = _ESCAPED.sub(lambda m: _UNESCAPED[m.group()], quoted.group(1))
        end = quoted.end() - 1
    suffix = text[end + 1 :]
    if suffix[:1] == "@":
        return Literal(lexical, language=suffix[1:])
    if suffix:
        return Literal(lexical, datatype=suffix[3:-1])
    return Literal(lexical)


def is_concrete(term: PatternTerm) -> bool:
    """Return True if *term* is a concrete RDF term (not a variable)."""
    return not isinstance(term, Variable)
