"""RDF term model.

Terms are the atoms of the RDF data model: IRIs, literals, and blank
nodes.  Query variables (``?x``) are also modeled here because triple
patterns mix variables with concrete terms.

All terms are immutable, hashable, and ordered, so they can be used as
dictionary keys, set members, and sort keys throughout the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Union


class _HashSlot:
    """Base of the term and triple classes: one slot that caches the hash.

    Every dict/set touch hashes its key, and a graph touches each term
    thousands of times.  The slot is not a dataclass field: ``==``,
    ordering, ``repr``, ``dataclasses.fields`` and the pickled state never
    see it, so an unpickled object (string hashes are per-process) starts
    with the slot empty and fills it on first use.
    """

    __slots__ = ("_hash",)


def _hash_once(key: Callable[[Any], tuple]) -> Callable[[Any], int]:
    """A ``__hash__`` computing ``hash(key(self))`` once per object.

    *key* returns the tuple of fields the generated dataclass hash would
    use, so values (and every set/dict iteration order) are unchanged.
    """

    def __hash__(self: Any) -> int:
        try:
            return self._hash
        except AttributeError:
            value = hash(key(self))
            object.__setattr__(self, "_hash", value)
            return value

    return __hash__


@dataclass(frozen=True, slots=True, order=True)
class IRI(_HashSlot):
    """An IRI reference, e.g. ``<http://example.org/alice>``."""

    value: str

    __hash__ = _hash_once(lambda self: (self.value,))

    def __str__(self) -> str:
        return f"<{self.value}>"

    @property
    def is_variable(self) -> bool:
        """Whether this term is a query variable."""
        return False


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

    __hash__ = _hash_once(attrgetter("lexical", "datatype", "language"))

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


@dataclass(frozen=True, slots=True, order=True)
class BlankNode(_HashSlot):
    """A blank node, e.g. ``_:b42``."""

    label: str

    __hash__ = _hash_once(lambda self: (self.label,))

    def __str__(self) -> str:
        return f"_:{self.label}"

    @property
    def is_variable(self) -> bool:
        """Whether this term is a query variable."""
        return False


@dataclass(frozen=True, slots=True, order=True)
class Variable(_HashSlot):
    """A SPARQL query variable, e.g. ``?x``."""

    name: str

    __hash__ = _hash_once(lambda self: (self.name,))

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


def is_concrete(term: PatternTerm) -> bool:
    """Return True if *term* is a concrete RDF term (not a variable)."""
    return not isinstance(term, Variable)
