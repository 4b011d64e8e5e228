"""RDF term model.

Terms are the atoms of the RDF data model: IRIs, literals, and blank
nodes.  Query variables (``?x``) are also modeled here because triple
patterns mix variables with concrete terms.

All terms are immutable, hashable, and ordered, so they can be used as
dictionary keys, set members, and sort keys throughout the engine.
"""

from __future__ import annotations

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


def is_concrete(term: PatternTerm) -> bool:
    """Return True if *term* is a concrete RDF term (not a variable)."""
    return not isinstance(term, Variable)
