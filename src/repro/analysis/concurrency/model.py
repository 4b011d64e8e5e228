"""Shared program model for the concurrency analyzer.

Parses each source file into one :class:`ModuleInfo`: its classes,
methods, module globals, and the ``#: guarded-by: <lock>`` declarations
that drive the lock-discipline pass (LINT010).

Annotation grammar
------------------
A field is declared lock-protected with a comment of the form::

    #: guarded-by: _lock

either trailing the assignment that introduces the field (a
``self.x = ...`` statement in ``__init__`` or an ``AnnAssign`` in the
class body) or on its own line directly above it.  The lock name must
be an attribute of the same instance (``self._lock``).  Declarations
are parsed from the token stream, so they survive reformatting.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Union

#: ``#: guarded-by: <lockname>`` — the declaration comment grammar
GUARDED_BY_RE = re.compile(r"#:?\s*guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_]*)")

#: threading constructors whose instances act as locks at runtime
LOCK_FACTORIES = frozenset({"Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore"})


def parse_guard_comments(source: str) -> Dict[int, str]:
    """Map *code* line number → lock name for ``guarded-by`` comments.

    A trailing comment declares the assignment on its own line; a
    standalone comment (nothing but whitespace before it) declares the
    assignment on the following line.  The distinction matters: the
    trailing declaration of one field must not leak onto the next.
    """
    guards: Dict[int, str] = {}
    lines = source.splitlines()
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = GUARDED_BY_RE.search(token.string)
            if not match:
                continue
            line, column = token.start
            prefix = lines[line - 1][:column] if line <= len(lines) else ""
            standalone = not prefix.strip()
            guards[line + 1 if standalone else line] = match.group("lock")
    except tokenize.TokenError:
        pass
    return guards


@dataclass
class FunctionInfo:
    """One function or method of a module."""

    qualname: str  #: ``name`` or ``Class.name``
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    class_name: Optional[str] = None

    @property
    def name(self) -> str:
        """The bare function name (last qualname segment)."""
        return self.node.name


@dataclass
class ClassInfo:
    """One class: methods, declared guards, and lock-typed attributes."""

    name: str
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: attr → lock attr name, from ``#: guarded-by:`` declarations
    guarded: Dict[str, str] = field(default_factory=dict)
    #: attrs assigned from threading lock factories (``self.x = Lock()``)
    lock_attrs: Set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """One parsed source file."""

    path: str
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: module-level names bound to mutable literals/constructors
    mutable_globals: Set[str] = field(default_factory=set)
    #: module-level names mutated somewhere in the module
    mutated_globals: Set[str] = field(default_factory=set)


_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "defaultdict", "deque", "bytearray", "OrderedDict", "Counter"}
)
_MUTATOR_METHODS = frozenset(
    {
        "append",
        "add",
        "update",
        "setdefault",
        "extend",
        "insert",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "appendleft",
    }
)


def _is_mutable_binding(value: ast.expr) -> bool:
    """Whether a module-level binding's value is a mutable container."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else ""
        )
        return name in _MUTABLE_FACTORIES
    return False


def _terminal_name(expr: ast.expr) -> str:
    """The last identifier of a Name/Attribute chain ('' otherwise)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return ""


def _root_name(expr: ast.expr) -> str:
    """The first identifier of a Name/Attribute/Subscript chain."""
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    if isinstance(expr, ast.Name):
        return expr.id
    return ""


def _is_lock_factory_call(value: ast.expr) -> bool:
    """``threading.Lock()`` / ``Lock()`` / ``mp.RLock()``-shaped calls."""
    return (
        isinstance(value, ast.Call)
        and _terminal_name(value.func) in LOCK_FACTORIES
    )


def _collect_global_mutations(tree: ast.Module, globals_: Set[str]) -> Set[str]:
    """Module-level names that are mutated anywhere in the module."""
    mutated: Set[str] = set()
    for node in ast.walk(tree):
        # obj.append(...), obj.update(...) — mutator method on a global
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATOR_METHODS:
                root = _root_name(node.func.value)
                if root in globals_:
                    mutated.add(root)
        # obj[k] = v / obj.attr = v / del obj[k] — store through a global
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.Delete)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
                if isinstance(node, ast.AugAssign)
                else node.targets
            )
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = _root_name(target)
                    if root in globals_:
                        mutated.add(root)
        # `global X` inside a function followed by rebinding
        elif isinstance(node, ast.Global):
            mutated.update(n for n in node.names if n in globals_)
    return mutated


def parse_module(source: str, path: str) -> ModuleInfo:
    """Parse one file into a :class:`ModuleInfo` (raises SyntaxError)."""
    tree = ast.parse(source, filename=path)
    info = ModuleInfo(path=path)
    guard_comments = parse_guard_comments(source)

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            info.functions[node.name] = FunctionInfo(qualname=node.name, node=node)
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = _parse_class(node, guard_comments)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and _is_mutable_binding(node.value):
                    info.mutable_globals.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if (
                isinstance(node.target, ast.Name)
                and node.value is not None
                and _is_mutable_binding(node.value)
            ):
                info.mutable_globals.add(node.target.id)

    info.mutated_globals = _collect_global_mutations(tree, info.mutable_globals)
    return info


def _parse_class(node: ast.ClassDef, guard_comments: Dict[int, str]) -> ClassInfo:
    cls = ClassInfo(name=node.name, node=node)
    for stmt in node.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[stmt.name] = FunctionInfo(
                qualname=f"{node.name}.{stmt.name}",
                node=stmt,
                class_name=node.name,
            )
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            lock = guard_comments.get(stmt.lineno)
            if lock:
                cls.guarded[stmt.target.id] = lock

    # `self.x = ...` assignments anywhere in the class body (usually
    # __init__) carry guard declarations and reveal lock-typed attrs
    for method in cls.methods.values():
        for stmt in ast.walk(method.node):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            value = stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    lock = guard_comments.get(stmt.lineno)
                    if lock:
                        cls.guarded[target.attr] = lock
                    if value is not None and _is_lock_factory_call(value):
                        cls.lock_attrs.add(target.attr)
    # every declared guard names a lock attribute even if we could not
    # see its construction (e.g. the lock is injected)
    cls.lock_attrs.update(cls.guarded.values())
    return cls
