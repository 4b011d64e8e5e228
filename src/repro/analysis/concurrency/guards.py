"""Lock discipline: LINT010 (guarded-by) and LINT011 (blocking under lock).

LINT010 — every read/write of an attribute declared
``#: guarded-by: <lock>`` must happen inside a ``with self.<lock>:``
scope.  ``__init__`` is exempt (the object is not yet published).  The
check is interprocedural through self-method calls: a *private* helper
(leading underscore) whose every intra-class call site holds the lock
is analyzed as holding it on entry — the classic
``_locked``-helper pattern needs no suppression.  Public methods never
inherit a lock: they can be called from anywhere.

LINT011 — a call that can block indefinitely (``future.result``,
``pipe.recv``, ``queue.get``, ``.join``/``.wait``/``.acquire``,
``time.sleep``) inside a ``with <lock>:`` body stalls every other
thread contending for that lock; flag it.  A nested ``with <lock>:``
is the same ``.acquire`` and is flagged too: two locks taken in
opposite orders on two paths deadlock, and no lock in this program
nests.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..lint.diagnostics import Diagnostic, Severity
from .model import ClassInfo, ModuleInfo, _terminal_name

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

#: attribute calls that block regardless of receiver
_BLOCKING_ALWAYS = frozenset({"result", "recv", "wait", "acquire"})
#: attribute calls that block only on concurrency-ish receivers
_BLOCKING_RECEIVER = {
    "get": re.compile(r"(^|_)(q|qs|queue|queues)($|_|s$)|queue", re.IGNORECASE),
    "join": re.compile(r"thread|proc|worker|pool|queue|(^|_)q($|_)", re.IGNORECASE),
}
_LOCKISH_NAME = re.compile(r"lock|mutex", re.IGNORECASE)


def _with_lock_names(node: Union[ast.With, ast.AsyncWith], cls: Optional[ClassInfo]) -> Set[str]:
    """Lock attribute names acquired by this ``with`` statement."""
    names: Set[str] = set()
    for item in node.items:
        expr = item.context_expr
        # with self._lock:  /  with self._lock.acquire_timeout(...):
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if expr.value.id == "self":
                if cls is not None and (
                    expr.attr in cls.lock_attrs or _LOCKISH_NAME.search(expr.attr)
                ):
                    names.add(expr.attr)
        elif isinstance(expr, ast.Name) and _LOCKISH_NAME.search(expr.id):
            names.add(expr.id)
    return names


def _is_lockish(expr: ast.expr, cls: Optional[ClassInfo]) -> bool:
    """Whether a with-context expression looks like a lock acquisition."""
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self" and cls is not None and expr.attr in cls.lock_attrs:
            return True
    name = _terminal_name(expr)
    return bool(name and _LOCKISH_NAME.search(name))


class _MethodScanner(ast.NodeVisitor):
    """Walks one method tracking lexically-held locks."""

    def __init__(
        self,
        cls: Optional[ClassInfo],
        entry_locks: Set[str],
        path: str,
    ) -> None:
        self.cls = cls
        self.held: List[str] = sorted(entry_locks)
        self.path = path
        #: (lock, line) for each self.<guarded> access without its lock
        self.violations: List[Tuple[str, str, int, int, str]] = []
        #: guarded accesses seen while each lock was held (for stats)
        self.call_sites: List[Tuple[ast.Call, Set[str]]] = []
        self.blocking: List[Tuple[int, int, str, str]] = []

    # -- with-statement scoping -------------------------------------
    def _visit_with(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        acquired = _with_lock_names(node, self.cls)
        lockish = [
            item.context_expr
            for item in node.items
            if _is_lockish(item.context_expr, self.cls)
        ]
        self.held.extend(sorted(acquired))
        if lockish:
            self._scan_blocking(node, acquired or {_terminal_name(lockish[0])})
        for stmt in node.body:
            self.visit(stmt)
        for _ in acquired:
            self.held.pop()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    # nested defs get their own analysis pass; don't descend
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    # -- guarded accesses and call sites -----------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self.cls is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            lock = self.cls.guarded.get(node.attr)
            if lock is not None and lock not in self.held:
                self.violations.append(
                    (node.attr, lock, node.lineno, node.col_offset, "")
                )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            self.call_sites.append((node, set(self.held)))
        self.generic_visit(node)

    # -- LINT011: blocking calls inside a lock scope ------------------
    def _scan_blocking(self, node: Union[ast.With, ast.AsyncWith], locks: Set[str]) -> None:
        lock_label = ", ".join(sorted(locks)) or "lock"
        seen = {(line, col) for line, col, _, _ in self.blocking}
        for stmt in node.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    reason = _blocking_reason(sub)
                elif isinstance(sub, (ast.With, ast.AsyncWith)):
                    reason = _nested_lock_reason(sub, self.cls)
                else:
                    continue
                if (sub.lineno, sub.col_offset) in seen:
                    continue  # already flagged under an enclosing lock
                if reason:
                    self.blocking.append(
                        (sub.lineno, sub.col_offset, reason, lock_label)
                    )


def _nested_lock_reason(
    node: Union[ast.With, ast.AsyncWith], cls: Optional[ClassInfo]
) -> Optional[str]:
    """``with <lock>`` when this ``with`` takes a lock (an ``.acquire``)."""
    for item in node.items:
        if _is_lockish(item.context_expr, cls):
            return f"with {ast.unparse(item.context_expr)}"
    return None


def _blocking_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        attr = func.attr
        receiver = _terminal_name(func.value)
        if attr == "sleep":
            return "time.sleep"
        if attr in _BLOCKING_ALWAYS:
            # str constants like ", ".join are not receivers at all
            if isinstance(func.value, ast.Constant):
                return None
            return f"{receiver or '<expr>'}.{attr}"
        pattern = _BLOCKING_RECEIVER.get(attr)
        if pattern and receiver and pattern.search(receiver):
            return f"{receiver}.{attr}"
    elif isinstance(func, ast.Name) and func.id == "sleep":
        return "sleep"
    return None


def _entry_lock_fixed_point(
    cls: ClassInfo, path: str
) -> Dict[str, Set[str]]:
    """Locks each *private* method provably holds on entry.

    Monotone fixed point: a private method holds lock L on entry when
    it has at least one intra-class call site and every such site runs
    with L held (lexically, or inherited by the calling method).
    """
    entry: Dict[str, Set[str]] = {name: set() for name in cls.methods}
    all_locks = set(cls.guarded.values()) | cls.lock_attrs
    if not all_locks:
        return entry
    for _ in range(len(cls.methods) + 1):
        # collect the held-set at every self.m() call site
        sites: Dict[str, List[Set[str]]] = {}
        for name, method in cls.methods.items():
            scanner = _MethodScanner(cls, entry[name], path)
            for stmt in method.node.body:
                scanner.visit(stmt)
            for call, held in scanner.call_sites:
                func = call.func
                assert isinstance(func, ast.Attribute)
                sites.setdefault(func.attr, []).append(held)
        changed = False
        for name in cls.methods:
            if not name.startswith("_") or name.startswith("__"):
                continue  # public/dunder methods are externally callable
            callee_sites = sites.get(name)
            if not callee_sites:
                continue
            held_everywhere = set.intersection(*callee_sites) & all_locks
            if held_everywhere - entry[name]:
                entry[name] |= held_everywhere
                changed = True
        if not changed:
            break
    return entry


def check_lock_discipline(modules: Sequence[ModuleInfo]) -> List[Diagnostic]:
    """Run LINT010 + LINT011 over every class in *modules*."""
    findings: List[Diagnostic] = []
    for module in modules:
        # module-level functions: only the blocking-under-lock check
        for func in module.functions.values():
            scanner = _MethodScanner(None, set(), module.path)
            for stmt in func.node.body:
                scanner.visit(stmt)
            for line, col, reason, lock_label in scanner.blocking:
                findings.append(
                    Diagnostic(
                        path=module.path,
                        line=line,
                        column=col + 1,
                        code="LINT011",
                        severity=Severity.ERROR,
                        message=(
                            f"potentially blocking call '{reason}' while "
                            f"holding '{lock_label}' in '{func.name}' "
                            f"stalls every contending thread"
                        ),
                    )
                )
        for cls in module.classes.values():
            has_guards = bool(cls.guarded)
            has_locks = bool(cls.lock_attrs)
            if not has_guards and not has_locks:
                continue
            entry = _entry_lock_fixed_point(cls, module.path)
            for name, method in cls.methods.items():
                scanner = _MethodScanner(cls, entry.get(name, set()), module.path)
                if name != "__init__":
                    for stmt in method.node.body:
                        scanner.visit(stmt)
                else:
                    # __init__ publishes nothing yet: only LINT011 applies
                    only_blocking = _MethodScanner(cls, set(), module.path)
                    for stmt in method.node.body:
                        only_blocking.visit(stmt)
                    scanner.blocking = only_blocking.blocking
                if has_guards:
                    for attr, lock, line, col, _ in scanner.violations:
                        findings.append(
                            Diagnostic(
                                path=module.path,
                                line=line,
                                column=col + 1,
                                code="LINT010",
                                severity=Severity.ERROR,
                                message=(
                                    f"'{cls.name}.{attr}' is declared guarded-by "
                                    f"'{lock}' but is accessed in '{name}' without "
                                    f"holding 'self.{lock}'"
                                ),
                            )
                        )
                for line, col, reason, lock_label in scanner.blocking:
                    findings.append(
                        Diagnostic(
                            path=module.path,
                            line=line,
                            column=col + 1,
                            code="LINT011",
                            severity=Severity.ERROR,
                            message=(
                                f"potentially blocking call '{reason}' while "
                                f"holding '{lock_label}' in '{cls.name}.{name}' "
                                f"stalls every contending thread"
                            ),
                        )
                    )
    return findings
