"""Cancellation-poll reachability: LINT014.

PR 6 made every query live inside a :class:`QueryBudget` envelope —
deadlines and cancellation are *cooperative*, so the guarantee only
holds if every hot loop polls.  This pass keeps that true as code
evolves: every loop in enumeration/pruning/join code reachable from
``Optimizer.optimize`` or ``Executor.execute`` must reach a budget
poll (``budget.check_*``, ``charge_rows``, ``_check_deadline``,
``_govern``, a ``.expired`` probe) within its body — directly or
through a call chain.

Exemptions (each is a bounded-cadence argument, documented in
``docs/ANALYSIS.md``):

* loops containing a ``yield`` — control returns to the consumer every
  iteration, so the *consumer's* loop carries the polling obligation;
* loops lexically inside a polling loop in the same function — the
  enclosing loop bounds the cadence;
* small bounded for-loops: iterating a name/attribute (not a call),
  no nested loops, a short body, and no calls into project functions
  that themselves loop — per-iteration work is O(1)-ish and the
  iterable is an in-memory sequence.

Everything else needs a poll or a per-line
``# lint: disable=LINT014 <why the cadence is bounded>``.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..lint.diagnostics import Diagnostic, Severity
from .callgraph import CallGraph, FuncKey, build_call_graph
from .model import FunctionInfo, ModuleInfo, Project, _terminal_name

#: entry points: the governed public surfaces (qualname match).
#: ``observe_execution`` drives adaptive repartitioning — its fragment
#: migration loops run under the same budget envelope as the query.
ENTRY_QUALNAMES = frozenset(
    {"Optimizer.optimize", "Executor.execute", "Optimizer.observe_execution"}
)

#: enumeration/pruning/join code — path suffixes under src/repro
HOT_SUFFIXES = (
    "core/enumeration.py",
    "core/pruning.py",
    "core/cmd.py",
    "core/reduction.py",
    "core/counting.py",
    "core/memo_shard.py",
    "core/parallel.py",
    "engine/executor.py",
    "engine/relations.py",
    "engine/columnar.py",
    "engine/mapreduce.py",
    "engine/base.py",
    "partitioning/adaptive.py",
    "partitioning/dynamic.py",
)

#: calls/reads that constitute a budget poll
POLL_ATTRS = frozenset(
    {
        "check_cancelled",
        "check_deadline",
        "charge_rows",
        "charge_retry",
        "_check_deadline",
        "_check_budget",
        "_govern",
        "tick",
    }
)
_POLL_PROBES = frozenset({"expired"})

#: builtins whose calls never hide a loop we care about
_BOUNDED_BUILTINS = frozenset(
    {
        "len",
        "min",
        "max",
        "abs",
        "int",
        "float",
        "str",
        "repr",
        "bool",
        "isinstance",
        "getattr",
        "setattr",
        "hasattr",
        "id",
        "range",
        "enumerate",
        "zip",
        "iter",
        "next",
        "print",
    }
)

#: project calls whose results are bounded by the bitset width (≤ 64
#: elements) — iterating them is bounded regardless of data size
_BOUNDED_ITERABLE_CALLS = frozenset(
    {"iter_bits", "to_indices", "connected_components"}
)

#: container-method calls that never loop over user data structures in
#: a way that matters (the may-call fallback would otherwise resolve
#: ``candidates.add`` to every project method named ``add``)
_CONTAINER_METHODS = frozenset(
    {
        "add",
        "append",
        "extend",
        "update",
        "discard",
        "remove",
        "pop",
        "get",
        "setdefault",
        "clear",
        "sort",
        "items",
        "keys",
        "values",
        "copy",
        "bit",
        "popcount",
        "lowest_bit",
        "lowest_index",
    }
)

_SMALL_BODY_STATEMENTS = 6


def _is_hot_module(path: str) -> bool:
    normalized = path.replace("\\", "/")
    return any(normalized.endswith(suffix) for suffix in HOT_SUFFIXES)


def _has_direct_poll(node: ast.AST) -> bool:
    """A poll call or probe anywhere under *node* (nested defs excluded)."""
    for sub in _walk_same_function(node):
        if isinstance(sub, ast.Call):
            name = _terminal_name(sub.func)
            if name in POLL_ATTRS:
                return True
        elif isinstance(sub, ast.Attribute) and sub.attr in _POLL_PROBES:
            return True
        elif isinstance(sub, ast.Raise):
            # a loop that raises unconditionally on its hot path is a
            # poll-equivalent exit only when guarded; keep it simple:
            # raises do not count.
            continue
    return False


def _walk_same_function(node: ast.AST) -> List[ast.AST]:
    """ast.walk that does not descend into nested function/class defs."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            continue
        out.append(current)
        stack.extend(ast.iter_child_nodes(current))
    return out


def _loop_calls(loop: Union[ast.For, ast.While]) -> List[ast.Call]:
    return [n for n in _walk_same_function(loop) if isinstance(n, ast.Call)]


def _contains_yield(loop: Union[ast.For, ast.While]) -> bool:
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _walk_same_function(loop)
    )


def _contains_loop(node: ast.AST) -> bool:
    return any(
        isinstance(n, (ast.For, ast.While, ast.AsyncFor))
        for n in _walk_same_function(node)
    )


class _FunctionLoops:
    """Loops of one function with their nesting relationships."""

    def __init__(self, func: FunctionInfo) -> None:
        self.func = func
        self.loops: List[Union[ast.For, ast.While]] = [
            n
            for n in _walk_same_function(func.node)
            if isinstance(n, (ast.For, ast.While))
        ]
        #: loop → its lexically enclosing loops
        self.enclosing: Dict[ast.AST, List[ast.AST]] = {}
        for outer in self.loops:
            for inner in _walk_same_function(outer):
                if inner is not outer and isinstance(inner, (ast.For, ast.While)):
                    self.enclosing.setdefault(inner, []).append(outer)


def _call_keys(
    call: ast.Call,
    func: FunctionInfo,
    module: ModuleInfo,
    project: Project,
    graph: CallGraph,
) -> Set[FuncKey]:
    """Resolve one call site using the already-built graph's resolver."""
    from .callgraph import _resolve_attribute_call, _resolve_name_call

    owner = module.classes.get(func.class_name) if func.class_name else None
    if isinstance(call.func, ast.Name):
        return set(_resolve_name_call(call.func.id, module, project))
    if isinstance(call.func, ast.Attribute):
        return set(_resolve_attribute_call(call.func, owner, module, project))
    return set()


def _loop_polls(
    loop: Union[ast.For, ast.While],
    func: FunctionInfo,
    module: ModuleInfo,
    project: Project,
    graph: CallGraph,
    polling_funcs: Set[FuncKey],
) -> bool:
    """Whether the loop body reaches a poll directly or via a callee."""
    if _has_direct_poll(loop):
        return True
    for call in _loop_calls(loop):
        if _call_keys(call, func, module, project, graph) & polling_funcs:
            return True
    return False


def _is_small_bounded(
    loop: Union[ast.For, ast.While],
    func: FunctionInfo,
    module: ModuleInfo,
    project: Project,
    graph: CallGraph,
    looping_funcs: Set[FuncKey],
) -> bool:
    """The small-bounded-for exemption (see module docstring)."""
    if not isinstance(loop, ast.For):
        return False
    iterable = loop.iter
    # iterating a call's result means unknown (possibly huge) extent,
    # except the bounded builtins (range/enumerate/zip over names)
    if isinstance(iterable, ast.Call):
        name = _terminal_name(iterable.func)
        if name not in _BOUNDED_BUILTINS and name not in _BOUNDED_ITERABLE_CALLS:
            return False
    if len(loop.body) > _SMALL_BODY_STATEMENTS:
        return False
    if any(
        isinstance(stmt, (ast.For, ast.While, ast.AsyncFor)) or _contains_loop(stmt)
        for stmt in loop.body
    ):
        return False
    for call in _loop_calls(loop):
        name = _terminal_name(call.func)
        if name in _BOUNDED_BUILTINS or name in _CONTAINER_METHODS:
            continue
        if name in _BOUNDED_ITERABLE_CALLS:
            continue
        # a callee that itself loops voids the O(1)-per-iteration claim
        if _call_keys(call, func, module, project, graph) & looping_funcs:
            return False
    return True


def check_cancellation_polls(
    project: Project, graph: Optional[CallGraph] = None
) -> List[Diagnostic]:
    """Run LINT014 over the project."""
    if graph is None:
        graph = build_call_graph(project)

    entry_keys: List[FuncKey] = [
        f.key for f in project.functions() if f.qualname in ENTRY_QUALNAMES
    ]
    if not entry_keys:
        return []
    reachable = graph.reachable_from(entry_keys)

    # functions that poll directly, then the transitive may-poll closure
    direct_pollers: Set[FuncKey] = set()
    looping_funcs: Set[FuncKey] = set()
    for func in project.functions():
        if _has_direct_poll(func.node):
            direct_pollers.add(func.key)
        if _contains_loop(func.node):
            looping_funcs.add(func.key)
    polling_funcs = graph.transitive_closure_of(direct_pollers)

    findings: List[Diagnostic] = []
    for func in project.functions():
        if func.key not in reachable:
            continue
        module = project.modules[func.module]
        if not _is_hot_module(module.path):
            continue
        analysis = _FunctionLoops(func)
        polling_loops: Set[ast.AST] = set()
        for loop in analysis.loops:
            if _loop_polls(loop, func, module, project, graph, polling_funcs):
                polling_loops.add(loop)
        for loop in analysis.loops:
            if loop in polling_loops:
                continue
            if _contains_yield(loop):
                continue  # consumer-driven: the consuming loop polls
            if any(e in polling_loops for e in analysis.enclosing.get(loop, [])):
                continue  # an enclosing loop bounds the cadence
            if _is_small_bounded(loop, func, module, project, graph, looping_funcs):
                continue
            kind = "for" if isinstance(loop, ast.For) else "while"
            findings.append(
                Diagnostic(
                    path=module.path,
                    line=loop.lineno,
                    column=loop.col_offset + 1,
                    code="LINT014",
                    severity=Severity.ERROR,
                    message=(
                        f"{kind}-loop in '{func.qualname}' is reachable from "
                        f"a governed entry point but never polls the budget "
                        f"(no check_cancelled/check_deadline/charge_* on any "
                        f"path through its body) — a deadline cannot "
                        f"interrupt it"
                    ),
                )
            )
    return findings
