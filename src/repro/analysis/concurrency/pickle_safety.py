"""Fork/pickle safety: LINT012 (unpicklable captures) and LINT013
(mutated module globals read in worker entry functions).

LINT012 — anything shipped across a process boundary
(``pool.submit(...)`` / ``pool.map(...)`` on a process pool,
``Process(target=..., args=...)``, ``task_q.put(...)`` on a
multiprocessing queue) must pickle deterministically.  The pass taints
locals bound to known-unpicklable values — lambdas, threading locks,
tracers/metric registries, ``open(...)`` handles, bound methods of
lock-holding classes — propagates the taint through assignments and
container literals within the function, and flags tainted expressions
reaching a submission site.

LINT013 — a fork-based worker inherits a *snapshot* of module globals.
A module-level mutable container that the module also mutates is a
nondeterminism hazard when read inside a worker entry function (the
snapshot depends on fork timing).  Entry functions are the module-level
callables referenced at submission sites; the check follows their
same-module callees transitively, and a same-module function passed as
a call's argument counts as a callee.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..lint.diagnostics import Diagnostic, Severity
from .model import (
    ClassInfo,
    FunctionInfo,
    LOCK_FACTORIES,
    ModuleInfo,
    _terminal_name,
)

#: constructors whose instances never survive pickling to a fresh process
_UNPICKLABLE_FACTORIES: Dict[str, str] = {
    **{name: "a threading primitive" for name in LOCK_FACTORIES},
    "Event": "a threading primitive",
    "Tracer": "a tracer (holds a lock and open span state)",
    "MetricsRegistry": "a metrics registry (holds a lock)",
    "current_tracer": "the active tracer (holds a lock)",
    "open": "an open file handle",
    "TextIOWrapper": "an open file handle",
    "socket": "a socket",
}

_POOLISH = re.compile(r"pool|executor", re.IGNORECASE)
_QUEUEISH = re.compile(r"(^|_)(q|qs|queue|queues)($|_|s$)|queue", re.IGNORECASE)


def _taint_of_expr(
    expr: ast.expr,
    taints: Dict[str, str],
    cls: Optional[ClassInfo],
) -> Optional[str]:
    """Why *expr* is unpicklable, or None if it looks safe.

    Containers are tainted when any element is; names look up the
    function-local taint map; ``self.<lock-attr>`` and bound methods of
    lock-holding classes taint directly.
    """
    if isinstance(expr, ast.Lambda):
        return "a lambda (pickles by reference, never by value)"
    if isinstance(expr, (ast.GeneratorExp,)):
        return "a generator (not picklable)"
    if isinstance(expr, ast.Name):
        return taints.get(expr.id)
    if isinstance(expr, ast.Call):
        factory = _terminal_name(expr.func)
        if factory in _UNPICKLABLE_FACTORIES:
            return _UNPICKLABLE_FACTORIES[factory]
        return None
    if isinstance(expr, ast.Attribute):
        if isinstance(expr.value, ast.Name) and expr.value.id == "self" and cls is not None:
            if expr.attr in cls.lock_attrs:
                return f"'self.{expr.attr}' (a lock)"
            if expr.attr in ("tracer", "_tracer"):
                return f"'self.{expr.attr}' (a tracer)"
            if expr.attr in cls.methods:
                locked = bool(cls.lock_attrs)
                if locked:
                    return (
                        f"bound method 'self.{expr.attr}' of lock-holding "
                        f"class '{cls.name}'"
                    )
        return None
    if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
        for element in expr.elts:
            reason = _taint_of_expr(element, taints, cls)
            if reason:
                return reason
        return None
    if isinstance(expr, ast.Dict):
        for value in expr.values:
            if value is None:
                continue
            reason = _taint_of_expr(value, taints, cls)
            if reason:
                return reason
        return None
    return None


def _collect_taints(
    func: FunctionInfo, cls: Optional[ClassInfo]
) -> Dict[str, str]:
    """Two fixed-point passes over assignments: name → unpicklable reason."""
    taints: Dict[str, str] = {}
    for _ in range(2):
        for node in ast.walk(func.node):
            if isinstance(node, ast.Assign):
                reason = _taint_of_expr(node.value, taints, cls)
                if reason:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            taints[target.id] = reason
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is None or not isinstance(
                        item.optional_vars, ast.Name
                    ):
                        continue
                    reason = _taint_of_expr(item.context_expr, taints, cls)
                    if reason:
                        taints[item.optional_vars.id] = reason
    return taints


def _pool_bindings(func: FunctionInfo) -> Set[str]:
    """Names bound to a process pool in this function."""
    pools: Set[str] = set()
    for node in ast.walk(func.node):
        value: Optional[ast.expr] = None
        target: Optional[ast.expr] = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            value, target = node.value, node.targets[0]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None and isinstance(
                    item.context_expr, ast.Call
                ):
                    if "ProcessPoolExecutor" in _terminal_name(item.context_expr.func):
                        if isinstance(item.optional_vars, ast.Name):
                            pools.add(item.optional_vars.id)
            continue
        if (
            value is not None
            and isinstance(value, ast.Call)
            and "ProcessPoolExecutor" in _terminal_name(value.func)
            and isinstance(target, ast.Name)
        ):
            pools.add(target.id)
    return pools


def _submission_payloads(
    call: ast.Call, pools: Set[str]
) -> Optional[Tuple[str, List[ast.expr]]]:
    """(site kind, payload exprs) when *call* ships work to a process."""
    func = call.func
    if isinstance(func, ast.Attribute):
        receiver = _terminal_name(func.value)
        if func.attr in ("submit", "map") and (
            receiver in pools or _POOLISH.search(receiver or "")
        ):
            return (f"{receiver}.{func.attr}", list(call.args) +
                    [k.value for k in call.keywords])
        if func.attr == "put" and receiver and _QUEUEISH.search(receiver):
            return (f"{receiver}.put", list(call.args))
    name = _terminal_name(func)
    if name == "Process":
        payload: List[ast.expr] = []
        for keyword in call.keywords:
            if keyword.arg in ("target", "args", "kwargs"):
                payload.append(keyword.value)
        return ("Process", payload)
    return None


def check_pickle_safety(modules: Sequence[ModuleInfo]) -> List[Diagnostic]:
    """LINT012: unpicklable values reaching a process boundary."""
    findings: List[Diagnostic] = []
    for module in modules:
        for func in _all_functions(module):
            cls = module.classes.get(func.class_name) if func.class_name else None
            taints = _collect_taints(func, cls)
            pools = _pool_bindings(func)
            for node in ast.walk(func.node):
                if not isinstance(node, ast.Call):
                    continue
                site = _submission_payloads(node, pools)
                if site is None:
                    continue
                kind, payload = site
                for expr in payload:
                    reason = _taint_of_expr(expr, taints, cls)
                    if reason:
                        findings.append(
                            Diagnostic(
                                path=module.path,
                                line=expr.lineno,
                                column=expr.col_offset + 1,
                                code="LINT012",
                                severity=Severity.ERROR,
                                message=(
                                    f"{reason} reaches the process boundary "
                                    f"at '{kind}' in '{func.qualname}' — it "
                                    f"will not pickle (or pickles "
                                    f"nondeterministically)"
                                ),
                            )
                        )
    return findings


def _all_functions(module: ModuleInfo) -> List[FunctionInfo]:
    out = [module.functions[n] for n in sorted(module.functions)]
    for cls_name in sorted(module.classes):
        cls = module.classes[cls_name]
        out.extend(cls.methods[n] for n in sorted(cls.methods))
    return out


def _entry_function_names(module: ModuleInfo) -> Set[str]:
    """Module-level functions referenced at submission sites."""
    entries: Set[str] = set()
    for func in _all_functions(module):
        pools = _pool_bindings(func)
        for node in ast.walk(func.node):
            if not isinstance(node, ast.Call):
                continue
            site = _submission_payloads(node, pools)
            if site is None:
                continue
            candidates: List[ast.expr] = []
            if node.args:
                candidates.append(node.args[0])
            for keyword in node.keywords:
                if keyword.arg == "target":
                    candidates.append(keyword.value)
            for candidate in candidates:
                if isinstance(candidate, ast.Name) and candidate.id in module.functions:
                    entries.add(candidate.id)
    return entries


def check_worker_globals(modules: Sequence[ModuleInfo]) -> List[Diagnostic]:
    """LINT013: mutated module globals read inside worker entry code."""
    findings: List[Diagnostic] = []
    for module in modules:
        hazards = module.mutable_globals & module.mutated_globals
        if not hazards:
            continue
        entries = _entry_function_names(module)
        if not entries:
            continue
        # transitive same-module callees of the entry functions, also
        # those handed to a call (``Context().run(_serve, ...)``)
        worker_funcs: Set[str] = set()
        frontier = sorted(entries)
        while frontier:
            name = frontier.pop()
            if name in worker_funcs or name not in module.functions:
                continue
            worker_funcs.add(name)
            for node in ast.walk(module.functions[name].node):
                if isinstance(node, ast.Call):
                    for callee in [node.func, *node.args, *(k.value for k in node.keywords)]:
                        if isinstance(callee, ast.Name):
                            frontier.append(callee.id)
        for name in sorted(worker_funcs):
            func = module.functions[name]
            for node in ast.walk(func.node):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id in hazards
                ):
                    findings.append(
                        Diagnostic(
                            path=module.path,
                            line=node.lineno,
                            column=node.col_offset + 1,
                            code="LINT013",
                            severity=Severity.ERROR,
                            message=(
                                f"worker entry path '{name}' reads module "
                                f"global '{node.id}', a mutable container "
                                f"also mutated in this module — its forked "
                                f"snapshot depends on submission timing"
                            ),
                        )
                    )
    return findings
