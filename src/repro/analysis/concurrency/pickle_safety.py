"""Fork safety: LINT013 (mutated module globals read in worker entry
functions).

A fork-based worker inherits a *snapshot* of module globals.  A
module-level mutable container that the module also mutates is a
nondeterminism hazard when read inside a worker entry function (the
snapshot depends on fork timing).  Entry functions are the module-level
functions a ``Process(target=...)`` starts, the one way the tree starts
a worker; the check follows their same-module callees transitively, and
a same-module function passed as a call's argument counts as a callee.

Nothing here checks what is pickled: the one process boundary in the
tree is a fork, which never pickles its target or arguments, and the
values that are pickled (the pool's messages) are exercised by every
pooled test.
"""

from __future__ import annotations

import ast
from typing import List, Sequence, Set

from ..lint.diagnostics import Diagnostic, Severity
from .model import FunctionInfo, ModuleInfo, _terminal_name

def _all_functions(module: ModuleInfo) -> List[FunctionInfo]:
    out = [module.functions[n] for n in sorted(module.functions)]
    for cls_name in sorted(module.classes):
        cls = module.classes[cls_name]
        out.extend(cls.methods[n] for n in sorted(cls.methods))
    return out


def _started(call: ast.Call) -> List[ast.expr]:
    """What *call* starts in another process: a ``Process``'s target."""
    if _terminal_name(call.func) == "Process":
        return [keyword.value for keyword in call.keywords if keyword.arg == "target"]
    return []


def _entry_function_names(module: ModuleInfo) -> Set[str]:
    """Module-level functions another process starts in."""
    entries: Set[str] = set()
    for func in _all_functions(module):
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                for started in _started(node):
                    if isinstance(started, ast.Name) and started.id in module.functions:
                        entries.add(started.id)
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
                                f"snapshot depends on fork timing"
                            ),
                        )
                    )
    return findings
