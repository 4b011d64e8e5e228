"""The repo-specific lint rules (LINT001–LINT005).

Each rule is an AST pass producing :class:`~.diagnostics.Diagnostic`
findings.  The rules encode defect classes this repo has actually
shipped or is structurally exposed to:

* **LINT001** — iteration over ``set``/``frozenset`` values in
  determinism-critical modules (``core/``, ``partitioning/``) without
  ``sorted(...)``.  PR 2 shipped exactly this bug: seeded statistics
  iterated a ``frozenset`` in hash-seed order, silently breaking
  cross-process plan-cache hits.  ``dict`` iteration is exempt
  (insertion-ordered since 3.7); building a dict *from* a set-ish
  source is caught at the construction site instead.
* **LINT002** — unseeded ``random`` use outside test code: module-level
  ``random.<fn>()`` calls and argument-less ``random.Random()``.
  Reproducibility is a headline property of the experiments.
* **LINT003** — float ``==``/``!=`` in cost/cardinality code.  Costs
  are re-derived floating-point sums; exact comparison is how
  cache-rebuild drift hides.
* **LINT004** — mutable default arguments (``def f(x=[])``), the
  classic shared-state trap.
* **LINT005** — ambient wall-clock reads (``time.time()`` /
  ``time.monotonic()``) in ``core/`` / ``engine/`` / ``baselines/`` /
  ``experiments/`` outside the one sanctioned clock module
  (``core/governance.py``).  Deadlines are
  data: control flow must go through an injectable
  :class:`~repro.core.governance.Clock`, or expiry becomes untestable
  and chaos runs irreproducible.  ``time.perf_counter()`` stays legal —
  it only *measures* elapsed wall time for reports, it never decides.
"""

from __future__ import annotations

import ast
import re
from pathlib import PurePath
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .diagnostics import Diagnostic, Severity

# ----------------------------------------------------------------------
# scoping helpers
# ----------------------------------------------------------------------

#: modules where iteration order feeds plan choice, signatures, or cost
DETERMINISM_CRITICAL_PARTS = ("core", "partitioning")
#: modules where float equality is a correctness smell
FLOAT_SENSITIVE_PARTS = ("core", "baselines")


def _parts(path: str) -> Tuple[str, ...]:
    return PurePath(path).parts


def _is_test_path(path: str) -> bool:
    parts = _parts(path)
    name = parts[-1] if parts else ""
    return "tests" in parts or name.startswith("test_") or name.startswith("bench_")


# ----------------------------------------------------------------------
# set-ish expression inference (LINT001)
# ----------------------------------------------------------------------

#: builtin constructors producing sets
_SET_CONSTRUCTORS = {"set", "frozenset"}
#: repo methods documented to return set-like values
KNOWN_SET_METHODS = {
    "variables",
    "variables_of",
    "shared_variables",
    "pattern_join_variables",
}
#: set methods returning another set
_SET_PRODUCING_METHODS = {
    "union",
    "intersection",
    "difference",
    "symmetric_difference",
    "copy",
}
#: annotation names denoting set-like types
_SET_ANNOTATIONS = {
    "set",
    "frozenset",
    "Set",
    "FrozenSet",
    "AbstractSet",
    "MutableSet",
}
#: consumers whose result does not depend on iteration order.  ``sum``
#: is deliberately absent: float addition is not associative, so even a
#: "reduction" over a set can differ across hash seeds.
ORDER_INSENSITIVE_CONSUMERS = {
    "sorted",
    "set",
    "frozenset",
    "any",
    "all",
    "len",
    "min",
    "max",
}
#: calls that materialize their argument's iteration order
ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "reversed", "iter"}


def _annotation_is_setish(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Subscript):
        return _annotation_is_setish(node.value)
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATIONS
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATIONS
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        # string annotations: "FrozenSet[Variable]"
        head = node.value.split("[", 1)[0].strip()
        return head.rsplit(".", 1)[-1] in _SET_ANNOTATIONS
    return False


class _Scope:
    """One lexical scope's set-ish name bindings."""

    def __init__(self) -> None:
        self.setish: Set[str] = set()
        self.not_setish: Set[str] = set()

    def mark(self, name: str, is_setish: bool) -> None:
        if is_setish:
            self.setish.add(name)
            self.not_setish.discard(name)
        else:
            self.not_setish.add(name)
            self.setish.discard(name)

    def lookup(self, name: str) -> Optional[bool]:
        if name in self.setish:
            return True
        if name in self.not_setish:
            return False
        return None


class _SetIterationVisitor(ast.NodeVisitor):
    """Flags order-sensitive iteration over set-ish expressions."""

    def __init__(self, path: str, setish_functions: FrozenSet[str]) -> None:
        self.path = path
        self.setish_functions = setish_functions
        self.scopes: List[_Scope] = [_Scope()]
        self.findings: List[Diagnostic] = []
        #: comprehension nodes exempted by an order-insensitive consumer
        self._exempt: Set[int] = set()

    # -- inference -----------------------------------------------------
    def _lookup(self, name: str) -> Optional[bool]:
        for scope in reversed(self.scopes):
            found = scope.lookup(name)
            if found is not None:
                return found
        return None

    def _is_setish(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return bool(self._lookup(node.id))
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                return (
                    func.id in _SET_CONSTRUCTORS
                    or func.id in self.setish_functions
                )
            if isinstance(func, ast.Attribute):
                if func.attr in KNOWN_SET_METHODS:
                    return True
                if func.attr in _SET_PRODUCING_METHODS:
                    return self._is_setish(func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            # set algebra propagates set-ishness, but only when at least
            # one side is *known* set-ish (ints use the same operators)
            return self._is_setish(node.left) or self._is_setish(node.right)
        if isinstance(node, ast.IfExp):
            return self._is_setish(node.body) or self._is_setish(node.orelse)
        return False

    # -- scope management ----------------------------------------------
    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda]
    ) -> None:
        scope = _Scope()
        args = list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        )
        for arg in args:
            if _annotation_is_setish(arg.annotation):
                scope.mark(arg.arg, True)
        self.scopes.append(scope)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function
    visit_Lambda = _visit_function

    # -- binding tracking ----------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        is_setish = self._is_setish(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name):
                self.scopes[-1].mark(target.id, is_setish)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if isinstance(node.target, ast.Name):
            is_setish = _annotation_is_setish(node.annotation) or (
                node.value is not None and self._is_setish(node.value)
            )
            self.scopes[-1].mark(node.target.id, is_setish)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.target, ast.Name) and self._is_setish(node.value):
            self.scopes[-1].mark(node.target.id, True)
        self.generic_visit(node)

    # -- flagged contexts ----------------------------------------------
    def _flag(self, node: ast.expr, context: str) -> None:
        self.findings.append(
            Diagnostic(
                path=self.path,
                line=node.lineno,
                column=node.col_offset + 1,
                code="LINT001",
                severity=Severity.ERROR,
                message=(
                    f"{context} iterates a set in hash order; wrap in "
                    "sorted(...) with an explicit key (determinism-critical "
                    "module)"
                ),
            )
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_setish(node.iter):
            self._flag(node.iter, "for loop")
        self.generic_visit(node)

    def _visit_ordered_comprehension(
        self,
        node: Union[ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp],
        context: str,
    ) -> None:
        if id(node) not in self._exempt:
            for generator in node.generators:
                if self._is_setish(generator.iter):
                    self._flag(generator.iter, context)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_ordered_comprehension(node, "list comprehension")

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_ordered_comprehension(node, "dict comprehension")

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_ordered_comprehension(node, "generator expression")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ORDER_INSENSITIVE_CONSUMERS:
                # sorted(s) / any(f(x) for x in s) / min(s) are fine:
                # their result does not depend on iteration order
                for arg in node.args:
                    if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                        self._exempt.add(id(arg))
            elif func.id in ORDER_SENSITIVE_CALLS and node.args:
                if self._is_setish(node.args[0]):
                    self._flag(node.args[0], f"{func.id}(...)")
        elif isinstance(func, ast.Attribute) and func.attr == "join" and node.args:
            if self._is_setish(node.args[0]):
                self._flag(node.args[0], "str.join")
        self.generic_visit(node)


def _module_setish_functions(tree: ast.Module) -> FrozenSet[str]:
    """Names of same-module functions annotated to return sets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if _annotation_is_setish(node.returns):
                names.add(node.name)
    return frozenset(names)


def check_set_iteration(tree: ast.Module, path: str) -> List[Diagnostic]:
    """LINT001: unordered set iteration in determinism-critical code."""
    parts = _parts(path)
    if not any(part in DETERMINISM_CRITICAL_PARTS for part in parts):
        return []
    if _is_test_path(path):
        return []
    visitor = _SetIterationVisitor(path, _module_setish_functions(tree))
    visitor.visit(tree)
    return visitor.findings


# ----------------------------------------------------------------------
# LINT002: unseeded random
# ----------------------------------------------------------------------

#: ``random.<name>`` attributes that are fine (seeded or explicit)
_SEEDABLE_RANDOM = {"Random", "SystemRandom", "seed"}


def check_unseeded_random(tree: ast.Module, path: str) -> List[Diagnostic]:
    """LINT002: unseeded ``random`` usage outside test code."""
    if _is_test_path(path):
        return []
    findings: List[Diagnostic] = []

    def flag(node: ast.AST, message: str) -> None:
        findings.append(
            Diagnostic(
                path=path,
                line=node.lineno,
                column=node.col_offset + 1,
                code="LINT002",
                severity=Severity.ERROR,
                message=message,
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            bad = [
                alias.name
                for alias in node.names
                if alias.name not in _SEEDABLE_RANDOM
            ]
            if bad:
                flag(
                    node,
                    f"from random import {', '.join(bad)} pulls module-level "
                    "(unseeded) state; use random.Random(seed) instead",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        flag(
                            node,
                            "random.Random() without a seed is "
                            "nondeterministic; pass an explicit seed",
                        )
                elif func.attr not in _SEEDABLE_RANDOM:
                    flag(
                        node,
                        f"module-level random.{func.attr}() uses the global "
                        "unseeded generator; use random.Random(seed)",
                    )
    return findings


# ----------------------------------------------------------------------
# LINT003: float equality in cost/cardinality code
# ----------------------------------------------------------------------

#: identifier suffixes that denote floating-point quantities here
_FLOAT_IDENT = re.compile(
    r"(?:^|_)(?:cost|costs|ratio|cardinality|card|weight|speedup|seconds)$"
)


def _float_identifier(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return repr(node.value)
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is not None and _FLOAT_IDENT.search(name.lower()):
        return name
    return None


def check_float_equality(tree: ast.Module, path: str) -> List[Diagnostic]:
    """LINT003: ``==`` / ``!=`` on float-valued cost expressions."""
    parts = _parts(path)
    if not any(part in FLOAT_SENSITIVE_PARTS for part in parts):
        return []
    if _is_test_path(path):
        return []
    findings: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            culprit = _float_identifier(left) or _float_identifier(right)
            if culprit is None:
                continue
            findings.append(
                Diagnostic(
                    path=path,
                    line=node.lineno,
                    column=node.col_offset + 1,
                    code="LINT003",
                    severity=Severity.WARNING,
                    message=(
                        f"float equality on {culprit!r}; use math.isclose "
                        "or restructure the comparison (costs are "
                        "re-derived float sums)"
                    ),
                )
            )
    return findings


# ----------------------------------------------------------------------
# LINT004: mutable default arguments
# ----------------------------------------------------------------------

_MUTABLE_CONSTRUCTORS = {"list", "dict", "set", "bytearray"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in _MUTABLE_CONSTRUCTORS
    return False


def check_mutable_defaults(tree: ast.Module, path: str) -> List[Diagnostic]:
    """LINT004: mutable default arguments (shared across calls)."""
    findings: List[Diagnostic] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                findings.append(
                    Diagnostic(
                        path=path,
                        line=default.lineno,
                        column=default.col_offset + 1,
                        code="LINT004",
                        severity=Severity.WARNING,
                        message=(
                            "mutable default argument is shared across "
                            "calls; default to None and construct inside"
                        ),
                    )
                )
    return findings


# ----------------------------------------------------------------------
# LINT005: ambient wall-clock reads in clock-governed modules
# ----------------------------------------------------------------------

#: modules whose control flow must read time through a governance clock
CLOCK_GOVERNED_PARTS = ("core", "engine", "baselines", "experiments")
#: the one module allowed to touch the wall clock (it *defines* the
#: production :class:`~repro.core.governance.Clock`)
_SANCTIONED_CLOCK_FILES = {"governance.py"}
#: ``time`` attributes that decide control flow when read ambiently
#: (``perf_counter`` is exempt: it measures, it never decides)
_WALL_CLOCK_FUNCTIONS = {"time", "monotonic"}


def check_wall_clock(tree: ast.Module, path: str) -> List[Diagnostic]:
    """LINT005: direct wall-clock reads outside the sanctioned clock."""
    parts = _parts(path)
    if not any(part in CLOCK_GOVERNED_PARTS for part in parts):
        return []
    if _is_test_path(path):
        return []
    if parts and parts[-1] in _SANCTIONED_CLOCK_FILES:
        return []
    findings: List[Diagnostic] = []

    def flag(node: ast.AST, message: str) -> None:
        findings.append(
            Diagnostic(
                path=path,
                line=node.lineno,
                column=node.col_offset + 1,
                code="LINT005",
                severity=Severity.ERROR,
                message=message,
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = [
                alias.name
                for alias in node.names
                if alias.name in _WALL_CLOCK_FUNCTIONS
            ]
            if bad:
                flag(
                    node,
                    f"from time import {', '.join(bad)} reads the ambient "
                    "wall clock; deadlines must go through a "
                    "repro.core.governance Clock (ManualClock in tests)",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in _WALL_CLOCK_FUNCTIONS
            ):
                flag(
                    node,
                    f"time.{func.attr}() reads the ambient wall clock for "
                    "control flow; thread a repro.core.governance Deadline "
                    "(its Clock is injectable, so tests can force expiry)",
                )
    return findings


# ----------------------------------------------------------------------
# the rule registry
# ----------------------------------------------------------------------

RULES = {
    "LINT001": check_set_iteration,
    "LINT002": check_unseeded_random,
    "LINT003": check_float_equality,
    "LINT004": check_mutable_defaults,
    "LINT005": check_wall_clock,
}


def run_rules(
    tree: ast.Module, path: str, select: Optional[Iterable[str]] = None
) -> List[Diagnostic]:
    """Run (selected) rules over one parsed module."""
    codes: Sequence[str] = sorted(select) if select is not None else sorted(RULES)
    findings: List[Diagnostic] = []
    for code in codes:
        rule = RULES.get(code.upper())
        if rule is None:
            raise ValueError(f"unknown lint rule {code!r}; known: {sorted(RULES)}")
        findings.extend(rule(tree, path))
    return findings
