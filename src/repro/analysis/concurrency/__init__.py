"""Concurrency & process-safety analyzer.

Two passes over the ``src/repro`` tree, each across the functions of
one module: a private helper inherits the locks its intra-class callers
hold, and a worker entry reaches its same-module callees.

======== ==============================================================
Code     Property
======== ==============================================================
LINT010  ``#: guarded-by:`` fields only touched under their lock
LINT011  no blocking call (``.result``/``.recv``/``queue.get``/…)
         and no second lock taken while holding a lock
LINT013  worker entry code does not read mutated module globals
======== ==============================================================

CLI: ``python -m repro check-concurrency [paths]``.  Suppression uses
the same per-line grammar as the determinism lint:
``# lint: disable=LINT010 <justification>``.

Whether every search and engine polls its query budget is checked by
running them under a real deadline (``tests/test_governance.py``), not
statically.  Nothing on the query path imports this package.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from ..lint.diagnostics import (
    Diagnostic,
    Severity,
    is_suppressed,
    parse_suppressions,
    render_all,
    sort_key,
)
from ..lint.runner import iter_python_files
from .guards import check_lock_discipline
from .model import ModuleInfo, parse_module
from .pickle_safety import check_worker_globals

#: code → one-line summary (docs + ``--select`` validation)
CONCURRENCY_RULES: Dict[str, str] = {
    "LINT010": "guarded-by field accessed without holding its declared lock",
    "LINT011": "potentially blocking call while holding a lock",
    "LINT013": "worker entry path reads a mutated module global",
}


def analyze_files(
    files: Sequence[Tuple[str, str]], select: Optional[Iterable[str]] = None
) -> List[Diagnostic]:
    """Analyze ``(path, source)`` pairs; suppressions honored per file.

    This is the unit-test surface: fixtures hand in a tiny multi-file
    project under pretend paths, exactly like the determinism lint's
    ``check_source``.
    """
    wanted = set(select) if select is not None else None
    findings: List[Diagnostic] = []
    # a file that does not parse is one finding, not a crash
    modules: List[ModuleInfo] = []
    suppressions_by_path: Dict[str, Dict[int, FrozenSet[str]]] = {}
    for path, source in files:
        try:
            modules.append(parse_module(source, path))
        except SyntaxError as error:
            findings.append(
                Diagnostic(
                    path=path,
                    line=error.lineno or 1,
                    column=error.offset or 1,
                    code="LINT000",
                    severity=Severity.ERROR,
                    message=f"file does not parse: {error.msg}",
                )
            )
            continue
        suppressions_by_path[path] = parse_suppressions(source)

    for pass_findings in (
        check_lock_discipline(modules),
        check_worker_globals(modules),
    ):
        findings.extend(pass_findings)

    if wanted is not None:
        findings = [f for f in findings if f.code in wanted or f.code == "LINT000"]

    kept = [
        f
        for f in findings
        if not is_suppressed(f, suppressions_by_path.get(f.path, {}))
    ]
    return sorted(kept, key=sort_key)


def check_concurrency_paths(
    paths: Sequence[Union[str, Path]], select: Optional[Iterable[str]] = None
) -> List[Diagnostic]:
    """Analyze every ``.py`` file under *paths*."""
    files = [
        (str(file), file.read_text(encoding="utf-8"))
        for file in iter_python_files(paths)
    ]
    return analyze_files(files, select)


def main(paths: Sequence[str], select: Optional[Iterable[str]] = None) -> int:
    """CLI entry: print findings, return 0 (clean) or 1 (findings)."""
    findings = check_concurrency_paths(paths, select)
    if findings:
        print(render_all(findings))
        errors = sum(1 for f in findings if f.severity is Severity.ERROR)
        warnings = len(findings) - errors
        print(f"check-concurrency: {errors} error(s), {warnings} warning(s)")
        return 1
    files = len(iter_python_files(paths))
    print(f"check-concurrency: {files} file(s) clean")
    return 0
