"""Tests for the determinism lint (analysis.lint).

Each rule is exercised on seeded bad source via ``check_source`` under a
pretend path (rule scoping is path-based), plus the suppression syntax,
the path exemptions, and the CLI driver over the real tree — which must
be clean, since every true positive was fixed in this PR.
"""

import subprocess
import sys
import textwrap

import pytest

from repro.analysis.lint import check_source, lint_paths
from repro.analysis.lint.diagnostics import (
    Diagnostic,
    Severity,
    parse_suppressions,
)
from repro.analysis.lint.rules import run_rules

CORE = "src/repro/core/fake.py"
PARTITIONING = "src/repro/partitioning/fake.py"
ENGINE = "src/repro/engine/fake.py"
TESTS = "tests/test_fake.py"


def findings(source, path=CORE, select=None):
    return check_source(textwrap.dedent(source), path, select=select)


def codes(source, path=CORE, select=None):
    return [f.code for f in findings(source, path, select)]


class TestLint001SetIteration:
    def test_for_over_set_literal(self):
        assert codes("for x in {1, 2, 3}:\n    pass\n") == ["LINT001"]

    def test_for_over_set_call_and_frozenset(self):
        src = """
        for x in set(items):
            pass
        for y in frozenset(items):
            pass
        """
        assert codes(src) == ["LINT001", "LINT001"]

    def test_known_set_returning_methods(self):
        src = """
        for v in pattern.variables():
            pass
        for v in graph.variables_of(bits):
            pass
        """
        assert codes(src) == ["LINT001", "LINT001"]

    def test_setish_name_tracking_through_assignment(self):
        src = """
        shared = left.variables() & right.variables()
        for v in shared:
            pass
        """
        assert codes(src) == ["LINT001"]

    def test_annotated_parameter_is_setish(self):
        src = """
        from typing import FrozenSet

        def f(vars: FrozenSet[str]) -> None:
            for v in vars:
                pass
        """
        assert codes(src) == ["LINT001"]

    def test_string_annotation_is_setish(self):
        src = """
        def f(vars: "FrozenSet[str]") -> None:
            return [v for v in vars]
        """
        assert codes(src) == ["LINT001"]

    def test_same_module_setish_return_annotation(self):
        src = """
        def shared() -> set:
            return {1}

        for v in shared():
            pass
        """
        assert codes(src) == ["LINT001"]

    def test_sorted_wrapper_is_clean(self):
        src = """
        for x in sorted({1, 2, 3}):
            pass
        result = sorted(v for v in pattern.variables())
        """
        assert codes(src) == []

    def test_order_insensitive_consumers_are_clean(self):
        src = """
        ok = any(v.name == "x" for v in pattern.variables())
        n = len({1, 2})
        m = min({1, 2})
        everything = all(check(v) for v in graph.variables_of(bits))
        """
        assert codes(src) == []

    def test_sum_over_set_is_flagged(self):
        # float addition is not associative: sum() over a set is NOT
        # order-insensitive, unlike any/all/min/max
        src = "total = sum(w for w in set(weights))\n"
        assert codes(src) == ["LINT001"]

    def test_list_and_tuple_materialization_flagged(self):
        src = """
        a = list({1, 2})
        b = tuple(pattern.variables())
        c = enumerate(set(items))
        """
        assert codes(src) == ["LINT001", "LINT001", "LINT001"]

    def test_str_join_over_set_flagged(self):
        assert codes('text = ",".join({"a", "b"})\n') == ["LINT001"]

    def test_dict_comprehension_over_set_flagged(self):
        src = "d = {v: 1 for v in pattern.variables()}\n"
        assert codes(src) == ["LINT001"]

    def test_set_comprehension_over_set_is_clean(self):
        # sets in, sets out: no order is materialized
        assert codes("s = {v for v in pattern.variables()}\n") == []

    def test_dict_iteration_is_clean(self):
        src = """
        d = {"a": 1}
        for k in d:
            pass
        """
        assert codes(src) == []

    def test_partitioning_path_in_scope(self):
        assert codes("for x in {1}:\n    pass\n", path=PARTITIONING) == ["LINT001"]

    def test_non_critical_and_test_paths_exempt(self):
        src = "for x in {1, 2}:\n    pass\n"
        assert codes(src, path=ENGINE) == []
        assert codes(src, path=TESTS) == []
        assert codes(src, path="src/repro/core/test_fake.py") == []


class TestLint002UnseededRandom:
    def test_module_level_random_calls(self):
        src = """
        import random

        x = random.random()
        y = random.choice([1, 2])
        """
        assert codes(src, path=ENGINE) == ["LINT002", "LINT002"]

    def test_unseeded_random_constructor(self):
        assert codes("rng = random.Random()\n") == ["LINT002"]

    def test_seeded_random_is_clean(self):
        src = """
        import random

        rng = random.Random(42)
        sys_rng = random.SystemRandom()
        rng.shuffle(items)
        """
        assert codes(src) == []

    def test_from_import_of_unseeded_names(self):
        assert codes("from random import choice, shuffle\n") == ["LINT002"]
        assert codes("from random import Random\n") == []

    def test_tests_exempt(self):
        assert codes("x = random.random()\n", path=TESTS) == []


class TestLint003FloatEquality:
    def test_cost_name_equality(self):
        assert codes("if cost == best_cost:\n    pass\n") == ["LINT003"]

    def test_attribute_and_float_literal(self):
        assert codes("flag = node.cost == 0.0\n") == ["LINT003"]
        assert codes("flag = ratio != 1.5\n") == ["LINT003"]

    def test_severity_is_warning(self):
        (finding,) = findings("if cost == 1.0:\n    pass\n")
        assert finding.severity is Severity.WARNING

    def test_int_and_unrelated_names_clean(self):
        src = """
        if count == 3:
            pass
        if name == other_name:
            pass
        """
        assert codes(src) == []

    def test_ordering_comparisons_clean(self):
        assert codes("if cost < best_cost:\n    pass\n") == []

    def test_out_of_scope_path_exempt(self):
        assert codes("if cost == 1.0:\n    pass\n", path=ENGINE) == []


class TestLint004MutableDefaults:
    def test_literal_defaults(self):
        src = """
        def f(x=[], y={}, z={1}):
            pass
        """
        assert codes(src) == ["LINT004", "LINT004", "LINT004"]

    def test_constructor_defaults_and_kwonly(self):
        src = """
        def f(x=list(), *, y=dict()):
            pass
        """
        assert codes(src) == ["LINT004", "LINT004"]

    def test_none_and_immutable_defaults_clean(self):
        src = """
        def f(x=None, y=(), z="s", w=0):
            pass
        """
        assert codes(src) == []

    def test_applies_outside_core_too(self):
        assert codes("def f(x=[]):\n    pass\n", path=ENGINE) == ["LINT004"]


class TestSuppression:
    def test_inline_disable(self):
        src = "for x in {1}:  # lint: disable=LINT001\n    pass\n"
        assert codes(src) == []

    def test_disable_with_justification_text(self):
        src = "for x in {1}:  # lint: disable=LINT001 order-insensitive fold\n    pass\n"
        assert codes(src) == []

    def test_disable_all(self):
        src = "for x in {1}:  # lint: disable=all\n    pass\n"
        assert codes(src) == []

    def test_disable_other_code_does_not_apply(self):
        src = "for x in {1}:  # lint: disable=LINT002\n    pass\n"
        assert codes(src) == ["LINT001"]

    def test_disable_is_per_line(self):
        src = """
        for x in {1}:  # lint: disable=LINT001
            pass
        for y in {2}:
            pass
        """
        assert codes(src) == ["LINT001"]

    def test_parse_suppressions_multiple_codes(self):
        parsed = parse_suppressions("x = 1  # lint: disable=LINT001,LINT003\n")
        assert parsed == {1: frozenset({"LINT001", "LINT003"})}

    def test_malformed_directives_ignored(self):
        assert parse_suppressions("x = 1  # lint: whatever\n") == {}
        assert parse_suppressions("x = 1  # lint: disable=\n") == {}


class TestDriver:
    def test_syntax_error_yields_lint000(self):
        (finding,) = findings("def broken(:\n")
        assert finding.code == "LINT000"
        assert finding.severity is Severity.ERROR

    def test_select_restricts_rules(self):
        src = """
        def f(x=[]):
            for v in {1}:
                pass
        """
        assert codes(src, select=["LINT004"]) == ["LINT004"]
        assert codes(src, select=["lint001"]) == ["LINT001"]

    def test_unknown_rule_rejected(self):
        import ast

        with pytest.raises(ValueError, match="unknown lint rule"):
            run_rules(ast.parse("x = 1"), CORE, select=["LINT999"])

    def test_diagnostic_render_format(self):
        d = Diagnostic(
            path="a.py", line=3, column=7, code="LINT001",
            severity=Severity.ERROR, message="msg",
        )
        assert d.render() == "a.py:3:7: LINT001 error: msg"

    def test_findings_carry_locations(self):
        (finding,) = findings("x = 1\nfor v in {1}:\n    pass\n")
        assert (finding.path, finding.line) == (CORE, 2)

    def test_real_tree_is_clean(self):
        # acceptance criterion: the shipped tree has zero findings
        assert lint_paths(["src/repro"]) == []

    def test_cli_exit_codes(self, tmp_path):
        clean = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "src/repro"],
            capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "clean" in clean.stdout
        bad = tmp_path / "core" / "dirty.py"
        bad.parent.mkdir()
        bad.write_text("for x in {1, 2}:\n    pass\n", encoding="utf-8")
        dirty = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert dirty.returncode == 1
        assert "LINT001" in dirty.stdout


class TestLint005WallClock:
    def test_time_time_call_flagged_in_core(self):
        src = """
        import time
        started = time.time()
        """
        assert codes(src) == ["LINT005"]

    def test_time_monotonic_call_flagged_in_engine(self):
        src = """
        import time
        if time.monotonic() > limit:
            pass
        """
        assert codes(src, path=ENGINE) == ["LINT005"]

    def test_baselines_and_experiments_are_clock_governed(self):
        """The optimizers under comparison and their harness share the
        one sanctioned clock, or the comparison is not under one cutoff."""
        src = """
        import time
        deadline = time.monotonic() + 600
        """
        for path in (
            "src/repro/baselines/msc.py",
            "src/repro/experiments/harness.py",
        ):
            assert codes(src, path=path) == ["LINT005"]

    def test_from_import_flagged(self):
        assert codes("from time import monotonic\n") == ["LINT005"]
        assert codes("from time import time, monotonic\n") == ["LINT005"]

    def test_perf_counter_is_exempt(self):
        src = """
        import time
        from time import perf_counter
        elapsed = time.perf_counter() - started
        """
        assert codes(src) == []

    def test_sanctioned_clock_module_exempt(self):
        src = """
        import time
        now = time.monotonic()
        """
        assert codes(src, path="src/repro/core/governance.py") == []

    def test_outside_clock_governed_parts_exempt(self):
        src = """
        import time
        now = time.time()
        """
        assert codes(src, path="src/repro/analysis/fake.py") == []
        assert codes(src, path=TESTS) == []

    def test_per_line_disable(self):
        src = """
        import time
        now = time.monotonic()  # lint: disable=LINT005
        later = time.monotonic()
        """
        assert codes(src) == ["LINT005"]

    def test_severity_is_error(self):
        (finding,) = findings("from time import time\n")
        assert finding.severity is Severity.ERROR
        assert finding.code == "LINT005"
