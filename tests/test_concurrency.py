"""Tests for the concurrency analyzer (analysis.concurrency).

Each rule (LINT010, LINT011, LINT013) is exercised on seeded bad source
handed to ``analyze_files`` under pretend paths — positive, negative,
and suppression cases — and on a seeded defect in the live file it
guards.
Plus the guard-comment grammar, the real-tree-clean gate and the CLI
driver.
"""

import subprocess
import sys
import textwrap
import time
from pathlib import Path

from repro.analysis.concurrency import analyze_files, check_concurrency_paths
from repro.analysis.concurrency.model import parse_guard_comments

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"

#: a pretend path for fixture sources
COLD = "src/repro/core/cost.py"


def diags(*files, select=None):
    return analyze_files(
        [(path, textwrap.dedent(source)) for path, source in files], select=select
    )


def codes(*files, select=None):
    return [d.code for d in diags(*files, select=select)]


# ----------------------------------------------------------------------
# LINT010 — guarded-by lock discipline
# ----------------------------------------------------------------------

GUARDED_CLASS = """
import threading


class Counter:
    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0  #: guarded-by: _lock

    {body}
"""


def guarded(body):
    return GUARDED_CLASS.format(body=textwrap.dedent(body).replace("\n", "\n    "))


class TestLint010GuardedBy:
    def test_unlocked_write_flagged(self):
        src = guarded(
            """
            def bump(self):
                self._value += 1
            """
        )
        found = diags((COLD, src), select={"LINT010"})
        assert [f.code for f in found] == ["LINT010"]
        assert "Counter._value" in found[0].message
        assert "_lock" in found[0].message

    def test_unlocked_read_flagged(self):
        src = guarded(
            """
            def peek(self):
                return self._value
            """
        )
        assert codes((COLD, src), select={"LINT010"}) == ["LINT010"]

    def test_locked_access_clean(self):
        src = guarded(
            """
            def bump(self):
                with self._lock:
                    self._value += 1
            """
        )
        assert codes((COLD, src), select={"LINT010"}) == []

    def test_init_is_exempt(self):
        # the constructor's writes predate publication — GUARDED_CLASS
        # itself assigns self._value unlocked in __init__
        src = guarded(
            """
            def noop(self):
                pass
            """
        )
        assert codes((COLD, src), select={"LINT010"}) == []

    def test_private_helper_inherits_lock_from_call_sites(self):
        # the classic _locked-helper pattern: every intra-class call
        # site holds the lock, so the helper is analyzed as holding it
        src = guarded(
            """
            def bump(self):
                with self._lock:
                    self._bump_locked()

            def _bump_locked(self):
                self._value += 1
            """
        )
        assert codes((COLD, src), select={"LINT010"}) == []

    def test_public_helper_never_inherits_the_lock(self):
        # public methods are externally callable: holding the lock at
        # the one internal call site proves nothing
        src = guarded(
            """
            def bump(self):
                with self._lock:
                    self.bump_unlocked()

            def bump_unlocked(self):
                self._value += 1
            """
        )
        assert codes((COLD, src), select={"LINT010"}) == ["LINT010"]

    def test_suppression_with_justification(self):
        src = guarded(
            """
            def peek(self):
                return self._value  # lint: disable=LINT010 racy read is advisory-only
            """
        )
        assert codes((COLD, src), select={"LINT010"}) == []


# ----------------------------------------------------------------------
# LINT011 — blocking call while holding a lock
# ----------------------------------------------------------------------


class TestLint011BlockingUnderLock:
    def test_future_result_under_lock_flagged(self):
        src = guarded(
            """
            def wait_for(self, future):
                with self._lock:
                    return future.result()
            """
        )
        found = diags((COLD, src), select={"LINT011"})
        assert [f.code for f in found] == ["LINT011"]
        assert "future.result" in found[0].message

    def test_queue_get_under_module_level_lock_flagged(self):
        src = """
        import threading

        state_lock = threading.Lock()

        def drain(task_queue):
            with state_lock:
                return task_queue.get()
        """
        assert codes((COLD, src), select={"LINT011"}) == ["LINT011"]

    def test_result_outside_lock_clean(self):
        src = guarded(
            """
            def wait_for(self, future):
                with self._lock:
                    pending = True
                return future.result()
            """
        )
        assert codes((COLD, src), select={"LINT011"}) == []

    def test_str_join_is_not_a_thread_join(self):
        src = guarded(
            """
            def render(self, parts):
                with self._lock:
                    return ", ".join(parts)
            """
        )
        assert codes((COLD, src), select={"LINT011"}) == []

    def test_lock_taken_under_a_lock_flagged(self):
        # `with other._lock:` is the same `.acquire()` in another form:
        # nested, it orders two locks; taken after release, it does not
        src = guarded(
            """
            def transfer(self, other):
                with self._lock:
                    with other._lock:
                        self._value -= 1
                with other._lock:
                    pass
            """
        )
        found = diags((COLD, src), select={"LINT011"})
        assert [f.code for f in found] == ["LINT011"]
        assert "with other._lock" in found[0].message
        nested = src.splitlines().index(" " * 12 + "with other._lock:")
        assert found[0].line == nested + 1

    def test_suppression_with_justification(self):
        src = guarded(
            """
            def wait_for(self, future):
                with self._lock:
                    return future.result()  # lint: disable=LINT011 future completes in-process, bounded
            """
        )
        assert codes((COLD, src), select={"LINT011"}) == []


# ----------------------------------------------------------------------
# LINT013 — mutated module globals read in worker entry code
# ----------------------------------------------------------------------


class TestLint013WorkerGlobals:
    def test_mutated_global_read_in_entry_flagged(self):
        src = """
        import multiprocessing

        CACHE = {}

        def configure(key, value):
            CACHE[key] = value

        def work(item):
            return CACHE.get(item, 0)

        def driver(item):
            multiprocessing.Process(target=work, args=(item,)).start()
        """
        found = diags((COLD, src), select={"LINT013"})
        assert [f.code for f in found] == ["LINT013"]
        assert "CACHE" in found[0].message

    def test_read_through_same_module_callee_flagged(self):
        src = """
        import multiprocessing

        CACHE = {}

        def configure(key, value):
            CACHE[key] = value

        def lookup(item):
            return CACHE.get(item, 0)

        def work(item):
            return lookup(item)

        def driver(item):
            multiprocessing.Process(target=work, args=(item,)).start()
        """
        assert codes((COLD, src), select={"LINT013"}) == ["LINT013"]

    def test_read_through_a_function_passed_as_an_argument_flagged(self):
        """A pool worker that reaches its loop only as an argument
        (``contextvars.Context().run(serve, ...)``) is still walked."""
        src = """
        import contextvars
        import multiprocessing

        CACHE = {}

        def configure(key, value):
            CACHE[key] = value

        def serve(conn):
            conn.send(CACHE.get("key"))

        def worker_main(conn):
            contextvars.Context().run(serve, conn)

        def driver(conn):
            multiprocessing.Process(target=worker_main, args=(conn,)).start()
        """
        assert codes((COLD, src), select={"LINT013"}) == ["LINT013"]

    def test_unmutated_global_clean(self):
        src = """
        import multiprocessing

        LIMITS = {"depth": 4}

        def work(item):
            return LIMITS.get("depth")

        def driver(item):
            multiprocessing.Process(target=work, args=(item,)).start()
        """
        assert codes((COLD, src), select={"LINT013"}) == []

    def test_no_submission_site_clean(self):
        src = """
        CACHE = {}

        def configure(key, value):
            CACHE[key] = value

        def work(item):
            return CACHE.get(item, 0)
        """
        assert codes((COLD, src), select={"LINT013"}) == []


# ----------------------------------------------------------------------
# each rule catches a seeded defect in the live file it guards
# ----------------------------------------------------------------------


def assert_live_mutant_caught(code, relative, *edits):
    """The real module is clean; with each ``(old, new)`` edit it yields *code*."""
    path = SRC_REPRO / relative
    source = mutant = path.read_text(encoding="utf-8")
    for old, new in edits:
        assert mutant.count(old) == 1, f"{relative} no longer has {old!r}"
        mutant = mutant.replace(old, new)
    assert analyze_files([(str(path), source)]) == []
    assert [f.code for f in analyze_files([(str(path), mutant)])] == [code]


class TestLiveFileMutants:
    def test_lint010_unlocked_circuit_breaker_read(self):
        assert_live_mutant_caught(
            "LINT010",
            "engine/recovery.py",
            (
                "        with self._lock:\n            return sorted(self._open)\n",
                "        return sorted(self._open)\n",
            ),
        )

    def test_lint011_wait_inside_cancel(self):
        assert_live_mutant_caught(
            "LINT011",
            "core/governance.py",
            (
                "        with self._lock:\n            if not self._event.is_set():\n",
                "        with self._lock:\n            self._event.wait(1.0)\n"
                "            if not self._event.is_set():\n",
            ),
        )

    def test_lint013_batch_worker_reads_a_mutated_global(self):
        # a module dict that _Pool.__init__ writes and the worker loop
        # _serve (reached through Context().run) reads
        assert_live_mutant_caught(
            "LINT013",
            "core/cooperative.py",
            ("def _worker_main(", "_SIZES = {}\n\n\ndef _worker_main("),
            (
                "        kind, payload = conn.recv()\n",
                "        kind, payload = conn.recv()\n        _SIZES.get(workers)\n",
            ),
            (
                "        self.generation = 0\n",
                "        self.generation = 0\n        _SIZES[jobs] = self\n",
            ),
        )


# ----------------------------------------------------------------------
# shared machinery
# ----------------------------------------------------------------------


class TestGuardCommentGrammar:
    def test_trailing_and_standalone_declarations(self):
        source = (
            "class C:\n"
            "    def __init__(self):\n"
            "        self.a = 0  #: guarded-by: _lock\n"
            "        #: guarded-by: _mutex\n"
            "        self.b = 1\n"
            "        self.c = 2\n"
        )
        guards = parse_guard_comments(source)
        assert guards[3] == "_lock"  # trailing: declares its own line
        assert guards[5] == "_mutex"  # standalone: declares the next line
        assert 6 not in guards

    def test_syntax_error_is_one_finding(self):
        found = diags((COLD, "def broken(:\n"))
        assert [f.code for f in found] == ["LINT000"]


class TestRealTree:
    def test_src_repro_is_clean_and_fast(self):
        started = time.perf_counter()
        findings = check_concurrency_paths([SRC_REPRO])
        elapsed = time.perf_counter() - started
        assert findings == [], "\n".join(f.render() for f in findings)
        assert elapsed < 10.0, f"analyzer took {elapsed:.1f}s over src/repro"

    def test_cli_driver(self, tmp_path):
        clean = subprocess.run(
            [sys.executable, "-m", "repro", "check-concurrency", "src/repro"],
            capture_output=True, text=True,
        )
        assert clean.returncode == 0, clean.stdout + clean.stderr
        assert "clean" in clean.stdout
        bad = tmp_path / "core" / "counter.py"
        bad.parent.mkdir()
        bad.write_text(
            guarded(
                """
                def peek(self):
                    return self._value
                """
            ),
            encoding="utf-8",
        )
        dirty = subprocess.run(
            [sys.executable, "-m", "repro", "check-concurrency", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert dirty.returncode == 1
        assert "LINT010" in dirty.stdout

