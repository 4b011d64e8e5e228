"""Removed surface stays removed: one regular expression per deleted
strategy, shim or second path, searched over the files it must not come
back to.

Each case is ``(pattern, paths, message)``, and a pattern matches as
``grep -E`` would, line by line; the two patterns that reach across
lines do so on purpose.  The docs each comment names say why the surface
went.  The history files (``CHANGES.md``, ``ROADMAP.md``, ``ISSUE.md``)
may name what was removed, and so may this file.

Only tracked files are searched (``git ls-files``), so what a checkout
holds beside the program (a virtualenv, an ``*.egg-info`` left by an
editable install, a build tree) never trips a case; a tree with no git
metadata is walked instead, less the generated trees in ``SKIPPED``.
"""

import os
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HISTORY = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}
#: generated, cached or installed trees a checkout may hold: never part
#: of the program (walked only where there is no git metadata)
SKIPPED = {
    ".git", ".hypothesis", ".pytest_cache", "__pycache__", "results", "out",
    ".venv", "venv", "build", "dist", ".eggs",
}

TRIPWIRES = [
    # one parallel strategy, no deprecated surface, one deadline route
    pytest.param(
        r"root.slice|parallel_strategy|PARALLEL_STRATEGIES|DeprecationWarning|timeout_seconds",
        ("src",),
        "removed surface reappeared in src/ (see docs/API.md, 'what 2.0 removed')",
        id="2.0-surface",
    ),
    # ids are the only rows the executor moves: no term-tuple backend,
    # no per-engine pricing, no open registry (docs/API.md, "what 2.1 removed")
    pytest.param(
        r"ReferenceEngine|shuffle_factor|register_engine",
        ("src",),
        "the reference backend / engine registry surface reappeared in src/",
        id="2.1-engine-registry",
    ),
    # hot-query placement exists once, on ids: one layout class, one
    # placement function, no term-level seam (docs/API.md, "what 2.2 removed")
    pytest.param(
        r"AdaptiveOverlay|hot_query_matches|_instantiate|ingest_snapshot",
        ("src",),
        "a second hot-query placement path / layout class reappeared in src/",
        id="2.2-placement-path",
    ),
    # perf_counter measures, it never decides (LINT005's exemption)
    pytest.param(
        r"perf_counter\(\) *[<>]",
        ("src/repro/baselines", "src/repro/experiments"),
        "a perf_counter() comparison decides control flow; poll the QueryBudget instead",
        id="perf-counter-decides",
    ),
    # one benchmark tree: bench/ measures, tier-1 asserts, `experiments`
    # reports (docs/API.md, "what 2.5 removed"); test_one_benchmark_tree
    # checks the directory
    pytest.param(
        r"pytest-bench[m]ark|benchmark[.]pedantic",
        (".",),
        "a second benchmark tree or its pytest plugin reappeared",
        id="2.5-benchmark-plugin",
    ),
    # one placement hook: a partitioner's data side is `layout`, which
    # `partition()` calls; a per-vertex element protocol beside it is
    # code `partition()` never reaches (docs/API.md, "what 2.7 removed")
    pytest.param(
        r"combine_ids|def elements|def distribute\(self, elements|\bElements\b",
        ("src/repro/partitioning",),
        "a second placement protocol reappeared in src/repro/partitioning/",
        id="2.7-element-protocol",
    ),
    # one pool per process, one static share of the root per worker: chunk
    # queues, prefetch and work stealing cost a hand-off per chunk and
    # were what made jobs=2 lose (docs/PERFORMANCE.md, "Parallel plan search")
    pytest.param(
        r"_CHUNKS_PER_WORKER|_PREFETCH|_MAX_CHUNK|per_worker_steals",
        ("src/repro/core",),
        "chunk scheduling / work stealing reappeared in src/repro/core/",
        id="chunk-scheduling",
    ),
    # one cooperative bounded search: the workers split the root and share
    # one cost table; popcount tiers solve every subquery, so they cannot
    # bound, and a tier relay is a barrier per level (docs/PERFORMANCE.md,
    # "Parallel plan search")
    pytest.param(
        r"subquery_tiers|\"tier\"",
        ("src/repro/core",),
        "tier scheduling reappeared in src/repro/core/",
        id="tier-scheduling",
    ),
    # the cold path builds each term once: a term's hash is filled when
    # it is made (no empty slot found by exception, once per term per
    # load) and an index order is sorted on int keys, not as a set of
    # pair tuples (docs/PERFORMANCE.md, "Each term built once")
    pytest.param(
        r"except AttributeError",
        ("src/repro/rdf/terms.py",),
        "a lazily filled term hash reappeared in src/repro/rdf/",
        id="lazy-term-hash",
    ),
    pytest.param(
        re.escape("set(zip("),
        ("src/repro/rdf/encoding.py",),
        "a pair-set index sort reappeared in src/repro/rdf/",
        id="pair-set-sort",
    ),
    # one object per id: an index order holds the dictionary's own id
    # ints (an array('q') boxes a new int per read), and the sink
    # decodes each batch as it admits it, not an id-row set afterwards
    # (docs/PERFORMANCE.md, "One object per id"); the first pattern
    # looks only from `def _sorted_columns` to the next class
    pytest.param(
        r"^def _sorted_columns(?:(?!^class )[\s\S])*?" + re.escape('array("q"'),
        ("src/repro/rdf/encoding.py",),
        "a boxing index order reappeared (docs/PERFORMANCE.md, 'One object per id')",
        id="boxing-index-order",
    ),
    pytest.param(
        r"admitted[.]decode[(][)]|EncodedRelation[(]kept",
        ("src/repro/engine/executor.py",),
        "the id-row sink reappeared (docs/PERFORMANCE.md, 'One object per id')",
        id="id-row-sink",
    ),
    # terms on demand: partitioners rank and hash a vertex by the
    # dictionary's text, never by a term decoded for it; only
    # `PartitioningMethod.placement` decodes (docs/PERFORMANCE.md, "Terms
    # on demand")
    pytest.param(
        r"(hash_terms\(|map\(str, *)[^\n]*decode_all\(",
        ("src/repro/partitioning",),
        "a partitioner decodes terms to rank or hash them (read TermDictionary.texts)",
        id="decoded-rank-or-hash",
    ),
    # fragments on demand: a partitioning's fragments are views of the
    # dataset's table, each predicate cut when a scan first reads it; no
    # partitioner gathers a fragment's columns (docs/PERFORMANCE.md,
    # "Fragments on demand")
    pytest.param(
        re.escape(".gather("),
        ("src/repro/partitioning",),
        "a partitioner gathers fragments eagerly (views of the layout's masks: EncodedGraph.cut)",
        id="eager-fragment-gather",
    ),
    # one query path: the CLI runs queries through Optimizer.run (one
    # budget, one verifier, one `query` root span), never an executor
    # of its own, and no executor re-verifies a plan (docs/API.md,
    # "what 2.9 removed")
    pytest.param(
        re.escape("Executor("),
        ("src/repro/__main__.py",),
        "a second query path reappeared: an Executor in the CLI",
        id="2.9-cli-executor",
    ),
    pytest.param(
        re.escape("plan_verifier"),
        ("src/repro/engine",),
        "a second query path reappeared: a plan_verifier in the engine",
        id="2.9-engine-verifier",
    ),
    # one estimator: StatisticsCatalog (from_dataset / from_random /
    # uniform) feeds CardinalityEstimator; characteristic sets, sampled
    # statistics and the dataset's own per-predicate counts changed no
    # measured q-error (docs/COST_MODEL.md, docs/API.md "what 2.10 removed")
    pytest.param(
        r"char_sets|CharacteristicSet|from_sample|PredicateStatistics|predicate_statistics|predicate_cardinality",
        ("src",),
        "a second estimator or statistics path reappeared in src/",
        id="2.10-estimator",
    ),
    # interruptibility is checked by running every algorithm and engine
    # under a real deadline (tests/test_governance.py), and no lock
    # nests under another (LINT011): the call-graph poll analysis and
    # the runtime lock-order detector are gone (docs/API.md, "what
    # 2.11 removed")
    pytest.param(
        r"LINT014|TrackedLock|REPRO_LOCK_DETECTOR|concurrency\.(runtime|callgraph|cancellation)",
        ("src", "tests"),
        "the static poll analysis or the lock-order detector reappeared",
        id="2.11-poll-analysis",
    ),
    # the search bound is always on: no option, flag or environment
    # variable turns it off (docs/ALGORITHMS.md, "Bounded search")
    pytest.param(
        r"REPRO_[A-Z_]*(BOUND|PRUN)|--(no-)?(bound|unbounded)|[a-z_]*(bound|bounded|bounding)[a-z_]* *: *bool|(bound|bounded|bounding|unbounded) *= *(True|False)",
        ("src",),
        "a switch for the search bound appeared in src/",
        id="bound-switch",
    ),
    # a count lives once, on the typed object that makes it
    # (EnumerationStats, ExecutionMetrics, PlanCacheStats,
    # AdaptationReport), and the trace carries it as span attributes:
    # no registry copy of a typed field (docs/OBSERVABILITY.md, "Where
    # each count lives"; docs/API.md, "What 2.12 removed"); the second
    # pattern's \s* reaches across lines, as `grep -Pz` did
    pytest.param(
        r"flush_to_metrics|_flush_metrics|SubqueryRecord|subquery_records|obs\.gauge|class Gauge",
        ("src",),
        "a registry copy of a typed count reappeared in src/",
        id="2.12-registry-copy",
    ),
    pytest.param(
        r'(count|counter)\(\s*f?"(plan_cache\.|engine\.(tuples_|retries|faults_injected|result_rows|recovery\.)|optimizer\.(plans_considered|divisions_|subqueries_expanded|memo_hits|local_short_circuits|steals|worker_balance|verifications)|adaptive\.|governance\.(degraded|anytime_plans))',
        ("src",),
        "a registry copy of a typed count reappeared in src/",
        id="2.12-registry-count",
    ),
    # one process pool: optimize_many batches and cooperative searches run
    # on one persistent pool, through one wait loop (docs/PERFORMANCE.md,
    # "Parallel plan search")
    pytest.param(
        r"ProcessPoolExecutor|concurrent\.futures|_batch_worker",
        ("src/repro/core",),
        "a second process pool reappeared in src/repro/core/",
        id="2.14-second-pool",
    ),
    # one home for `jobs`: the pool, both its uses and the decision to
    # pool live in core/cooperative.py, and the session names no
    # algorithm when it hands a search over (docs/API.md, "What 2.15
    # removed")
    pytest.param(
        r"memo_shard|from \.parallel|PARALLELIZABLE_ALGORITHMS",
        ("src",),
        "a second module for `jobs` or a list of pooled algorithms reappeared in src/",
        id="2.15-jobs-modules",
    ),
    # the one process boundary is a fork, which pickles nothing: no
    # pickle-safety rule beside LINT013 (docs/API.md, "What 2.15 removed")
    pytest.param(
        r"LINT012|check_pickle_safety",
        ("src", "tests"),
        "the pickle-safety rule reappeared",
        id="2.15-pickle-rule",
    ),
    # one kind of fragment: every placement (a layout, hot queries, an
    # adaptive batch, a fail-over) sets node bits over the dataset's
    # table, which never changes; nothing appends to or copies a fragment
    # (docs/API.md, "What 2.18 removed")
    pytest.param(
        r"\.merged\(|def merged\(|\badd_ids\b|\badd_triples\b|\bmerge_replica\b",
        ("src",),
        "a fragment append or copy reappeared in src/ (set node bits: Partitioning.place)",
        id="2.18-fragment-copies",
    ),
    # hold only what the query path reads: a plan-cache key is its
    # canonical text, so no digest library is loaded, and a partitioning
    # keeps no anchor placement (docs/PERFORMANCE.md, "Resident
    # footprint"; docs/API.md, "What 2.19 removed")
    pytest.param(
        r"import hashlib|from hashlib|anchor_nodes|vertex_placement",
        ("src",),
        "a digest import or a kept anchor placement reappeared in src/",
        id="2.19-resident-footprint",
    ),
]


def _program_files(relative):
    """The files under *relative* (a file or a directory): those git
    tracks, or, in a tree with no git metadata, those a walk finds."""
    if (ROOT / ".git").exists():
        listed = subprocess.run(
            ["git", "ls-files", "-z", "--", relative],
            cwd=ROOT, capture_output=True, check=True,
        ).stdout.decode("utf-8")
        for name in sorted(listed.split("\0")):
            if name and (ROOT / name).is_file():  # a tracked file deleted is not there
                yield ROOT / name
        return
    top = ROOT / relative
    if top.is_file():
        yield top
        return
    for directory, subdirectories, files in os.walk(top):
        subdirectories[:] = sorted(
            name for name in subdirectories
            if name not in SKIPPED and not name.endswith(".egg-info")
        )
        for name in sorted(files):
            yield Path(directory, name)


def searched_files(relative):
    """The program files under *relative*, less the history files and
    this one."""
    this = Path(__file__).resolve()
    for path in _program_files(relative):
        if path != this and not (path.parent == ROOT and path.name in HISTORY):
            yield path


@pytest.mark.parametrize("pattern, paths, message", TRIPWIRES)
def test_removed_surface_stays_gone(pattern, paths, message):
    regex = re.compile(pattern, re.MULTILINE)
    hits = []
    for relative in paths:
        for path in searched_files(relative):
            try:
                text = path.read_text(encoding="utf-8")
            except UnicodeDecodeError:
                continue  # a binary file: the patterns are all source text
            for match in regex.finditer(text):
                line = text.count("\n", 0, match.start()) + 1
                hits.append(f"{path.relative_to(ROOT)}:{line}: {match.group(0)[:80]}")
    assert not hits, message + "\n" + "\n".join(hits)


def test_one_benchmark_tree():
    assert not (ROOT / "benchmarks").exists(), "a second benchmark tree reappeared"
