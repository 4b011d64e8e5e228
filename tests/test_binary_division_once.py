"""TD-CMDP prices each binary division once.

A binary division of a subquery is a cbd of every join variable that
crosses it: in a cyclic join graph, Algorithm 3 walks it once per such
variable.  ``PrunedTopDownEnumerator.divisions`` hands the search only
the first of these (docs/ALGORITHMS.md, "Each binary division once").
A repeat has the same two parts, so the same candidate costs, and
could not pass the strict ``<``; it could not solve a part either.
Three pins:

* **the stream** — the search's binary divisions are
  :func:`enumerate_cmds_pruned`'s minus every division an earlier join
  variable crosses, in the same order; its multi-way divisions are
  unchanged;
* **forests walk as before** — with one variable per division there
  is nothing to skip, so no table is built;
* **plans and counters** — over generated queries × all seven registry
  keys × {no partitioning, hash-so} × {uniform, random statistics},
  cost, label and plan signature equal those of a search that prices
  every per-variable cmd; ``subqueries_expanded`` and
  ``local_short_circuits`` equal its counts, the other work counters
  are at most its counts.
"""

from __future__ import annotations

import random

import pytest

from repro import OptimizeOptions, Optimizer
from repro.core import pruning
from repro.core.cardinality import StatisticsCatalog
from repro.core.cmd import _earlier_mates, enumerate_cmds_pruned
from repro.core.counting import connected_subqueries
from repro.core.join_graph import JoinGraph, QueryShape
from repro.core.optimizer import ALGORITHMS, make_builder
from repro.core.plans import plan_signature
from repro.core.pruning import PrunedTopDownEnumerator
from repro.partitioning import HashSubjectObject
from repro.workloads.generators import generate_query

SHAPES = (
    QueryShape.CHAIN,
    QueryShape.CYCLE,
    QueryShape.STAR,
    QueryShape.TREE,
    QueryShape.DENSE,
)
FORESTS = (QueryShape.CHAIN, QueryShape.STAR, QueryShape.TREE)
PARTITIONINGS = {"none": lambda: None, "hash-so": HashSubjectObject}
STATISTICS = {
    "uniform": lambda query, seed: StatisticsCatalog.uniform(query),
    "random": lambda query, seed: StatisticsCatalog.from_random(
        query, random.Random(seed)
    ),
}
#: the counts a skipped repeat cannot move ...
EQUAL_COUNTERS = ("subqueries_expanded", "local_short_circuits")
#: ... and the ones it can only lower
LOWER_COUNTERS = (
    "plans_considered",
    "divisions_enumerated",
    "divisions_bounded",
    "memo_hits",
)


def crossed_earlier(join_graph, bits, parts, variable):
    """Whether a join variable before *variable* crosses the division."""
    left, right = parts
    for index in range(join_graph._var_index[variable]):
        ntp = join_graph._ntp[index]
        if ntp & left and ntp & right:
            return True
    return False


def queries():
    for shape in SHAPES:
        for size in (4, 6, 8):
            for seed in (1, 7):
                yield shape, size, seed


class TestTheStream:
    @pytest.mark.parametrize("shape", [QueryShape.CYCLE, QueryShape.DENSE])
    @pytest.mark.parametrize("size,seed", [(5, 3), (7, 11), (9, 2017)])
    def test_binary_stream_drops_exactly_the_repeats(self, shape, size, seed):
        query = generate_query(shape, size, random.Random(seed))
        builder = make_builder(query, seed=seed)
        join_graph = builder.join_graph
        search = PrunedTopDownEnumerator(join_graph, builder)
        skipped = 0
        for bits in connected_subqueries(join_graph):
            every = list(enumerate_cmds_pruned(join_graph, bits))
            once = [
                (parts, variable)
                for parts, variable in every
                if len(parts) > 2
                or not crossed_earlier(join_graph, bits, parts, variable)
            ]
            handed = [(parts, variable) for parts, variable, _ in search.divisions(bits)]
            assert handed == once, bits
            skipped += len(every) - len(once)
        assert skipped > 0

    def test_each_binary_division_once_per_subquery(self):
        query = generate_query(QueryShape.DENSE, 9, random.Random(5))
        builder = make_builder(query, seed=5)
        search = PrunedTopDownEnumerator(builder.join_graph, builder)
        for bits in connected_subqueries(builder.join_graph):
            binary = [
                frozenset(parts)
                for parts, _, _ in search.divisions(bits)
                if len(parts) == 2
            ]
            assert len(binary) == len(set(binary)), bits

    def test_table_space_counts_every_per_variable_cbd(self):
        """Table VII's uncosted pass keeps counting the repeats."""
        query = generate_query(QueryShape.DENSE, 8, random.Random(4))
        builder = make_builder(query, seed=4)
        search = PrunedTopDownEnumerator(builder.join_graph, builder)
        space = search.search_space()
        search._mates = None
        assert search.search_space() == space
        search = PrunedTopDownEnumerator(builder.join_graph, builder)
        search.optimize()
        assert search.stats.divisions_enumerated < space.divisions_enumerated


class TestForests:
    @pytest.mark.parametrize("shape", FORESTS)
    @pytest.mark.parametrize("size", [4, 7, 10])
    def test_forest_takes_the_unchanged_walk(self, shape, size):
        query = generate_query(shape, size, random.Random(size))
        join_graph = JoinGraph(query)
        assert not join_graph.is_cyclic()
        assert _earlier_mates(join_graph) is None
        builder = make_builder(query, seed=size)
        search = PrunedTopDownEnumerator(builder.join_graph, builder)
        assert search._mates is None
        for bits in connected_subqueries(join_graph):
            handed = [(parts, variable) for parts, variable, _ in search.divisions(bits)]
            assert handed == list(enumerate_cmds_pruned(join_graph, bits)), bits

    @pytest.mark.parametrize("shape", [QueryShape.CYCLE, QueryShape.DENSE])
    def test_cyclic_graph_builds_the_table(self, shape):
        query = generate_query(shape, 6, random.Random(1))
        builder = make_builder(query, seed=1)
        assert builder.join_graph.is_cyclic()
        assert PrunedTopDownEnumerator(builder.join_graph, builder)._mates is not None
        # Rule 1 off: the level-0 sides seed the k-way peel, nothing skipped
        off = PrunedTopDownEnumerator(
            builder.join_graph, builder, rule1_ccmd_only=False
        )
        assert off._mates is None


def optimize(query, statistics, algorithm, layout):
    session = Optimizer(
        OptimizeOptions(
            algorithm=algorithm,
            statistics=statistics,
            partitioning=PARTITIONINGS[layout](),
        )
    )
    return session.optimize(query)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_plans_equal_a_search_pricing_every_cmd(algorithm, monkeypatch):
    cases = []
    for shape, size, seed in queries():
        query = generate_query(shape, size, random.Random(seed))
        for statistics in STATISTICS.values():
            for layout in PARTITIONINGS:
                cases.append((query, statistics(query, seed), layout))
    once = [optimize(query, stats, algorithm, layout) for query, stats, layout in cases]
    with monkeypatch.context() as patch:
        patch.setattr(pruning, "_earlier_mates", lambda join_graph: None)
        every = [
            optimize(query, stats, algorithm, layout) for query, stats, layout in cases
        ]
    for (query, _, layout), kept, reference in zip(cases, once, every):
        key = (query.name, layout)
        assert kept.cost == reference.cost, key
        assert kept.algorithm == reference.algorithm, key
        assert plan_signature(kept.plan) == plan_signature(reference.plan), key
        for name in EQUAL_COUNTERS:
            assert getattr(kept.stats, name) == getattr(reference.stats, name), key
        for name in LOWER_COUNTERS:
            assert getattr(kept.stats, name) <= getattr(reference.stats, name), key
    if algorithm == "td-cmdp":
        assert sum(r.stats.divisions_enumerated for r in once) < sum(
            r.stats.divisions_enumerated for r in every
        )
