"""Tests for the dynamic (hot-query) partitioning extension."""

import pytest

from repro import OptimizeOptions, Optimizer, parse_query
from repro.core import JoinGraph, LocalQueryIndex, PlanCache, StatisticsCatalog, optimize
from repro.core import bitset as bs
from repro.engine import Cluster, Executor, evaluate_reference
from repro.partitioning import DynamicPartitioning, HashSubjectObject
from repro.partitioning.dynamic import hot_placements
from repro.rdf import Dataset, triple
from repro.workloads import generate_lubm, lubm_query

from . import partitioning_oracle as oracle


@pytest.fixture
def chain_data():
    triples = []
    for i in range(30):
        triples.append(triple(f"http://e/a{i}", "http://e/p", f"http://e/b{i}"))
        triples.append(triple(f"http://e/b{i}", "http://e/q", f"http://e/c{i}"))
        triples.append(triple(f"http://e/c{i}", "http://e/r", f"http://e/d{i}"))
    return Dataset.from_triples(triples, name="chain-data")


@pytest.fixture
def chain_query_3():
    return parse_query(
        """
        SELECT * WHERE {
          ?x <http://e/p> ?y .
          ?y <http://e/q> ?z .
          ?z <http://e/r> ?w .
        }
        """,
        name="hot-chain",
    )


class TestQuerySide:
    def test_hot_query_enlarges_mlq(self, chain_query_3):
        """A 3-chain is not local under hash-so, but becomes local when
        it is itself a hot query."""
        jg = JoinGraph(chain_query_3)
        static_index = LocalQueryIndex(jg, HashSubjectObject())
        assert not static_index.is_local(jg.full)
        dynamic = DynamicPartitioning(HashSubjectObject(), [chain_query_3])
        dynamic_index = LocalQueryIndex(jg, dynamic)
        assert dynamic_index.is_local(jg.full)

    def test_partial_hot_overlap(self, chain_query_3):
        """Only the connected intersection with the hot query is local."""
        hot = parse_query(
            """
            SELECT * WHERE {
              ?x <http://e/p> ?y .
              ?y <http://e/q> ?z .
            }
            """
        )
        jg = JoinGraph(chain_query_3)
        dynamic = DynamicPartitioning(HashSubjectObject(), [hot])
        index = LocalQueryIndex(jg, dynamic)
        assert index.is_local(bs.from_indices([0, 1]))
        assert not index.is_local(jg.full)

    def test_unrelated_hot_query_changes_nothing(self, chain_query_3):
        hot = parse_query("SELECT * WHERE { ?a <http://e/zzz> ?b . }")
        jg = JoinGraph(chain_query_3)
        static_mlqs = LocalQueryIndex(jg, HashSubjectObject()).maximal_local_queries
        dynamic_mlqs = LocalQueryIndex(
            jg, DynamicPartitioning(HashSubjectObject(), [hot])
        ).maximal_local_queries
        assert set(static_mlqs) == set(dynamic_mlqs)


class TestDataSide:
    def test_execution_correct_and_local(self, chain_data, chain_query_3):
        """With the hot query co-located, the local plan executes
        correctly and ships zero tuples."""
        method = DynamicPartitioning(HashSubjectObject(), [chain_query_3])
        cluster = Cluster.build(chain_data, method, cluster_size=4)
        stats = StatisticsCatalog.from_dataset(chain_query_3, chain_data)
        result = optimize(
            chain_query_3,
            algorithm="td-cmdp",
            statistics=stats,
            partitioning=method,
        )
        relation, metrics = Executor(cluster).execute(result.plan, chain_query_3)
        reference = evaluate_reference(chain_query_3, chain_data.graph)
        assert relation.rows == reference.rows
        assert metrics.total_tuples_shipped == 0

    def test_hot_query_binding_no_variable_is_rejected(self, chain_data):
        ground = parse_query(
            "SELECT * WHERE { <http://e/a0> <http://e/p> <http://e/b0> . }", name="ground"
        )
        method = DynamicPartitioning(HashSubjectObject(), [ground])
        with pytest.raises(ValueError, match="'ground' binds no variable"):
            method.partition(chain_data, 4)

    def test_name_reflects_configuration(self):
        method = DynamicPartitioning(HashSubjectObject(), [])
        assert method.name == "dynamic(hash-so+0hot)"


class TestPlanCacheKey:
    def test_plan_cache_distinguishes_hot_query_sets(self):
        """Two layouts with the same *number* of hot queries but
        different ones must not share cached plans: L7 is local only
        where L7 is the hot query."""
        dataset = generate_lubm()
        l7, l2 = lubm_query("L7"), lubm_query("L2")

        def cost(hot, cache):
            method = DynamicPartitioning(HashSubjectObject(), [hot])
            options = OptimizeOptions(
                dataset=dataset, partitioning=method, plan_cache=cache
            )
            return Optimizer(options).optimize(l7).cost

        shared = PlanCache()
        colocated = cost(l7, shared)
        elsewhere = cost(l2, shared)
        assert elsewhere == cost(l2, None)  # what a fresh search finds
        assert elsewhere > colocated
        assert (shared.stats.hits, shared.stats.misses) == (0, 2)
        assert cost(l7, shared) == colocated  # the same set still hits
        assert shared.stats.hits == 1


class TestEncodedHotMatching:
    """The id-space placement function must put every hot-query match
    where the term-level reference path (the oracle's) puts it."""

    @staticmethod
    def _placed(dataset, hot, cluster_size):
        """``hot_placements`` decoded: node -> set of triples."""
        graph = dataset.encoded_graph()
        additions = hot_placements(graph, cluster_size, [hot], (), None)
        return {
            node: set(graph.gather(positions).decoded()) for node, positions in additions.items()
        }

    @staticmethod
    def _expected(dataset, hot, cluster_size):
        expected = {}
        for anchor, triples in oracle.reference_matches(dataset, hot):
            node = oracle.hash_term(anchor, cluster_size)
            expected.setdefault(node, set()).update(triples)
        return expected

    def test_matches_identical_to_reference_path(self, chain_data, chain_query_3):
        placed = self._placed(chain_data, chain_query_3, 4)
        assert placed == self._expected(chain_data, chain_query_3, 4)
        assert sum(map(len, placed.values())) == 90  # 30 chains of 3, whole

    def test_matches_identical_on_lubm(self):
        dataset = generate_lubm()
        hot = lubm_query("L7")
        placed = self._placed(dataset, hot, 10)
        assert placed == self._expected(dataset, hot, 10)
        assert placed  # L7 has matches on the generated data

    def test_partition_layout_unchanged(self, chain_data, chain_query_3):
        """The produced node graphs are bit-identical to replicating the
        reference-path matches by hand."""
        cluster_size = 4
        method = DynamicPartitioning(HashSubjectObject(), [chain_query_3])
        layout = method.partition(chain_data, cluster_size)
        base = HashSubjectObject().partition(chain_data, cluster_size)
        expected = [set(g) for g in base.node_graphs]
        for anchor, triples in oracle.reference_matches(chain_data, chain_query_3):
            expected[oracle.hash_term(anchor, cluster_size)].update(triples)
        assert [set(g) for g in layout.node_graphs] == expected
