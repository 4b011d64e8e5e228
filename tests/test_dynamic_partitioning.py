"""Tests for the dynamic (hot-query) partitioning extension."""

import pytest

from repro import parse_query
from repro.core import JoinGraph, LocalQueryIndex, StatisticsCatalog, optimize
from repro.core import bitset as bs
from repro.engine import Cluster, Executor, evaluate_reference
from repro.partitioning import DynamicPartitioning, HashSubjectObject
from repro.partitioning.dynamic import _instantiate, hot_query_matches
from repro.rdf import Dataset, triple
from repro.sparql.ast import BGPQuery


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

    def test_name_reflects_configuration(self):
        method = DynamicPartitioning(HashSubjectObject(), [])
        assert method.name == "dynamic(hash-so+0hot)"


class TestEncodedHotMatching:
    """The encoded/columnar hot-query matcher must be a drop-in for the
    reference-evaluation path it replaced: same matches, same layout."""

    def _reference_matches(self, dataset, hot):
        """The old `evaluate_reference`-based matching, inlined."""
        bindings = evaluate_reference(
            BGPQuery(hot.patterns, projection=None, name=hot.name),
            dataset.graph,
        )
        matches = []
        for binding in bindings.bindings():
            anchor = min(binding.values(), key=str)
            grounded = []
            for tp in hot.patterns:
                t = _instantiate(tp, binding)
                if t is not None and t in dataset.graph:
                    grounded.append(t)
            matches.append((anchor, grounded))
        return matches

    def _canonical(self, matches):
        return sorted(
            (str(anchor), sorted(map(str, triples))) for anchor, triples in matches
        )

    def test_matches_identical_to_reference_path(self, chain_data, chain_query_3):
        encoded = hot_query_matches(chain_data, chain_query_3)
        reference = self._reference_matches(chain_data, chain_query_3)
        assert self._canonical(encoded) == self._canonical(reference)
        assert len(encoded) == 30  # one match per chain

    def test_matches_identical_on_lubm(self):
        from repro.workloads import generate_lubm, lubm_query

        dataset = generate_lubm()
        hot = lubm_query("L7")
        encoded = hot_query_matches(dataset, hot)
        reference = self._reference_matches(dataset, hot)
        assert self._canonical(encoded) == self._canonical(reference)
        assert encoded  # L7 has matches on the generated data

    def test_partition_layout_unchanged(self, chain_data, chain_query_3):
        """The produced node graphs are bit-identical to replicating the
        reference-path matches by hand."""
        from repro.partitioning.base import hash_term

        cluster_size = 4
        method = DynamicPartitioning(HashSubjectObject(), [chain_query_3])
        layout = method.partition(chain_data, cluster_size)
        expected = HashSubjectObject().partition(chain_data, cluster_size)
        for anchor, triples in self._reference_matches(chain_data, chain_query_3):
            expected.add_triples(hash_term(anchor, cluster_size), triples)
        assert [set(g) for g in layout.node_graphs] == [
            set(g) for g in expected.node_graphs
        ]
