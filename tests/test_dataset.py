"""Unit tests for the Dataset container."""

from repro.core import StatisticsCatalog
from repro.rdf import Dataset, triple
from repro.sparql import parse_query


def make_dataset():
    return Dataset.from_triples(
        [
            triple("http://e/a", "http://e/p", "http://e/b"),
            triple("http://e/a", "http://e/p", "http://e/c"),
            triple("http://e/x", "http://e/p", "http://e/b"),
            triple("http://e/a", "http://e/q", "http://e/b"),
        ],
        name="stats",
    )


class TestDataset:
    def test_triple_count(self):
        assert make_dataset().triple_count == 4

    def test_refresh_after_mutation(self):
        """Statistics read what the dataset last encoded: a triple added
        to the graph is counted only after :meth:`Dataset.refresh`."""
        ds = make_dataset()
        query = parse_query("SELECT * WHERE { ?s <http://e/q> ?o . }")
        ds.graph.add(triple("http://e/z", "http://e/q", "http://e/w"))
        assert StatisticsCatalog.from_dataset(query, ds)[0].cardinality == 1  # stale
        ds.refresh()
        assert StatisticsCatalog.from_dataset(query, ds)[0].cardinality == 2

    def test_repr(self):
        assert "stats" in repr(make_dataset())
