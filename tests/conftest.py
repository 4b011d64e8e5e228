"""Shared fixtures: the paper's Figure 1 query, small datasets, helpers."""

from __future__ import annotations

import random

import pytest

from repro import parse_query
from repro.core import JoinGraph, StatisticsCatalog
from repro.core.optimizer import make_builder
from repro.rdf import Dataset, triple

FIG1_TEXT = """
PREFIX p: <http://example.org/>
SELECT * WHERE {
  ?b p:p1 ?a .
  ?c p:p2 ?a .
  ?a p:p3 ?e .
  ?e p:p4 ?g .
  ?b p:p5 ?f .
  ?c p:p6 ?d .
  ?a p:p7 ?d .
}
"""


@pytest.fixture
def fig1_query():
    """The running example of the paper (Figure 1): 7 patterns, dense."""
    return parse_query(FIG1_TEXT, name="fig1")


@pytest.fixture
def fig1_graph(fig1_query):
    return JoinGraph(fig1_query)


@pytest.fixture
def fig1_builder(fig1_query):
    return make_builder(fig1_query, seed=42)


@pytest.fixture
def toy_dataset():
    """A small social-network-ish dataset for engine tests."""
    rng = random.Random(7)
    triples = []
    for _ in range(200):
        a, b = rng.randrange(60), rng.randrange(60)
        triples.append(triple(f"http://e/n{a}", "http://e/knows", f"http://e/n{b}"))
    for i in range(60):
        triples.append(triple(f"http://e/n{i}", "http://e/type", f"http://e/T{i % 3}"))
        triples.append(
            triple(f"http://e/n{i}", "http://e/worksFor", f"http://e/org{i % 5}")
        )
    return Dataset.from_triples(triples, name="toy")


@pytest.fixture
def toy_query():
    return parse_query(
        """
        SELECT ?x ?y ?o WHERE {
          ?x <http://e/knows> ?y .
          ?y <http://e/type> <http://e/T1> .
          ?x <http://e/worksFor> ?o .
          ?y <http://e/worksFor> ?o .
        }
        """,
        name="toy-q",
    )


@pytest.fixture
def shard_small(monkeypatch):
    """Pin ``cooperative._BREAK_EVEN`` low (4 subqueries, the rule before
    the break-even was measured) so small, fast queries exercise the
    cooperative pool."""
    from repro.core import cooperative

    monkeypatch.setattr(cooperative, "_BREAK_EVEN", 4)


def make_query(text: str, name: str = ""):
    return parse_query(text, name=name)
