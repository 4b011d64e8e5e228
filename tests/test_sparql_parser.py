"""Unit tests for the SPARQL subset parser."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.join_graph import QueryShape
from repro.rdf.terms import IRI, Literal, Variable
from repro.sparql import SPARQLSyntaxError, parse_query
from repro.sparql.ast import BGPQuery
from repro.workloads.generators import generate_query
from repro.workloads.lubm import lubm_queries
from repro.workloads.uniprot import uniprot_queries
from repro.workloads.watdiv import WatDivGenerator, instantiate


class TestBasics:
    def test_minimal_query(self):
        q = parse_query("SELECT ?x WHERE { ?x <http://e/p> <http://e/o> . }")
        assert len(q) == 1
        assert q.projection == (Variable("x"),)
        tp = q[0]
        assert tp.subject == Variable("x")
        assert tp.predicate == IRI("http://e/p")
        assert tp.object == IRI("http://e/o")

    def test_star_projection(self):
        q = parse_query("SELECT * WHERE { ?x <http://e/p> ?y . }")
        assert q.projection == ()

    def test_prefix_expansion(self):
        q = parse_query(
            "PREFIX ex: <http://e/> SELECT ?x WHERE { ?x ex:p ex:o . }"
        )
        assert q[0].predicate == IRI("http://e/p")
        assert q[0].object == IRI("http://e/o")

    def test_rdf_type_keyword_a(self):
        q = parse_query("SELECT ?x WHERE { ?x a <http://e/C> . }")
        assert q[0].predicate.value.endswith("#type")

    def test_literal_objects(self):
        q = parse_query('SELECT ?x WHERE { ?x <http://e/p> "hi"@en . }')
        assert q[0].object == Literal("hi", language="en")

    def test_integer_literal(self):
        q = parse_query("SELECT ?x WHERE { ?x <http://e/p> 42 . }")
        assert q[0].object.lexical == "42"
        assert q[0].object.datatype.endswith("integer")

    def test_semicolon_same_subject(self):
        q = parse_query(
            "SELECT * WHERE { ?x <http://e/p> ?y ; <http://e/q> ?z . }"
        )
        assert len(q) == 2
        assert q[0].subject == q[1].subject == Variable("x")

    def test_missing_final_dot_tolerated(self):
        q = parse_query("SELECT ?x WHERE { ?x <http://e/p> ?y }")
        assert len(q) == 1

    def test_duplicate_patterns_deduplicated(self):
        q = parse_query(
            "SELECT * WHERE { ?x <http://e/p> ?y . ?x <http://e/p> ?y . }"
        )
        assert len(q) == 1

    def test_dollar_variables(self):
        q = parse_query("SELECT $x WHERE { $x <http://e/p> ?y . }")
        assert q[0].subject == Variable("x")

    def test_comments_ignored(self):
        q = parse_query(
            "SELECT ?x WHERE { # a comment\n ?x <http://e/p> ?y . }"
        )
        assert len(q) == 1


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT ?x { ?x <http://e/p> ?y . }",  # missing WHERE
            "SELECT WHERE { ?x <http://e/p> ?y . }",  # no projection
            "SELECT ?x WHERE { }",  # empty pattern
            "SELECT ?x WHERE { ?x <http://e/p> ?y .",  # unterminated
            "SELECT ?x WHERE { ?x ex:p ?y . }",  # undeclared prefix
            'SELECT ?x WHERE { "lit" <http://e/p> ?y . }',  # literal subject
            "SELECT ?x WHERE { ?x <http://e/p> ?y . } trailing",
            "SELECT ?x WHERE { OPTIONAL { ?x <http://e/p> ?y . } }",
            "SELECT ?x WHERE { FILTER(?x > 3) }",
        ],
    )
    def test_rejects(self, text):
        with pytest.raises(SPARQLSyntaxError):
            parse_query(text)

    def test_error_reports_offset(self):
        with pytest.raises(SPARQLSyntaxError) as excinfo:
            parse_query("SELECT ?x WHERE { ?x ex:p ?y . }")
        assert "offset" in str(excinfo.value)


class TestPaperQueries:
    """Every benchmark query from the paper's appendix must parse."""

    def test_lubm_queries_parse(self):
        queries = lubm_queries()
        assert set(queries) == {f"L{i}" for i in range(1, 11)}
        sizes = {name: len(q) for name, q in queries.items()}
        # Table III pattern counts (L10 is 14 in the appendix text;
        # the table's "12" is inconsistent with the query listing)
        assert sizes["L1"] == 2 and sizes["L2"] == 2
        assert sizes["L3"] == 4 and sizes["L4"] == 4
        assert sizes["L5"] == 8 and sizes["L6"] == 8
        assert sizes["L7"] == 6 and sizes["L8"] == 6
        assert sizes["L9"] == 11
        assert sizes["L10"] == 14

    def test_uniprot_queries_parse(self):
        queries = uniprot_queries()
        assert set(queries) == {f"U{i}" for i in range(1, 6)}
        sizes = {name: len(q) for name, q in queries.items()}
        assert sizes["U1"] == 5 and sizes["U2"] == 5
        assert sizes["U3"] == 11 and sizes["U4"] == 6 and sizes["U5"] == 5

    def test_projection_variables_appear_in_patterns(self):
        for q in {**lubm_queries(), **uniprot_queries()}.values():
            assert set(q.projection) <= q.variables()


class TestStrRoundTrip:
    """``parse_query(str(q))`` is ``q``: same patterns, same projection."""

    @staticmethod
    def assert_round_trips(query):
        reparsed = parse_query(str(query), name=query.name)
        assert reparsed.patterns == query.patterns
        assert reparsed.projection == query.projection

    def test_projection_is_space_separated(self):
        query = parse_query("SELECT ?x ?y WHERE { ?x <http://e/p> ?y . }")
        assert str(query).startswith("SELECT ?x ?y WHERE {")

    def test_benchmark_queries(self):
        for query in {**lubm_queries(), **uniprot_queries()}.values():
            assert len(query.projection) >= 1
            self.assert_round_trips(query)

    def test_watdiv_sample(self):
        rng = random.Random(5)
        for template in WatDivGenerator(seed=2017).templates(40):
            query, _ = instantiate(template, 0, rng)
            self.assert_round_trips(template.query)
            self.assert_round_trips(query)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([QueryShape.CHAIN, QueryShape.CYCLE, QueryShape.STAR,
                         QueryShape.TREE, QueryShape.DENSE]),
        st.integers(min_value=4, max_value=14),
        st.integers(min_value=0, max_value=2**31),
        st.data(),
    )
    def test_generated_queries(self, shape, size, seed, data):
        query = generate_query(shape, size, random.Random(seed))
        self.assert_round_trips(query)
        # and with an explicit projection over some of its variables
        variables = sorted(query.variables(), key=str)
        chosen = data.draw(st.lists(st.sampled_from(variables), min_size=1,
                                    max_size=4, unique=True))
        self.assert_round_trips(BGPQuery(query.patterns, projection=chosen))
