"""Unit tests for Triple and RDFGraph."""

from repro.rdf import IRI, RDFGraph, Triple, triple


def t(s, p, o):
    return triple(f"http://e/{s}", f"http://e/{p}", f"http://e/{o}")


class TestTriple:
    def test_shorthand_constructor(self):
        tr = triple("http://e/s", "http://e/p", '"lit"')
        assert tr.subject == IRI("http://e/s")
        assert tr.object.lexical == "lit"

    def test_blank_node_shorthand(self):
        tr = triple("_:b", "http://e/p", "http://e/o")
        assert str(tr.subject) == "_:b"

    def test_str_is_ntriples_line(self):
        assert str(t("s", "p", "o")) == "<http://e/s> <http://e/p> <http://e/o> ."


class TestRDFGraph:
    def test_add_and_len(self):
        g = RDFGraph()
        assert g.add(t("a", "p", "b"))
        assert not g.add(t("a", "p", "b"))  # duplicate
        assert len(g) == 1

    def test_contains_and_iter(self):
        g = RDFGraph([t("a", "p", "b"), t("b", "p", "c")])
        assert t("a", "p", "b") in g
        assert len(list(g)) == 2

    def test_discard(self):
        g = RDFGraph([t("a", "p", "b")])
        assert g.discard(t("a", "p", "b"))
        assert not g.discard(t("a", "p", "b"))
        assert len(g) == 0
        assert list(g.match(subject=IRI("http://e/a"))) == []

    def test_vertices_are_subjects_and_objects(self):
        g = RDFGraph([t("a", "p", "b")])
        names = {v.value for v in g.vertices}
        assert names == {"http://e/a", "http://e/b"}

    def test_predicates(self):
        g = RDFGraph([t("a", "p", "b"), t("a", "q", "b")])
        assert {p.value for p in g.predicates} == {"http://e/p", "http://e/q"}

    def test_match_fully_bound(self):
        g = RDFGraph([t("a", "p", "b")])
        assert list(g.match(IRI("http://e/a"), IRI("http://e/p"), IRI("http://e/b")))
        assert not list(
            g.match(IRI("http://e/a"), IRI("http://e/p"), IRI("http://e/x"))
        )

    def test_match_by_each_single_position(self):
        g = RDFGraph([t("a", "p", "b"), t("a", "q", "c"), t("x", "p", "b")])
        assert len(list(g.match(subject=IRI("http://e/a")))) == 2
        assert len(list(g.match(predicate=IRI("http://e/p")))) == 2
        assert len(list(g.match(object=IRI("http://e/b")))) == 2

    def test_match_pairs(self):
        g = RDFGraph([t("a", "p", "b"), t("a", "p", "c"), t("a", "q", "b")])
        assert len(list(g.match(IRI("http://e/a"), IRI("http://e/p"), None))) == 2
        assert len(list(g.match(None, IRI("http://e/p"), IRI("http://e/b")))) == 1
        assert len(list(g.match(IRI("http://e/a"), None, IRI("http://e/b")))) == 2

    def test_match_all(self):
        g = RDFGraph([t("a", "p", "b"), t("b", "p", "c")])
        assert len(list(g.match())) == 2

    def test_count(self):
        g = RDFGraph([t("a", "p", "b"), t("b", "p", "c")])
        assert g.count(predicate=IRI("http://e/p")) == 2

    def test_out_in_edges(self):
        g = RDFGraph([t("a", "p", "b"), t("b", "p", "c")])
        assert len(g.out_edges(IRI("http://e/b"))) == 1
        assert len(g.in_edges(IRI("http://e/b"))) == 1
        assert len(g.edges(IRI("http://e/b"))) == 2

    def test_edges_deduplicates_self_loop(self):
        g = RDFGraph([t("a", "p", "a")])
        assert len(g.edges(IRI("http://e/a"))) == 1

    def test_neighbors(self):
        g = RDFGraph([t("a", "p", "b"), t("c", "p", "a")])
        assert {v.value for v in g.neighbors(IRI("http://e/a"))} == {
            "http://e/b",
            "http://e/c",
        }

    def test_copy_is_independent(self):
        g = RDFGraph([t("a", "p", "b")])
        h = g.copy()
        h.add(t("x", "p", "y"))
        assert len(g) == 1 and len(h) == 2


def _index_keys(graph):
    """Every key of every index the graph has built, nested ones included."""
    adjacency = [None if index is None else set(index)
                 for index in (graph._out, graph._in)]
    permutations = [
        None if index is None else {a: set(inner) for a, inner in index.items()}
        for index in graph._permutations
    ]
    return adjacency, permutations


class TestIndexesOnDemand:
    """Indexes are built by the first read and never changed by a read."""

    TRIPLES = [t("a", "p", "b"), t("b", "p", "c"), t("a", "q", "c"), t("d", "p", "d")]

    def all_reads(self, graph, term):
        graph.vertices
        graph.predicates
        graph.out_edges(term), graph.in_edges(term)
        graph.edges(term), graph.neighbors(term)
        for pattern in [(term, None, None), (None, term, None), (None, None, term),
                        (term, term, None), (None, term, term), (term, None, term),
                        (term, term, term), (None, None, None)]:
            list(graph.match(*pattern))
            graph.count(*pattern)

    def test_fresh_graph_builds_nothing(self):
        g = RDFGraph(self.TRIPLES)
        g.add(t("x", "p", "y"))
        g.add_all([t("x", "q", "y")])
        h = g.copy()
        assert list(h) == list(g) and len(g) == 6
        assert t("x", "p", "y") in g
        for graph in (g, h):
            assert _index_keys(graph) == ([None, None], [None, None, None])

    def test_reads_do_not_mutate(self):
        g = RDFGraph(self.TRIPLES)
        self.all_reads(g, IRI("http://e/a"))  # builds every index
        before = _index_keys(g)
        assert None not in before[0] and None not in before[1]
        for name in ("a", "c", "p", "absent"):  # source, sink, predicate, unknown
            self.all_reads(g, IRI(f"http://e/{name}"))
        assert _index_keys(g) == before
        assert len(g._out) == 3 and len(g._in) == 3  # not |V| = 4

    def test_built_indexes_follow_add_and_discard(self):
        lazy = RDFGraph(self.TRIPLES)
        eager = RDFGraph(self.TRIPLES)
        self.all_reads(eager, IRI("http://e/a"))
        for graph in (lazy, eager):
            graph.add(t("c", "r", "e"))
            graph.add_all([t("e", "r", "a"), t("a", "p", "b")])
            graph.discard(t("b", "p", "c"))
        assert list(lazy) == list(eager)
        for term in (IRI("http://e/c"), IRI("http://e/r"), IRI("http://e/b")):
            assert lazy.edges(term) == eager.edges(term)
            assert lazy.neighbors(term) == eager.neighbors(term)
            for pattern in [(term, None, None), (None, term, None), (None, None, term)]:
                assert set(lazy.match(*pattern)) == set(eager.match(*pattern))
        assert lazy.vertices == eager.vertices
        assert lazy.predicates == eager.predicates

    def test_discarding_last_triple_removes_vertex(self):
        for read_first in (False, True):
            g = RDFGraph(self.TRIPLES)
            if read_first:
                self.all_reads(g, IRI("http://e/d"))
            assert IRI("http://e/d") in g.vertices
            assert g.discard(t("d", "p", "d"))
            assert IRI("http://e/d") not in g.vertices
            assert g.edges(IRI("http://e/d")) == []
            assert g.discard(t("a", "q", "c"))
            assert IRI("http://e/q") not in g.predicates

    def test_index_built_on_empty_graph_is_maintained(self):
        g = RDFGraph()
        assert g.vertices == set() and g.predicates == set()
        g.add_all(self.TRIPLES)
        assert len(g.vertices) == 4
        assert g.count(predicate=IRI("http://e/p")) == 3

    def test_match_order_is_insertion_order_of_the_bulk_build(self):
        triples = [t(f"s{i % 7}", f"p{i % 3}", f"o{i % 5}") for i in range(60)]
        eager = RDFGraph()
        list(eager.match(IRI("x"), IRI("y"), None)), eager.vertices
        list(eager.match(None, IRI("y"), IRI("x"))), list(eager.match(IRI("x"), None, IRI("y")))
        for triple_ in triples:
            eager.add(triple_)
        lazy = RDFGraph(triples)
        for pattern in [(None, IRI("http://e/p1"), None), (IRI("http://e/s2"), None, None),
                        (None, None, IRI("http://e/o3")),
                        (IRI("http://e/s2"), IRI("http://e/p1"), None)]:
            assert list(lazy.match(*pattern)) == list(eager.match(*pattern))
