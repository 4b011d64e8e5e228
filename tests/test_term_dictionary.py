"""The text-keyed term dictionary: a term is interned by its N-Triples
text, ``str(term)``, and its object is built only when its id is decoded.

Properties over generated terms (escapes, language tags, datatypes, blank
nodes): the text is one-to-one and ``term_of_text`` inverts it; a term
interned as text and one interned as an object get the same id object;
a decoded term is kept; and a partly built dictionary compares, pickles
and persists as a whole one does.  The reader's side — a raw carriage
return in a string source, one term written two ways — is at the end.
"""

from __future__ import annotations

import copy
import io
import pickle
from itertools import chain

from hypothesis import given, settings, strategies as st

from repro.rdf import (
    BlankNode,
    IRI,
    Literal,
    TermDictionary,
    load_ntriples,
    ntriples,
    parse_ntriples,
)
from repro.rdf.terms import term_of_text

#: text that needs escaping in a literal, or looks like the syntax around it
_TRICKY = st.sampled_from(['"', "\\", "\n", "\r", "\t", ">", "<", "@", "^^", " ", "_:", "é", "\\n"])
_TEXT = st.lists(
    st.one_of(_TRICKY, st.characters(blacklist_categories=("Cs",))), max_size=8
).map("".join)
_TERMS = st.one_of(
    st.builds(IRI, _TEXT),
    st.builds(BlankNode, _TEXT),
    st.builds(Literal, _TEXT),
    st.builds(lambda lexical, tag: Literal(lexical, language=tag), _TEXT,
              st.from_regex(r"[A-Za-z0-9-]+", fullmatch=True)),
    st.builds(lambda lexical, datatype: Literal(lexical, datatype=datatype), _TEXT,
              _TEXT.filter(bool)),
)


def twin(term):
    """An equal term built apart from *term* (another object)."""
    return type(term)(*(getattr(term, name) for name in term.__dataclass_fields__))


def by_text(terms) -> TermDictionary:
    """A dictionary that interned the texts of *terms* and built nothing."""
    dictionary = TermDictionary()
    dictionary.encode_texts(map(str, terms))
    return dictionary


class TestTheText:
    @settings(max_examples=300, deadline=None)
    @given(_TERMS)
    def test_term_of_text_inverts_str(self, term):
        back = term_of_text(str(term))
        assert type(back) is type(term) and back == term

    @settings(max_examples=200, deadline=None)
    @given(_TERMS, _TERMS)
    def test_one_to_one(self, first, second):
        assert (str(first) == str(second)) == (
            type(first) is type(second) and first == second
        )


class TestIdsAndObjects:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(_TERMS, max_size=20))
    def test_an_equal_term_gets_the_same_id_object(self, terms):
        for dictionary in (by_text(terms), TermDictionary()):
            ids = dictionary._encode_all(terms)
            assert len(dictionary) == len(set(terms))
            for term, ident in zip(terms, ids):
                assert ident is dictionary.ids[ident]
                assert dictionary.lookup(twin(term)) is ident
                assert dictionary.encode(twin(term)) is ident
                assert twin(term) in dictionary

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_TERMS, min_size=1, max_size=20))
    def test_a_decoded_term_is_kept(self, terms):
        dictionary = by_text(terms)
        idents = dictionary.encode_texts(map(str, terms))
        first = [dictionary.decode(i) for i in idents]
        assert first == terms
        assert all(map(lambda a, b: a is b, first, dictionary.decode_all(idents)))
        assert all(dictionary.decode(i) is term for i, term in zip(idents, first))

    def test_encode_keeps_the_object_it_was_given(self):
        dictionary = by_text([IRI("http://e/a")])
        given_term = IRI("http://e/a")
        assert dictionary.encode(given_term) == 0 and dictionary.decode(0) is given_term
        built = dictionary.decode(dictionary.encode_texts(['"x"'])[0])
        assert built == Literal("x") and dictionary.encode(Literal("x")) == 1
        assert dictionary.decode(1) is built  # an id keeps its first object
        first, second = Literal("y"), Literal("y")
        assert dictionary._encode_all([first, second]) == [2, 2]
        assert dictionary.decode(2) is first

    def test_decode_all_reads_an_iterator_once(self):
        dictionary = by_text([IRI("http://e/a"), Literal("b")])
        decoded = dictionary.decode_all(iter([1, 0, 1]))
        assert decoded == [Literal("b"), IRI("http://e/a"), Literal("b")]

    def test_unknown_ids_raise(self):
        dictionary = by_text([IRI("http://e/a")])
        for ident in (-1, 1):
            try:
                dictionary.decode(ident)
            except IndexError:
                continue
            raise AssertionError(f"decode({ident}) did not raise")


class TestPartlyBuilt:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_TERMS, min_size=1, max_size=20, unique=True), st.data())
    def test_compares_pickles_and_persists_whole(self, terms, data):
        whole = TermDictionary()
        whole._encode_all(terms)
        partly = by_text(terms)
        decoded = data.draw(st.lists(st.sampled_from(range(len(terms))), max_size=5))
        partly.decode_all(decoded)
        assert partly == whole and partly.texts == whole.texts
        for twin_dictionary in (pickle.loads(pickle.dumps(partly)), copy.deepcopy(partly),
                                copy.copy(partly)):
            assert twin_dictionary == whole
            assert list(twin_dictionary.terms()) == terms
            assert all(twin_dictionary.lookup(t) is twin_dictionary.ids[i]
                       for i, t in enumerate(terms))
        payload = partly.to_payload()
        assert payload == whole.to_payload()
        assert TermDictionary.from_payload(payload) == whole
        assert list(partly.terms()) == terms  # to_payload built the rest


class TestReader:
    def test_a_raw_carriage_return_takes_the_term_path(self):
        """A string source keeps a CR inside a line; the literal's text
        escapes it, so its token is not its text."""
        document = '<http://e/s> <http://e/p> "a\rb" .\n<http://e/s> <http://e/p> "c" .\n'
        assert [t.object for t in parse_ntriples(document)] == [Literal("a\rb"), Literal("c")]
        dictionary = TermDictionary()
        batches = ntriples._recognise(
            io.StringIO(document), dictionary.encode_texts, dictionary.encode
        )
        ids = list(chain.from_iterable(batches))
        assert dictionary.decode_all(ids) == list(
            chain.from_iterable(t.terms() for t in parse_ntriples(document))
        )
        assert dictionary.lookup(Literal("a\rb")) == ids[2]
        assert dictionary.texts[ids[2]] == '"a\\rb"'

    def test_one_term_written_two_ways_is_one_id(self, tmp_path):
        path = tmp_path / "two-ways.nt"
        path.write_text(
            '<http://e/s> <http://e/p> "a\tb" .\n'  # canonical: a raw tab
            '<http://e/s> <http://e/p> "a\\tb" .\n'  # the same literal, escaped
            '<http://e/s> <http://e/p> "\\u0061\\u0009b" .\n'  # and again
            '<http://e/s> <http://e/q> "x"@en .\n',
            encoding="utf-8",
        )
        graph = load_ntriples(path)
        dictionary = graph._encoded.dictionary
        assert len(graph) == 2 and len(dictionary) == 5
        assert dictionary.lookup(Literal("a\tb")) == 2
        triples = list(parse_ntriples(path.read_text(encoding="utf-8")))
        assert list(graph) == [triples[0], triples[3]]
