"""Unit tests for the N-Triples codec."""

import io

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import (
    BlankNode,
    Dataset,
    IRI,
    Literal,
    NTriplesError,
    RDFGraph,
    Triple,
    load_ntriples,
    parse_ntriples,
    save_ntriples,
    serialize_ntriples,
)
from repro.rdf.ntriples import _CANONICAL_LINE, _parse_line


def parse_one(line: str) -> Triple:
    (result,) = list(parse_ntriples(line))
    return result


class TestParsing:
    def test_simple_triple(self):
        t = parse_one("<http://e/a> <http://e/p> <http://e/b> .")
        assert t == Triple(IRI("http://e/a"), IRI("http://e/p"), IRI("http://e/b"))

    def test_literal_object(self):
        t = parse_one('<http://e/a> <http://e/p> "hello" .')
        assert t.object == Literal("hello")

    def test_language_literal(self):
        t = parse_one('<http://e/a> <http://e/p> "bonjour"@fr .')
        assert t.object == Literal("bonjour", language="fr")

    def test_datatype_literal(self):
        t = parse_one('<http://e/a> <http://e/p> "5"^^<http://x/int> .')
        assert t.object == Literal("5", datatype="http://x/int")

    def test_escapes(self):
        t = parse_one('<http://e/a> <http://e/p> "line\\nbreak \\"q\\"" .')
        assert t.object.lexical == 'line\nbreak "q"'

    def test_unicode_escape(self):
        t = parse_one('<http://e/a> <http://e/p> "\\u00e9" .')
        assert t.object.lexical == "é"

    def test_long_unicode_escape(self):
        t = parse_one('<http://e/a> <http://e/p> "\\U0001F600 \\u00e9" .')
        assert t.object.lexical == "\U0001F600 é"

    def test_every_echar(self):
        t = parse_one('<http://e/a> <http://e/p> "\\t\\b\\n\\r\\f\\"\\\'\\\\" .')
        assert t.object.lexical == "\t\b\n\r\f\"'\\"

    def test_short_long_unicode_escape(self):
        with pytest.raises(NTriplesError, match=r"short \\U escape"):
            parse_one('<http://e/a> <http://e/p> "\\U0001F6')

    def test_blank_nodes(self):
        t = parse_one("_:x <http://e/p> _:y .")
        assert t.subject == BlankNode("x")
        assert t.object == BlankNode("y")

    def test_comments_and_blank_lines_skipped(self):
        doc = "# comment\n\n<http://e/a> <http://e/p> <http://e/b> .\n"
        assert len(list(parse_ntriples(doc))) == 1

    @pytest.mark.parametrize(
        "line",
        [
            "<http://e/a> <http://e/p> <http://e/b>",  # missing dot
            "<http://e/a> <http://e/p> .",  # missing object
            '"lit" <http://e/p> <http://e/b> .',  # literal subject
            "<http://e/a> _:p <http://e/b> .",  # blank predicate
            '<http://e/a> <http://e/p> "unterminated .',
            "<http://e/a <http://e/p> <http://e/b> .",  # unterminated IRI
        ],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(NTriplesError):
            list(parse_ntriples(line))

    def test_error_carries_line_number(self):
        doc = "<http://e/a> <http://e/p> <http://e/b> .\nbogus\n"
        with pytest.raises(NTriplesError) as excinfo:
            list(parse_ntriples(doc))
        assert excinfo.value.line_number == 2


class TestRoundTrip:
    def test_serialize_parse_round_trip(self):
        triples = [
            Triple(IRI("http://e/a"), IRI("http://e/p"), Literal("x\ny", language="")),
            Triple(BlankNode("b"), IRI("http://e/p"), IRI("http://e/c")),
            Triple(IRI("http://e/a"), IRI("http://e/q"), Literal("5", datatype="http://x/i")),
        ]
        doc = serialize_ntriples(triples)
        assert list(parse_ntriples(doc)) == triples

    def test_file_round_trip(self, tmp_path):
        triples = [Triple(IRI(f"http://e/{i}"), IRI("http://e/p"), Literal(str(i)))
                   for i in range(10)]
        path = tmp_path / "data.nt"
        assert save_ntriples(triples, path) == 10
        graph = load_ntriples(path)
        assert isinstance(graph, RDFGraph)
        assert len(graph) == 10
        assert set(graph) == set(triples)

    def test_equal_terms_of_a_document_are_one_object(self):
        doc = ("<http://e/a> <http://e/p> <http://e/b> .\n"
               '<http://e/b> <http://e/p> "x"@en .\n'
               '<http://e/a> <http://e/p> "x"@en . # strict path\n')
        first, second, third = parse_ntriples(doc)
        assert first.predicate is second.predicate
        assert first.object is second.subject
        assert third == Triple(IRI("http://e/a"), IRI("http://e/p"),
                               Literal("x", language="en"))


BOM = "\ufeff"
_BOM_DOCUMENT = ("<http://e/b> <http://e/p> _:x .\n"
                 '_:x <http://e/q> "5"^^<http://e/int> .\n'
                 "<http://e/a> <http://e/p> <http://e/b> .\n")


class TestByteOrderMark:
    """One U+FEFF opening a document is a UTF-8 byte-order mark, not data."""

    @pytest.mark.parametrize("first_line", [
        "<http://e/a> <http://e/p> <http://e/b> .",  # canonical
        '<http://e/a> <http://e/p> "caf\\u00e9"@fr . # strict path',
        "# a comment",
        "",
    ])
    def test_skipped_by_both_readers(self, first_line, tmp_path):
        document = first_line + "\n" + _BOM_DOCUMENT
        plain, marked = tmp_path / "plain.nt", tmp_path / "marked.nt"
        plain.write_bytes(document.encode("utf-8"))
        marked.write_bytes((BOM + document).encode("utf-8"))
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        expected, loaded = (Dataset(load_ntriples(path)) for path in (plain, marked))
        assert list(loaded.dictionary.terms()) == list(expected.dictionary.terms())
        for name in ("subjects", "predicates", "objects"):
            assert (getattr(loaded.encoded_graph(), name)
                    == getattr(expected.encoded_graph(), name))
        triples = list(parse_ntriples(document))
        assert len(triples) == (4 if first_line.startswith("<") else 3)
        assert list(parse_ntriples(BOM + document)) == triples
        assert list(parse_ntriples(io.StringIO(BOM + document))) == triples

    @pytest.mark.parametrize("document, line_number", [
        (_BOM_DOCUMENT.replace("_:x <", BOM + "_:x <"), 2),  # opening a later line
        (BOM + BOM + _BOM_DOCUMENT, 1),  # only one is skipped
        (BOM + _BOM_DOCUMENT.replace("<http://e/q>", BOM + "<http://e/q>"), 2),
        (BOM + _BOM_DOCUMENT.replace(" .\n", " " + BOM + ".\n", 1), 1),
    ])
    def test_anywhere_else_is_a_positioned_error(self, document, line_number, tmp_path):
        path = tmp_path / "data.nt"
        path.write_bytes(document.encode("utf-8"))
        readers = (parse_ntriples, lambda text: parse_ntriples(io.StringIO(text)),
                   lambda _: load_ntriples(path))
        for read in readers:
            with pytest.raises(NTriplesError, match=f"^line {line_number}: ") as error:
                list(read(document))
            assert error.value.line_number == line_number


# hypothesis strategies: terms as foreign serializers may write them ----------
_iri_text = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp"),
                  blacklist_characters='<>"{}|^`\\'),
    max_size=12,
)
_iris = st.builds(IRI, _iri_text)
_blanks = st.builds(BlankNode, st.text("abcXYZ019", min_size=1, max_size=6))
_lexicals = st.text(
    st.one_of(st.characters(blacklist_categories=("Cs",)),
              st.sampled_from('\\"\n\r\t\b\f\'')),
    max_size=16,
)
_literals = st.one_of(
    st.builds(Literal, _lexicals),
    st.builds(Literal, _lexicals, language=st.sampled_from(["en", "de", "en-US"])),
    st.builds(Literal, _lexicals, datatype=_iri_text),
)
_triples = st.builds(
    Triple, st.one_of(_iris, _blanks), _iris, st.one_of(_iris, _blanks, _literals)
)


class TestGeneratedRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_triples, max_size=8))
    def test_serialize_parse_round_trip(self, triples):
        assert list(parse_ntriples(serialize_ntriples(triples))) == triples


def parse_strictly(document: str):
    """The document through the strict character-walking parser only."""
    for line_number, raw in enumerate(io.StringIO(document), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield _parse_line(line, line_number)


def outcome(parser, document: str):
    try:
        return list(parser(document))
    except NTriplesError as error:
        return (str(error), error.line_number)


MALFORMED = [
    "<http://e/a> <http://e/p> <http://e/b>",
    "<http://e/a> <http://e/p> .",
    '"lit" <http://e/p> <http://e/b> .',
    "<http://e/a> _:p <http://e/b> .",
    '<http://e/a> <http://e/p> "unterminated .',
    "<http://e/a <http://e/p> <http://e/b> .",
    "bogus",
    "<http://e/a> <http://e/p> _:b.",
    "_:b<http://e/p> <http://e/b> .",
    '<http://e/a> <http://e/p> "x"^^ .',
    '<http://e/a> <http://e/p> "x"^^<http://e/t .',
    '<http://e/a> <http://e/p> "x\\q" .',
    '<http://e/a> <http://e/p> "x\\',
    "<http://e/a> <http://e/p> <http://e/b> . trailing",
    "_x <http://e/p> <http://e/b> .",
]

#: well-formed lines written other than the canonical way
UNUSUAL = [
    "<http://e/a><http://e/p><http://e/b>.",
    "<http://e/a>\t<http://e/p>  _:b\t.",
    '<http://e/a> <http://e/p> "x"@en.',
    '<http://e/a> <http://e/p> "x"^^<http://e/t>.',
    '<http://e/a> <http://e/p> "x"@ .',
    '<http://e/a> <http://e/p> "caf\\u00e9"@fr . # comment',
    "<http://e/a b> <http://e/p> <http://e/b> .",
    '<http://e/a> <http://e/p> "a > b . c" .',
    "_:b1 <http://e/p> _:b.2 .",
]


class TestFastShapeAgainstStrictParser:
    """The canonical-line regex and the strict parser are one grammar."""

    @pytest.mark.parametrize("generate", ["lubm", "uniprot"])
    def test_generator_output(self, generate):
        from repro.workloads.lubm import generate_lubm
        from repro.workloads.uniprot import generate_uniprot

        dataset = (generate_lubm(scale=0.3, seed=11) if generate == "lubm"
                   else generate_uniprot(proteins=60, seed=11))
        document = serialize_ntriples(dataset.graph)
        lines = document.splitlines()
        canonical = sum(1 for line in lines if _CANONICAL_LINE.fullmatch(line))
        assert canonical >= 0.9 * len(lines)  # the comparison is not vacuous
        triples = list(parse_ntriples(document))
        assert triples == list(parse_strictly(document))
        assert triples == list(dataset.graph)

    @pytest.mark.parametrize("line", UNUSUAL)
    def test_unusual_lines(self, line):
        expected = outcome(parse_strictly, line)
        assert isinstance(expected, list) and len(expected) == 1
        assert outcome(parse_ntriples, line) == expected

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_lines(self, line):
        expected = outcome(parse_strictly, line)
        assert isinstance(expected, tuple) and expected[1] == 1
        assert outcome(parse_ntriples, line) == expected

    @pytest.mark.parametrize("line", MALFORMED)
    def test_malformed_line_inside_a_valid_file(self, line):
        valid = "<http://e/a> <http://e/p> <http://e/b> .\n"
        document = valid * 3 + "# comment\n\n" + line + "\n" + valid * 2
        message, line_number = outcome(parse_ntriples, document)
        assert line_number == 6 and message.startswith("line 6: ")
        assert (message, line_number) == outcome(parse_strictly, document)
        # the triples before the bad line were delivered
        parser = parse_ntriples(document)
        assert len([next(parser) for _ in range(3)]) == 3
