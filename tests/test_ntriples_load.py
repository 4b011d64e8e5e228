"""Parse once into ids: ``load_ntriples`` fills the dictionary and the id
columns directly and returns an :class:`RDFGraph` that is a view over them.

``tests/ntriples_oracle.py`` keeps the term-level load path this
replaced; the first half of this file is a differential check against
it.  The second half pins what a view is: what reads it without
decoding, what decodes it (once), what detaches it, and how
:class:`Dataset` adopts it.  The guard that nothing between the file
and the rows builds a ``Triple`` is ``TestColdPathStaysOnIds`` in
``tests/test_id_partitioning.py``.
"""

from __future__ import annotations

import gc
import hashlib
import os
import subprocess
import sys
import tempfile
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.partitioning import HashSubjectObject
from repro.rdf import (
    BlankNode,
    Dataset,
    EncodedGraph,
    IRI,
    Literal,
    NTriplesError,
    RDFGraph,
    TermDictionary,
    Triple,
    load_ntriples,
    ntriples,
    parse_ntriples,
    save_ntriples,
    triple,
)
from repro.rdf.terms import term_of_text
from repro.workloads.lubm import generate_lubm
from repro.workloads.uniprot import generate_uniprot

from . import ntriples_oracle as oracle
from .test_ntriples import MALFORMED, UNUSUAL, outcome, parse_strictly

VALID = "<http://e/a> <http://e/p> <http://e/b> ."


def loaded(path):
    """(terms in id order, the three id columns, the triples) through the
    loader under test: what ``Dataset(load_ntriples(path))`` works on."""
    graph = load_ntriples(path)
    dataset = Dataset(graph)
    encoded = dataset.encoded_graph()
    return (
        list(dataset.dictionary.terms()),
        list(encoded.subjects), list(encoded.predicates), list(encoded.objects),
        list(graph),
    )


def expected(path):
    """The same five through the term-level oracle."""
    graph = oracle.load_ntriples(path)
    return (*oracle.encode(graph), list(graph))


def is_decoded(graph: RDFGraph) -> bool:
    return "_triples" in vars(graph)


def small_batches(lines: int):
    return mock.patch.object(ntriples, "_BATCH_LINES", lines)


# ----------------------------------------------------------------------
# differential: the id-level loader against the term-level one
# ----------------------------------------------------------------------
_names = st.sampled_from("abcd")
_canonical = st.one_of(
    st.builds("<http://e/{}> <http://e/p{}> <http://e/{}> .".format, _names, _names, _names),
    st.builds('<http://e/{}> <http://e/name> "n {}"@en .'.format, _names, _names),
    st.builds('_:{} <http://e/p{}> "{}"^^<http://e/t> .'.format, _names, _names, _names),
    st.builds('<http://e/{}> <http://e/p> "{}"^^<> .'.format, _names, _names),
)
_lines = st.one_of(
    _canonical,
    _canonical,  # twice: most lines of a document are canonical
    st.sampled_from(UNUSUAL),
    st.sampled_from(["", "   ", "# a comment", "#", "\t# <http://e/a> <http://e/p> <http://e/b> ."]),
)


@st.composite
def _documents(draw):
    lines = draw(st.lists(_lines, max_size=24))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines),
                            max_size=len(lines)))
    document = "".join(line + ending for line, ending in zip(lines, endings))
    if draw(st.booleans()):
        document = document.rstrip("\r\n")  # no final newline
    return document


class TestLoaderDifferential:
    @pytest.mark.parametrize("generate", ["lubm", "uniprot"])
    def test_generator_output(self, generate, tmp_path):
        dataset = (generate_lubm(scale=0.3, seed=11) if generate == "lubm"
                   else generate_uniprot(proteins=200, seed=11))
        path = tmp_path / "data.nt"
        written = save_ntriples(dataset.graph, path)
        assert written > 2 * ntriples._BATCH_LINES  # more than two batches
        through_ids = loaded(path)
        assert through_ids == expected(path)
        assert through_ids[-1] == list(dataset.graph)

    @settings(max_examples=200, deadline=None)
    @given(_documents(), st.sampled_from([1, 2, 3, 5, 8, ntriples._BATCH_LINES]))
    def test_documents(self, document, batch_lines):
        """Canonical and unusual lines, comments, blank lines, CRLF, a
        missing final newline, repeats within and across batches."""
        with tempfile.TemporaryDirectory() as directory, small_batches(batch_lines):
            path = Path(directory) / "data.nt"
            path.write_bytes(document.encode("utf-8"))
            assert loaded(path) == expected(path)
        with small_batches(batch_lines):
            assert list(parse_ntriples(document)) == list(oracle.parse_ntriples(document))

    def test_repeats_within_and_across_batches(self, tmp_path):
        other = "<http://e/b> <http://e/p> <http://e/c> ."
        unusual = "<http://e/a><http://e/p><http://e/b>."  # VALID, strictly parsed
        lines = [VALID, VALID, other, unusual, VALID, other, "", other, unusual, VALID]
        path = tmp_path / "data.nt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with small_batches(3):
            assert loaded(path) == expected(path)
            graph = load_ntriples(path)
        assert len(graph) == 2 and not is_decoded(graph)
        assert list(graph) == list(parse_ntriples(VALID + "\n" + other))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.nt"
        path.write_text("# nothing\n\n", encoding="utf-8")
        graph = load_ntriples(path)
        assert len(graph) == 0 and list(graph) == [] and loaded(path) == expected(path)
        assert Dataset(graph).triple_count == 0


# ----------------------------------------------------------------------
# a canonical token becomes its term directly
# ----------------------------------------------------------------------
def _text(excluded: str):
    """Text without *excluded* or a line break, where the empty string,
    spaces, ``#``, ``>`` and ``'`` are common."""
    return st.one_of(
        st.sampled_from(["", " ", "a b", "#", "x # y", "a > b", "it's", " '#> "]),
        st.text(st.one_of(st.sampled_from(" #>'\t"),
                          st.characters(blacklist_categories=("Cs",))),
                max_size=12),
    ).map(lambda text: "".join(c for c in text if c not in excluded + "\n\r"))


_lexical = _text('"\\')
_tokens = st.one_of(
    st.builds("<{}>".format, _text(">")),
    st.builds("_:{}".format, _text(" \t")),
    st.builds('"{}"'.format, _lexical),
    st.builds('"{}"@{}'.format, _lexical,
              st.from_regex(r"[A-Za-z0-9-]+", fullmatch=True)),
    st.builds('"{}"^^<{}>'.format, _lexical, _text(">")),
)


class TestCanonicalTokens:
    @settings(max_examples=300, deadline=None)
    @given(_tokens)
    def test_direct_construction_equals_the_strict_parser(self, token):
        line = f"<http://e/s> <http://e/p> {token} ."
        assert ntriples._CANONICAL_LINE.fullmatch(line).group(3) == token  # canonical
        direct = term_of_text(token)
        strict = ntriples._parse_term(token, 0, 0)[0]
        assert type(direct) is type(strict) and direct == strict
        assert hash(direct) == hash(strict)


def _placed(line: str, line_number: int, total: int) -> str:
    """*total* lines, all ``VALID`` but *line* at *line_number*."""
    lines = [VALID] * total
    lines[line_number - 1] = line
    return "\n".join(lines) + "\n"


class TestMalformedLinePlacement:
    """Wherever a bad line falls in the batches, both readers fail as the
    strict parser does, after delivering what came before it."""

    #: with 4-line batches: in the first batch, a batch's last and first
    #: line, a later batch
    PLACEMENTS = [2, 4, 5, 11]

    @pytest.mark.parametrize("line_number", PLACEMENTS)
    @pytest.mark.parametrize("line", MALFORMED)
    def test_same_error_as_the_strict_parser(self, line, line_number, tmp_path):
        document = _placed(line, line_number, 13)
        failure = outcome(parse_strictly, document)
        assert isinstance(failure, tuple) and failure[1] == line_number
        path = tmp_path / "bad.nt"
        path.write_text(document, encoding="utf-8")
        with small_batches(4):
            assert outcome(parse_ntriples, document) == failure
            assert outcome(lambda _: load_ntriples(path), document) == failure
            delivered = []
            with pytest.raises(NTriplesError):
                for parsed in parse_ntriples(document):
                    delivered.append(parsed)
        assert len(delivered) == line_number - 1

    def test_with_the_real_batch_size(self, tmp_path):
        batch = ntriples._BATCH_LINES
        path = tmp_path / "bad.nt"
        for line_number in (3, batch, batch + 1, 2 * batch + 7):
            document = _placed("bogus", line_number, 2 * batch + 9)
            path.write_text(document, encoding="utf-8")
            failure = (f"line {line_number}: unexpected character 'b'", line_number)
            assert outcome(parse_ntriples, document) == failure
            assert outcome(lambda _: load_ntriples(path), document) == failure


_SEED_SCRIPT = """
import hashlib, sys
from repro.rdf import Dataset, load_ntriples
dataset = Dataset(load_ntriples(sys.argv[1]))
encoded = dataset.encoded_graph()
state = (list(map(str, dataset.dictionary.terms())), list(encoded.subjects),
         list(encoded.predicates), list(encoded.objects), list(map(str, dataset.graph)))
print(hashlib.sha256(repr(state).encode()).hexdigest())
"""


class TestAcrossHashSeeds:
    def test_same_ids_columns_and_order_under_two_seeds(self, tmp_path):
        graph = generate_lubm(scale=0.2, seed=5).graph
        lines = [str(t) for t in graph]
        lines[40:40] = UNUSUAL + ["", "# comment"] + lines[:30]  # and repeats
        path = tmp_path / "data.nt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        terms, subjects, predicates, objects, triples = expected(path)
        state = (list(map(str, terms)), subjects, predicates, objects,
                 list(map(str, triples)))
        digest = hashlib.sha256(repr(state).encode()).hexdigest()
        src = str(Path(__file__).resolve().parents[1] / "src")
        for seed in ("0", "2017"):
            done = subprocess.run(
                [sys.executable, "-c", _SEED_SCRIPT, str(path)],
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src),
                capture_output=True, text=True,
            )
            assert done.returncode == 0, done.stderr
            assert done.stdout.strip() == digest, seed


# ----------------------------------------------------------------------
# a loaded graph is a view
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def uniprot_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("view") / "uniprot.nt"
    save_ntriples(generate_uniprot(proteins=40, seed=3).graph, path)
    return path


NEW = triple("http://e/new-s", "http://e/new-p", "http://e/new-o")

#: one term-level read each, of a graph and one of its triples
READS = {
    "list": lambda graph, held: list(graph),
    "in": lambda graph, held: (held in graph, NEW in graph),
    "match": lambda graph, held: sorted(graph.match(predicate=held.predicate)),
    "copy": lambda graph, held: list(graph.copy()),
    "vertices": lambda graph, held: graph.vertices,
    "out_edges": lambda graph, held: graph.out_edges(held.subject),
    "count": lambda graph, held: graph.count(),
}


class TestLoadedGraphIsAView:
    def test_len_repr_dataset_and_partition_decode_nothing(self, uniprot_file):
        eager = oracle.load_ntriples(uniprot_file)
        graph = load_ntriples(uniprot_file)
        assert len(graph) == len(eager)
        assert repr(graph) == repr(eager)
        dataset = Dataset(graph)
        assert dataset.triple_count == len(eager)
        assert dataset.encoded_graph() is graph._encoded  # adopted, not re-encoded
        partitioning = HashSubjectObject().partition(dataset, 3)
        assert partitioning.total_stored_triples() >= len(eager)
        assert not is_decoded(graph)
        assert graph._out is None and eager._out is None  # repr kept no index

    @pytest.mark.parametrize("read", sorted(READS))
    def test_first_term_level_read_decodes_once(self, read, uniprot_file, monkeypatch):
        eager = oracle.load_ntriples(uniprot_file)
        held = next(iter(eager))
        graph = load_ntriples(uniprot_file)
        decodes = []
        decode = RDFGraph.__getattr__
        monkeypatch.setattr(
            RDFGraph, "__getattr__",
            lambda self, name: decodes.append(name) or decode(self, name),
        )
        assert not is_decoded(graph)
        assert READS[read](graph, held) == READS[read](eager, held)
        assert is_decoded(graph) and decodes == ["_triples"]
        triples = graph._triples
        for again in READS.values():
            again(graph, held)
        assert decodes == ["_triples"] and graph._triples is triples
        assert list(graph) == list(eager) and len(graph) == len(eager)
        assert graph._encoded is not None  # reading does not detach

    def test_other_missing_attributes_stay_missing(self, uniprot_file):
        graph = load_ntriples(uniprot_file)
        with pytest.raises(AttributeError):
            graph.no_such_attribute
        assert not is_decoded(graph)

    @pytest.mark.parametrize("change", ["add", "add_all", "discard"])
    def test_a_change_detaches_and_refresh_keeps_every_id(self, change, uniprot_file):
        graph = load_ntriples(uniprot_file)
        dataset = Dataset(graph)
        dictionary = dataset.dictionary
        terms = list(dictionary.terms())
        victim = next(iter(oracle.load_ntriples(uniprot_file)))
        # calls that change nothing leave the view attached
        assert not graph.add(victim) and not graph.discard(NEW)
        assert graph.add_all([victim]) == 0
        assert graph._encoded is dataset.encoded_graph()
        if change == "add":
            assert graph.add(NEW)
        elif change == "add_all":
            assert graph.add_all([victim, NEW]) == 1
        else:
            assert graph.discard(victim)
        assert graph._encoded is None
        with mock.patch.object(
            EncodedGraph, "from_graph", wraps=EncodedGraph.from_graph
        ) as from_graph:
            dataset.refresh()
        assert from_graph.call_count == 1
        assert dataset.dictionary is dictionary
        assert list(dictionary.terms())[: len(terms)] == terms  # no id moved
        added = len(dictionary) - len(terms)
        assert added == (0 if change == "discard" else 3)
        assert list(dataset.encoded_graph().decoded()) == list(graph)
        assert dataset.triple_count == len(graph)

    def test_two_datasets_over_one_loaded_graph(self, uniprot_file):
        graph = load_ntriples(uniprot_file)
        before = list(oracle.load_ntriples(uniprot_file))
        first, second = Dataset(graph), Dataset(graph)
        assert first.dictionary is second.dictionary
        assert first.encoded_graph() is second.encoded_graph()
        graph.add(NEW)
        first.refresh()
        assert list(first.encoded_graph().decoded()) == before + [NEW]
        # the other one is as stale as any dataset whose graph changed, and whole
        assert list(second.encoded_graph().decoded()) == before
        assert second.dictionary.lookup(NEW.subject) == first.dictionary.lookup(NEW.subject)
        second.refresh()
        assert list(second.encoded_graph().triples()) == list(first.encoded_graph().triples())

    def test_ids_already_handed_out_are_not_traded_for_a_views(self, uniprot_file):
        dataset = Dataset(RDFGraph([NEW]))
        dictionary = dataset.dictionary
        dataset.graph = load_ntriples(uniprot_file)
        dataset.refresh()
        assert dataset.dictionary is dictionary
        assert [dictionary.lookup(term) for term in NEW.terms()] == [0, 1, 2]
        assert list(dataset.encoded_graph().decoded()) == list(dataset.graph)

    def test_a_fragments_view_is_replaced_once_written_to(self, uniprot_file):
        fragment = Dataset(load_ntriples(uniprot_file)).encoded_graph().gather(range(10))
        view = fragment.decoded()
        assert fragment.decoded() is view and len(view) == 10 and not is_decoded(view)
        view.add(NEW)
        fresh = fragment.decoded()
        assert fresh is not view and NEW not in fresh and len(fresh) == 10
        assert list(fresh) == list(view)[:10]

    def test_a_dropped_view_is_freed_without_the_collector(self, uniprot_file):
        """No reference cycle between a view and its columns: ten one-shot
        runs in a process must not hold ten datasets until the next
        full collection."""
        gc.disable()
        try:
            graph = load_ntriples(uniprot_file)
            dataset = Dataset(graph)
            fragment = dataset.encoded_graph().gather(range(10))
            view = fragment.decoded()
            assert len(list(view)) == 10
            alive = [weakref.ref(graph), weakref.ref(view), weakref.ref(dataset)]
            del graph, dataset, fragment, view
            assert [ref() for ref in alive] == [None, None, None]
        finally:
            gc.enable()

    def test_repr_of_a_hand_built_graph_builds_no_index(self):
        graph = RDFGraph([triple("a", "p", "b"), triple("b", "p", "a"),
                          Triple(BlankNode("x"), IRI("p"), Literal("b"))])
        assert repr(graph) == "RDFGraph(3 triples, 4 vertices)"
        assert graph._out is None and graph._in is None


# ----------------------------------------------------------------------
# interning hashes texts, never a term
# ----------------------------------------------------------------------
@pytest.fixture
def hash_calls(monkeypatch):
    """Counts Python-level ``__hash__`` calls on the three term classes."""
    calls = Counter()
    for cls in (IRI, Literal, BlankNode):
        def counted(self, _hash=cls.__hash__):
            calls["hash"] += 1
            return _hash(self)
        monkeypatch.setattr(cls, "__hash__", counted)
    return calls


class TestInterningHashCalls:
    def test_encode_all(self, hash_calls):
        terms = [IRI(f"http://e/{i}") for i in range(300)]
        terms += [Literal(str(i)) for i in range(100)]
        dictionary = TermDictionary()
        assert dictionary._encode_all(terms) == list(range(400))
        assert hash_calls["hash"] == 0  # a term is interned by its text
        assert dictionary._encode_all(terms + terms[::-1]) == [
            *range(400), *reversed(range(400))
        ]
        assert hash_calls["hash"] == 0
        mixed = [terms[7], IRI("http://e/x"), terms[7], IRI("http://e/y"), IRI("http://e/x")]
        assert dictionary._encode_all(mixed) == [7, 400, 7, 401, 400]
        assert hash_calls["hash"] == 0
        assert list(dictionary.terms())[400:] == [IRI("http://e/x"), IRI("http://e/y")]

    def test_lookups_do_not_intern(self):
        dictionary = TermDictionary()
        assert dictionary.lookup(IRI("http://e/a")) is None
        assert IRI("http://e/a") not in dictionary and len(dictionary) == 0
        assert dictionary.encode(IRI("http://e/a")) == 0 == dictionary.encode(IRI("http://e/a"))
        assert list(dictionary.terms()) == [IRI("http://e/a")]

    def test_load(self, hash_calls, uniprot_file):
        dataset = Dataset(load_ntriples(uniprot_file))
        distinct = len(dataset.dictionary)
        assert distinct > 200
        # every line of the file is canonical: its tokens are interned as
        # texts, and neither loading nor building the dataset hashes a term
        assert hash_calls["hash"] == 0
