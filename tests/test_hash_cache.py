"""The cached hash of terms and triples is invisible and process-safe.

``IRI``/``Literal``/``BlankNode``/``Variable``/``Triple`` fill a slot
with their hash when they are made and serve it from there.  These tests pin what that must not
change: the hash values themselves, ``==``/ordering/``repr``/``fields``/
``replace``, and — because string hashes differ per process under
``PYTHONHASHSEED`` — everything that is pickled or persisted.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.rdf import Dataset, TermDictionary, load_ntriples, save_ntriples
from repro.rdf.terms import BlankNode, IRI, Literal, Variable
from repro.rdf.triples import Triple
from repro.workloads.lubm import generate_lubm

SRC = str(Path(__file__).resolve().parents[1] / "src")


def samples():
    """One of each class, built fresh (hash slot filled at construction)."""
    iri, pred = IRI("http://e/a"), IRI("http://e/p")
    literal = Literal("x\ny", language="en")
    return [iri, literal, Literal("5", datatype="http://e/int"), BlankNode("b1"),
            Variable("x"), Triple(iri, pred, literal), Triple(BlankNode("b1"), pred, iri)]


class TestHashValue:
    def test_equals_the_generated_dataclass_hash(self):
        iri, literal, typed, blank, variable, triple_, _ = samples()
        assert hash(iri) == hash(("http://e/a",))
        assert hash(literal) == hash(("x\ny", "", "en"))
        assert hash(typed) == hash(("5", "http://e/int", ""))
        assert hash(blank) == hash(("b1",))
        assert hash(variable) == hash(("x",))
        assert hash(triple_) == hash((triple_.subject, triple_.predicate, triple_.object))

    def test_stable_and_shared_by_equal_objects(self):
        for first, second in zip(samples(), samples()):
            assert first is not second
            assert hash(first) == hash(first) == hash(second)
            assert second in {first} and {first: 1}[second] == 1

    def test_classes_with_equal_fields_stay_distinct(self):
        assert IRI("x") != BlankNode("x") and IRI("x") != Variable("x")
        assert len({IRI("x"), BlankNode("x"), Variable("x"), Literal("x")}) == 4


class TestCacheIsInvisible:
    @pytest.mark.parametrize("index", range(len(samples())))
    def test_hashing_changes_nothing_observable(self, index):
        hashed, fresh = samples()[index], samples()[index]
        hash(hashed)
        assert hashed == fresh and not hashed < fresh and hashed <= fresh
        assert repr(hashed) == repr(fresh) and str(hashed) == str(fresh)
        assert "_hash" not in repr(hashed)
        names = [f.name for f in dataclasses.fields(hashed)]
        assert "_hash" not in names
        assert dataclasses.astuple(hashed) == dataclasses.astuple(fresh)
        assert pickle.dumps(hashed) == pickle.dumps(fresh)
        for twin in (copy.copy(hashed), copy.deepcopy(hashed),
                     pickle.loads(pickle.dumps(hashed)),
                     dataclasses.replace(hashed)):
            assert twin == fresh and hash(twin) == hash(fresh)

    def test_replace_rehashes(self):
        iri = IRI("http://e/a")
        hash(iri)
        other = dataclasses.replace(iri, value="http://e/b")
        assert other == IRI("http://e/b") and hash(other) == hash(IRI("http://e/b"))
        triple_ = samples()[5]
        hash(triple_)
        moved = dataclasses.replace(triple_, object=IRI("http://e/o"))
        assert hash(moved) == hash(Triple(triple_.subject, triple_.predicate,
                                          IRI("http://e/o")))

    def test_still_frozen(self):
        iri = IRI("http://e/a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            iri.value = "other"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del iri.value

    def test_ordering_ignores_the_cache(self):
        low, high = IRI("a"), IRI("b")
        hash(high)
        assert low < high and sorted([high, low]) == [low, high]

    def test_term_dictionary_payload(self):
        dictionary = TermDictionary()
        for term in samples()[:4]:
            hash(term)
            dictionary.encode(term)
        payload = dictionary.to_payload()
        assert payload["terms"] == [
            ["i", "http://e/a"],
            ["l", "x\ny", "", "en"],
            ["l", "5", "http://e/int", ""],
            ["b", "b1"],
        ]
        restored = TermDictionary.from_payload(payload)
        assert restored == dictionary
        assert [restored.lookup(t) for t in samples()[:4]] == [0, 1, 2, 3]


def field_hash(thing):
    """The hash the generated dataclass ``__hash__`` would give."""
    return hash(tuple(getattr(thing, field.name) for field in dataclasses.fields(thing)))


class TestSlotFilledWhenMade:
    """``__hash__`` only reads the slot, so every path that makes a term
    or triple must leave it filled: reading ``_hash`` raises
    ``AttributeError`` on an empty slot."""

    @pytest.mark.parametrize("index", range(len(samples())))
    def test_construction(self, index):
        sample = samples()[index]
        assert sample._hash == field_hash(sample)

    @pytest.mark.parametrize("index", range(len(samples())))
    def test_pickle_copy_deepcopy_and_replace_twins(self, index):
        sample = samples()[index]
        for twin in (pickle.loads(pickle.dumps(sample)), copy.copy(sample),
                     copy.deepcopy(sample), dataclasses.replace(sample)):
            assert twin is not sample
            assert twin._hash == sample._hash

    def test_every_term_of_a_loaded_dictionary(self, tmp_path):
        path = tmp_path / "lubm.nt"
        save_ntriples(generate_lubm(scale=0.3).graph, path)
        terms = list(Dataset(load_ntriples(path)).dictionary.terms())
        assert {IRI, Literal} <= {type(term) for term in terms}
        for term in terms:
            assert term._hash == field_hash(term)


# ---------------------------------------------------------------------------
# across processes with different string-hash seeds
# ---------------------------------------------------------------------------
_BUILD = """
from repro import parse_query
from repro.core import OptimizeOptions, Optimizer, StatisticsCatalog
from repro.core.plan_cache import PlanCache
from repro.partitioning import HashSubjectObject
from repro.rdf import Dataset, RDFGraph, TermDictionary
from repro.rdf.terms import BlankNode, IRI, Literal, Variable
from repro.rdf.triples import Triple

def build():
    iri, pred = IRI("http://e/a"), IRI("http://e/p")
    literal = Literal("x", language="en")
    terms = [iri, pred, literal, Literal("5", datatype="http://e/int"),
             BlankNode("b1"), Variable("x")]
    triples = [Triple(iri, pred, literal), Triple(BlankNode("b1"), pred, iri),
               Triple(iri, IRI("http://e/q"), BlankNode("b1"))]
    query = parse_query(
        "SELECT ?x ?y WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . "
        "?z <http://e/p> <http://e/a> . }", name="q")
    dataset = Dataset(RDFGraph(triples))
    statistics = StatisticsCatalog.from_dataset(query, dataset)
    # the cooperative driver ships (query, statistics, partitioning, ...) to
    # its search workers; the same objects stand in for that payload here
    payload = (query, statistics, HashSubjectObject())
    return terms, triples, dataset, payload
"""

_WRITER = _BUILD + """
import pickle, sys
terms, triples, dataset, payload = build()
for thing in terms + triples:
    hash(thing)  # fill every cache before pickling
assert all(t in dataset.graph for t in triples)
cache = PlanCache()
Optimizer(OptimizeOptions(
    algorithm="td-cmd", statistics=payload[1], plan_cache=cache)).optimize(payload[0])
cache.save(sys.argv[2])
dataset.dictionary.save(sys.argv[3])
with open(sys.argv[1], "wb") as handle:
    pickle.dump((terms, triples, set(triples), {t: i for i, t in enumerate(terms)},
                 dataset.graph, payload), handle)
"""

_READER = _BUILD + """
import pickle, sys
with open(sys.argv[1], "rb") as handle:
    terms, triples, triple_set, term_ids, graph, payload = pickle.load(handle)
fresh_terms, fresh_triples, dataset, fresh_payload = build()
for loaded, fresh in zip(terms + triples, fresh_terms + fresh_triples):
    assert loaded == fresh and loaded is not fresh
    assert hash(loaded) == hash(fresh), (loaded, "stale hash crossed the process boundary")
    assert fresh in {loaded} and {loaded: 1}[fresh] == 1
assert all(t in triple_set for t in fresh_triples)
assert [term_ids[t] for t in fresh_terms] == list(range(len(fresh_terms)))
assert list(graph) == fresh_triples and all(t in graph for t in fresh_triples)
assert graph.edges(fresh_terms[0]) == dataset.graph.edges(fresh_terms[0])
query, statistics, method = payload
fresh_query = fresh_payload[0]
assert query.patterns == fresh_query.patterns
assert [query.index_of(tp) for tp in fresh_query.patterns] == [0, 1, 2]
assert method.maximal_local_queries(query) == method.maximal_local_queries(fresh_query)
cache = PlanCache.load(sys.argv[2])
assert cache.lookup(fresh_query, fresh_payload[1], "td-cmd") is not None
assert TermDictionary.load(sys.argv[3]) == dataset.dictionary
"""


def run_python(code: str, hash_seed: int, *args) -> None:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, args)],
        env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr


class TestAcrossHashSeeds:
    def test_pickled_under_one_seed_usable_under_another(self, tmp_path):
        files = [tmp_path / name for name in ("objects.pickle", "plans.json", "terms.json")]
        run_python(_WRITER, 1, *files)
        run_python(_READER, 2, *files)

    def test_persisted_files_do_not_depend_on_the_seed(self, tmp_path):
        written = []
        for seed in (1, 2):
            files = [tmp_path / f"{seed}-{name}"
                     for name in ("objects.pickle", "plans.json", "terms.json")]
            run_python(_WRITER, seed, *files)
            written.append([path.read_bytes() for path in files[1:]])
        assert written[0] == written[1]
