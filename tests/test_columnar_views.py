"""A scan view is indistinguishable from the set it stands for.

``tests/columnar_oracle.py`` keeps the eager scan and the one-path hash
join the columnar engine had before its scans became views over the
fragment's index.  Everything here compares the engine with that oracle:
lengths *before* the rows are ever asked for, then the rows; every access
path of the join kernel (filter, index probe, hash) against the oracle's
rows and schema, with the partner's size swept across the probe-vs-hash
threshold; the greedy join order; and the snapshot a returned relation
keeps when its fragment changes under it.
"""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import (
    Cluster,
    EncodedRelation,
    Executor,
    hash_join_encoded,
    multi_join_encoded,
    scan_pattern_encoded,
)
from repro.engine.columnar import _probes_cheaper
from repro.engine.relations import greedy_multi_join
from repro.partitioning import HashSubjectObject
from repro.rdf import Dataset, EncodedGraph, IRI, TermDictionary, triple
from repro.rdf.terms import Variable
from repro.sparql.ast import TriplePattern

from .columnar_oracle import hash_join_eager, multi_join_eager, scan_pattern_eager

A, B, C, D = (Variable(name) for name in "abcd")
P, Q, EMPTY, UNKNOWN = (IRI(f"http://e/{name}") for name in ("p", "q", "empty", "unknown"))


def vertex(n: int) -> IRI:
    return IRI(f"http://e/v{n}")


def is_view(relation: EncodedRelation) -> bool:
    """Whether *relation* still sits in its index (nobody asked for rows)."""
    return relation._rows is None


def fragment_of(triples, dictionary=None) -> EncodedGraph:
    """An encoded fragment holding *triples* (``(s, predicate, o)`` ints/IRI)."""
    dictionary = dictionary if dictionary is not None else TermDictionary()
    fragment = EncodedGraph(dictionary)
    # a predicate the dictionary knows but this fragment has no triple of
    dictionary.encode(EMPTY)
    for s, predicate, o in triples:
        fragment.add_ids(
            dictionary.encode(vertex(s)),
            dictionary.encode(predicate),
            dictionary.encode(vertex(o)),
        )
    return fragment


def pattern_shapes(s: int, o: int):
    """Every pattern shape, for each predicate kind, around constants s / o."""
    for predicate in (P, Q, EMPTY, UNKNOWN):
        yield TriplePattern(A, predicate, B)  # ?s p ?o, subject first in the schema
        yield TriplePattern(B, predicate, A)  # ?s p ?o, object first in the schema
        yield TriplePattern(A, predicate, vertex(o))  # ?s p C
        yield TriplePattern(vertex(s), predicate, B)  # S p ?o
        yield TriplePattern(vertex(s), predicate, vertex(o))  # S p O
        yield TriplePattern(A, predicate, A)  # ?x p ?x
        yield TriplePattern(A, predicate, IRI("http://e/nowhere"))  # unknown constant
        yield TriplePattern(IRI("http://e/nowhere"), predicate, B)
    yield TriplePattern(A, C, B)  # variable predicate
    yield TriplePattern(A, C, A)
    yield TriplePattern(vertex(s), C, B)


edges = st.lists(
    st.tuples(
        st.integers(0, 7), st.sampled_from([P, Q]), st.integers(0, 7)
    ),
    max_size=40,
)


# ----------------------------------------------------------------------
# scans
# ----------------------------------------------------------------------
class TestScanViews:
    @given(edges, st.integers(0, 8), st.integers(0, 8))
    @settings(max_examples=120, deadline=None)
    def test_scan_equals_eager_scan(self, triples, s, o):
        # duplicates on purpose: the index deduplicates, the length must too
        fragment = fragment_of(triples + triples[:5])
        for pattern in pattern_shapes(s, o):
            relation = scan_pattern_encoded(fragment, pattern)
            oracle = scan_pattern_eager(fragment, pattern)
            assert relation.variables == oracle.variables, pattern
            assert len(relation) == len(oracle.rows), pattern  # before any .rows
            assert sorted(relation) == sorted(oracle.rows), pattern  # still no .rows
            assert len(relation) == len(oracle.rows), pattern
            assert relation.rows == oracle.rows, pattern
            assert isinstance(relation.rows, set)
            assert len(relation) == len(oracle.rows), pattern  # and after

    def test_bound_predicate_scans_copy_nothing(self):
        fragment = fragment_of([(1, P, 2), (1, P, 3), (4, P, 2)])
        for pattern in (
            TriplePattern(A, P, B),
            TriplePattern(B, P, A),
            TriplePattern(A, P, vertex(2)),
            TriplePattern(vertex(1), P, B),
        ):
            relation = scan_pattern_encoded(fragment, pattern)
            assert is_view(relation)
            assert len(relation) == (2 if len(relation.variables) == 1 else 3)
            assert is_view(relation)  # len() did not materialize it

    def test_rows_is_a_private_copy(self):
        fragment = fragment_of([(1, P, 2), (3, P, 4)])
        pattern = TriplePattern(A, P, B)
        first = scan_pattern_encoded(fragment, pattern)
        first.rows.add((99, 99))
        first.rows.discard(next(iter(scan_pattern_eager(fragment, pattern).rows)))
        assert len(first) == 2
        again = scan_pattern_encoded(fragment, pattern)
        assert again.rows == scan_pattern_eager(fragment, pattern).rows
        assert (99, 99) not in again.rows

    def test_union_into_a_view_does_not_write_through(self):
        fragment = fragment_of([(1, P, 2), (3, P, 4), (5, Q, 6)])
        target = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        other = scan_pattern_encoded(fragment, TriplePattern(A, Q, B))
        assert is_view(target) and is_view(other)
        target.union_inplace(other)
        assert is_view(other)  # read in place
        assert len(target) == 3
        fresh = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        assert len(fresh) == 2 and fresh.rows == scan_pattern_eager(
            fragment, TriplePattern(A, P, B)
        ).rows

    def test_project_and_decode_read_a_view(self):
        fragment = fragment_of([(1, P, 2), (1, P, 3), (4, P, 2)])
        relation = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        assert relation.project([A, B]) is relation
        subjects = relation.project([A])
        assert subjects.variables == (A,) and len(subjects) == 2
        decoded = relation.decode()
        assert decoded.variables == (A, B)
        assert decoded.rows == {
            (vertex(1), vertex(2)), (vertex(1), vertex(3)), (vertex(4), vertex(2)),
        }

    @given(edges)
    @settings(max_examples=40, deadline=None)
    def test_decode_equals_per_id_decode(self, triples):
        fragment = fragment_of(triples)
        term = fragment.dictionary.decode  # the public, range-checked path
        for pattern in pattern_shapes(1, 2):
            relation = scan_pattern_encoded(fragment, pattern)
            expected = {tuple(term(i) for i in row) for row in relation}
            decoded = relation.decode()
            assert decoded.variables == relation.variables
            assert decoded.rows == expected, pattern


# ----------------------------------------------------------------------
# joins
# ----------------------------------------------------------------------
def join_fixture(rng: random.Random, partner_size: int):
    """A fragment whose ``p`` is large and whose ``q`` has *partner_size* pairs.

    ``q``'s subjects and objects are drawn from ``p``'s, so joins on
    either column have matches (and some misses: a few values are
    outside ``p``).
    """
    pairs = {(rng.randrange(60), rng.randrange(60)) for _ in range(200)}
    values = sorted({v for pair in pairs for v in pair}) + [100, 101, 102]
    partner = set()
    while len(partner) < partner_size:
        partner.add((rng.choice(values), rng.choice(values)))
    triples = [(s, P, o) for s, o in sorted(pairs)]
    triples += [(s, Q, o) for s, o in sorted(partner)]
    rng.shuffle(triples)
    return fragment_of(triples)


def scanned(fragment, pattern, materialized: bool) -> EncodedRelation:
    relation = scan_pattern_encoded(fragment, pattern)
    if materialized:
        assert isinstance(relation.rows, set)
        assert not is_view(relation)
    return relation


def eager(relation: EncodedRelation) -> EncodedRelation:
    """The oracle's input: the same schema over a plain set of the rows."""
    return EncodedRelation(relation.variables, relation.dictionary, set(relation))


def wide(fragment, variables, size: int, rng: random.Random) -> EncodedRelation:
    """A materialized intermediate over *variables* with up to *size* rows."""
    ids = [fragment.dictionary.lookup(vertex(n)) for n in range(60)]
    ids = [i for i in ids if i is not None]
    rows = set()
    while len(rows) < min(size, len(ids) ** len(variables) // 2):
        rows.add(tuple(rng.choice(ids) for _ in variables))
    return EncodedRelation(variables, fragment.dictionary, rows)


def assert_join_equals_oracle(left, right, label):
    expected = hash_join_eager(eager(left), eager(right))
    lengths = (len(left), len(right))
    for first, second in ((left, right), (right, left)):
        joined = hash_join_encoded(first, second)
        assert joined.variables == expected.variables, label
        assert joined.rows == expected.rows, label
        assert isinstance(joined.rows, set)
        assert len(joined) == len(expected.rows), label
    # joining never changes what the inputs stand for
    assert (len(left), len(right)) == lengths, label


#: the large side: ``?s p ?o`` with the subject first / last in the schema
LARGE = {
    "subject-first": TriplePattern(A, P, B),
    "object-first": TriplePattern(B, P, A),
}

#: partner scans: shared on the large side's first / second / both / no column
PARTNER_SCANS = {
    "unary-on-a": TriplePattern(A, Q, vertex(100)),
    "unary-on-b": TriplePattern(vertex(100), Q, B),
    "binary-on-a": TriplePattern(A, Q, C),
    "binary-on-b": TriplePattern(C, Q, B),
    "binary-on-both": TriplePattern(A, Q, B),
    "binary-on-both-flipped": TriplePattern(B, Q, A),
    "binary-on-none": TriplePattern(C, Q, D),
    "unary-on-none": TriplePattern(C, Q, vertex(100)),
}

#: wider (or differently shaped) materialized intermediates
PARTNER_SCHEMAS = [(A,), (B,), (A, B), (A, C), (B, C), (A, B, C), (A, C, D), (C, D), (C,)]

#: partner sizes on both sides of ``|partner| · log2 |view| < |view|``
SIZES = [0, 1, 2, 5, 12, 20, 23, 24, 25, 26, 30, 60, 150, 260]


class TestJoinAccessPaths:
    def test_sizes_straddle_the_threshold(self):
        view = len(scan_pattern_encoded(join_fixture(random.Random(0), 0), LARGE["subject-first"]))
        choices = {_probes_cheaper(size, view) for size in SIZES}
        assert choices == {True, False}

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("orientation", sorted(LARGE))
    def test_scan_with_scan(self, orientation, size):
        fragment = join_fixture(random.Random(size), size)
        for name, pattern in PARTNER_SCANS.items():
            for large_set, partner_set in product((False, True), repeat=2):
                large = scanned(fragment, LARGE[orientation], large_set)
                partner = scanned(fragment, pattern, partner_set)
                label = (orientation, name, size, large_set, partner_set)
                assert_join_equals_oracle(large, partner, label)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("orientation", sorted(LARGE))
    def test_scan_with_intermediate(self, orientation, size):
        rng = random.Random(size)
        fragment = join_fixture(rng, 30)
        for variables in PARTNER_SCHEMAS:
            partner = wide(fragment, variables, size, rng)
            for large_set in (False, True):
                large = scanned(fragment, LARGE[orientation], large_set)
                label = (orientation, [v.name for v in variables], size, large_set)
                assert_join_equals_oracle(large, partner, label)

    @pytest.mark.parametrize("size", SIZES)
    def test_unary_scan_filters_anything(self, size):
        # the unary scan is the *large* side here: ?a q C with many subjects
        rng = random.Random(size)
        triples = [(s, Q, 7) for s in range(0, 120, 2)] + [
            (rng.randrange(60), P, rng.randrange(60)) for _ in range(200)
        ]
        fragment = fragment_of(triples)
        for unary_set in (False, True):
            for variables in [(A,), (A, B), (A, B, C), (B, C)]:
                unary = scanned(fragment, TriplePattern(A, Q, vertex(7)), unary_set)
                partner = wide(fragment, variables, size, rng)
                label = ([v.name for v in variables], size, unary_set)
                assert_join_equals_oracle(unary, partner, label)
            other = scanned(fragment, TriplePattern(A, P, B), False)
            assert_join_equals_oracle(unary, other, ("scan", size, unary_set))

    @given(edges, st.sampled_from(sorted(PARTNER_SCANS)), st.sampled_from(sorted(LARGE)))
    @settings(max_examples=150, deadline=None)
    def test_generated_fragments(self, triples, partner, orientation):
        fragment = fragment_of(triples + triples[:3])
        for large_set, partner_set in product((False, True), repeat=2):
            large = scanned(fragment, LARGE[orientation], large_set)
            other = scanned(fragment, PARTNER_SCANS[partner], partner_set)
            assert_join_equals_oracle(large, other, (orientation, partner))

    def test_joining_materialized_inputs(self):
        # no view anywhere: unique build keys, duplicate build keys, semi-join
        d = TermDictionary()
        unique = EncodedRelation([A, B], d, {(i, i + 100) for i in range(40)})
        repeated = EncodedRelation([A, B], d, {(i % 7, i) for i in range(40)})
        probe = EncodedRelation([A, C], d, {(i % 50, i) for i in range(120)})
        keys = EncodedRelation([A], d, {(i,) for i in range(0, 50, 3)})
        pairs = EncodedRelation([A, C], d, {(i % 50, i) for i in range(0, 120, 2)})
        for left, right in [
            (unique, probe), (repeated, probe), (keys, probe), (pairs, probe),
            (keys, keys), (unique, repeated),
        ]:
            assert_join_equals_oracle(left, right, (left, right))


class TestJoinOrder:
    @given(edges, st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_multi_join_takes_the_parents_order(self, triples, constant):
        fragment = fragment_of(triples)
        patterns = [
            TriplePattern(A, P, B),
            TriplePattern(B, Q, C),
            TriplePattern(A, Q, vertex(constant)),
            TriplePattern(C, P, D),
        ]

        def recording(join, log):
            def pair(left, right):
                log.append((len(left), left.variables, len(right), right.variables))
                return join(left, right)

            return pair

        new_order, old_order = [], []
        views = [scan_pattern_encoded(fragment, tp) for tp in patterns]
        new = greedy_multi_join(views, recording(hash_join_encoded, new_order))
        sets = [scan_pattern_eager(fragment, tp) for tp in patterns]
        old = greedy_multi_join(sets, recording(hash_join_eager, old_order))
        assert new_order == old_order
        assert new.variables == old.variables and new.rows == old.rows
        again = [scan_pattern_encoded(fragment, tp) for tp in patterns]
        assert multi_join_encoded(again).rows == multi_join_eager(sets).rows


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    @pytest.mark.parametrize("materialized", [False, True])
    def test_add_ids_leaves_a_returned_scan_alone(self, materialized):
        fragment = fragment_of([(1, P, 2), (1, P, 3), (4, P, 2)])
        patterns = [
            TriplePattern(A, P, B),
            TriplePattern(B, P, A),
            TriplePattern(A, P, vertex(2)),
            TriplePattern(vertex(1), P, B),
        ]
        before = [scanned(fragment, tp, materialized) for tp in patterns]
        expected = [scan_pattern_eager(fragment, tp).rows for tp in patterns]
        d = fragment.dictionary
        fragment.add_ids(d.encode(vertex(1)), d.encode(P), d.encode(vertex(9)))
        fragment.add_ids(d.encode(vertex(8)), d.encode(P), d.encode(vertex(2)))
        for relation, rows in zip(before, expected):
            assert len(relation) == len(rows)
            assert relation.rows == rows
        # a new scan sees the new triples
        assert len(scan_pattern_encoded(fragment, patterns[0])) == 5

    @pytest.mark.parametrize("materialized", [False, True])
    def test_fail_worker_leaves_a_returned_scan_alone(self, materialized):
        dataset = Dataset.from_triples(
            [triple(f"http://e/v{i}", "http://e/p", f"http://e/v{i + 1}") for i in range(40)]
        )
        cluster = Cluster(HashSubjectObject().partition(dataset, 3), dataset.dictionary)
        pattern = TriplePattern(A, P, B)
        before = [
            scanned(cluster.worker_fragment(worker), pattern, materialized)
            for worker in range(cluster.size)
        ]
        expected = [set(relation) for relation in before]
        assert sum(map(len, expected)) >= 40
        target, _ = cluster.fail_worker(0)
        for relation, rows in zip(before, expected):
            assert len(relation) == len(rows) and relation.rows == rows
        # the survivors' new fragments hold the re-routed triples
        after = scan_pattern_encoded(cluster.worker_fragment(target), pattern)
        assert after.rows >= expected[0] | expected[target]
        assert len(scan_pattern_encoded(cluster.worker_fragment(0), pattern)) == 0


# ----------------------------------------------------------------------
# the executor reads views without copying them
# ----------------------------------------------------------------------
class TestExecutorOnViews:
    def test_slices_hand_out_index_ranges(self):
        fragment = fragment_of([(i, P, i + 1) for i in range(25)])
        relation = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        expected = set(relation)
        stream = Executor._slices({0: relation}, 10)
        first = next(stream)
        assert is_view(relation)  # a consumer that stops here stopped the scan
        pieces = [first, *stream]
        assert [len(piece[0]) for piece in pieces] == [10, 10, 5]
        assert set().union(*(piece[0].rows for piece in pieces)) == expected
        assert is_view(relation)

    def test_slices_adopt_a_small_view_and_drop_an_empty_one(self):
        fragment = fragment_of([(i, P, i + 1) for i in range(5)])
        small = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        empty = scan_pattern_encoded(fragment, TriplePattern(A, EMPTY, B))
        batches = list(Executor._slices({0: empty, 1: small}, 10))
        assert batches == [{1: small}]
        assert is_view(small)
