"""Column relations are indistinguishable from the row sets they stand for.

``tests/columnar_oracle.py`` keeps the row-set relation, the eager scan
and the one-path hash join the columnar engine had before a relation
became one id column per variable.  Everything here compares the engine
with that oracle: lengths, schemas and rows of every scan shape; every
access path of the join kernels (semi-join by set / by pair / by
bisection, unique build side, unique larger side, position buckets,
index probe, Cartesian, the zero-variable ``S p O`` and the ``?x p ?x``
diagonal) with the partner's size swept across the probe-vs-hash
threshold; the invariant that no operator output holds a row twice; the
greedy join order; the snapshot a returned relation keeps when its
fragment's layout changes; the four places the executor
deduplicates what two workers both hold; and one object per id — every
index order and every operator output holds the int objects the
dictionary hands out.
"""

import operator
import pickle
import random
from array import array
from itertools import product
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro import OptimizeOptions, Optimizer
from repro.core.cost import PAPER_PARAMETERS
from repro.core.plans import JoinAlgorithm, JoinNode, ScanNode
from repro.engine import (
    Cluster,
    EncodedRelation,
    Executor,
    FaultInjector,
    evaluate_reference,
    hash_join_encoded,
    multi_join_encoded,
    scan_pattern_encoded,
)
from repro.engine import columnar
from repro.engine.columnar import _probes_cheaper, union_all
from repro.engine.faults import FailStop
from repro.engine.recovery import DEFAULT_RETRY_POLICY, RecoveryManager, RetryPolicy
from repro.engine.relations import greedy_multi_join
from repro.partitioning import HashSubjectObject
from repro.partitioning.base import Partitioning
from repro.rdf import (
    Dataset, EncodedGraph, IRI, TermDictionary, load_ntriples, save_ntriples, triple,
)
from repro.rdf.terms import Variable
from repro.sparql.ast import TriplePattern
from repro.workloads import generate_lubm, lubm_queries

from .columnar_oracle import (
    RowRelation,
    hash_join_eager,
    multi_join_eager,
    scan_pattern_eager,
)

A, B, C, D = (Variable(name) for name in "abcd")
P, Q, EMPTY, UNKNOWN = (IRI(f"http://e/{name}") for name in ("p", "q", "empty", "unknown"))


def vertex(n: int) -> IRI:
    return IRI(f"http://e/v{n}")


def duplicate_free(relation: EncodedRelation) -> bool:
    """The invariant every scan and operator output satisfies."""
    return len(set(relation)) == len(relation)


def fragment_of(triples, dictionary=None) -> EncodedGraph:
    """A table holding *triples* (``(s, predicate, o)`` ints/IRI), in order."""
    dictionary = dictionary if dictionary is not None else TermDictionary()
    # a predicate the dictionary knows but this fragment has no triple of
    dictionary.encode(EMPTY)
    ids = [
        (dictionary.encode(vertex(s)), dictionary.encode(predicate), dictionary.encode(vertex(o)))
        for s, predicate, o in triples
    ]
    return EncodedGraph(dictionary, tuple(array("q", column) for column in zip(*ids)) or None)


def handed_out(dictionary: TermDictionary) -> list:
    """The int object *dictionary* hands out for each id, in id order:
    what ``encode`` and ``lookup`` return, read off the term map."""
    return list(map(dictionary.lookup, dictionary.terms()))


def holds_dictionary_ids(column, dictionary: TermDictionary) -> bool:
    """Whether *column* is a tuple of *dictionary*'s own id objects."""
    objects = handed_out(dictionary)
    return type(column) is tuple and all(i is objects[i] for i in column)


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
            assert len(relation) == len(oracle.rows), pattern
            assert len(relation.columns) == len(relation.variables), pattern
            assert all(len(c) == len(relation) for c in relation.columns), pattern
            assert set(relation) == oracle.rows, pattern
            assert duplicate_free(relation), pattern

    def test_bound_predicate_scans_copy_nothing(self):
        fragment = fragment_of([(1, P, 2), (1, P, 3), (4, P, 2)])
        index = fragment.index_for(fragment.dictionary.lookup(P))
        subject_first = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        assert subject_first.columns[0] is index.spo_subjects
        assert subject_first.columns[1] is index.spo_objects
        object_first = scan_pattern_encoded(fragment, TriplePattern(B, P, A))
        assert object_first.columns[0] is index.ops_objects
        assert object_first.columns[1] is index.ops_subjects
        for relation in (subject_first, object_first):
            assert relation.index is index and len(relation) == 3
        for pattern in (TriplePattern(A, P, vertex(2)), TriplePattern(vertex(1), P, B)):
            relation = scan_pattern_encoded(fragment, pattern)
            # one contiguous slice of the index, ascending
            assert holds_dictionary_ids(relation.columns[0], fragment.dictionary)
            assert list(relation.columns[0]) == sorted(relation.columns[0])
            assert relation.index is index and len(relation) == 2

    @pytest.mark.parametrize("pattern, unread", [
        (TriplePattern(A, P, B), "ops_objects"), (TriplePattern(B, P, A), "spo_subjects"),
    ])
    def test_a_probe_keyed_on_the_scans_own_order_sorts_no_other(self, pattern, unread):
        """An index order is sorted when first read: probing a ``?s p ?o``
        scan on its leading variable stays in the order it sits in; only a
        probe on the other variable needs — and sorts — the other one."""
        fragment = fragment_of([(1, P, 2), (1, P, 3), (4, P, 2)])
        ids = {n: fragment.dictionary.lookup(vertex(n)) for n in (1, 2, 3, 4)}
        relation = scan_pattern_encoded(fragment, pattern)
        subject_first = pattern.subject == A
        own = relation._matches(A)
        assert list(own(ids[1 if subject_first else 2])) == (
            [ids[2], ids[3]] if subject_first else [ids[1], ids[4]]
        )
        with pytest.raises(AttributeError):  # the slot is still empty
            object.__getattribute__(relation.index, unread)
        other = relation._matches(B)
        assert list(other(ids[2 if subject_first else 1])) == (
            [ids[1], ids[4]] if subject_first else [ids[2], ids[3]]
        )
        assert holds_dictionary_ids(
            object.__getattribute__(relation.index, unread), fragment.dictionary
        )

    def test_rows_is_a_private_copy(self):
        fragment = fragment_of([(1, P, 2), (3, P, 4)])
        pattern = TriplePattern(A, P, B)
        first = scan_pattern_encoded(fragment, pattern)
        expected = scan_pattern_eager(fragment, pattern).rows
        rows = set(first)
        rows.add((99, 99))
        rows.discard(next(iter(expected)))
        assert len(first) == 2 and set(first) == expected
        # a relation built from rows keeps its own columns
        given_rows = set(expected)
        built = EncodedRelation([A, B], fragment.dictionary, given_rows)
        given_rows.add((99, 99))
        assert len(built) == 2 and set(built) == expected

    def test_union_into_a_view_does_not_write_through(self):
        fragment = fragment_of([(1, P, 2), (3, P, 4), (5, Q, 6)])
        target = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        other = scan_pattern_encoded(fragment, TriplePattern(A, Q, B))
        union = union_all([target, other])
        assert len(union) == 3 and set(union) == set(target) | set(other)
        assert union.index is None
        assert len(target) == 2 and len(other) == 1  # read in place
        fresh = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        assert fresh.columns[0] is target.columns[0]
        assert set(fresh) == scan_pattern_eager(fragment, TriplePattern(A, P, B)).rows

    def test_project_and_decode_read_a_view(self):
        fragment = fragment_of([(1, P, 2), (1, P, 3), (4, P, 2)])
        relation = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        assert relation.project([A, B]) is relation
        subjects = relation.project([A])
        assert subjects.variables == (A,) and len(subjects) == 2
        assert duplicate_free(subjects)
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


def scanned(fragment, pattern, computed: bool) -> EncodedRelation:
    """The scan as it lies in its index, or a computed copy of its rows.

    The copy has ``list``-like columns in no particular order and no
    index, which is what an intermediate looks like: the same inputs
    then go down the hash paths instead of the index paths.
    """
    relation = scan_pattern_encoded(fragment, pattern)
    if computed:
        relation = EncodedRelation(relation.variables, relation.dictionary, set(relation))
        assert relation.index is None
    return relation


def eager(relation: EncodedRelation) -> RowRelation:
    """The oracle's input: the same schema over a plain set of the rows."""
    return RowRelation(relation.variables, relation.dictionary, set(relation))


def wide(fragment, variables, size: int, rng: random.Random) -> EncodedRelation:
    """A computed intermediate over *variables* with up to *size* rows."""
    ids = [fragment.dictionary.lookup(vertex(n)) for n in range(60)]
    ids = [i for i in ids if i is not None]
    rows = set()
    while len(rows) < min(size, len(ids) ** len(variables) // 2):
        rows.add(tuple(rng.choice(ids) for _ in variables))
    return EncodedRelation(variables, fragment.dictionary, rows)


def assert_join_equals_oracle(left, right, label):
    expected = hash_join_eager(eager(left), eager(right))
    before = (sorted(left), sorted(right))
    for first, second in ((left, right), (right, left)):
        joined = hash_join_encoded(first, second)
        assert joined.variables == expected.variables, label
        assert len(joined) == len(expected.rows), label
        assert all(len(c) == len(joined) for c in joined.columns), label
        assert set(joined) == expected.rows, label
        assert duplicate_free(joined), label
    # joining never changes what the inputs stand for
    assert (sorted(left), sorted(right)) == before, label
    return expected


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
    "diagonal-on-a": TriplePattern(A, Q, A),
    "diagonal-on-none": TriplePattern(C, Q, C),
    "constants": TriplePattern(vertex(100), Q, vertex(101)),
}

#: wider (or differently shaped) computed intermediates
PARTNER_SCHEMAS = [(A,), (B,), (A, B), (A, C), (B, C), (A, B, C), (A, C, D), (C, D), (C,)]

#: partner sizes on both sides of ``|partner| · log2 |scan| < |scan|``
SIZES = [0, 1, 2, 5, 12, 20, 23, 24, 25, 26, 30, 60, 150, 260]


class TestJoinAccessPaths:
    def test_sizes_straddle_the_threshold(self):
        scan = len(scan_pattern_encoded(join_fixture(random.Random(0), 0), LARGE["subject-first"]))
        choices = {_probes_cheaper(size, scan) for size in SIZES}
        assert choices == {True, False}

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("orientation", sorted(LARGE))
    def test_scan_with_scan(self, orientation, size):
        fragment = join_fixture(random.Random(size), size)
        for name, pattern in PARTNER_SCANS.items():
            for large_copy, partner_copy in product((False, True), repeat=2):
                large = scanned(fragment, LARGE[orientation], large_copy)
                partner = scanned(fragment, pattern, partner_copy)
                label = (orientation, name, size, large_copy, partner_copy)
                assert_join_equals_oracle(large, partner, label)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("orientation", sorted(LARGE))
    def test_scan_with_intermediate(self, orientation, size):
        rng = random.Random(size)
        fragment = join_fixture(rng, 30)
        for variables in PARTNER_SCHEMAS:
            partner = wide(fragment, variables, size, rng)
            for large_copy in (False, True):
                large = scanned(fragment, LARGE[orientation], large_copy)
                label = (orientation, [v.name for v in variables], size, large_copy)
                assert_join_equals_oracle(large, partner, label)

    @pytest.mark.parametrize("size", SIZES)
    def test_unary_scan_filters_anything(self, size):
        # the unary scan is the *large* side here: ?a q C with many subjects
        rng = random.Random(size)
        triples = [(s, Q, 7) for s in range(0, 120, 2)] + [
            (rng.randrange(60), P, rng.randrange(60)) for _ in range(200)
        ]
        fragment = fragment_of(triples)
        for unary_copy in (False, True):
            for variables in [(A,), (A, B), (A, B, C), (B, C)]:
                unary = scanned(fragment, TriplePattern(A, Q, vertex(7)), unary_copy)
                partner = wide(fragment, variables, size, rng)
                label = ([v.name for v in variables], size, unary_copy)
                assert_join_equals_oracle(unary, partner, label)
            other = scanned(fragment, TriplePattern(A, P, B), False)
            assert_join_equals_oracle(unary, other, ("scan", size, unary_copy))

    @given(edges, st.sampled_from(sorted(PARTNER_SCANS)), st.sampled_from(sorted(LARGE)))
    @settings(max_examples=150, deadline=None)
    def test_generated_fragments(self, triples, partner, orientation):
        fragment = fragment_of(triples + triples[:3])
        for large_copy, partner_copy in product((False, True), repeat=2):
            large = scanned(fragment, LARGE[orientation], large_copy)
            other = scanned(fragment, PARTNER_SCANS[partner], partner_copy)
            assert_join_equals_oracle(large, other, (orientation, partner))

    def test_joining_materialized_inputs(self):
        # no index anywhere; one input pair per hash access path
        d = TermDictionary()

        def distinct_keys(relation, variables):
            return len(set(relation.tuples(variables))) == len(relation)

        unique = EncodedRelation([A, B], d, {(i, i + 100) for i in range(40)})
        repeated = EncodedRelation([A, B], d, {(i % 7, i) for i in range(40)})
        probe = EncodedRelation([A, C], d, {(i % 50, i) for i in range(120)})
        names = EncodedRelation([A, C], d, {(i, i + 500) for i in range(60)})
        keys = EncodedRelation([A], d, {(i,) for i in range(0, 50, 3)})
        pairs = EncodedRelation([A, C], d, {(i % 50, i) for i in range(0, 120, 2)})
        triples = EncodedRelation([A, B, C], d, {(i % 9, i % 5, i) for i in range(90)})
        both = EncodedRelation([A, B], d, {(i % 9, i % 5) for i in range(0, 90, 4)})
        # unique build side
        assert distinct_keys(unique, [A]) and len(unique) < len(probe)
        assert_join_equals_oracle(unique, probe, "unique build")
        # the smaller side repeats keys, the larger does not
        assert not distinct_keys(repeated, [A]) and distinct_keys(names, [A])
        assert len(repeated) < len(names)
        assert_join_equals_oracle(repeated, names, "unique larger side")
        # neither is unique: position buckets
        assert not distinct_keys(probe, [A])
        assert_join_equals_oracle(repeated, probe, "buckets")
        assert_join_equals_oracle(unique, repeated, "two-key semi-join, same schema")
        # semi-joins: one key, a pair of keys
        assert_join_equals_oracle(keys, probe, "1-key semi-join")
        assert_join_equals_oracle(keys, keys, "1-key semi-join with itself")
        assert_join_equals_oracle(pairs, probe, "2-key semi-join, same schema")
        assert_join_equals_oracle(both, triples, "2-key semi-join")
        # a widening join on two keys (the only tuples a join makes)
        wider = EncodedRelation([A, B, D], d, {(i % 9, i % 5, i) for i in range(0, 60, 7)})
        assert_join_equals_oracle(wider, triples, "2-key widening join")
        # Cartesian products, also with nothing / with the zero-variable relation
        elsewhere = EncodedRelation([C, D], d, {(i, i + 1) for i in range(6)})
        holds = EncodedRelation([], d, {()})
        fails = EncodedRelation([], d)
        assert (len(holds), len(fails)) == (1, 0)
        assert list(holds) == [()] and list(fails) == []
        for left, right in [
            (keys, elsewhere), (unique, elsewhere), (holds, unique), (fails, unique),
            (holds, holds), (holds, fails), (fails, fails), (elsewhere, fails.empty_like()),
        ]:
            expected = assert_join_equals_oracle(left, right, (left, right))
            assert len(expected) == len(left) * len(right)

    def test_zero_variable_and_diagonal_scans_join(self):
        fragment = fragment_of(
            [(1, P, 2), (2, P, 2), (3, P, 3), (3, P, 1), (1, Q, 1), (2, Q, 3), (3, Q, 3)]
        )
        large = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        held = scan_pattern_encoded(fragment, TriplePattern(vertex(1), Q, vertex(1)))
        missing = scan_pattern_encoded(fragment, TriplePattern(vertex(1), Q, vertex(2)))
        assert (len(held), held.variables, held.columns) == (1, (), ())
        assert (len(missing), list(missing)) == (0, [])
        assert len(hash_join_encoded(large, held)) == len(large)
        assert len(hash_join_encoded(large, missing)) == 0
        diagonal = scan_pattern_encoded(fragment, TriplePattern(A, Q, A))
        assert sorted(diagonal) == sorted(
            (fragment.dictionary.lookup(vertex(n)),) for n in (1, 3)
        )
        for partner in (held, missing, diagonal):
            assert_join_equals_oracle(large, partner, partner)
            assert_join_equals_oracle(diagonal, partner, partner)


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
        scans = [scan_pattern_encoded(fragment, tp) for tp in patterns]
        new = greedy_multi_join(scans, recording(hash_join_encoded, new_order))
        sets = [scan_pattern_eager(fragment, tp) for tp in patterns]
        old = greedy_multi_join(sets, recording(hash_join_eager, old_order))
        assert new_order == old_order
        assert new.variables == old.variables and set(new) == old.rows
        assert duplicate_free(new)
        again = [scan_pattern_encoded(fragment, tp) for tp in patterns]
        assert set(multi_join_encoded(again)) == multi_join_eager(sets).rows


# ----------------------------------------------------------------------
# snapshots
# ----------------------------------------------------------------------
class TestSnapshots:
    @pytest.mark.parametrize("materialized", [False, True])
    def test_add_ids_leaves_a_returned_scan_alone(self, materialized):
        """Triples placed on a node after a scan of its fragment (new bits
        in a new masks list, read by a new view) stay out of the scan."""
        table = fragment_of([(1, P, 2), (1, P, 3), (4, P, 2), (1, P, 9), (8, P, 2)])
        partitioning = Partitioning("placing", table, [1, 1, 1, 0, 0], cluster_size=1)
        fragment = partitioning.fragment(1)
        patterns = [
            TriplePattern(A, P, B),
            TriplePattern(B, P, A),
            TriplePattern(A, P, vertex(2)),
            TriplePattern(vertex(1), P, B),
        ]
        before = [scanned(fragment, tp, materialized) for tp in patterns]
        expected = [scan_pattern_eager(fragment, tp).rows for tp in patterns]
        d = fragment.dictionary
        partitioning.place({0: [3, 4]})
        for relation, rows in zip(before, expected):
            assert len(relation) == len(rows)
            assert set(relation) == rows
        # the index a scan kept still answers for the snapshot it was taken from
        probe = EncodedRelation([A, C], d, {(d.lookup(vertex(1)), 0)})
        assert len(hash_join_encoded(before[0], probe)) == 2 or materialized
        # a new scan, of the new view, sees the new triples
        assert len(scan_pattern_encoded(fragment, patterns[0])) == 3
        assert len(scan_pattern_encoded(partitioning.fragment(1), patterns[0])) == 5

    @pytest.mark.parametrize("materialized", [False, True])
    def test_fail_worker_leaves_a_returned_scan_alone(self, materialized):
        dataset = Dataset.from_triples(
            [triple(f"http://e/v{i}", "http://e/p", f"http://e/v{i + 1}") for i in range(40)]
        )
        cluster = Cluster(HashSubjectObject().partition(dataset, 3))
        pattern = TriplePattern(A, P, B)
        before = [
            scanned(cluster.worker_fragment(worker), pattern, materialized)
            for worker in range(cluster.size)
        ]
        expected = [set(relation) for relation in before]
        assert sum(map(len, expected)) >= 40
        target, _ = cluster.fail_worker(0)
        for relation, rows in zip(before, expected):
            assert len(relation) == len(rows) and set(relation) == rows
        # the survivors' new fragments hold the re-routed triples
        after = scan_pattern_encoded(cluster.worker_fragment(target), pattern)
        assert set(after) >= expected[0] | expected[target]
        assert len(scan_pattern_encoded(cluster.worker_fragment(0), pattern)) == 0


# ----------------------------------------------------------------------
# the executor cuts and moves columns
# ----------------------------------------------------------------------
class TestExecutorOnViews:
    def test_slices_hand_out_index_ranges(self):
        fragment = fragment_of([(i, P, i + 1) for i in range(25)])
        relation = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        expected = set(relation)
        stream = Executor._slices({0: relation}, 10)
        pieces = [piece[0] for piece in stream]
        assert [len(piece) for piece in pieces] == [10, 10, 5]
        for start, piece in zip((0, 10, 20), pieces):
            # a slice of every column; the index stays with the scan
            assert piece.variables == relation.variables
            assert piece.index is None
            for column, whole in zip(piece.columns, relation.columns):
                assert holds_dictionary_ids(column, fragment.dictionary)
                assert column == whole[start:start + 10]
        assert set().union(*map(set, pieces)) == expected
        assert relation.index is not None and set(relation) == expected
        # cut when pulled: a consumer that stops here stopped the scan
        assert len(next(Executor._slices({0: relation}, 10))[0]) == 10

    def test_slices_adopt_a_small_view_and_drop_an_empty_one(self):
        fragment = fragment_of([(i, P, i + 1) for i in range(5)])
        small = scan_pattern_encoded(fragment, TriplePattern(A, P, B))
        empty = scan_pattern_encoded(fragment, TriplePattern(A, EMPTY, B))
        batches = list(Executor._slices({0: empty, 1: small}, 10))
        assert batches == [{1: small}]
        assert batches[0][1].index is not None
        # unbounded: the batch itself, empty slots included
        batch = {0: empty, 1: small}
        assert list(Executor._slices(batch, None)) == [batch]


# ----------------------------------------------------------------------
# the four places the same row can arrive from two workers
# ----------------------------------------------------------------------
def replicated_cluster():
    """Two workers that both hold ``v1 p v2`` (what hash-so / 2f / path-bmc do).

    Worker 0 also holds ``v3 p v4``, worker 1 ``v5 p v6``; both hold
    every ``q`` triple, so ``?a p ?b . ?b q ?c`` joins locally on each.
    """
    shared = [(1, P, 2), (2, Q, 7), (4, Q, 8), (6, Q, 9)]
    table = fragment_of(shared + [(3, P, 4), (5, P, 6)])
    masks = [0b11] * len(shared) + [0b01, 0b10]
    return Cluster(Partitioning("replicating", table, masks, cluster_size=2))


def scan_node(index: int, pattern: TriplePattern, cardinality: float) -> ScanNode:
    return ScanNode(
        bits=1 << index, cardinality=cardinality, cost=0.0,
        pattern_index=index, pattern=pattern,
    )


def join_plan(algorithm: JoinAlgorithm) -> JoinNode:
    """``?a p ?b`` (probe) joined with ``?b q ?c`` (build) on ``?b``."""
    return JoinNode(
        bits=3, cardinality=3.0, cost=1.0, algorithm=algorithm,
        children=(
            scan_node(0, TriplePattern(A, P, B), 4.0),
            scan_node(1, TriplePattern(B, Q, C), 3.0),
        ),
        join_variable=B,
    )


def ids(cluster, *numbers):
    return tuple(cluster.dictionary.lookup(vertex(n)) for n in numbers)


class TestDedupPoints:
    def test_both_workers_hold_the_same_rows(self):
        cluster = replicated_cluster()
        scans = [
            set(scan_pattern_encoded(cluster.worker_fragment(w), TriplePattern(A, P, B)))
            for w in range(2)
        ]
        assert scans[0] & scans[1] == {ids(cluster, 1, 2)}
        assert len(scans[0] | scans[1]) == 3

    def test_union_all_is_the_dedup(self):
        cluster = replicated_cluster()
        tables = [
            scan_pattern_encoded(cluster.worker_fragment(w), TriplePattern(A, P, B))
            for w in range(2)
        ]
        union = union_all(tables)
        assert len(union) == 3 and duplicate_free(union)
        assert set(union) == set(tables[0]) | set(tables[1])
        # one non-empty input is duplicate-free already: returned as it is
        assert union_all([tables[0], tables[0].empty_like()]) is tables[0]
        assert len(union_all([tables[0].empty_like()])) == 0
        # one column, no column
        unary = [t.project([A]) for t in tables]
        assert sorted(union_all(unary)) == sorted(set(unary[0]) | set(unary[1]))
        held = EncodedRelation([], cluster.dictionary, {()})
        assert len(union_all([held, held])) == 1
        with pytest.raises(ValueError):
            union_all([tables[0], unary[0]])

    def test_broadcast_collect_ships_distinct_rows_times_live_workers(self):
        cluster = replicated_cluster()
        relation, metrics = Executor(cluster).execute(join_plan(JoinAlgorithm.BROADCAST))
        join = metrics.operators[-1]
        # the build side (?b q ?c) is the same 3 rows on both workers
        assert join.tuples_shipped == 3 * cluster.live_size
        assert len(relation) == 3 == metrics.result_rows

    def test_repartition_bucket_holds_a_row_once(self):
        cluster = replicated_cluster()
        executor = Executor(cluster)
        batch = {
            w: scan_pattern_encoded(cluster.worker_fragment(w), TriplePattern(A, P, B))
            for w in range(2)
        }
        assert sum(map(len, batch.values())) == 4
        buckets = executor._rehash(batch, B)
        assert sorted(buckets) == [0, 1] and not batch  # moved
        assert sum(map(len, buckets.values())) == 3
        for slot, bucket in buckets.items():
            assert duplicate_free(bucket)
            assert bucket.variables == (A, B)
            assert all(cluster.route_id(row[1]) == slot for row in bucket)
        relation, metrics = executor.execute(join_plan(JoinAlgorithm.REPARTITION))
        join = metrics.operators[-1]
        # every input row is shipped; each distinct match is produced once
        assert (join.tuples_shipped, join.tuples_produced) == (4 + 6, 3)
        assert len(relation) == 3

    def test_fail_stop_migration_merges_an_inflight_build_table(self):
        cluster = replicated_cluster()
        inflight = {
            w: scan_pattern_encoded(cluster.worker_fragment(w), TriplePattern(A, P, B))
            for w in range(2)
        }
        recovery = RecoveryManager(
            cluster, FaultInjector(0.0), DEFAULT_RETRY_POLICY, PAPER_PARAMETERS
        )
        cost = recovery._recover_fail_stop(0, [inflight])
        # the survivor held one of the two lost rows already: merged, not appended
        assert len(inflight[1]) == 3 and duplicate_free(inflight[1])
        assert len(inflight[0]) == 0 and inflight[0].variables == (A, B)
        assert cost > 0 and recovery.workers_failed == 1
        # a join fed the merged table emits no duplicate
        probe = scan_pattern_encoded(cluster.worker_fragment(1), TriplePattern(B, Q, C))
        joined = hash_join_encoded(inflight[1], probe)
        assert len(joined) == 3 and duplicate_free(joined)

    def test_sink_admits_a_row_once(self):
        cluster = replicated_cluster()
        for engine in ("columnar", "pipelined"):
            relation, metrics = Executor(cluster, engine=engine).execute(
                join_plan(JoinAlgorithm.LOCAL)
            )
            join = metrics.operators[-1]
            # each worker joins its own rows: (v1, v2, v7) is produced twice
            assert join.tuples_produced == 4 and join.tuples_shipped == 0
            assert metrics.result_rows == len(relation) == 3
            assert relation.rows == {
                (vertex(1), vertex(2), vertex(7)),
                (vertex(3), vertex(4), vertex(8)),
                (vertex(5), vertex(6), vertex(9)),
            }

    def test_a_faulted_run_returns_the_same_rows(self):
        expected = Executor(replicated_cluster()).execute(
            join_plan(JoinAlgorithm.BROADCAST)
        )[0]
        crashed = 0
        for seed in range(12):
            cluster = replicated_cluster()
            injector = FaultInjector(0.5, seed=seed, models=[FailStop()])
            executor = Executor(
                cluster, fault_injector=injector, retry_policy=RetryPolicy(max_retries=64)
            )
            relation, metrics = executor.execute(join_plan(JoinAlgorithm.BROADCAST))
            crashed += metrics.workers_failed
            assert relation.rows == expected.rows, seed
        assert crashed  # some seed killed a worker with the build table in flight


# ----------------------------------------------------------------------
# one object per id: the index orders and every operator output hold the
# int objects the dictionary hands out, never an equal copy
# ----------------------------------------------------------------------
ORDERS = ("spo_subjects", "spo_objects", "ops_objects", "ops_subjects")


@pytest.fixture(scope="module")
def lubm():
    """LUBM at scale 0.5 (2 323 terms: most ids are past CPython's small-int
    cache, so an equal int made anew is another object), its L1-L10 plans
    under Hash-SO and their reference rows."""
    dataset = generate_lubm(scale=0.5, seed=2017)
    method = HashSubjectObject()
    queries = lubm_queries()
    optimizer = Optimizer(OptimizeOptions(dataset=dataset, partitioning=method))
    plans = {label: optimizer.optimize(query).plan for label, query in queries.items()}
    reference = {label: evaluate_reference(query, dataset.graph).rows
                 for label, query in queries.items()}
    return SimpleNamespace(
        dataset=dataset, method=method, queries=queries, plans=plans, reference=reference
    )


def cluster_of(lubm) -> Cluster:
    return Cluster(lubm.method.partition(lubm.dataset, 4))


def copied(fragment: EncodedGraph, dictionary=None) -> EncodedGraph:
    """A fragment on copies of *fragment*'s base columns: nothing derived yet."""
    columns = (fragment.subjects, fragment.predicates, fragment.objects)
    return EncodedGraph(dictionary or fragment.dictionary, tuple(array("q", c) for c in columns))


class TestOneObjectPerId:
    @staticmethod
    def assert_one_object_per_id(fragment: EncodedGraph) -> None:
        """Every element of both orders of every index of *fragment* is the
        object its dictionary hands out for that id."""
        objects = handed_out(fragment.dictionary)
        ids = fragment.dictionary.ids
        assert len(ids) == len(objects) and all(map(operator.is_, ids, objects))
        assert fragment.predicate_ids()
        for predicate in fragment.predicate_ids():
            index = fragment.index_for(predicate)
            for order in ORDERS:
                column = getattr(index, order)
                assert type(column) is tuple, order
                assert all(i is objects[i] for i in column), (predicate, order)

    def test_the_dictionary_hands_out_one_object_per_id(self, lubm):
        dictionary = lubm.dataset.dictionary
        assert len(dictionary) > 2000
        objects = handed_out(dictionary)
        assert objects == list(range(len(dictionary)))
        assert all(map(operator.is_, dictionary.ids, objects))
        assert all(dictionary.encode(t) is objects[i] for i, t in enumerate(dictionary.terms()))

    def test_after_load(self, lubm, tmp_path):
        path = tmp_path / "lubm.nt"
        save_ntriples(lubm.dataset.graph, path)
        dataset = Dataset(load_ntriples(path))
        self.assert_one_object_per_id(dataset.encoded_graph())
        # a saved dictionary, loaded: its map's objects are its ids
        lubm.dataset.dictionary.save(tmp_path / "terms.json")
        loaded = TermDictionary.load(tmp_path / "terms.json")
        self.assert_one_object_per_id(copied(dataset.encoded_graph(), loaded))

    def test_a_variable_predicate_scan(self):
        dictionary = TermDictionary()
        for n in range(300):  # every id below past the small-int cache
            dictionary.encode(IRI(f"http://e/filler{n}"))
        fragment = fragment_of([(1, P, 2), (3, Q, 4), (2, P, 2)], dictionary)
        scan = scan_pattern_encoded(fragment, TriplePattern(A, C, B))
        assert len(scan) == 3 and min(map(min, scan.columns)) > 256
        assert all(holds_dictionary_ids(column, dictionary) for column in scan.columns)

    def test_after_merged(self, lubm):
        """Two nodes' fragments merged: the view of both their bits."""
        cluster = cluster_of(lubm)
        first = cluster.worker_fragment(0)
        merged = cluster.partitioning.fragment(0b11)
        assert len(merged) > len(first)
        self.assert_one_object_per_id(merged)

    def test_through_fail_stop_migration_and_heal(self, lubm):
        queries, plans, reference = lubm.queries, lubm.plans, lubm.reference
        cluster = cluster_of(lubm)
        executor = Executor(cluster)
        assert executor.execute(plans["L7"], queries["L7"])[0].rows == reference["L7"]
        assert cluster.fail_worker(0)[1]  # triples moved
        for worker in range(cluster.size):
            if worker != 0:
                self.assert_one_object_per_id(cluster.worker_fragment(worker))
        assert executor.execute(plans["L7"], queries["L7"])[0].rows == reference["L7"]
        cluster.heal()
        for fragment in cluster.worker_fragments():
            self.assert_one_object_per_id(fragment)

    def test_after_a_pickle_round_trip_of_the_dictionary(self, lubm):
        """Pickle does not memoise ints: unpickled, the map's values are new
        objects, and the id list must be made of those, not of its own."""
        original = lubm.dataset.dictionary
        twin = pickle.loads(pickle.dumps(original))
        assert twin == original and len(twin) > 300
        assert twin.ids[300] is not original.ids[300]
        self.assert_one_object_per_id(copied(lubm.dataset.encoded_graph(), twin))
        # and it keeps interning into the same list
        fresh = twin.encode(IRI("http://e/unpickled"))
        assert twin.ids[-1] is fresh is twin.lookup(IRI("http://e/unpickled"))

    @pytest.mark.parametrize("engine", ["columnar", "pipelined"])
    def test_every_operator_output_of_a_warm_round(self, lubm, engine, monkeypatch):
        queries, plans, reference = lubm.queries, lubm.plans, lubm.reference
        executor = Executor(cluster_of(lubm), engine=engine)
        for label, query in queries.items():  # cold: sorts what the round reads
            assert executor.execute(plans[label], query)[0].rows == reference[label]
        objects = handed_out(lubm.dataset.dictionary)
        seen = {"columns": 0, "ids": 0}
        pump = Executor._pump

        def checked(self, op, body, chunk):
            stream = pump(self, op, body, chunk)
            try:
                for batch in stream:
                    for relation in batch.values():
                        for column in relation.columns:
                            assert all(i is objects[i] for i in column), op.operator
                            seen["columns"] += 1
                            seen["ids"] += len(column)
                    yield batch
            finally:
                stream.close()

        monkeypatch.setattr(Executor, "_pump", checked)
        for label, query in queries.items():
            assert executor.execute(plans[label], query)[0].rows == reference[label], label
        assert seen["columns"] > 100 and seen["ids"] > 10_000


class TestNoKeyTableThrownAway:
    """A two-variable scan whose index counted a repeated id in the join
    column is never keyed as a unique-key table only to be dropped."""

    @pytest.mark.parametrize("engine", ["columnar", "pipelined"])
    def test_a_scan_known_to_repeat_a_key_is_never_keyed(self, lubm, engine, monkeypatch):
        queries, plans, reference = lubm.queries, lubm.plans, lubm.reference

        def run():
            executor = Executor(cluster_of(lubm), engine=engine)
            outcome = {}
            for warm in (False, True):
                for label, query in queries.items():
                    relation, metrics = executor.execute(plans[label], query)
                    assert relation.rows == reference[label], label
                    outcome[warm, label] = (
                        metrics.total_tuples_read, metrics.total_tuples_shipped,
                        metrics.total_tuples_produced, metrics.critical_path_cost,
                        metrics.peak_buffered_rows, metrics.result_rows,
                    )
            return outcome

        with monkeypatch.context() as patched:  # every side tried as a table
            patched.setattr(columnar, "_key_repeats", lambda side, shared: False)
            tried_all = run()

        dropped, skipped = [], []
        key, repeats = columnar._key, columnar._key_repeats

        def keyed(side, shared):
            table = key(side, shared)
            if table is False and side.index is not None and len(side.variables) == 2:
                dropped.append(shared)
            return table

        def counted(side, shared):
            answer = repeats(side, shared)
            skipped.append(answer)
            return answer

        monkeypatch.setattr(columnar, "_key", keyed)
        monkeypatch.setattr(columnar, "_key_repeats", counted)
        assert run() == tried_all
        assert dropped == [] and any(skipped)
