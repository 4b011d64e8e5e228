"""Tests for cardinality estimation (Eqs. 10–11)."""

import random

import pytest

from repro import parse_query
from repro.core import JoinGraph
from repro.core import bitset as bs
from repro.core.cardinality import (
    CardinalityEstimator,
    PatternStatistics,
    StatisticsCatalog,
)
from repro.engine import evaluate_reference
from repro.rdf import Dataset, triple
from repro.rdf.terms import Variable
from repro.sparql.ast import BGPQuery


@pytest.fixture
def two_pattern_query():
    return parse_query(
        "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . }"
    )


class TestEquation10:
    def test_binary_join_formula(self, two_pattern_query):
        """|tp1 ⋈ tp2| = |tp1|·|tp2| / max(B(tp1,y), B(tp2,y))."""
        y = Variable("y")
        catalog = StatisticsCatalog(
            two_pattern_query,
            [
                PatternStatistics(100.0, {Variable("x"): 50.0, y: 20.0}),
                PatternStatistics(200.0, {y: 40.0, Variable("z"): 10.0}),
            ],
        )
        jg = JoinGraph(two_pattern_query)
        est = CardinalityEstimator(jg, catalog)
        assert est.cardinality(0b11) == pytest.approx(100 * 200 / 40.0)

    def test_no_shared_variable_gives_product(self):
        q = parse_query(
            "SELECT * WHERE { ?x <http://e/p> ?y . ?y <http://e/q> ?z . ?z <http://e/r> ?w . }"
        )
        jg = JoinGraph(q)
        catalog = StatisticsCatalog.uniform(q, cardinality=10.0)
        est = CardinalityEstimator(jg, catalog)
        # tp0 and tp2 share nothing: estimating that (disconnected) set
        # folds with an empty denominator -> cross product
        assert est.cardinality(0b101) == pytest.approx(100.0)

    def test_floor_at_one(self, two_pattern_query):
        catalog = StatisticsCatalog(
            two_pattern_query,
            [
                PatternStatistics(2.0, {Variable("y"): 2.0}),
                PatternStatistics(3.0, {Variable("y"): 1000.0}),
            ],
        )
        est = CardinalityEstimator(JoinGraph(two_pattern_query), catalog)
        assert est.cardinality(0b11) >= 1.0


class TestEquation11:
    def test_fold_is_plan_shape_independent(self, fig1_query):
        """All plans of a subquery must see one cardinality (memo safety)."""
        jg = JoinGraph(fig1_query)
        catalog = StatisticsCatalog.from_random(fig1_query, random.Random(3))
        est = CardinalityEstimator(jg, catalog)
        for sub in (0b0000111, 0b1100011, jg.full):
            assert est.cardinality(sub) == est.cardinality(sub)  # cached
        # estimate depends only on the bitset, not on call order
        est2 = CardinalityEstimator(jg, catalog)
        assert est2.cardinality(jg.full) == est.cardinality(jg.full)

    def test_bindings_capped_by_cardinality(self, fig1_query):
        jg = JoinGraph(fig1_query)
        catalog = StatisticsCatalog.from_random(fig1_query, random.Random(3))
        est = CardinalityEstimator(jg, catalog)
        for variable in jg.join_variables:
            bits = jg.ntp(variable)
            assert est.bindings(bits, variable) <= est.cardinality(bits)

    def test_empty_subquery_rejected(self, fig1_query):
        jg = JoinGraph(fig1_query)
        est = CardinalityEstimator(jg, StatisticsCatalog.uniform(fig1_query))
        with pytest.raises(ValueError):
            est.cardinality(0)


def _full_refold(jg, catalog, bits):
    """Reference Eq. 11 fold: every pattern re-folded in index order.

    This is the pre-incremental algorithm; the estimator's prefix-chain
    extension must reproduce its float arithmetic bit for bit.
    """
    indices = bs.to_indices(bits)
    first = catalog[indices[0]]
    card = first.cardinality
    bindings = {
        v: first.binding_count(v)
        for v in jg.patterns[indices[0]].variables()
    }
    for index in indices[1:]:
        stats = catalog[index]
        pattern = jg.patterns[index]
        shared = sorted(
            (v for v in pattern.variables() if v in bindings),
            key=lambda v: v.name,
        )
        denominator = 1.0
        for v in shared:
            denominator *= max(bindings[v], stats.binding_count(v))
        card = max(card * stats.cardinality / denominator, 1.0)
        for v in pattern.variables():
            b = stats.binding_count(v)
            bindings[v] = min(bindings.get(v, b), b)
    return card, bindings


class TestIncrementalFold:
    def test_matches_full_refold_on_every_subquery(self, fig1_query):
        """Prefix-chain extension == full re-fold, bit for bit, for all
        127 non-empty subsets of the Figure 1 query."""
        jg = JoinGraph(fig1_query)
        catalog = StatisticsCatalog.from_random(fig1_query, random.Random(6))
        est = CardinalityEstimator(jg, catalog)
        for bits in range(1, jg.full + 1):
            expected_card, expected_bindings = _full_refold(jg, catalog, bits)
            assert est.cardinality(bits) == expected_card
            for variable, value in expected_bindings.items():
                assert est.bindings(bits, variable) == min(
                    value, expected_card
                )

    def test_call_order_does_not_change_estimates(self, fig1_query):
        """The cache is an optimization, not a semantic: querying in
        shuffled order gives the same answers as fresh estimators."""
        jg = JoinGraph(fig1_query)
        catalog = StatisticsCatalog.from_random(fig1_query, random.Random(8))
        est = CardinalityEstimator(jg, catalog)
        order = list(range(1, jg.full + 1))
        random.Random(99).shuffle(order)
        for bits in order:
            fresh = CardinalityEstimator(jg, catalog)
            assert est.cardinality(bits) == fresh.cardinality(bits)

    def test_cached_prefixes_stay_immutable(self, fig1_query):
        """Extending a cached prefix must not mutate its bindings dict."""
        jg = JoinGraph(fig1_query)
        catalog = StatisticsCatalog.from_random(fig1_query, random.Random(2))
        est = CardinalityEstimator(jg, catalog)
        est.cardinality(0b0000011)
        before = dict(est._cache[0b0000011][1])
        est.cardinality(jg.full)  # extends the 0b11 prefix
        assert est._cache[0b0000011][1] == before


class TestCatalogs:
    def test_from_random_ranges(self, fig1_query):
        catalog = StatisticsCatalog.from_random(
            fig1_query, random.Random(0), max_cardinality=1000
        )
        for i, tp in enumerate(fig1_query):
            stats = catalog[i]
            assert 1 <= stats.cardinality <= 1000
            for variable in tp.variables():
                assert 1 <= stats.binding_count(variable) <= stats.cardinality

    def test_from_dataset_counts_exactly(self):
        ds = Dataset.from_triples(
            [
                triple("http://e/a", "http://e/p", "http://e/b"),
                triple("http://e/a", "http://e/p", "http://e/c"),
                triple("http://e/x", "http://e/p", "http://e/b"),
            ]
        )
        q = parse_query("SELECT * WHERE { ?s <http://e/p> ?o . ?o <http://e/p> ?z . }")
        catalog = StatisticsCatalog.from_dataset(q, ds)
        assert catalog[0].cardinality == 3.0
        assert catalog[0].binding_count(Variable("s")) == 2.0
        assert catalog[0].binding_count(Variable("o")) == 2.0

    @pytest.mark.parametrize("loops", [0, 3])
    def test_repeated_variable_counts_the_diagonal(self, loops):
        """``?x p ?x`` is priced as what the engines evaluate — the
        self-loops, and their distinct ids — not as the whole predicate;
        with none, both numbers sit on the floor of 1.  The same holds
        when the repeat involves a variable predicate."""
        ring = [triple(f"http://e/n{i}", "http://e/p", f"http://e/n{(i + 1) % 7}") for i in range(7)]
        self_loops = [triple(f"http://e/n{i}", "http://e/p", f"http://e/n{i}") for i in range(loops)]
        ds = Dataset.from_triples(
            ring + self_loops + [triple("http://e/q", "http://e/q", "http://e/n0")]
        )
        query = parse_query(
            "SELECT * WHERE { ?x <http://e/p> ?x . ?y <http://e/p> ?z ."
            " ?v ?p ?v . ?w ?w ?u . <http://e/n1> <http://e/p> <http://e/n1> . }"
        )
        catalog = StatisticsCatalog.from_dataset(query, ds)
        for index, pattern in enumerate(query):
            rows = evaluate_reference(BGPQuery([pattern]), ds.graph)
            assert catalog[index].cardinality == max(len(rows), 1), pattern
            for variable in pattern.variables():
                distinct = {row[rows.position(variable)] for row in rows.rows}
                assert catalog[index].binding_count(variable) == max(len(distinct), 1)
        x = Variable("x")
        assert (catalog[0].cardinality, catalog[0].binding_count(x)) == (max(loops, 1),) * 2
        assert catalog[1].cardinality == 7 + loops  # the whole predicate

    def test_length_mismatch_rejected(self, fig1_query):
        with pytest.raises(ValueError):
            StatisticsCatalog(fig1_query, [PatternStatistics(1.0)])

    def test_unknown_binding_defaults_to_cardinality(self):
        stats = PatternStatistics(7.0, {})
        assert stats.binding_count(Variable("zz")) == 7.0
