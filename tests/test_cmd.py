"""Property and unit tests for cbd/cmd enumeration (Algorithms 2–3).

The efficient enumerators are cross-validated against brute-force
implementations of Definition 3 on the paper's running example and on
random join graphs of every shape (hypothesis), plus Theorem 1/2
uniqueness checks (no duplicates) and the paper's Example 4.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JoinGraph
from repro.core import bitset as bs
from repro.core.cmd import (
    brute_force_cbds,
    brute_force_cmds,
    canonical_cmd,
    enumerate_cbds,
    enumerate_ccmds,
    enumerate_cmds,
    enumerate_cmds_pruned,
    is_valid_cmd,
)
from repro.rdf.terms import Variable
from repro.workloads.generators import (
    chain_query,
    cycle_query,
    dense_query,
    generate_query,
    star_query,
    tree_query,
)
from repro.core.join_graph import QueryShape


def all_cbds(join_graph, bits, variable):
    return sorted(enumerate_cbds(join_graph, bits, variable))


class TestCBDFigure1:
    def test_matches_brute_force_on_every_variable(self, fig1_graph):
        for variable in fig1_graph.join_variables:
            fast = all_cbds(fig1_graph, fig1_graph.full, variable)
            slow = sorted(brute_force_cbds(fig1_graph, fig1_graph.full, variable))
            assert fast == slow

    def test_no_duplicates(self, fig1_graph):
        for variable in fig1_graph.join_variables:
            fast = list(enumerate_cbds(fig1_graph, fig1_graph.full, variable))
            assert len(fast) == len(set(fast))

    def test_every_cbd_is_valid(self, fig1_graph):
        for variable in fig1_graph.join_variables:
            for left, right in enumerate_cbds(
                fig1_graph, fig1_graph.full, variable
            ):
                assert is_valid_cmd(
                    fig1_graph, fig1_graph.full, (left, right), variable
                )

    def test_low_degree_variable_yields_nothing_below_two(self, fig1_graph):
        # ?f and ?g are not join variables at all
        with pytest.raises(KeyError):
            fig1_graph.ntp(Variable("f"))

    def test_cbds_on_subquery(self, fig1_graph):
        # subquery {tp1, tp2, tp3, tp7} joined on ?a
        sub = bs.from_indices([0, 1, 2, 6])
        fast = all_cbds(fig1_graph, sub, Variable("a"))
        slow = sorted(brute_force_cbds(fig1_graph, sub, Variable("a")))
        assert fast == slow
        assert fast  # non-empty


class TestCMDFigure1:
    def test_matches_brute_force(self, fig1_graph):
        fast = sorted(canonical_cmd(c) for c in enumerate_cmds(fig1_graph, fig1_graph.full))
        slow = sorted(canonical_cmd(c) for c in brute_force_cmds(fig1_graph, fig1_graph.full))
        assert len(fast) == len(set(fast))  # Theorem 2: once and only once
        assert fast == slow

    def test_example_4_cmds_present(self, fig1_graph):
        """Example 4: two specific 4-way/3-way cmds on ?a exist."""
        cmds = {
            canonical_cmd(c) for c in enumerate_cmds(fig1_graph, fig1_graph.full)
        }
        a = Variable("a")
        four_way = (
            tuple(
                sorted(
                    (
                        bs.from_indices([0, 4]),  # {tp1, tp5}
                        bs.from_indices([6]),  # {tp7}
                        bs.from_indices([1, 5]),  # {tp2, tp6}
                        bs.from_indices([2, 3]),  # {tp3, tp4}
                    )
                )
            ),
            a,
        )
        three_way = (
            tuple(
                sorted(
                    (
                        bs.from_indices([0, 4, 6]),  # {tp1, tp5, tp7}
                        bs.from_indices([1, 5]),
                        bs.from_indices([2, 3]),
                    )
                )
            ),
            a,
        )
        assert four_way in cmds
        assert three_way in cmds


class TestCMDShapes:
    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6, 7])
    def test_chain(self, size):
        self._check(JoinGraph(chain_query(size)))

    @pytest.mark.parametrize("size", [3, 4, 5, 6, 7])
    def test_cycle(self, size):
        self._check(JoinGraph(cycle_query(size)))

    @pytest.mark.parametrize("size", [2, 3, 4, 5, 6])
    def test_star(self, size):
        self._check(JoinGraph(star_query(size)))

    @pytest.mark.parametrize("size", [3, 4, 5, 6, 7])
    def test_tree(self, size):
        self._check(JoinGraph(tree_query(size, random.Random(size))))

    @pytest.mark.parametrize("size", [4, 5, 6, 7])
    def test_dense(self, size):
        self._check(JoinGraph(dense_query(size, random.Random(size))))

    @staticmethod
    def _check(join_graph):
        fast = sorted(
            canonical_cmd(c) for c in enumerate_cmds(join_graph, join_graph.full)
        )
        slow = sorted(
            canonical_cmd(c) for c in brute_force_cmds(join_graph, join_graph.full)
        )
        assert len(fast) == len(set(fast))
        assert fast == slow


@st.composite
def random_join_graphs(draw):
    """Random connected queries of 2–7 patterns, any shape."""
    shape = draw(
        st.sampled_from(
            [
                QueryShape.CHAIN,
                QueryShape.CYCLE,
                QueryShape.STAR,
                QueryShape.TREE,
                QueryShape.DENSE,
            ]
        )
    )
    minimum = {
        QueryShape.CHAIN: 2,
        QueryShape.CYCLE: 3,
        QueryShape.STAR: 2,
        QueryShape.TREE: 2,
        QueryShape.DENSE: 4,
    }[shape]
    size = draw(st.integers(min_value=minimum, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    query = generate_query(shape, size, random.Random(seed))
    return JoinGraph(query)


class TestCMDProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_join_graphs())
    def test_cbds_match_brute_force(self, join_graph):
        for variable in join_graph.join_variables:
            fast = sorted(enumerate_cbds(join_graph, join_graph.full, variable))
            slow = sorted(brute_force_cbds(join_graph, join_graph.full, variable))
            assert fast == slow

    @settings(max_examples=60, deadline=None)
    @given(random_join_graphs())
    def test_cmds_match_brute_force(self, join_graph):
        fast = sorted(
            canonical_cmd(c) for c in enumerate_cmds(join_graph, join_graph.full)
        )
        slow = sorted(
            canonical_cmd(c) for c in brute_force_cmds(join_graph, join_graph.full)
        )
        assert len(fast) == len(set(fast))
        assert fast == slow

    @settings(max_examples=40, deadline=None)
    @given(random_join_graphs())
    def test_cmds_on_connected_subqueries(self, join_graph):
        """Algorithm 3 is also correct on subqueries, as Algorithm 1 needs."""
        from repro.core.counting import connected_subqueries

        for sub in connected_subqueries(join_graph):
            if bs.popcount(sub) < 2 or bs.popcount(sub) > 5:
                continue
            fast = sorted(canonical_cmd(c) for c in enumerate_cmds(join_graph, sub))
            slow = sorted(canonical_cmd(c) for c in brute_force_cmds(join_graph, sub))
            assert fast == slow


class TestCCMD:
    @settings(max_examples=40, deadline=None)
    @given(random_join_graphs())
    def test_ccmds_are_the_complete_cmds(self, join_graph):
        """Rule 1: ccmd = cmd whose every part has exactly one Ntp pattern."""
        expected = set()
        for parts, variable in brute_force_cmds(join_graph, join_graph.full):
            ntp = join_graph.ntp(variable)
            if len(parts) >= 3 and all(
                bs.popcount(part & ntp) == 1 for part in parts
            ):
                expected.add(canonical_cmd((parts, variable)))
        actual = {
            canonical_cmd(c)
            for c in enumerate_ccmds(join_graph, join_graph.full, minimum_arity=3)
        }
        assert actual == expected

    def test_pruned_space_is_cbds_plus_ccmds(self, fig1_graph):
        pruned = [
            canonical_cmd(c)
            for c in enumerate_cmds_pruned(fig1_graph, fig1_graph.full)
        ]
        assert len(pruned) == len(set(pruned))
        full = {
            canonical_cmd(c) for c in enumerate_cmds(fig1_graph, fig1_graph.full)
        }
        assert set(pruned) <= full
        # every binary cmd survives the pruning
        binary = {c for c in full if len(c[0]) == 2}
        assert binary <= set(pruned)

    def test_star_ccmd_is_single_full_division(self):
        """For a star, the only ccmd is the all-singletons division."""
        join_graph = JoinGraph(star_query(5))
        ccmds = list(enumerate_ccmds(join_graph, join_graph.full, minimum_arity=3))
        assert len(ccmds) == 1
        parts, _ = ccmds[0]
        assert sorted(parts) == [bs.bit(i) for i in range(5)]


# ----------------------------------------------------------------------
# emission order (the DP's strict-< tie-break keeps the *first* cheapest
# candidate, so the sequence — not just the set — is contract)
# ----------------------------------------------------------------------
#: TD-CMD's space of a star is every set partition (Bell numbers) and
#: the oracle pays ~10 µs per cmd, so the full-cmd comparison stops at 7
#: patterns per subquery; cbds, ccmds and the pruned space go to 10.
_CMD_ORDER_LIMIT = 7


def _order_cases():
    for shape in (
        QueryShape.CHAIN,
        QueryShape.CYCLE,
        QueryShape.STAR,
        QueryShape.TREE,
        QueryShape.DENSE,
    ):
        minimum = 4 if shape is QueryShape.DENSE else 3 if shape is QueryShape.CYCLE else 2
        for size in range(minimum, 11):
            # chain, cycle and star topologies do not depend on the seed
            seeds = (0, 1, 2) if shape in (QueryShape.TREE, QueryShape.DENSE) else (0,)
            for seed in seeds:
                yield pytest.param(shape, size, seed, id=f"{shape.value}-{size}-s{seed}")


class TestEmissionOrder:
    """The flat kernel against the recursive generators it replaced
    (``tests/enumeration_oracle.py``), as *sequences*, on every
    connected sub-bitset — plus a few arbitrary (possibly disconnected)
    ones, which the public functions also accept."""

    @pytest.mark.parametrize("shape,size,seed", _order_cases())
    def test_same_sequence_as_the_generator_oracle(self, shape, size, seed):
        from repro.core.counting import connected_subqueries
        from repro.core.enumeration import TopDownEnumerator
        from repro.core.optimizer import make_builder
        from repro.core.pruning import PrunedTopDownEnumerator

        from . import enumeration_oracle as oracle

        query = generate_query(shape, size, random.Random(seed))
        builder = make_builder(query, seed=seed)
        join_graph = builder.join_graph
        td_cmd = TopDownEnumerator(join_graph, builder)
        td_cmdp = PrunedTopDownEnumerator(join_graph, builder)
        # the search hands out each binary division once; with the table
        # off, TD-CMDP's hook is the oracle's stream of every cmd
        td_cmdp._mates = None
        td_cmdp_no_rule1 = PrunedTopDownEnumerator(
            join_graph, builder, rule1_ccmd_only=False, rule2_binary_broadcast=False
        )
        rng = random.Random(seed)
        subqueries = list(connected_subqueries(join_graph))
        subqueries += [rng.randrange(1, join_graph.full + 1) for _ in range(10)]
        for bits in subqueries:
            for variable in join_graph.join_variables:
                for single_anchor in (False, True):
                    assert list(
                        enumerate_cbds(join_graph, bits, variable, single_anchor)
                    ) == list(
                        oracle.enumerate_cbds(join_graph, bits, variable, single_anchor)
                    )
            for arity in (2, 3):
                assert list(
                    enumerate_ccmds(join_graph, bits, minimum_arity=arity)
                ) == list(oracle.enumerate_ccmds(join_graph, bits, minimum_arity=arity))
            pruned = list(oracle.enumerate_cmds_pruned(join_graph, bits))
            assert list(enumerate_cmds_pruned(join_graph, bits)) == pruned
            assert list(td_cmdp.divisions(bits)) == list(
                oracle.divisions_td_cmdp(join_graph, bits)
            )
            if bs.popcount(bits) > _CMD_ORDER_LIMIT:
                continue
            cmds = list(oracle.enumerate_cmds(join_graph, bits))
            assert list(enumerate_cmds(join_graph, bits)) == cmds
            assert list(td_cmd.divisions(bits)) == list(
                oracle.divisions_td_cmd(join_graph, bits)
            )
            assert list(td_cmdp_no_rule1.divisions(bits)) == list(
                oracle.divisions_td_cmdp(
                    join_graph, bits, rule1_ccmd_only=False, rule2_binary_broadcast=False
                )
            )

    def test_variables_argument_restricts_and_orders(self, fig1_graph):
        from . import enumeration_oracle as oracle

        chosen = list(reversed(fig1_graph.join_variables))[:2]
        for new, old in (
            (enumerate_cmds, oracle.enumerate_cmds),
            (enumerate_ccmds, oracle.enumerate_ccmds),
            (enumerate_cmds_pruned, oracle.enumerate_cmds_pruned),
        ):
            assert list(new(fig1_graph, fig1_graph.full, chosen)) == list(
                old(fig1_graph, fig1_graph.full, chosen)
            )

    def test_traced_divisions_are_the_same_sequence(self, fig1_query):
        """The rule-hit counting wrapper only counts."""
        from repro.core.optimizer import make_builder
        from repro.core.pruning import PrunedTopDownEnumerator
        from repro.observability import runtime as obs
        from repro.observability.spans import Tracer

        builder = make_builder(fig1_query, seed=3)
        enumerator = PrunedTopDownEnumerator(builder.join_graph, builder)
        full = builder.join_graph.full
        plain = list(enumerator.divisions(full))
        tracer = Tracer()
        with obs.activate(tracer):
            traced = list(enumerator.divisions(full))
        assert traced == plain
