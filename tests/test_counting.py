"""Tests for T(Q) counting and the closed forms of Eqs. 7–9."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JoinGraph
from repro.core import bitset as bs
from repro.core.counting import (
    bell_number,
    connected_subqueries,
    count_cmds,
    count_connected_subqueries,
    measured_t,
    t_chain,
    t_cycle,
    t_star,
)
from repro.workloads.generators import chain_query, cycle_query, star_query, tree_query


class TestBellNumbers:
    def test_known_values(self):
        # OEIS A000110
        assert [bell_number(k) for k in range(8)] == [1, 1, 2, 5, 15, 52, 203, 877]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bell_number(-1)


class TestClosedForms:
    """Eqs. 7–9 must agree with enumeration — the strongest single piece
    of evidence that Algorithms 2/3 are implemented correctly."""

    @pytest.mark.parametrize("n", [*range(2, 9), 10, 12])
    def test_chain(self, n):
        assert measured_t(JoinGraph(chain_query(n))) == t_chain(n)

    @pytest.mark.parametrize("n", [*range(3, 9), 10, 12])
    def test_cycle(self, n):
        assert measured_t(JoinGraph(cycle_query(n))) == t_cycle(n)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_star(self, n):
        assert measured_t(JoinGraph(star_query(n))) == t_star(n)

    def test_formula_spot_values(self):
        # hand-derived in the reproduction notes
        assert t_chain(2) == 1 and t_chain(3) == 4
        assert t_cycle(3) == 9
        assert t_star(3) == 7

    def test_growth_ordering(self):
        """Star space explodes fastest, chain slowest (Section III-D)."""
        for n in range(4, 12):
            assert t_chain(n) < t_cycle(n) < t_star(n)


class TestConnectedSubqueries:
    def test_chain_count(self):
        # a chain of n has n(n+1)/2 connected subqueries (contiguous runs)
        for n in range(2, 8):
            jg = JoinGraph(chain_query(n))
            assert count_connected_subqueries(jg) == n * (n + 1) // 2

    def test_star_count(self):
        # every non-empty subset of a star is connected: 2^n - 1
        for n in range(2, 8):
            jg = JoinGraph(star_query(n))
            assert count_connected_subqueries(jg) == 2**n - 1

    def test_cycle_count(self):
        # contiguous arcs of length 1..n-1 (n each) plus the full cycle
        for n in range(3, 8):
            jg = JoinGraph(cycle_query(n))
            assert count_connected_subqueries(jg) == n * (n - 1) + 1

    def test_all_yields_are_connected_and_unique(self):
        jg = JoinGraph(tree_query(7, random.Random(1)))
        seen = list(connected_subqueries(jg))
        assert len(seen) == len(set(seen))
        for sub in seen:
            assert jg.is_connected(sub)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=999))
    def test_matches_brute_force(self, size, seed):
        jg = JoinGraph(tree_query(size, random.Random(seed)))
        expected = {
            sub
            for sub in bs.iter_subsets(jg.full)
            if jg.is_connected(sub)
        }
        assert set(connected_subqueries(jg)) == expected


class TestCountCmds:
    def test_count_cmds_of_star(self):
        jg = JoinGraph(star_query(4))
        # D_cmd of the full 4-star = B_4 - 1 = 14
        assert count_cmds(jg, jg.full) == bell_number(4) - 1

    @pytest.mark.parametrize("n", [8, 12])
    def test_count_cmds_of_larger_stars(self, n):
        """Every set partition of a star's patterns but the trivial one
        is a cmd on the hub: B_12 - 1 = 4 213 596 emitted."""
        jg = JoinGraph(star_query(n))
        assert count_cmds(jg, jg.full) == bell_number(n) - 1

    def test_count_cmds_of_two_chain(self):
        jg = JoinGraph(chain_query(2))
        assert count_cmds(jg, jg.full) == 1


class _CountingRows(list):
    """An adjacency table that counts the rows read from it."""

    reads = 0

    def __getitem__(self, index):
        _CountingRows.reads += 1
        return super().__getitem__(index)


def _rows_read_per_cmd(n):
    """Adjacency rows the cmd kernel reads per cmd it emits for chain-n."""
    jg = JoinGraph(chain_query(n))
    jg._adj = _CountingRows(jg._adj)
    jg._adj_without = [
        _CountingRows(jg._adjacency_without(index)) for index in range(len(jg._ntp))
    ]
    _CountingRows.reads = 0
    emitted = count_cmds(jg, jg.full)
    return _CountingRows.reads / emitted


def test_amortized_cost_per_cmd_grows_linearly():
    """Lemma 3: Θ(|V_T|) work per emitted cmd, counted rather than timed.
    Every candidate side the kernel grows and every fragment it walks
    reads one adjacency row, so rows read per emitted cmd is the
    amortized cost: doubling a chain at most doubles it (24 → 48 rows)."""
    per_cmd_12, per_cmd_24 = _rows_read_per_cmd(12), _rows_read_per_cmd(24)
    assert per_cmd_12 > 0
    assert per_cmd_24 <= 2 * per_cmd_12
