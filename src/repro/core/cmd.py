"""Connected binary- and multi-division enumeration (Algorithms 2 and 3).

A *connected multi-division* (cmd) of a connected query Q on join
variable v_j is a partition (SQ_1, ..., SQ_k) of Q's triple patterns
such that every SQ_i is connected and contains at least one pattern in
Ntp(v_j) (Definition 3).  Each cmd is one candidate k-way join.

The enumeration strategy follows the paper:

* :func:`enumerate_cbds` (Algorithm 2) grows one side of a *binary*
  division incrementally.  After removing v_j the join graph falls into
  connected components; an *indivisible* component (a single pattern
  adjacent to v_j) must move as a whole (Lemma 1), while a *divisible*
  component may be split, dragging along any fragments that would lose
  their connection to v_j (Lemma 2).  The two lemmas collapse into one
  rule: extending with pattern ``tp`` also absorbs every fragment of
  ``component \\ (SQ ∪ {tp})`` that contains no pattern of Ntp(v_j).
* :func:`enumerate_cmds` (Algorithm 3) peels cbd sides off recursively,
  keeping them on a stack; every stack state is one cmd.

This is the optimizer's innermost kernel, so it is written flat: each
algorithm is *one* generator frame driving an explicit stack
(:func:`_cbd_sides`, :func:`_peel` — no generator per recursion node,
no ``yield from`` chain for a k-way division to bubble through), every
bit walk is the inline
``low = x & -x`` loop, and join variables are addressed by their index
into the join graph's ``_ntp`` / ``_adj_without`` tables, so no
``Variable`` is hashed below the public functions.  The paper's
``Emit`` is still ``yield``: callers can stop early, nothing is
materialized and memory stays O(|SQ|) per enumeration however large
the division space is.  Every cmd is produced exactly once: within one
v_j the peeled part always contains the lowest-index pattern of the
remaining Ntp(v_j), which makes the part order canonical.  The *order*
of emission is part of the contract — the optimizer keeps the first
cheapest candidate — and is pinned against the previous recursive
implementation, which lives on as ``tests/enumeration_oracle.py``.

:func:`brute_force_cbds` / :func:`brute_force_cmds` implement the
definitions directly (exponentially); the test suite cross-validates
the efficient enumerators against them on random join graphs.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..rdf.terms import Variable
from . import bitset as bs
from .join_graph import JoinGraph

#: A connected multi-division: the parts (bitsets) and the join variable.
CMD = Tuple[Tuple[int, ...], Variable]


def _variable_indices(
    join_graph: JoinGraph, variables: Optional[Sequence[Variable]]
) -> Iterable[int]:
    """Join-variable indices for a public ``variables`` argument."""
    if variables is None:
        return range(len(join_graph.join_variables))
    return [join_graph._var_index[variable] for variable in variables]


# ----------------------------------------------------------------------
# Algorithm 2: connected binary-division enumeration
# ----------------------------------------------------------------------
def enumerate_cbds(
    join_graph: JoinGraph,
    bits: int,
    variable: Variable,
    single_anchor: bool = False,
) -> Iterator[Tuple[int, int]]:
    """Yield every connected binary-division of *bits* on *variable*.

    Pairs ``(sq1, sq2)`` are yielded with ``sq1`` containing the anchor
    (the lowest-index pattern of ``Ntp(v_j) ∩ bits``), so each unordered
    division appears exactly once.

    With ``single_anchor=True`` only divisions whose ``sq1`` contains
    *exactly one* pattern of Ntp(v_j) are produced (the building block
    of ccmd enumeration for TD-CMDP, Section IV-A): the growth never
    adds a second v_j-adjacent pattern, so the restriction prunes the
    recursion instead of filtering its output.
    """
    index = join_graph._var_index[variable]
    for side in _cbd_sides(join_graph, bits, index, single_anchor):
        yield side, bits ^ side


def _cbd_sides(
    join_graph: JoinGraph,
    bits: int,
    variable: int,
    single_anchor: bool,
    mates: Optional[Sequence[int]] = None,
) -> Iterator[int]:
    """Algorithm 2 (CBDRec): the anchor side of every cbd of *bits*.

    *variable* is the join variable's index; the other side of each
    division is ``bits ^ side``.  The recursion is unrolled onto an
    explicit stack of ``(sq, reach, forbidden, candidates)`` frames —
    a frame is pushed only while a growing side still has candidates
    to its right — and emits in the recursion's pre-order: the anchor
    first, candidates ascending, ``forbidden`` growing left to right.

    Stranding (Lemmas 1–2) needs no component table.  Removing *tp*
    from the remainder can only strand the fragments that were
    connected to v_j *through tp*, and a fragment without a pattern of
    Ntp(v_j) has no v_j edge at all, so it is a connected fragment of
    the v_j-less adjacency that starts at one of tp's v_j-less
    neighbours: walk exactly those, and absorb the ones that never
    meet Ntp(v_j).  An indivisible component has no such neighbour and
    costs one ``&``.

    With *mates* (a row of :func:`_earlier_mates`), a side whose division
    an earlier variable also crosses (``need`` reaches the far side) is
    skipped, and one whose ``need`` meets ``forbidden`` is cut with its
    growth subtree; the kept sides keep their order.
    """
    ntp = join_graph._ntp[variable] & bits
    if not ntp & (ntp - 1):  # fewer than two patterns adjacent to v_j
        return
    adj = join_graph._adj
    without = join_graph._adjacency_without(variable)
    anchor = ntp & -ntp
    # single_anchor: the side never takes a second pattern of Ntp(v_j)
    allowed = bits & ~(ntp ^ anchor) if single_anchor else bits
    stack: List[Tuple[int, int, int, int, int]] = []
    # sq: the side grown so far; reach: the union of its adjacency rows;
    # need: the union of its rows of *mates*
    sq, reach, need, forbidden, candidates = 0, anchor, 0, 0, anchor
    grown_need = 0
    while True:
        while candidates:
            tp = candidates & -candidates
            candidates ^= tp
            index = tp.bit_length() - 1
            grown = sq | tp
            grown_reach = reach | adj[index]
            outside = bits & ~grown
            near = without[index] & outside
            safe = ntp  # whatever connects to this keeps its link to v_j
            # the four bit walks below are bounded by the bitset width
            # (≤64 fragments × ≤64 patterns, no data-sized work); the
            # consumer polls its deadline between emitted sides
            while near:
                low = near & -near
                frontier = without[low.bit_length() - 1] & outside
                fragment = low | frontier
                while frontier and not fragment & safe:
                    step = 0
                    while frontier:
                        low = frontier & -frontier
                        step |= without[low.bit_length() - 1]
                        frontier ^= low
                    frontier = step & outside & ~fragment
                    fragment |= frontier
                near &= ~fragment
                if fragment & safe:
                    safe |= fragment
                    continue
                grown |= fragment  # stranded: it moves with tp
                while fragment:
                    low = fragment & -fragment
                    grown_reach |= adj[low.bit_length() - 1]
                    fragment ^= low
            if grown & forbidden or grown == bits:
                forbidden |= tp
                continue
            if mates is not None:
                grown_need = need
                added = grown ^ sq
                while added:
                    low = added & -added
                    grown_need |= mates[low.bit_length() - 1]
                    added ^= low
                if grown_need & forbidden:  # a repeat, and so is its subtree
                    forbidden |= tp
                    continue
            if candidates:  # tp's right siblings resume with tp forbidden
                stack.append((sq, reach, need, forbidden | tp, candidates))
            if not grown_need & (bits ^ grown):
                yield grown
            sq, reach, need = grown, grown_reach, grown_need
            candidates = reach & allowed & ~sq & ~forbidden
        if not stack:
            return
        sq, reach, need, forbidden, candidates = stack.pop()


def _earlier_mates(join_graph: JoinGraph) -> Optional[List[Optional[List[int]]]]:
    """Row *i*: per pattern, ∪ Ntp(v_j) of the earlier join variables
    ``j < i`` holding it (``None`` for i = 0).  ``None`` for a forest,
    where two variables crossing one connected bipartition close a cycle.
    """
    if not join_graph.is_cyclic():
        return None
    rows: List[Optional[List[int]]] = []
    row = [0] * join_graph.size
    for ntp in join_graph._ntp:
        rows.append(list(row) if rows else None)
        rest = ntp
        while rest:
            low = rest & -rest
            row[low.bit_length() - 1] |= ntp
            rest ^= low
    return rows


# ----------------------------------------------------------------------
# Algorithm 3: connected multi-division enumeration
# ----------------------------------------------------------------------
def enumerate_cmds(
    join_graph: JoinGraph,
    bits: int,
    variables: Optional[Sequence[Variable]] = None,
) -> Iterator[CMD]:
    """Yield every connected multi-division of the subquery *bits*.

    *variables* restricts the join variables considered (defaults to all
    join variables of the query that have ≥2 adjacent patterns inside
    *bits*).
    """
    for index in _variable_indices(join_graph, variables):
        ntp = join_graph._ntp[index] & bits
        if not ntp & (ntp - 1):
            continue
        variable = join_graph.join_variables[index]
        for parts in _peel(join_graph, bits, index, ntp, False):
            yield parts, variable


def _peel(
    join_graph: JoinGraph, bits: int, variable: int, ntp: int, complete: bool
) -> Iterator[Tuple[int, ...]]:
    """Algorithm 3 (CMDRec) on an explicit stack: the parts of every cmd.

    ``levels[d]`` enumerates the cbds of ``wholes[d]``, the remainder
    after peeling ``parts[:d]``; a cbd's far side is peeled further
    while it still holds two patterns of *ntp*.  Every cbd of every
    level is one cmd.  With *complete* the sides are ``single_anchor``
    ones and only the leaves — one pattern of *ntp* left on the far
    side — are divisions: the ccmds.
    """
    parts: List[int] = []
    wholes = [bits]
    levels = [_cbd_sides(join_graph, bits, variable, complete)]
    while levels:
        whole = wholes[-1]
        for side in levels[-1]:
            rest = whole ^ side
            anchors = ntp & rest
            peel_further = anchors & (anchors - 1)
            if not (complete and peel_further):
                yield (*parts, side, rest)
            if peel_further:
                parts.append(side)
                wholes.append(rest)
                levels.append(_cbd_sides(join_graph, rest, variable, complete))
                break
        else:
            levels.pop()
            wholes.pop()
            if parts:
                parts.pop()


# ----------------------------------------------------------------------
# ccmd enumeration (TD-CMDP, Rule 1)
# ----------------------------------------------------------------------
def enumerate_ccmds(
    join_graph: JoinGraph,
    bits: int,
    variables: Optional[Sequence[Variable]] = None,
    minimum_arity: int = 3,
) -> Iterator[CMD]:
    """Yield connected *complete*-multi-divisions with arity ≥ *minimum_arity*.

    A ccmd is a cmd in which every part contains exactly one pattern of
    Ntp(v_j) (Section IV-A); its arity therefore equals the degree of
    v_j inside *bits*.
    """
    for index in _variable_indices(join_graph, variables):
        ntp = join_graph._ntp[index] & bits
        degree = bs.popcount(ntp)
        if degree < 2 or degree < minimum_arity:
            continue
        variable = join_graph.join_variables[index]
        for parts in _peel(join_graph, bits, index, ntp, True):
            yield parts, variable


def enumerate_cmds_pruned(
    join_graph: JoinGraph,
    bits: int,
    variables: Optional[Sequence[Variable]] = None,
) -> Iterator[CMD]:
    """The TD-CMDP division space: all cbds plus ccmds of arity > 2.

    This is the paper's ``ConnMultiDivisionPruning`` (Rule 1 applied to
    the enumeration; Rules 2–3 are applied by the optimizer itself).
    """
    for index in _variable_indices(join_graph, variables):
        ntp = join_graph._ntp[index] & bits
        if not ntp & (ntp - 1):
            continue
        variable = join_graph.join_variables[index]
        for side in _cbd_sides(join_graph, bits, index, False):
            yield (side, bits ^ side), variable
    yield from enumerate_ccmds(join_graph, bits, variables, minimum_arity=3)


# ----------------------------------------------------------------------
# brute-force references (for validation)
# ----------------------------------------------------------------------
def is_valid_cmd(
    join_graph: JoinGraph, bits: int, parts: Sequence[int], variable: Variable
) -> bool:
    """Check Definition 3 directly."""
    ntp = join_graph.ntp(variable)
    union = 0
    for part in parts:
        if part == 0 or union & part:
            return False
        union |= part
        if part & ntp == 0:
            return False
        if not join_graph.is_connected(part):
            return False
    return union == bits


def brute_force_cbds(
    join_graph: JoinGraph, bits: int, variable: Variable
) -> List[Tuple[int, int]]:
    """All cbds by trying every subset (exponential; tests only).

    Normalized so the side containing the lowest Ntp(v_j) pattern comes
    first, matching :func:`enumerate_cbds` output order conventions.
    """
    ntp = join_graph.ntp(variable) & bits
    if bs.popcount(ntp) < 2:
        return []
    anchor = bs.lowest_bit(ntp)
    results: List[Tuple[int, int]] = []
    for subset in bs.iter_proper_nonempty_subsets(bits):
        if not subset & anchor:
            continue
        complement = bits & ~subset
        if is_valid_cmd(join_graph, bits, (subset, complement), variable):
            results.append((subset, complement))
    return results


def brute_force_cmds(join_graph: JoinGraph, bits: int) -> List[CMD]:
    """All cmds by enumerating set partitions (exponential; tests only)."""
    indices = bs.to_indices(bits)
    results: List[CMD] = []
    for partition in _set_partitions(indices):
        if len(partition) < 2:
            continue
        parts = tuple(sorted(bs.from_indices(block) for block in partition))
        for variable in join_graph.join_variables:
            if is_valid_cmd(join_graph, bits, parts, variable):
                results.append((parts, variable))
    return results


def _set_partitions(items: List[int]) -> Iterator[List[List[int]]]:
    """All set partitions of *items* (standard recursive construction)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in _set_partitions(rest):
        for i, block in enumerate(partition):
            yield partition[:i] + [[first] + block] + partition[i + 1 :]
        yield [[first]] + partition


def canonical_cmd(cmd: CMD) -> Tuple[Tuple[int, ...], Variable]:
    """Sort the parts so cmds can be compared as sets."""
    parts, variable = cmd
    return (tuple(sorted(parts)), variable)
