"""Test oracle: the generator implementation of Algorithms 2, 3 and ccmd.

This is the enumeration code exactly as it stood before the flat kernel
replaced it in :mod:`repro.core.cmd` (recursive generators, one
``yield from`` per level, ``bitset.iter_bits`` walks, a
``connected_components`` call per candidate).  It survives only here,
to pin the *emission order* of the kernel: the optimizer's strict-``<``
tie-break keeps the first cheapest candidate, so two enumerators that
agree on the set of divisions but not on their order can return
different (equally cheap) plans.  ``tests/test_cmd.py`` asserts the
kernel yields the same sequences as these functions.

``divisions_td_cmd`` / ``divisions_td_cmdp`` are the old
``TopDownEnumerator.divisions`` / ``PrunedTopDownEnumerator._divisions``
bodies on top of the oracle enumerators.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import bitset as bs
from repro.core.join_graph import JoinGraph
from repro.core.plans import JoinAlgorithm
from repro.rdf.terms import Variable

CMD = Tuple[Tuple[int, ...], Variable]
Division = Tuple[Tuple[int, ...], Variable, Sequence[JoinAlgorithm]]


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
    ntp = join_graph.ntp(variable) & bits
    if bs.popcount(ntp) < 2:
        return
    components = join_graph.connected_components(bits, exclude=variable)
    component_of: Dict[int, int] = {}
    for component in components:
        for index in bs.iter_bits(component):
            component_of[index] = component
    anchor = bs.lowest_bit(ntp)
    blocked = (ntp & ~anchor) if single_anchor else 0
    yield from _cbd_rec(
        join_graph, bits, variable, ntp, component_of, 0, 0, anchor, blocked
    )


def _cbd_rec(
    join_graph: JoinGraph,
    bits: int,
    variable: Variable,
    ntp: int,
    component_of: Dict[int, int],
    sq: int,
    forbidden: int,
    anchor: int,
    blocked: int,
) -> Iterator[Tuple[int, int]]:
    """Recursive body of Algorithm 2 (CBDRec)."""
    if sq & forbidden:
        return
    if sq == bits:
        return
    if sq:
        yield (sq, bits & ~sq)
    if sq == 0:
        candidates = anchor
    else:
        candidates = join_graph.neighbors(sq) & bits & ~forbidden & ~blocked
    for index in bs.iter_bits(candidates):
        tp_bit = bs.bit(index)
        component = component_of[index]
        extension = tp_bit | _stranded_fragments(
            join_graph, component & ~(sq | tp_bit), ntp
        )
        yield from _cbd_rec(
            join_graph,
            bits,
            variable,
            ntp,
            component_of,
            sq | extension,
            forbidden,
            anchor,
            blocked,
        )
        forbidden |= tp_bit


def _stranded_fragments(join_graph: JoinGraph, rest: int, ntp: int) -> int:
    """Fragments of *rest* with no pattern adjacent to v_j (Lemmas 1–2).

    Connectivity here includes v_j (ordinary subquery connectivity), so
    all fragments that do touch v_j merge into at most one component and
    stay behind; everything else would be stranded and must be absorbed
    into the growing side.
    """
    if not rest:
        return 0
    stranded = 0
    for fragment in join_graph.connected_components(rest):
        if fragment & ntp == 0:
            stranded |= fragment
    return stranded


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
    if variables is None:
        variables = join_graph.join_variables
    for variable in variables:
        if bs.popcount(join_graph.ntp(variable) & bits) < 2:
            continue
        stack: List[int] = []
        yield from _cmd_rec(join_graph, bits, variable, stack)


def _cmd_rec(
    join_graph: JoinGraph,
    remaining: int,
    variable: Variable,
    stack: List[int],
) -> Iterator[CMD]:
    """Recursive body of Algorithm 3 (CMDRec)."""
    if stack:
        yield (tuple(stack) + (remaining,), variable)
    if bs.popcount(join_graph.ntp(variable) & remaining) == 1:
        return
    for part, rest in enumerate_cbds(join_graph, remaining, variable):
        stack.append(part)
        yield from _cmd_rec(join_graph, rest, variable, stack)
        stack.pop()


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
    if variables is None:
        variables = join_graph.join_variables
    for variable in variables:
        ntp = join_graph.ntp(variable) & bits
        degree = bs.popcount(ntp)
        if degree < 2 or degree < minimum_arity:
            continue
        stack: List[int] = []
        yield from _ccmd_rec(join_graph, bits, variable, ntp, stack, minimum_arity)


def _ccmd_rec(
    join_graph: JoinGraph,
    remaining: int,
    variable: Variable,
    ntp: int,
    stack: List[int],
    minimum_arity: int,
) -> Iterator[CMD]:
    remaining_degree = bs.popcount(ntp & remaining)
    if remaining_degree == 1:
        if len(stack) + 1 >= minimum_arity:
            yield (tuple(stack) + (remaining,), variable)
        return
    for part, rest in enumerate_cbds(
        join_graph, remaining, variable, single_anchor=True
    ):
        stack.append(part)
        yield from _ccmd_rec(join_graph, rest, variable, ntp, stack, minimum_arity)
        stack.pop()


def enumerate_cmds_pruned(
    join_graph: JoinGraph,
    bits: int,
    variables: Optional[Sequence[Variable]] = None,
) -> Iterator[CMD]:
    """The TD-CMDP division space: all cbds plus ccmds of arity > 2.

    This is the paper's ``ConnMultiDivisionPruning`` (Rule 1 applied to
    the enumeration; Rules 2–3 are applied by the optimizer itself).
    """
    if variables is None:
        variables = join_graph.join_variables
    for variable in variables:
        if bs.popcount(join_graph.ntp(variable) & bits) < 2:
            continue
        for part, rest in enumerate_cbds(join_graph, bits, variable):
            yield ((part, rest), variable)
    yield from enumerate_ccmds(join_graph, bits, variables, minimum_arity=3)


# ----------------------------------------------------------------------
# the two division spaces, as the enumerators used to spell them
# ----------------------------------------------------------------------
_BOTH = (JoinAlgorithm.BROADCAST, JoinAlgorithm.REPARTITION)
_REPARTITION_ONLY = (JoinAlgorithm.REPARTITION,)


def divisions_td_cmd(join_graph: JoinGraph, bits: int) -> Iterator[Division]:
    """TD-CMD: every cmd, with both distributed joins."""
    for parts, variable in enumerate_cmds(join_graph, bits):
        yield parts, variable, _BOTH


def divisions_td_cmdp(
    join_graph: JoinGraph,
    bits: int,
    rule1_ccmd_only: bool = True,
    rule2_binary_broadcast: bool = True,
) -> Iterator[Division]:
    """TD-CMDP: cbds plus ccmds of arity > 2 (Rule 1), Rule 2 operators."""
    multiway = _REPARTITION_ONLY if rule2_binary_broadcast else _BOTH
    if rule1_ccmd_only:
        for variable in join_graph.join_variables:
            if bs.popcount(join_graph.ntp(variable) & bits) < 2:
                continue
            for part, rest in enumerate_cbds(join_graph, bits, variable):
                yield (part, rest), variable, _BOTH
        for parts, variable in enumerate_ccmds(join_graph, bits, minimum_arity=3):
            yield parts, variable, multiway
    else:
        for parts, variable in enumerate_cmds(join_graph, bits):
            yield parts, variable, _BOTH if len(parts) == 2 else multiway
