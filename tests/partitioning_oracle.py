"""Test oracle: term-level partitioning and statistics, as they stood
before the cold path moved onto the dataset's id columns.

This is ``PartitioningMethod.partition`` with each method's ``anchors``
/ ``combine`` / ``distribute``, ``greedy_edge_cut_partition``,
``hash_term``, ``DynamicPartitioning.partition`` and
``StatisticsCatalog.from_dataset`` verbatim from the commit before
:mod:`repro.partitioning` was rewritten over
:class:`~repro.rdf.encoding.EncodedGraph`: elements are
``frozenset[Triple]``, every node is an :class:`RDFGraph` filled in
element order, adjacency and the POS permutation come from
:class:`RDFGraph`, and the hash walks ``str(term)`` one character at a
time.  They survive only here, so that ``tests/test_id_partitioning.py``
can assert that the id-level cold path places every vertex and every
triple exactly where this one does and counts what this one counts.

Hot-query matches are grounded here too (:func:`reference_matches`:
the term-tuple reference joins over ``dataset.graph``), so nothing in
this file calls the production placement code it is the oracle for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.core.cardinality import PatternStatistics, StatisticsCatalog
from repro.engine.relations import evaluate_reference
from repro.rdf.dataset import Dataset
from repro.rdf.terms import Term, Variable
from repro.rdf.triples import RDFGraph, Triple
from repro.sparql.ast import BGPQuery


def hash_term(term: Term, cluster_size: int) -> int:
    """Deterministic term-to-node hash (stable across runs and processes)."""
    text = str(term)
    value = 5381
    for char in text:
        value = ((value * 33) ^ ord(char)) & 0xFFFFFFFF
    return value % cluster_size


@dataclass
class TermPartitioning:
    """The outcome of partitioning a dataset across ``n`` nodes."""

    method_name: str
    node_graphs: List[RDFGraph]
    vertex_placement: Dict[Term, int] = field(default_factory=dict)

    def replication_factor(self, original_count: int) -> float:
        if original_count == 0:
            return 1.0
        return sum(len(g) for g in self.node_graphs) / original_count

    def imbalance(self) -> float:
        sizes = [len(g) for g in self.node_graphs]
        mean = sum(sizes) / len(sizes)
        if mean == 0:
            return 1.0
        return max(sizes) / mean


class TermMethod:
    """A static partitioning method over term-level graphs."""

    name = "abstract"

    def combine(self, vertex: Term, graph: RDFGraph) -> FrozenSet[Triple]:
        raise NotImplementedError

    def anchors(self, graph: RDFGraph) -> Iterable[Term]:
        return sorted(graph.vertices, key=str)

    def distribute(
        self, elements: Dict[Term, FrozenSet[Triple]], cluster_size: int
    ) -> Dict[Term, int]:
        raise NotImplementedError

    def partition(self, dataset: Dataset, cluster_size: int) -> TermPartitioning:
        if cluster_size < 1:
            raise ValueError("cluster size must be at least 1")
        graph = dataset.graph
        elements: Dict[Term, FrozenSet[Triple]] = {}
        for vertex in self.anchors(graph):
            element = self.combine(vertex, graph)
            if element:
                elements[vertex] = element
        placement = self.distribute(elements, cluster_size)
        node_graphs = [RDFGraph() for _ in range(cluster_size)]
        for vertex, element in elements.items():
            node = placement[vertex]
            node_graphs[node].add_all(element)
        return TermPartitioning(
            method_name=self.name,
            node_graphs=node_graphs,
            vertex_placement=placement,
        )


class TermHashSubjectObject(TermMethod):
    name = "hash-so"

    def combine(self, vertex: Term, graph: RDFGraph) -> FrozenSet[Triple]:
        return frozenset(graph.edges(vertex))

    def distribute(
        self, elements: Dict[Term, FrozenSet[Triple]], cluster_size: int
    ) -> Dict[Term, int]:
        return {vertex: hash_term(vertex, cluster_size) for vertex in elements}


class TermSemanticHash(TermMethod):
    def __init__(self, hops: int = 2) -> None:
        self.hops = hops
        self.name = f"{hops}f"

    def combine(self, vertex: Term, graph: RDFGraph) -> FrozenSet[Triple]:
        element: Set[Triple] = set()
        frontier: Set[Term] = {vertex}
        for _ in range(self.hops):
            next_frontier: Set[Term] = set()
            for v in frontier:
                for t in graph.out_edges(v):
                    if t not in element:
                        element.add(t)
                        next_frontier.add(t.object)
            frontier = next_frontier
            if not frontier:
                break
        return frozenset(element)

    def distribute(
        self, elements: Dict[Term, FrozenSet[Triple]], cluster_size: int
    ) -> Dict[Term, int]:
        return {vertex: hash_term(vertex, cluster_size) for vertex in elements}


class TermPathBMC(TermMethod):
    name = "path-bmc"

    def anchors(self, graph: RDFGraph) -> List[Term]:
        starts = sorted(
            (v for v in graph.vertices if not graph.in_edges(v)), key=str
        )
        covered = self._reachable(starts, graph)
        if len(covered) < len(graph):
            uncovered_subjects = sorted(
                {t.subject for t in graph if t not in covered}, key=str
            )
            remaining = {t for t in graph if t not in covered}
            for v in uncovered_subjects:
                if not remaining:
                    break
                reach = self._reachable([v], graph)
                if reach & remaining:
                    starts.append(v)
                    remaining -= reach
        return starts

    def combine(self, vertex: Term, graph: RDFGraph) -> FrozenSet[Triple]:
        return frozenset(self._reachable([vertex], graph))

    @staticmethod
    def _reachable(sources: List[Term], graph: RDFGraph) -> Set[Triple]:
        result: Set[Triple] = set()
        seen: Set[Term] = set(sources)
        frontier = list(sources)
        while frontier:
            v = frontier.pop()
            for t in graph.out_edges(v):
                if t not in result:
                    result.add(t)
                    if t.object not in seen:
                        seen.add(t.object)
                        frontier.append(t.object)
        return result

    def distribute(
        self, elements: Dict[Term, FrozenSet[Triple]], cluster_size: int
    ) -> Dict[Term, int]:
        loads = [0] * cluster_size
        placement: Dict[Term, int] = {}
        by_weight = sorted(
            elements.items(), key=lambda item: (-len(item[1]), str(item[0]))
        )
        for vertex, element in by_weight:
            node = min(range(cluster_size), key=lambda i: loads[i])
            placement[vertex] = node
            loads[node] += len(element)
        return placement


def greedy_edge_cut_partition(graph: RDFGraph, cluster_size: int) -> Dict[Term, int]:
    vertices = sorted(graph.vertices, key=str)
    capacity = -(-len(vertices) // cluster_size) if vertices else 0
    placement: Dict[Term, int] = {}
    part = 0
    used = 0
    queue: deque = deque()
    remaining = deque(vertices)
    while remaining or queue:
        if not queue:
            while remaining and remaining[0] in placement:
                remaining.popleft()
            if not remaining:
                break
            queue.append(remaining.popleft())
        vertex = queue.popleft()
        if vertex in placement:
            continue
        if used >= capacity and part < cluster_size - 1:
            part += 1
            used = 0
        placement[vertex] = part
        used += 1
        for neighbor in sorted(graph.neighbors(vertex), key=str):
            if neighbor not in placement:
                queue.append(neighbor)
    return placement


class TermUndirectedOneHop(TermMethod):
    name = "un-1-hop"

    def combine(self, vertex: Term, graph: RDFGraph) -> FrozenSet[Triple]:
        return frozenset(graph.edges(vertex))

    def distribute(
        self, elements: Dict[Term, FrozenSet[Triple]], cluster_size: int
    ) -> Dict[Term, int]:
        graph = RDFGraph()
        for element in elements.values():
            graph.add_all(element)
        placement = greedy_edge_cut_partition(graph, cluster_size)
        return {vertex: placement.get(vertex, 0) for vertex in elements}


def reference_matches(dataset: Dataset, hot: BGPQuery) -> List[Tuple[Term, List[Triple]]]:
    """Each hot-query match as ``(anchor term, grounded triples)``: the
    reference engine's bindings over the term-level graph, the anchor the
    match's minimal binding by string form."""
    bindings = evaluate_reference(
        BGPQuery(hot.patterns, projection=None, name=hot.name), dataset.graph
    )
    matches = []
    for binding in bindings.bindings():
        anchor = min(binding.values(), key=str)
        triples = [
            Triple(*(binding.get(term, term) for term in tp.terms()))
            for tp in hot.patterns
        ]
        assert all(t in dataset.graph for t in triples)
        matches.append((anchor, triples))
    return matches


class TermDynamicPartitioning(TermMethod):
    """A static method plus run-time co-location of hot queries and
    full replication of some predicates."""

    def __init__(
        self,
        base: TermMethod,
        hot_queries: Iterable[BGPQuery],
        replicated_predicates: Iterable[str] = (),
    ) -> None:
        self.base = base
        self.hot_queries = list(hot_queries)
        self.replicated_predicates = set(replicated_predicates)
        predicates = len(self.replicated_predicates)
        self.name = f"dynamic({base.name}+{len(self.hot_queries)}hot" + (
            f"+{predicates}pred)" if predicates else ")"
        )

    def partition(self, dataset: Dataset, cluster_size: int) -> TermPartitioning:
        partitioning = self.base.partition(dataset, cluster_size)
        for hot in self.hot_queries:
            for anchor, triples in reference_matches(dataset, hot):
                node = hash_term(anchor, cluster_size)
                partitioning.node_graphs[node].add_all(triples)
        extent = [
            t for t in dataset.graph if str(t.predicate) in self.replicated_predicates
        ]
        for graph in partitioning.node_graphs:
            graph.add_all(extent)
        partitioning.method_name = self.name
        return partitioning


def statistics_from_graph(query: BGPQuery, dataset: Dataset) -> StatisticsCatalog:
    """Exact statistics by scanning the term-level graph."""
    entries = []
    for tp in query:
        slots: List[Tuple[Variable, int]] = [
            (term, position)
            for position, term in enumerate(tp.terms())
            if isinstance(term, Variable)
        ]
        values: Dict[Variable, Set[object]] = {v: set() for v, _ in slots}
        count = 0
        for t in dataset.graph.match(tp.subject, tp.predicate, tp.object):
            count += 1
            terms = t.terms()
            for variable, position in slots:
                values[variable].add(terms[position])
        bindings: Dict[Variable, float] = {
            v: float(max(len(vals), 1)) for v, vals in values.items()
        }
        entries.append(
            PatternStatistics(cardinality=float(max(count, 1)), bindings=bindings)
        )
    return StatisticsCatalog(query, entries)
