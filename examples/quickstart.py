#!/usr/bin/env python3
"""Quickstart: parse a SPARQL query, optimize it, execute the plan.

Walks the full pipeline on a tiny social-network dataset:

1. build an RDF dataset,
2. parse a BGP query,
3. inspect its join graph,
4. optimize with TD-Auto under hash partitioning and execute the plan
   on a simulated 4-worker cluster — one ``session.run`` call,
5. check the result against single-node evaluation.

Run:  python examples/quickstart.py
"""

from repro import Dataset, OptimizeOptions, Optimizer, parse_query, triple
from repro.core import JoinGraph, StatisticsCatalog
from repro.engine import Cluster, evaluate_reference
from repro.partitioning import HashSubjectObject


def build_dataset() -> Dataset:
    """A small 'people and projects' graph."""
    ns = "http://example.org/"
    triples = []
    people = [f"{ns}person/{i}" for i in range(12)]
    for i, person in enumerate(people):
        triples.append(triple(person, f"{ns}worksOn", f"{ns}project/{i % 3}"))
        triples.append(triple(person, f"{ns}locatedIn", f"{ns}city/{i % 4}"))
        # i and i+3 work on the same project (i % 3 == (i + 3) % 3), so
        # some 'knows' edges connect colleagues and the query has matches
        triples.append(triple(person, f"{ns}knows", people[(i + 3) % len(people)]))
        triples.append(triple(person, f"{ns}knows", people[(i + 5) % len(people)]))
    for p in range(3):
        triples.append(triple(f"{ns}project/{p}", f"{ns}fundedBy", f"{ns}org/{p % 2}"))
    return Dataset.from_triples(triples, name="quickstart")


QUERY = """
PREFIX ex: <http://example.org/>
SELECT ?a ?b ?proj WHERE {
  ?a ex:knows ?b .
  ?a ex:worksOn ?proj .
  ?b ex:worksOn ?proj .
  ?proj ex:fundedBy <http://example.org/org/0> .
}
"""


def main() -> None:
    dataset = build_dataset()
    print(f"dataset: {dataset}")

    query = parse_query(QUERY, name="colleagues")
    join_graph = JoinGraph(query)
    print(f"query: {len(query)} triple patterns, shape = {join_graph.shape().value}")
    print(f"join variables: {[str(v) for v in join_graph.join_variables]}")

    # a session: statistics come straight from the dataset, locality from
    # the partitioning method; it executes on the cluster bound to it
    partitioning = HashSubjectObject()
    statistics = StatisticsCatalog.from_dataset(query, dataset)
    session = Optimizer(
        OptimizeOptions(
            algorithm="td-auto", statistics=statistics, partitioning=partitioning
        )
    )
    cluster = Cluster.build(dataset, partitioning, cluster_size=4)
    print(f"\ncluster: {cluster}")
    session.bind_cluster(cluster)
    run = session.run(query)  # optimize -> execute, one budget, one trace root
    result, relation, metrics = run.result, run.relation, run.metrics
    print(f"\noptimized with {result.algorithm} "
          f"in {result.elapsed_seconds * 1000:.2f} ms "
          f"({result.stats.plans_considered} plans considered)")
    print(f"estimated cost: {result.cost:.2f}")
    print("\nplan:")
    print(result.plan.describe())

    print(f"\nresult rows: {len(relation)}")
    print(f"tuples shipped over the network: {metrics.total_tuples_shipped}")
    print(f"simulated time (cost-model units): {metrics.critical_path_cost:.2f}")

    # sanity: distributed execution == single-node evaluation
    reference = evaluate_reference(query, dataset.graph)
    assert relation.rows == reference.rows, "distributed result mismatch!"
    print("\ndistributed result verified against single-node evaluation ✓")

    for binding in sorted(relation.bindings(), key=str)[:5]:
        print("  " + ", ".join(f"{k}={v}" for k, v in sorted(binding.items(), key=str)))


if __name__ == "__main__":
    main()
