#!/usr/bin/env python3
"""Partitioning comparison: the paper's core 'partition-aware' claim.

The same UniProt-like query is optimized and executed under all four
partitioning methods (Hash-SO, 2f, Path-BMC, un-1-hop) through one
session per method (``session.run``).  Because the optimizer consumes
the generic combine/distribute model, plans shift automatically:
methods with richer locality (Path-BMC) turn distributed joins into
local ones and ship fewer tuples.

Also reports the storage side of the trade-off: replication factor and
load balance per method — locality is bought with duplicated triples.

Run:  python examples/partitioning_comparison.py
"""

from repro.core import (
    JoinGraph,
    LocalQueryIndex,
    OptimizeOptions,
    Optimizer,
    StatisticsCatalog,
)
from repro.core import bitset as bs
from repro.engine import Cluster, evaluate_reference
from repro.partitioning import (
    HashSubjectObject,
    PathBMC,
    SemanticHash,
    UndirectedOneHop,
)
from repro.workloads import generate_uniprot, uniprot_query

METHODS = [HashSubjectObject(), SemanticHash(2), PathBMC(), UndirectedOneHop()]


def main() -> None:
    dataset = generate_uniprot()
    query = uniprot_query("U2")  # the 5-pattern replacement chain
    print(f"dataset: {dataset}")
    print(f"query U2 ({JoinGraph(query).shape().value}):\n{query}\n")

    statistics = StatisticsCatalog.from_dataset(query, dataset)
    reference = evaluate_reference(query, dataset.graph)
    join_graph = JoinGraph(query)

    header = (
        f"{'partitioning':12s} {'repl.':>6s} {'imbal.':>7s} {'max MLQ':>8s} "
        f"{'est. cost':>10s} {'shipped':>8s} {'sim time':>9s} {'ok':>3s}"
    )
    print(header)
    print("-" * len(header))
    for method in METHODS:
        partitioning = method.partition(dataset, cluster_size=10)
        cluster = Cluster(partitioning)
        index = LocalQueryIndex(join_graph, method)
        largest_mlq = max(
            (bs.popcount(m) for m in index.maximal_local_queries), default=1
        )
        session = Optimizer(
            OptimizeOptions(
                algorithm="td-auto", statistics=statistics, partitioning=method
            )
        )
        session.bind_cluster(cluster)
        run = session.run(query)
        result, relation, metrics = run.result, run.relation, run.metrics
        ok = "✓" if relation.rows == reference.rows else "✗"
        print(
            f"{method.name:12s} "
            f"{partitioning.replication_factor(dataset.triple_count):6.2f} "
            f"{partitioning.imbalance():7.2f} "
            f"{largest_mlq:8d} "
            f"{result.cost:10.2f} "
            f"{metrics.total_tuples_shipped:8d} "
            f"{metrics.critical_path_cost:9.2f} {ok:>3s}"
        )

    print(
        "\nreading the table: Path-BMC's maximal local query covers all five "
        "patterns, so one local join of the whole chain is a legal plan "
        "there, but the cost model prices it above TD-Auto's pick: a "
        "broadcast of two local joins, at the same estimated cost as under "
        "Hash-SO. Locality still shows inside that plan — the first three "
        "patterns join locally in one 3-ary join, so Path-BMC ships half "
        "the tuples, has the lowest simulated time and stores the fewest "
        "copies."
    )


if __name__ == "__main__":
    main()
