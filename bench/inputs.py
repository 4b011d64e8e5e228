"""Generator side: turn ``--seed`` into input files and expected outputs.

Runs in the driver process, before any clock starts.  The measured
subprocess (:mod:`worker`) receives only what is written here: N-Triples
files, SPARQL text, per-pattern statistics as JSON, and the oracle —
the rows (or the serial-search cost) each operation must reproduce.

What the seed draws and what it does not: the query *suite* — the
random generator's 55 (shape, size) queries, the 124 WatDiv templates,
L1-L10 and U1-U5 — is fixed (``SUITE_SEED``), as the paper's 116
queries and WatDiv's published templates are.  ``--seed`` draws the
*instances*: the data graphs, the statistics draws and the WatDiv
constant bindings of ``optimize_cold_mixed``, and the order of the
operations of ``optimize_parallel_random``.  Drawing the
shapes from the seed as well moves ``optimize_cold_mixed`` by 2x from
seed to seed (one dense-14 topology decides the run), which would
measure the draw and not the program.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Any, Dict, List

from repro import OptimizeOptions, Optimizer, StatisticsCatalog
from repro.core.join_graph import QueryShape
from repro.engine import evaluate_reference
from repro.partitioning import HashSubjectObject
from repro.rdf import save_ntriples
from repro.workloads import (
    WatDivGenerator,
    generate_lubm,
    generate_uniprot,
    generate_workload,
    instantiate,
    lubm_queries,
    uniprot_queries,
)

from workloads import PARTITIONERS, canonical_rows

SUITE_SEED = 2017
#: serve_* data: 81k triples.  Scale 4 (560k) takes 20 s to parse and
#: 23 s to partition, which no run budget here can hold.
SERVE_LUBM_SCALE = 2.0
ONESHOT_LUBM_QUERIES = ("L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8")
ALL_SHAPES = (
    QueryShape.CHAIN,
    QueryShape.CYCLE,
    QueryShape.STAR,
    QueryShape.TREE,
    QueryShape.DENSE,
)


def query_text(query) -> str:
    """SPARQL text for *query* that ``parse_query`` reads back.

    ``str(BGPQuery)`` joins projected variables with commas, which the
    program's own parser rejects, so the text is written here.
    """
    head = " ".join(str(v) for v in query.projection) if query.projection else "*"
    body = "\n".join(f"  {tp.subject} {tp.predicate} {tp.object} ." for tp in query)
    return f"SELECT {head} WHERE {{\n{body}\n}}\n"


def statistics_json(catalog: StatisticsCatalog) -> List[Dict[str, Any]]:
    return [
        {
            "cardinality": entry.cardinality,
            "bindings": {v.name: b for v, b in entry.bindings.items()},
        }
        for entry in catalog.per_pattern
    ]


def _oneshot(seed: int, out: Path) -> Dict[str, Any]:
    lubm = generate_lubm(1.0, seed=seed)
    uniprot = generate_uniprot(400, seed=seed)
    save_ntriples(lubm.graph, out / "lubm.nt")
    save_ntriples(uniprot.graph, out / "uniprot.nt")
    oracle: Dict[str, Any] = {}
    texts: Dict[str, str] = {}
    started = time.perf_counter()
    uniprot_names = sorted(uniprot_queries())
    for dataset, queries, names in (
        (lubm, lubm_queries(), ONESHOT_LUBM_QUERIES),
        (uniprot, uniprot_queries(), uniprot_names),
    ):
        for name in names:
            texts[name] = query_text(queries[name])
            oracle[name] = canonical_rows(evaluate_reference(queries[name], dataset.graph))
    oracle_s = time.perf_counter() - started

    ops: List[Dict[str, Any]] = []
    index: Dict[Any, int] = {}

    def op(data_file: str, name: str, partitioner: str) -> int:
        key = (name, partitioner)
        if key not in index:
            index[key] = len(ops)
            ops.append({
                "name": f"{name}/{partitioner}", "data": data_file,
                "partitioner": partitioner, "text": texts[name], "oracle": name,
            })
        return index[key]

    # A round is L1-L8, two per partitioner, plus two UniProt ops: every
    # round holds every LUBM query and weighs the partitioners equally,
    # and the 4:1 mix keeps the median operation a LUBM one (an even mix
    # would put it between the two datasets' op times).  The partitioner
    # assignment shifts by one each round: four rounds cover all 32 LUBM
    # pairs, ten all 20 UniProt pairs, and after twenty it repeats.
    k = len(PARTITIONERS)
    rounds = []
    for r in range(20):
        row = [
            op("lubm.nt", name, PARTITIONERS[(i + r) % k])
            for i, name in enumerate(ONESHOT_LUBM_QUERIES)
        ]
        for j in (2 * r, 2 * r + 1):
            row.append(op(
                "uniprot.nt", uniprot_names[j % len(uniprot_names)],
                PARTITIONERS[(j // len(uniprot_names)) % k],
            ))
        rounds.append(row)
    return {"ops": ops, "rounds": rounds, "oracle": oracle, "oracle_s": oracle_s}


def _serve(seed: int, out: Path) -> Dict[str, Any]:
    dataset = generate_lubm(SERVE_LUBM_SCALE, seed=seed)
    save_ntriples(dataset.graph, out / "lubm.nt")
    ops = []
    oracle = {}
    started = time.perf_counter()
    for name, query in lubm_queries().items():
        oracle[name] = canonical_rows(evaluate_reference(query, dataset.graph))
        ops.append({"name": name, "text": query_text(query), "oracle": name})
    return {
        "data": "lubm.nt",
        "ops": ops,
        "rounds": [list(range(len(ops)))],
        "oracle": oracle,
        "oracle_s": time.perf_counter() - started,
    }


def _optimize_op(name: str, query, statistics: StatisticsCatalog) -> Dict[str, Any]:
    return {
        "name": name,
        "text": query_text(query),
        "statistics": statistics_json(statistics),
    }


def _optimize_cold(seed: int, out: Path) -> Dict[str, Any]:
    rng = random.Random(seed)
    ops = []
    for item in generate_workload(
        shapes=ALL_SHAPES, sizes=tuple(range(4, 15)), statistics_draws=1, seed=SUITE_SEED
    ):
        ops.append(_optimize_op(
            item.query.name, item.query, StatisticsCatalog.from_random(item.query, rng)
        ))
    for template in WatDivGenerator(seed=SUITE_SEED).templates(124):
        for instance in range(2):
            query, statistics = instantiate(template, instance, rng)
            ops.append(_optimize_op(query.name, query, statistics))
    return {"ops": ops, "rounds": [list(range(len(ops)))], "oracle_s": 0.0}


def _optimize_parallel(seed: int, out: Path) -> Dict[str, Any]:
    # Ten queries cannot average out the statistics draw (their cost
    # geomean moves 40% from draw to draw), and search time does not
    # depend on it, so the draw belongs to the suite here and ``--seed``
    # only orders the operations.
    rng = random.Random(SUITE_SEED)
    ops = []
    started = time.perf_counter()
    cpu_started = time.process_time()
    for item in generate_workload(
        shapes=(QueryShape.TREE, QueryShape.DENSE),
        sizes=tuple(range(10, 15)),
        statistics_draws=1,
        seed=SUITE_SEED,
    ):
        statistics = StatisticsCatalog.from_random(item.query, rng)
        op = _optimize_op(item.query.name, item.query, statistics)
        # the oracle: the same search with one worker, whose cost the
        # process-pool search must return bit for bit
        op_started = time.perf_counter()
        serial = Optimizer(OptimizeOptions(
            algorithm="td-cmdp", statistics=statistics,
            partitioning=HashSubjectObject(), jobs=1,
        )).optimize(item.query)
        op["serial_s"] = time.perf_counter() - op_started
        op["expected_cost"] = serial.cost
        ops.append(op)
    order = list(range(len(ops)))
    random.Random(seed).shuffle(order)
    return {
        "ops": ops,
        "rounds": [order],
        "oracle_s": time.perf_counter() - started,
        "serial_cpu_s": time.process_time() - cpu_started,
    }


MAKERS = {
    "oneshot_mixed": _oneshot,
    "serve_warm_columnar": _serve,
    "serve_stream_pipelined": _serve,
    "optimize_cold_mixed": _optimize_cold,
    "optimize_parallel_random": _optimize_parallel,
}


def make_inputs(workload: str, seed: int, out: Path) -> None:
    """Write the inputs and the oracle of one workload run into *out*."""
    out.mkdir(parents=True, exist_ok=True)
    spec = MAKERS[workload](seed, out)
    spec.update(workload=workload, seed=seed)
    (out / "ops.json").write_text(json.dumps(spec), encoding="utf-8")
