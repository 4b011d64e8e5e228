"""The measured subprocess: one workload, set-up, then timed rounds.

Started by :mod:`run` once the inputs are on disk.  A fresh process per
workload run keeps ``lru_cache``s, imports and resident memory from
leaking between runs, and makes ``import repro`` part of ``setup_s``.
The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

from calibrate import Calibrator
from layers import per_layer_metrics
from spans import Recorder
from summary import geomean, median, percentile
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
#: rounds the traced run times with tracing off first, as the base of
#: ``observability.trace_overhead``
REFERENCE_ROUNDS = 1


def own_peak_rss_kib() -> int:
    """This process's resident high-water mark, from ``VmHWM``.

    Not ``ru_maxrss``: Linux carries that across ``exec``, so a fresh
    subprocess reports at least what its *parent* held when it forked —
    here the generator, with the whole dataset and oracle in memory.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def end_to_end(workload: Any, outcomes: Sequence[Any]) -> Dict[str, float]:
    """The end-to-end metrics of one run (``setup_s`` is added by the caller).

    Every time is the clock's divided by the op's ``speed`` (see
    :mod:`calibrate`).  Throughput and CPU are medians over rounds, so
    that one slow stretch of the machine moves one round and not the
    result.  Failed ops give no latency sample and count as missing
    from ``ops_per_s``.
    """
    good = [out for out in outcomes if out.ok]
    by_round: Dict[int, List[Any]] = {}
    for out in outcomes:
        by_round.setdefault(out.round, []).append(out)
    first_round = by_round[min(by_round)]

    def per_op(field: str) -> List[float]:
        """Each distinct op's median over the rounds it ran in.

        Percentiles are then taken across ops.  One pooled sample would
        put the median between the slowest runs of one query and the
        fastest of the next, where it follows the machine's noise; the
        median op's own median does not.
        """
        samples: Dict[str, List[float]] = {}
        for out in good:
            samples.setdefault(out.name, []).append(getattr(out, field) / out.speed)
        return [median(values) for values in samples.values()]

    latencies = per_op("latency_s")
    return {
        "latency_p50_ms": median(latencies) * 1e3,
        "latency_tail_ms": percentile(latencies, workload.tail_percentile) * 1e3,
        "ops_per_s": median([
            sum(out.ok for out in outs) / sum(out.latency_s / out.speed for out in outs)
            for outs in by_round.values()
        ]),
        "first_row_p50_ms": median(per_op("first_row_s")) * 1e3,
        "cpu_s_per_op": median([
            sum(out.cpu_s / out.speed for out in outs) / len(outs)
            for outs in by_round.values()
        ]),
        "peak_rss_mb": max(
            own_peak_rss_kib(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ) / 1024.0,
        # over the first round only: the same ops whatever the number
        # of rounds the machine fits in, so one seed gives one value
        "plan_cost_geomean": geomean([out.cost for out in first_round if out.ok]),
    }


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--spawned-at", required=True, type=float,
                        help="time.time() of the driver just before it started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH.parent / "src"))
    calibrator = Calibrator()
    try:
        result = measure(args, calibrator)
    finally:
        calibrator.close()
    print(json.dumps(result))
    return 0


def measure(args: argparse.Namespace, calibrator: Calibrator) -> Dict[str, Any]:
    calibrator.sample(3)
    workload = WORKLOADS[args.workload](
        args.inputs, Recorder() if args.trace else None, calibrator
    )
    workload.setup()
    calibrator.sample(3)
    ready = time.perf_counter()
    result: Dict[str, Any] = {
        "workload": workload.name,
        "setup_s": (time.time() - args.spawned_at - calibrator.spent)
        / calibrator.factor(0.0, ready),
    }
    if args.setup_only:
        return result

    cache = workload.cache
    lookups, hits = (cache.stats.lookups, cache.stats.hits) if cache else (0, 0)
    outcomes = []
    gc.collect()  # gc stays on (users pay it); start from a clean heap
    measure_started = time.perf_counter()
    round_index = 0
    while True:
        traced = workload.tracing and round_index >= REFERENCE_ROUNDS
        for op in workload.round_ops(round_index):
            outcomes.append(workload.run(op, round_index, traced))
        round_index += 1
        if time.perf_counter() - measure_started >= args.seconds and (
            traced or not workload.tracing
        ):
            break
    calibrator.sample()
    for out in outcomes:
        out.speed = calibrator.factor(out.started, out.started + out.latency_s)

    result.update(
        attempted=len(outcomes),
        failed=sum(not out.ok for out in outcomes),
        rounds=round_index,
        speed_factor=median([out.speed for out in outcomes]),
        tail_percentile=workload.tail_percentile,
        errors=workload.errors[:3],
        end_to_end=end_to_end(workload, outcomes),
    )
    if workload.tracing:
        if cache:
            lookups, hits = cache.stats.lookups - lookups, cache.stats.hits - hits
        result["per_layer"] = per_layer_metrics(
            workload, outcomes, lookups, hits, workload.after_measure()
        )
        workload.recorder.write_jsonl(BENCH / "out" / f"trace_{workload.name}.jsonl")
    return result

if __name__ == "__main__":
    sys.exit(main())
