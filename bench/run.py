"""One command for the benchmark: every metric by name, outputs checked.

    python3 bench/run.py                       # all workloads, one run each
    python3 bench/run.py --runs 5 --output A.json
    python3 bench/run.py --workload serve_warm_columnar --trace
    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

For each run this process turns ``--seed`` into input files and an
oracle (:mod:`inputs`), then starts :mod:`worker` in a fresh subprocess
that sets up, measures for ``--seconds`` seconds (whole rounds; 0 means
one round) and checks every output.  There is one generator process and
one operation in flight; nothing here can raise that.  End-to-end
metrics come from the untraced run; ``--trace`` gives the per-layer
ones.  Names, units, directions and bounds live in ``BENCHMARK.json``.

With ``--workload`` the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only if every operation was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from layers import partitioner_table
from summary import median, quartiles, spread

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
#: set-ups timed per untraced run (median reported).  The serve
#: workloads set up once: theirs is ~9 s of parsing, partitioning and
#: cold enumeration, steady to a few percent, and three of them would
#: not fit the run budget.
SETUP_SAMPLES = {
    "oneshot_mixed": 3,
    "serve_warm_columnar": 1,
    "serve_stream_pipelined": 1,
    "optimize_cold_mixed": 3,
    "optimize_parallel_random": 3,
}
#: a traced run whose spans leave more of the op wall unexplained fails
MAX_UNATTRIBUTED = 0.05
WORKER_TIMEOUT_S = 170


def spawn_worker(workload: str, inputs: Path, seconds: float, trace: int,
                 setup_only: bool = False) -> Dict[str, Any]:
    """Run :mod:`worker` to the end and return the object it printed."""
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", workload, "--inputs", str(inputs),
        "--seconds", str(seconds), "--trace", str(trace),
        "--spawned-at", repr(time.time()),
    ]
    if setup_only:
        command.append("--setup-only")
    # one fixed string-hash layout: set iteration order otherwise adds
    # run-to-run noise that no change to the program causes
    env = dict(os.environ, PYTHONHASHSEED="0")
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, env=env, start_new_session=True
    )
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)  # the worker and its search pool
        process.communicate()
        raise RuntimeError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if process.returncode != 0:
        raise RuntimeError(f"{workload}: worker exited with {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_once(workload: str, seed: int, seconds: float, trace: int) -> Dict[str, Any]:
    """Inputs, set-up samples and one measured worker; the run's result."""
    from inputs import make_inputs

    inputs = Path(tempfile.mkdtemp(prefix=f"inputs-{workload}-", dir=OUT))
    try:
        make_inputs(workload, seed, inputs)
        extra = 0 if trace else SETUP_SAMPLES[workload] - 1
        setups = [
            spawn_worker(workload, inputs, seconds, trace, setup_only=True)["setup_s"]
            for _ in range(extra)
        ]
        result = spawn_worker(workload, inputs, seconds, trace)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    result["end_to_end"]["setup_s"] = median(setups + [result.pop("setup_s")])
    return result


def environment() -> Dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def metric_group(trace: int) -> str:
    return "per_layer" if trace else "end_to_end"


def check_names(contract: Dict[str, Any], result: Dict[str, Any], trace: int) -> None:
    """The emitted metric names are exactly the declared ones."""
    group = metric_group(trace)
    declared = {entry["name"] for entry in contract[group]}
    emitted = set(result[group])
    if declared != emitted:
        raise RuntimeError(
            f"{group} names differ from BENCHMARK.json: "
            f"missing {sorted(declared - emitted)}, undeclared {sorted(emitted - declared)}"
        )


def is_correct(result: Dict[str, Any], trace: int) -> bool:
    if result["failed"]:
        return False
    return not trace or result["per_layer"]["bench.unattributed_share"] <= MAX_UNATTRIBUTED


def print_metrics(contract: Dict[str, Any], workload: str,
                  runs: Sequence[Dict[str, Any]], trace: int) -> None:
    group = metric_group(trace)
    for entry in contract[group]:
        name, unit = entry["name"], entry["unit"]
        values = [run[group][name] for run in runs]
        note = ""
        if name == "latency_tail_ms":
            note = f"  (p{runs[0]['tail_percentile']} of {runs[0]['attempted']} ops)"
        if len(values) == 1:
            print(f"{workload} {name} {values[0]:.6g} {unit}{note}")
        else:
            q1, q2, q3 = quartiles(values)
            print(f"{workload} {name} {q2:.6g} {unit}  q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread(values):.3f}{note}")
    if trace and workload == "oneshot_mixed":
        print(partitioner_table(runs[-1]["per_layer"]))


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract_path = ROOT / "BENCHMARK.json"
    if not contract_path.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"bench/run.py: no program to measure under {ROOT} "
              "(need BENCHMARK.json and src/repro)", file=sys.stderr)
        return 2
    contract = json.loads(contract_path.read_text(encoding="utf-8"))
    names = [entry["name"] for entry in contract["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all of them")
    parser.add_argument("--seed", type=int, default=2017)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="measured time per run; whole rounds, 0 = one round")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="traced run: per-layer metrics instead of end-to-end ones")
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--output", type=Path, default=OUT / "result.json")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT / "src"))
    report: Dict[str, Any] = {
        "environment": environment(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": {},
    }
    correct = True
    last: Dict[str, Any] = {}
    for workload in [args.workload] if args.workload else names:
        runs: List[Dict[str, Any]] = []
        for _ in range(args.runs):
            last = run_once(workload, args.seed, args.seconds, args.trace)
            check_names(contract, last, args.trace)
            for error in last["errors"]:
                print(f"{workload} FAILED {error}", file=sys.stderr)
            correct = correct and is_correct(last, args.trace)
            runs.append(last)
        print_metrics(contract, workload, runs, args.trace)
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print(f"{workload} failed_share {failed / attempted:.6g} fraction  "
              f"({failed} of {attempted} ops, {runs[-1]['rounds']} rounds)")
        report["workloads"][workload] = {"runs": runs}
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(report, indent=1), encoding="utf-8")

    if args.workload:
        group = metric_group(args.trace)
        units = {entry["name"]: entry["unit"] for entry in contract[group]}
        print(json.dumps({
            "correct": correct,
            "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in last[group].items()
            },
        }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
