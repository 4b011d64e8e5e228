"""Compare two result files of ``bench/run.py --runs N --output ...``.

    python3 bench/compare.py A.json B.json

A is the parent, B the change (or two sets of runs of one commit, to
see whether the benchmark agrees with itself).  One row per workload x
end-to-end metric, judged with the bound ``BENCHMARK.json`` fixes:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``improved`` — better by more than the bound;
* ``unchanged`` — within the bound, and the runs are steady enough to say so;
* ``unresolved`` — the run-to-run quartile spread of either side is
  wider than the bound, so a difference within it cannot be told from
  noise (unless every run of B beats every run of A: ``improved``).

Exits 1 if any row is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence

from summary import median, spread

ROOT = Path(__file__).resolve().parent.parent


def worsening(a: float, b: float, better: str) -> float:
    """How much worse *b* is than *a*, as a share of *a* (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    return (b - a) / a if better == "lower" else (a - b) / a


def judge(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> str:
    change = worsening(median(a), median(b), better)
    if max(spread(a), spread(b)) > bound:
        all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return "improved" if all_better else "unresolved"
    if change > bound:
        return "regression"
    return "improved" if change < -bound else "unchanged"


def compare(report_a: Dict[str, Any], report_b: Dict[str, Any],
            contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload, entry in report_a["workloads"].items():
        if workload not in report_b["workloads"]:
            continue
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a = [run["end_to_end"][name] for run in entry["runs"]]
            b = [run["end_to_end"][name] for run in report_b["workloads"][workload]["runs"]]
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "a": median(a),
                "b": median(b),
                "change": worsening(median(a), median(b), metric["better"]),
                "spread": max(spread(a), spread(b)),
                "bound": metric["bound"],
                "verdict": judge(a, b, metric["better"], metric["bound"]),
            })
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    report_a, report_b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(report_a, report_b, contract)
    print(f"{'workload':<26}{'metric':<20}{'A':>12}{'B':>12}  {'unit':<6}"
          f"{'worse by':>9}{'spread':>8}{'bound':>7}  verdict")
    for row in rows:
        print(f"{row['workload']:<26}{row['metric']:<20}{row['a']:>12.5g}{row['b']:>12.5g}  "
              f"{row['unit']:<6}{row['change']:>+9.1%}{row['spread']:>8.1%}{row['bound']:>7.0%}"
              f"  {row['verdict']}")
    verdicts = [row["verdict"] for row in rows]
    print(f"{verdicts.count('regression')} regression, {verdicts.count('unresolved')} unresolved, "
          f"{verdicts.count('improved')} improved, {verdicts.count('unchanged')} unchanged")
    return 1 if "regression" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
