"""Compare two result files of ``run.py``, metric by metric.

Usage::

    python benchmarks/e2e/compare.py BASE.json NEW.json

One row per (workload, end-to-end metric): both values, the ratio
``new / base`` and a verdict against the metric's bound (``BENCHMARK.json``
for the metrics it gates, ``UNGATED`` below for the rest) —

* ``ok``: NEW is no worse than BASE by more than the bound;
* ``regressed``: it is worse by more than the bound;
* ``unresolved``: either run was marked ``disturbed`` by the host-noise
  guard, so the row decides nothing — run it again.

``undelivered_ratio`` has an absolute rule instead of a bound: any
increase is a regression.  Exits non-zero on any ``regressed`` row.
When a file holds several untraced runs of a workload, their median is
compared.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent.parent

# The end-to-end metrics BENCHMARK.json does not gate (their run-to-run
# spread on a shared host exceeds any bound it may hold) are still
# judged here, by the bounds the benchmark was designed with.
UNGATED = (
    {"name": "deliveries_per_s", "better": "higher", "bound": 0.10},
    {"name": "cpu_us_per_delivery", "better": "lower", "bound": 0.10},
    {"name": "latency_p50_ms", "better": "lower", "bound": 0.10},
    {"name": "latency_p90_ms", "better": "lower", "bound": 0.15},
)

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


def summarise(result: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """``workload -> {"metrics": medians, "disturbed": bool}`` over the
    untraced measuring runs of one result file."""
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in result["runs"]:
        if "end_to_end" in run and not run["traced"]:
            grouped.setdefault(run["workload"], []).append(run)
    return {
        workload: {
            "metrics": {
                name: statistics.median(run["end_to_end"][name] for run in runs)
                for name in runs[0]["end_to_end"]
            },
            "disturbed": any(run["disturbed"] for run in runs),
        }
        for workload, runs in grouped.items()
    }


def verdict(base: float, new: float, better: str, bound: float) -> str:
    """``ok`` unless NEW is worse than BASE by more than ``bound`` (a
    share of BASE)."""
    if better == "lower":
        return REGRESSED if new > base * (1.0 + bound) else OK
    return REGRESSED if new < base * (1.0 - bound) else OK


def compare(base: Dict[str, Any], new: Dict[str, Any],
            contract: Dict[str, Any]) -> List[Tuple[str, str, float, float, float, str]]:
    """Rows ``(workload, metric, base, new, ratio, verdict)`` for every
    workload both files measured."""
    rows = []
    base_runs, new_runs = summarise(base), summarise(new)
    for workload in base_runs:
        if workload not in new_runs:
            continue
        old, fresh = base_runs[workload], new_runs[workload]
        noisy = old["disturbed"] or fresh["disturbed"]
        for spec in tuple(contract["end_to_end"]) + UNGATED:
            before = old["metrics"][spec["name"]]
            after = fresh["metrics"][spec["name"]]
            outcome = verdict(before, after, spec["better"], spec["bound"])
            rows.append((
                workload, spec["name"], before, after,
                after / before if before else float("inf"),
                UNRESOLVED if noisy else outcome,
            ))
        before = old["metrics"]["undelivered_ratio"]
        after = fresh["metrics"]["undelivered_ratio"]
        rows.append((
            workload, "undelivered_ratio", before, after,
            after / before if before else (1.0 if not after else float("inf")),
            REGRESSED if after > before else OK,
        ))
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=pathlib.Path)
    parser.add_argument("new", type=pathlib.Path)
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    with open(args.base, encoding="utf-8") as handle:
        base = json.load(handle)
    with open(args.new, encoding="utf-8") as handle:
        new = json.load(handle)

    rows = compare(base, new, contract)
    print(f"{'workload':<18}{'metric':<26}{'base':>14}{'new':>14}{'new/base':>10}  verdict")
    for workload, metric, before, after, ratio, outcome in rows:
        print(f"{workload:<18}{metric:<26}{before:>14.4f}{after:>14.4f}{ratio:>10.3f}  {outcome}")
    regressed = sum(1 for row in rows if row[-1] == REGRESSED)
    unresolved = sum(1 for row in rows if row[-1] == UNRESOLVED)
    print(f"{len(rows)} rows: {regressed} regressed, {unresolved} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
