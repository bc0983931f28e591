"""Alternating paired runs of the end-to-end benchmark on two trees.

Usage::

    python benchmarks/pairs.py BASE_TREE NEW_TREE --workload mesh4_saturate --pairs 10

Each tree is a checkout of this repository (``git archive`` / ``git
clone`` of the parent commit for BASE_TREE, the working tree for
NEW_TREE).  Every pair runs each tree's *own* ``benchmarks/e2e/run.py
--workload W --trace 0`` once, in a fresh process with the tree as its
working directory, and pairs alternate which side goes first so slow
drift of the host cancels.  Every run's result file is kept under
``--out`` as ``<workload>-<pair>-<base|new>.json``; nothing is retried
or discarded, and a run that fails its correctness check is counted and
reported, not hidden.

Printed per metric: both medians, the distance between the quartiles of
BASE's runs (its run-to-run spread) and in how many pairs NEW read
better (ties count for neither side).  By the repository's rule a gain
needs at least nine tenths of the pairs *and* a median difference
beyond that spread; a difference inside it decides nothing.  The
end-to-end metrics come first (``BENCHMARK.json``'s gated four, then
the time-based ones it lists as ``harness.*``), then the per-layer
counters an untraced run reports.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence

SIDES = ("base", "new")


def run_once(tree: pathlib.Path, workload: str, seed: int,
             seconds: Optional[float], out: pathlib.Path) -> Dict[str, Any]:
    """One ``run.py`` invocation of ``tree``; returns its untraced
    measuring run (the set-up-only samples are folded into it)."""
    command = [
        sys.executable, str(tree / "benchmarks" / "e2e" / "run.py"),
        "--workload", workload, "--trace", "0", "--seed", str(seed), "--out", str(out),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    # Exit code 1 is "ran, but incorrect": the file is still written.
    done = subprocess.run(command, cwd=tree, stdout=subprocess.DEVNULL)
    if done.returncode not in (0, 1):
        raise SystemExit(f"error: {' '.join(command)} exited {done.returncode}")
    with open(out, encoding="utf-8") as handle:
        result = json.load(handle)
    return next(run for run in result["runs"] if "end_to_end" in run)


def metric_specs(tree: pathlib.Path) -> List[Dict[str, Any]]:
    """Names and directions from the tree's ``BENCHMARK.json``: the
    gated end-to-end metrics, the ``harness.*`` ones, the other layers."""
    with open(tree / "BENCHMARK.json", encoding="utf-8") as handle:
        contract = json.load(handle)
    layers = contract["per_layer"]
    harness = [spec for spec in layers if spec["name"].startswith("harness.")]
    return contract["end_to_end"] + harness + [s for s in layers if s not in harness]


def value_of(run: Dict[str, Any], name: str) -> Optional[float]:
    for block in ("end_to_end", "per_layer"):
        if name in run[block]:
            return float(run[block][name])
    return None


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles (0 with fewer than two runs)."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def table(runs: Dict[str, List[Dict[str, Any]]], specs: Sequence[Dict[str, Any]]) -> List[str]:
    lines = [f"{'metric':<38}{'base median':>14}{'new median':>14}{'change':>9}"
             f"{'base IQR':>12}  better in"]
    for spec in specs:
        name = spec["name"]
        base = [value_of(run, name) for run in runs["base"]]
        new = [value_of(run, name) for run in runs["new"]]
        if None in base or None in new:
            continue  # a span-time metric: traced runs only
        sign = -1.0 if spec["better"] == "lower" else 1.0
        wins = sum(sign * (n - b) > 0 for b, n in zip(base, new))
        losses = sum(sign * (n - b) < 0 for b, n in zip(base, new))
        base_median, new_median = statistics.median(base), statistics.median(new)
        change = (new_median / base_median - 1.0) if base_median else 0.0
        iqr = spread(base)
        beyond = abs(new_median - base_median) > iqr
        note = ""
        if beyond:
            note = "  better > IQR" if sign * (new_median - base_median) > 0 else "  WORSE > IQR"
        lines.append(
            f"{name:<38}{base_median:>14.4f}{new_median:>14.4f}{change:>+9.1%}"
            f"{iqr:>12.4f}  {wins} of {len(base)} (worse in {losses}){note}"
        )
    return lines


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_tree", type=pathlib.Path, metavar="BASE_TREE")
    parser.add_argument("new_tree", type=pathlib.Path, metavar="NEW_TREE")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-region length handed to both trees' run.py "
                             "(default: each tree's BENCHMARK.json run_seconds)")
    parser.add_argument("--out", type=pathlib.Path,
                        default=pathlib.Path(".bench_e2e") / "pairs",
                        help="directory that keeps every run's result file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"base": args.base_tree.resolve(), "new": args.new_tree.resolve()}
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)

    runs: Dict[str, List[Dict[str, Any]]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            path = out / f"{args.workload}-{pair:02d}-{side}.json"
            run = run_once(trees[side], args.workload, args.seed, args.seconds, path)
            runs[side].append(run)
            print(f"pair {pair + 1}/{args.pairs} {side:<4} "
                  f"cpu_us_per_delivery={run['end_to_end']['cpu_us_per_delivery']:.1f} "
                  f"failed={run['failed']}/{run['attempted']}"
                  f"{'' if run['valid'] else ' INVALID'}"
                  f"{' disturbed' if run['disturbed'] else ''}  {path}", flush=True)

    print(f"\n== {args.workload}: {args.pairs} alternating pairs, seed {args.seed}, "
          f"base={trees['base']} new={trees['new']}")
    for side in SIDES:
        print(f"{side}: {sum(not run['valid'] for run in runs[side])} invalid runs, "
              f"{sum(run['failed'] for run in runs[side])} failed of "
              f"{sum(run['attempted'] for run in runs[side])} operations, "
              f"{sum(run['disturbed'] for run in runs[side])} disturbed runs")
    print("\n".join(table(runs, metric_specs(trees["new"]))))
    return 0 if all(run["valid"] for side in SIDES for run in runs[side]) else 1


if __name__ == "__main__":
    sys.exit(main())
