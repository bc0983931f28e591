"""The loopback end-to-end benchmark: one command, four workloads.

Runs ``create_node()`` groups with shipping ``NodeConfig`` defaults on
real loopback UDP, prints every metric by name with its unit, checks
that the output is correct, and writes one result file.  Traffic crosses
the host's loopback interface, never a real link.

Usage (from the repository root; ``src/`` is put on the path for you)::

    python benchmarks/e2e/run.py                          # all workloads, untraced + traced
    python benchmarks/e2e/run.py --workload mesh4_paced   # one workload
    python benchmarks/e2e/run.py --workload mesh4_lossy --seed 7 --seconds 20 --trace 0

Each run is one fresh interpreter (``worker.py``).  An untraced
invocation also starts ``SETUP_SAMPLES - 1`` set-up-only processes first
and reports the median ``setup_s`` over all of them.  With tracing on,
the same workload runs a second time at the same size with spans
recorded; end-to-end metrics always come from the untraced run.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics
``BENCHMARK.json`` gates with ``--trace 0``, the per-layer metrics with
``--trace 1``, both with ``--trace both`` (metric names are prefixed ``<workload>:`` when more
than one workload ran).  The exit code is non-zero when any run failed
its correctness check; the result file is written either way.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SOURCE = ROOT / "src"
DEFAULT_OUT = ROOT / ".bench_e2e" / "result.json"

SETUP_SAMPLES = 5
WORKER_TIMEOUT = 170.0


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: workload names, metric names, units, bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def spawn(workload: str, seed: int, seconds: float, *, setup_only: bool = False,
          spans: Optional[pathlib.Path] = None) -> Dict[str, Any]:
    """One worker process; returns the JSON object it printed."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
    ]
    if setup_only:
        command.append("--setup-only")
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SOURCE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command += ["--spawned-at", repr(time.perf_counter())]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT, check=True,
    )
    return json.loads(done.stdout.decode("utf-8").strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: str,
                 out_dir: pathlib.Path) -> List[Dict[str, Any]]:
    """Every run one workload needs, in order; nothing is retried."""
    runs: List[Dict[str, Any]] = []
    setups: List[float] = []
    if trace != "1":
        # setup_s is gated, so it is a median over several fresh
        # processes, not one sample.
        for _ in range(SETUP_SAMPLES - 1):
            runs.append(spawn(workload, seed, seconds, setup_only=True))
            setups.append(runs[-1]["setup_s"])
    untraced = spawn(workload, seed, seconds)
    setups.append(untraced["setup_s"])
    untraced["setup_samples_s"] = setups
    untraced["end_to_end"]["setup_s"] = statistics.median(setups)
    runs.append(untraced)
    if trace != "0":
        traced = spawn(workload, seed, seconds,
                       spans=out_dir / f"spans-{workload}.jsonl")
        base = untraced["end_to_end"]["cpu_us_per_delivery"]
        traced["per_layer"]["harness.trace_overhead_ratio"] = (
            traced["end_to_end"]["cpu_us_per_delivery"] / base if base else 0.0
        )
        runs.append(traced)
    return runs


def per_layer_of(runs: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Times from the traced run, ratios and counts from the untraced
    one (the traced run's own counters stay in the result file)."""
    untraced = next(run for run in runs if "per_layer" in run and not run["traced"])
    traced = next(run for run in runs if run["traced"])
    merged = dict(traced["per_layer"])
    merged.update(untraced["per_layer"])
    return merged


def report(workload: str, runs: Sequence[Dict[str, Any]], trace: str,
           contract: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Print one workload's metrics; returns them as ``name -> {value, unit}``."""
    metrics: Dict[str, Dict[str, Any]] = {}
    untraced = next(run for run in runs if "end_to_end" in run and not run["traced"])
    print(f"== {workload}: {untraced['messages_per_sender']} msgs/sender, "
          f"{untraced['attempted']} operations, {untraced['failed']} failed"
          f"{'' if untraced['valid'] else ' -- INVALID: ' + '; '.join(untraced['problems'])}"
          f"{' -- DISTURBED' if untraced['disturbed'] else ''}")
    if trace != "1":
        for spec in contract["end_to_end"]:
            metrics[spec["name"]] = {
                "value": untraced["end_to_end"][spec["name"]], "unit": spec["unit"],
            }
        # The rest of the nine: measured on every run, judged by
        # compare.py, but too host-dependent here to be gated.
        for name, value in untraced["end_to_end"].items():
            if name not in metrics:
                print(f"  {name:<38}{value:>14.4f} (not gated)")
    if trace != "0":
        values = per_layer_of(runs)
        for spec in contract["per_layer"]:
            metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    for name, metric in metrics.items():
        print(f"  {name:<38}{metric['value']:>14.4f} {metric['unit']}")
    return metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    names = [workload["name"] for workload in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all"] + names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]),
                        help="length of the timed region on the tree the benchmark "
                             "was defined on (sets the message count)")
    parser.add_argument("--trace", default="both", choices=["0", "1", "both"],
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(untraced + traced run); both: all of them")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT,
                        help="result file; spans-<workload>.jsonl go beside it")
    args = parser.parse_args(argv)

    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: {SOURCE / 'repro'} not found: nothing to benchmark", file=sys.stderr)
        return 2
    out_dir = args.out.resolve().parent
    out_dir.mkdir(parents=True, exist_ok=True)

    selected = names if args.workload == "all" else [args.workload]
    all_runs: List[Dict[str, Any]] = []
    metrics: Dict[str, Dict[str, Any]] = {}
    for workload in selected:
        runs = run_workload(workload, args.seed, args.seconds, args.trace, out_dir)
        all_runs.extend(runs)
        prefix = f"{workload}:" if len(selected) > 1 else ""
        for name, metric in report(workload, runs, args.trace, contract).items():
            metrics[prefix + name] = metric

    measured = [run for run in all_runs if "end_to_end" in run]
    result = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "link": "host loopback interface (127.0.0.1), never a real link",
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "valid": all(run["valid"] for run in measured),
        "runs": all_runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"result file: {args.out}")

    counted = [run for run in measured if not run["traced"]]
    print(json.dumps({
        "correct": result["valid"],
        "attempted": sum(run["attempted"] for run in counted),
        "failed": sum(run["failed"] for run in counted),
        "metrics": metrics,
    }))
    return 0 if result["valid"] else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        print(f"error: worker failed: {error}", file=sys.stderr)
        sys.exit(3)
