"""Perf regression gate for the pending buffer and the overlay.

Compares a fresh ``bench_hotpath.py`` run against the committed
``BENCH_hotpath.json`` baseline and fails (exit 1) when the indexed
``PendingBuffer`` regressed by more than ``--max-drop`` (default 30 %).

The gated metric is the *speedup* — the indexed buffer's deliveries/sec
relative to the full-rescan reference buffer measured back-to-back in
the same run.  Raw deliveries/sec depends on the machine (a CI runner is
not the laptop that produced the baseline), while the within-run ratio
cancels machine speed and load; a genuine buffer regression (extra
allocation, a lost fast path, index bookkeeping creep) lowers the ratio
wherever it runs.  ``--absolute`` additionally gates raw deliveries/sec
for same-machine comparisons.

``--overlay-fresh`` gates a fresh ``bench_overlay.py`` run against the
committed ``BENCH_overlay.json``: the overlay's max per-node
datagrams/msg must stay flat (within 1.5x per doubling of N) while the
mesh's grows near-linearly (>= 1.6x per doubling) — both within-run
counter ratios, machine-independent — and per-scenario overlay costs
must not exceed the baseline by more than ``--max-drop``.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py --quick --output /tmp/fresh.json
    PYTHONPATH=src python benchmarks/bench_overlay.py --quick --output /tmp/overlay.json
    python benchmarks/check_regression.py --fresh /tmp/fresh.json \
        --overlay-fresh /tmp/overlay.json
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_hotpath.json"
DEFAULT_OVERLAY_BASELINE = REPO_ROOT / "BENCH_overlay.json"

# Scenarios whose baseline speedup is below this are dominated by
# fixed overheads, not the indexed drain; their ratio is noise-bound
# and only sanity-checked loosely (2x the tolerance).
GATE_SPEEDUP_FLOOR = 1.5

# The overlay ISSUE acceptance: as N doubles at fixed fanout, the
# overlay's max per-node datagrams/msg stays within this factor per
# doubling, while the mesh's (definitionally N-1 at the origin) grows
# by at least the linear floor per doubling.
OVERLAY_FLAT_CEILING = 1.5
MESH_LINEAR_FLOOR = 1.6


def load(path: pathlib.Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        sys.exit(f"error: {path} not found")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
        help=f"committed baseline JSON (default {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--fresh", type=pathlib.Path, required=True,
        help="freshly produced bench_hotpath.py output",
    )
    parser.add_argument(
        "--max-drop", type=float, default=0.30,
        help="maximum tolerated fractional drop (default 0.30)",
    )
    parser.add_argument(
        "--absolute", action="store_true",
        help="also gate raw deliveries/sec (same-machine runs only)",
    )
    parser.add_argument(
        "--overlay-baseline", type=pathlib.Path, default=DEFAULT_OVERLAY_BASELINE,
        help=f"committed overlay baseline JSON (default {DEFAULT_OVERLAY_BASELINE})",
    )
    parser.add_argument(
        "--overlay-fresh", type=pathlib.Path, default=None,
        help="freshly produced bench_overlay.py output (enables the overlay gate)",
    )
    args = parser.parse_args(argv)
    if not 0 < args.max_drop < 1:
        sys.exit(f"error: --max-drop must be in (0, 1), got {args.max_drop}")

    baseline = {s["name"]: s for s in load(args.baseline)["scenarios"]}
    fresh = {s["name"]: s for s in load(args.fresh)["scenarios"]}
    shared = [name for name in fresh if name in baseline]
    if not shared:
        sys.exit("error: no scenarios in common between baseline and fresh run")

    failures = []
    for name in shared:
        base_speedup = baseline[name]["speedup"]
        fresh_speedup = fresh[name]["speedup"]
        tolerance = args.max_drop
        if base_speedup < GATE_SPEEDUP_FLOOR:
            tolerance = min(0.95, 2 * args.max_drop)
        floor = base_speedup * (1 - tolerance)
        verdict = "ok" if fresh_speedup >= floor else "REGRESSED"
        print(
            f"{name:28s} speedup {base_speedup:6.2f}x -> {fresh_speedup:6.2f}x "
            f"(floor {floor:.2f}x)  {verdict}"
        )
        if fresh_speedup < floor:
            failures.append(
                f"{name}: speedup {fresh_speedup:.2f}x fell below "
                f"{floor:.2f}x ({base_speedup:.2f}x baseline, "
                f"-{tolerance:.0%} tolerance)"
            )
        if args.absolute:
            base_dps = baseline[name]["indexed"]["deliveries_per_sec"]
            fresh_dps = fresh[name]["indexed"]["deliveries_per_sec"]
            dps_floor = base_dps * (1 - args.max_drop)
            print(
                f"{'':28s} indexed {base_dps:10.1f}/s -> {fresh_dps:10.1f}/s "
                f"(floor {dps_floor:.1f}/s)"
            )
            if fresh_dps < dps_floor:
                failures.append(
                    f"{name}: deliveries/sec {fresh_dps:.1f} fell below "
                    f"{dps_floor:.1f} ({base_dps:.1f} baseline)"
                )

    checked = len(shared)
    if args.overlay_fresh is not None:
        overlay_fresh = load(args.overlay_fresh)
        overlay_baseline = {
            s["name"]: s for s in load(args.overlay_baseline)["scenarios"]
        }

        def per_doubling(growth_entry):
            """Growth per doubling of N (the run may span 1+ doublings)."""
            doublings = math.log2(
                growth_entry["n_high"] / growth_entry["n_low"]
            )
            if doublings <= 0:
                return None
            return growth_entry["datagrams_growth"] ** (1 / doublings)

        for mode, check in (
            ("overlay", lambda g: g <= OVERLAY_FLAT_CEILING),
            ("mesh", lambda g: g >= MESH_LINEAR_FLOOR),
        ):
            entry = overlay_fresh["headline"][f"{mode}_growth"]
            rate = per_doubling(entry)
            if rate is None:
                failures.append(
                    f"overlay bench: {mode} run spans a single swarm size "
                    f"(n={entry['n_low']}); cannot gate scaling"
                )
                continue
            bound = (
                f"<= {OVERLAY_FLAT_CEILING}x" if mode == "overlay"
                else f">= {MESH_LINEAR_FLOOR}x"
            )
            verdict = "ok" if check(rate) else "REGRESSED"
            print(
                f"{mode + '_scaling':28s} datagrams/msg x{rate:.2f} per "
                f"doubling over n={entry['n_low']}..{entry['n_high']} "
                f"({bound})  {verdict}"
            )
            if not check(rate):
                failures.append(
                    f"overlay bench: {mode} max per-node datagrams/msg grew "
                    f"{rate:.2f}x per doubling of N "
                    f"(n={entry['n_low']}..{entry['n_high']}, bound {bound})"
                )
        # Baseline comparison: lower is better for a cost metric, so the
        # gate is an upper bound.  Only overlay scenarios are gated this
        # way — the mesh's cost is definitionally N-1 and already pinned
        # by the linear-floor check above.  A --quick fresh run against a
        # full baseline amortizes the per-run digest overhead over fewer
        # messages, so mismatched run lengths get the loose tolerance
        # (the hot-path gate's convention for noise-bound comparisons).
        overlay_tolerance = args.max_drop
        baseline_meta = load(args.overlay_baseline).get("meta", {})
        if overlay_fresh.get("meta", {}).get("quick") != baseline_meta.get("quick"):
            overlay_tolerance = min(0.95, 2 * args.max_drop)
        overlay_checked = 2
        for name, scenario in (
            (s["name"], s) for s in overlay_fresh["scenarios"]
        ):
            if scenario["mode"] != "overlay" or name not in overlay_baseline:
                continue
            base = overlay_baseline[name]["datagrams_per_msg_max"]
            got = scenario["datagrams_per_msg_max"]
            ceiling = base * (1 + overlay_tolerance)
            verdict = "ok" if got <= ceiling else "REGRESSED"
            print(
                f"{name:28s} datagrams/msg max {base:6.2f} -> {got:6.2f} "
                f"(ceiling {ceiling:.2f})  {verdict}"
            )
            if got > ceiling:
                failures.append(
                    f"{name}: max per-node datagrams/msg {got:.2f} exceeded "
                    f"{ceiling:.2f} ({base:.2f} baseline, "
                    f"+{args.max_drop:.0%} tolerance)"
                )
            overlay_checked += 1
        checked += overlay_checked

    if failures:
        print("\nperf regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"\nperf regression gate passed ({checked} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
