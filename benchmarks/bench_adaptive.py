"""Adaptive clock-sizing epochs under a 7x offered-concurrency ramp, on the shipping stack.

Section 5.3 dimensions K once, from a guess of the in-flight concurrency
X; Figures 4-5 show how P_err(R, K, X) takes off when traffic outgrows
that guess.  This benchmark replays exactly that failure mode on
unmodified ``create_node()`` members (:class:`repro.sim.group.Group`
under :func:`repro.sim.vtime.run_virtual`) that form their group
through the membership protocol, on the paper's §5.4 model (Poisson
senders, N(100, 20) ms base delay plus N(d, 20) ms per-receiver skew):

* **adaptive arm** — every node runs the real controller
  (``repro.net.adaptive``, DESIGN.md §11): each second it reads X̂ off
  its detector's alert rate, and the coordinator re-tiles the group to
  ``optimal_k_int(R, X̂)`` through an epoch bump when the rate leaves the
  target band;
* **static arm** — the same group with ``adaptive=None``: K frozen at
  the geometry that was optimal at the bottom of the ramp (the paper's
  provision-once deployment).

Offered concurrency ramps X = 1 → 7 on one running group, each level
for ``LEVEL_SECONDS`` virtual seconds; a level is scored on its second
half (alerts per detector check over every node), after the controller
had the first half to settle.  ``X est`` is what the controller's
estimator reads off that alert rate at the level's (R, K), pooled over
the group.  The claim under test: the adaptive arm's settled alert
rate stays inside the band across the whole ramp while the static arm
leaves it.  X = 10 is not on the ramp: theory's best
geometry there, K = 3, has P_err = 0.1507, above the band's 0.15, so no
controller can hold it.  Results land in ``BENCH_adaptive.json`` at the
repo root; ``check_adaptive.py`` gates the same run in CI.  Every
number is a count of one seeded schedule.

Usage::

    PYTHONPATH=src:benchmarks python benchmarks/bench_adaptive.py           # full
    PYTHONPATH=src:benchmarks python benchmarks/bench_adaptive.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import platform
import sys
import time
from typing import Dict, List, Sequence

from _common import (
    DELAY_STD_MS,
    MEAN_DELAY_MS,
    SKEW_STD_MS,
    lambda_for_concurrency,
    poisson_sender,
    report,
    series_chart,
)
from repro.analysis.tables import render_table
from repro.api import AdaptivePolicy, MembershipConfig, NodeConfig
from repro.core.theory import concurrency_at_error, optimal_k_int, p_error
from repro.sim.group import Group
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_adaptive.json"

N_NODES = 24
R = 40
K_MAX = 12
BAND = (0.0, 0.15)
K_START = optimal_k_int(R, 1.0, k_max=K_MAX)
POLICY = AdaptivePolicy(interval=1.0, band=BAND, k_max=K_MAX, cooldown=0.0, min_window=20)

# Offered-concurrency levels (X at the paper's 100 ms mean delay).
FULL = (1.0, 2.0, 4.0, 7.0)
QUICK = (1.0, 4.0, 7.0)
# Virtual seconds per level: the first half settles, the second is scored.
LEVEL_SECONDS = 8.0


def config_of(adaptive: bool):
    def config(name: str) -> NodeConfig:
        seeds = () if name == "n0" else ("n0",)
        return NodeConfig(
            r=R, k=K_START, membership=MembershipConfig(seed_peers=seeds),
            adaptive=POLICY if adaptive else None,
        )
    return config


def _totals(group: Group):
    """Checks and alerts over every node's detector, and broadcasts."""
    stats = [node.endpoint.detector.stats for node in group.nodes]
    return (sum(s.checks for s in stats), sum(s.alerts for s in stats), group.sent)


async def ramp(adaptive: bool, levels: Sequence[float], seed: int) -> List[Dict[str, object]]:
    loop = asyncio.get_running_loop()
    delays = GaussianDelayModel(MEAN_DELAY_MS, DELAY_STD_MS, SKEW_STD_MS)
    group = await Group.start(N_NODES, config_of(adaptive), seed, 0.0, delays)
    rows = []
    async with group:
        coordinator = group.nodes[0]
        for index, x in enumerate(levels):
            rate = 1000.0 / lambda_for_concurrency(N_NODES, x)
            start = loop.time()
            until = start + LEVEL_SECONDS
            senders = [
                asyncio.ensure_future(
                    poisson_sender(group, node, rate, until, seed + 31 * index))
                for node in group.nodes
            ]
            bumps = coordinator.adaptive.bumps if adaptive else 0
            await asyncio.sleep(LEVEL_SECONDS / 2)
            k = coordinator.endpoint.clock.k
            checks, alerts, sent = _totals(group)
            await asyncio.sleep(until - loop.time())
            checks2, alerts2, sent2 = _totals(group)
            for sender in senders:
                sender.cancel()
            # X is what one node receives during one mean transit.
            x_measured = ((sent2 - sent) / (LEVEL_SECONDS / 2)
                          * (N_NODES - 1) / N_NODES * MEAN_DELAY_MS / 1000.0)
            alert_rate = (alerts2 - alerts) / max(1, checks2 - checks)
            rows.append({
                "x_offered": x,
                "x_measured": round(x_measured, 2),
                "x_estimate": round(concurrency_at_error(R, k, alert_rate), 2),
                "k": k,
                "settled": coordinator.endpoint.clock.k == k,
                "retiles": (coordinator.adaptive.bumps if adaptive else 0) - bumps,
                "checks": checks2 - checks,
                "alert_rate": round(alert_rate, 6),
                "predicted_p_err": round(p_error(R, k, x_measured), 6),
            })
    return rows


def run_arm(adaptive: bool, levels: Sequence[float], seed: int) -> List[Dict[str, object]]:
    """One arm of the ramp: one row per level, scored on its second half
    (``settled`` is False when K moved inside the scored half)."""
    return run_virtual(ramp(adaptive, levels, seed))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: 3 ramp levels instead of 4",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"result JSON path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    levels = QUICK if args.quick else FULL
    started = time.perf_counter()
    adaptive_rows = run_arm(True, levels, args.seed)
    static_rows = run_arm(False, levels, args.seed)
    wall = time.perf_counter() - started

    band_high = BAND[1]
    adaptive_max = max(row["alert_rate"] for row in adaptive_rows)
    static_max = max(row["alert_rate"] for row in static_rows)
    retiles = sum(row["retiles"] for row in adaptive_rows)
    final_k = adaptive_rows[-1]["k"]

    headers = ["arm", "X offered", "X meas", "X est", "K", "checks",
               "alert rate", "P_err(R,K,X)", "in band"]
    rows = []
    for arm, segments in (("adaptive", adaptive_rows), ("static", static_rows)):
        for s in segments:
            rows.append([
                arm, f"{s['x_offered']:.1f}", f"{s['x_measured']:.2f}",
                f"{s['x_estimate']:.2f}",
                s["k"], s["checks"], f"{s['alert_rate']:.4f}",
                f"{s['predicted_p_err']:.4f}",
                "yes" if s["alert_rate"] <= band_high else "NO",
            ])
    table = render_table(
        headers, rows,
        title=f"create_node() members on the virtual bus: ramp X = "
              f"{levels[0]:g} -> {levels[-1]:g}, R={R}, N={N_NODES}, K0={K_START}, "
              f"band high={band_high}, seed {args.seed} (second half of each level)",
    )
    chart = series_chart(
        "measured alert rate vs offered concurrency",
        {
            "adaptive": [(s["x_offered"], s["alert_rate"]) for s in adaptive_rows],
            "static": [(s["x_offered"], s["alert_rate"]) for s in static_rows],
            "band high": [(x, band_high) for x in levels],
        },
        x_label="offered concurrency X",
        log_y=False,
    )
    verdict = (
        f"adaptive max settled alert rate: {adaptive_max:.4f} "
        f"({'inside' if adaptive_max <= band_high else 'OUTSIDE'} the band)\n"
        f"static   max alert rate:         {static_max:.4f} "
        f"({static_max / band_high:.1f}x the band ceiling)\n"
        f"re-tiles: {retiles} (K {K_START} -> {final_k})"
    )
    report("bench_adaptive", table + "\n\n" + chart + "\n\n" + verdict)
    print(f"wall {wall:.1f}s")

    payload = {
        "meta": {
            "quick": args.quick,
            "seed": args.seed,
            "python": platform.python_version(),
            "n_nodes": N_NODES,
            "r": R,
            "k_start": K_START,
            "k_max": K_MAX,
            "band": list(BAND),
            "mean_delay_ms": MEAN_DELAY_MS,
            "levels": list(levels),
            "level_seconds": LEVEL_SECONDS,
            "wall_seconds": round(wall, 2),
        },
        "headline": {
            "adaptive_max_settled_alert_rate": adaptive_max,
            "static_max_alert_rate": static_max,
            "band_high": band_high,
            "adaptive_within_band": adaptive_max <= band_high,
            "static_within_band": static_max <= band_high,
            "retiles": retiles,
            "final_k": final_k,
        },
        "adaptive": adaptive_rows,
        "static": static_rows,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
