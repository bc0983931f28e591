"""Overlay dissemination benchmark: per-node wire cost vs swarm size.

The tentpole claim of the relay overlay is a *scaling* one: in mesh
mode the broadcasting node pays N−1 unicast datagrams per message, so
its per-message wire cost grows linearly with the swarm; in overlay
mode every node — origin and relayers alike — pays at most ``fanout``
relay datagrams per message (plus anti-entropy digests to a bounded
view), so the worst per-node cost stays flat as N doubles.

This script measures exactly that, on a process-local swarm over the
in-process bus under virtual time (``repro.sim.vtime`` — 128 nodes in
one event loop, no loop lag, every count identical from run to run and
across ``PYTHONHASHSEED`` values):

* a **single-source workload** — one node broadcasts M messages, the
  other N−1 deliver.  The single source is deliberate: total
  datagrams/(N·M) is ~flat in *both* modes (the mesh's linear cost
  concentrates at the origin), so the honest metric is the **max
  per-node** datagrams and bytes per message, which the single source
  pins to the origin in mesh mode and to the busiest relayer in
  overlay mode;
* N ∈ {32, 64, 128} at fixed ``fanout=3, view_size=12``, both modes;
* overlay nodes bootstrap from a 4-peer ring — the piggybacked view
  gossip spreads the rest, as in production;
* an uncounted **warm-up phase** precedes the measurement and the
  per-node counters are snapshot-subtracted around the measured
  window, so view bootstrap and first-contact full-timestamp traffic
  do not pollute the steady-state numbers;
* the bus injects no loss, so the mesh runs retransmission-only
  (``anti_entropy_interval=0`` — its O(N) digest rounds would only
  blur the linear dissemination story) while the overlay keeps its
  1 s anti-entropy backstop, which relay dissemination *needs* for
  the probabilistic tail — that overhead is charged to the overlay.

Headline metrics are **growth ratios across N within one run** (max
per-node datagrams/msg at the largest N over the smallest): mesh must
grow ~linearly (≥2x per quadrupling), overlay must stay flat (≤1.5x).  Results land in ``BENCH_overlay.json`` at the
repo root; the committed copy is the baseline gated by
``check_regression.py --overlay-fresh``.

Usage::

    PYTHONPATH=src python benchmarks/bench_overlay.py            # full
    PYTHONPATH=src python benchmarks/bench_overlay.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import platform
import sys

from repro.api import NodeConfig, create_node
from repro.net import LocalAsyncBus
from repro.sim.network import GaussianDelayModel
from repro.sim.vtime import run_virtual
from repro.util.rng import RandomSource

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_overlay.json"

FANOUT = 3
VIEW_SIZE = 12
SEED_PEERS = 4

# (sizes, messages per measured run)
FULL = ((32, 64, 128), 40)
QUICK = ((32, 64), 12)
WARMUP_MESSAGES = 8


async def _wait_for(predicate, timeout=120.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


async def _run_case(mode: str, n_nodes: int, messages: int) -> dict:
    """One single-source run; returns per-node wire-cost metrics."""
    names = [f"n{i:03d}" for i in range(n_nodes)]
    bus = LocalAsyncBus(
        delay_model=GaussianDelayModel(5.0, 1.0, 0.0),
        rng=RandomSource(seed=29).spawn(f"bench-{mode}-{n_nodes}"),
    )
    config = NodeConfig(
        r=64,
        k=3,
        # The overlay's coverage backstop.  The mesh runs without it:
        # its reliable unicasts need no healing here, and charging it
        # O(N) digests per round would overstate the linear growth.
        anti_entropy_interval=(1.0 if mode == "overlay" else 0.0),
        dissemination=("overlay" if mode == "overlay" else "mesh"),
        fanout=FANOUT,
        view_size=VIEW_SIZE,
    )
    delivered = {name: 0 for name in names}

    def on_delivery(name):
        def callback(record):
            if not record.local:
                delivered[name] += 1

        return callback

    nodes = {}
    for name in names:
        nodes[name] = await create_node(
            name, config, transport=bus.attach(name),
            on_delivery=on_delivery(name),
        )
    if mode == "overlay":
        # Sparse bootstrap; view gossip does the rest.
        for i, name in enumerate(names):
            for step in range(1, SEED_PEERS + 1):
                nodes[name].add_peer(names[(i + step) % n_nodes])
    else:
        for name in names:
            for other in names:
                if other != name:
                    nodes[name].add_peer(other)

    source = names[0]
    receivers = [name for name in names if name != source]
    try:
        # Warm-up (uncounted): spreads the gossip views past the seed
        # ring and gets every link past its first-contact full
        # encodings, so the measured window is steady state.
        for i in range(WARMUP_MESSAGES):
            await nodes[source].broadcast(("warmup", i))
            await asyncio.sleep(0.02)
        warmed = await _wait_for(
            lambda: all(
                delivered[name] >= WARMUP_MESSAGES for name in receivers
            )
        )
        if not warmed:
            raise RuntimeError(f"{mode} n={n_nodes}: warm-up never converged")
        before = {name: nodes[name].transport_stats() for name in names}
        baseline = {name: delivered[name] for name in names}

        for i in range(messages):
            await nodes[source].broadcast(("msg", i))
            await asyncio.sleep(0.02)
        converged = await _wait_for(
            lambda: all(
                delivered[name] - baseline[name] == messages
                for name in receivers
            )
        )
        if not converged:
            missing = sum(
                messages - (delivered[name] - baseline[name])
                for name in receivers
            )
            raise RuntimeError(
                f"{mode} n={n_nodes}: no convergence, "
                f"{missing} deliveries outstanding"
            )
        datagrams = [
            (nodes[name].transport_stats().datagrams_sent
             - before[name].datagrams_sent) / messages
            for name in names
        ]
        wire_bytes = [
            (nodes[name].transport_stats().bytes_sent
             - before[name].bytes_sent) / messages
            for name in names
        ]
        return {
            "nodes": n_nodes,
            "messages": messages,
            "datagrams_per_msg_max": round(max(datagrams), 3),
            "datagrams_per_msg_mean": round(sum(datagrams) / n_nodes, 3),
            "bytes_per_msg_max": round(max(wire_bytes), 1),
            "bytes_per_msg_mean": round(sum(wire_bytes) / n_nodes, 1),
            "bus_datagrams_total": bus.sent,
        }
    finally:
        await asyncio.gather(*(node.close() for node in nodes.values()))


def run_scenarios(sizes, messages) -> list:
    scenarios = []
    for mode in ("mesh", "overlay"):
        for n_nodes in sizes:
            result = _result_with_name(mode, n_nodes, messages)
            scenarios.append(result)
            print(
                f"{result['name']:16s} datagrams/msg "
                f"max={result['datagrams_per_msg_max']:8.2f} "
                f"mean={result['datagrams_per_msg_mean']:6.2f}  "
                f"bytes/msg max={result['bytes_per_msg_max']:9.0f}"
            )
    return scenarios


def _result_with_name(mode: str, n_nodes: int, messages: int) -> dict:
    result = run_virtual(_run_case(mode, n_nodes, messages))
    result["name"] = f"{mode}_n{n_nodes}"
    result["mode"] = mode
    return result


def growth(scenarios, mode: str) -> dict:
    """Max-per-node datagrams/msg at the largest N over the smallest."""
    runs = sorted(
        (s for s in scenarios if s["mode"] == mode), key=lambda s: s["nodes"]
    )
    low, high = runs[0], runs[-1]
    return {
        "mode": mode,
        "n_low": low["nodes"],
        "n_high": high["nodes"],
        "datagrams_growth": round(
            high["datagrams_per_msg_max"] / low["datagrams_per_msg_max"], 2
        ),
        "bytes_growth": round(
            high["bytes_per_msg_max"] / low["bytes_per_msg_max"], 2
        ),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: smaller swarms, fewer messages",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"result JSON path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    sizes, messages = QUICK if args.quick else FULL
    scenarios = run_scenarios(sizes, messages)
    mesh_growth = growth(scenarios, "mesh")
    overlay_growth = growth(scenarios, "overlay")
    payload = {
        "meta": {
            "quick": args.quick,
            "python": platform.python_version(),
            "fanout": FANOUT,
            "view_size": VIEW_SIZE,
        },
        "headline": {
            "mesh_growth": mesh_growth,
            "overlay_growth": overlay_growth,
        },
        "scenarios": scenarios,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.output}")
    print(
        f"headline: {mesh_growth['n_low']}->{mesh_growth['n_high']} nodes, "
        f"max per-node datagrams/msg grew "
        f"{mesh_growth['datagrams_growth']:.2f}x (mesh) vs "
        f"{overlay_growth['datagrams_growth']:.2f}x (overlay, fanout {FANOUT})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
