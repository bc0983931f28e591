"""Wire-path benchmark: coalescing + delayed ACKs + delta timestamps.

The tentpole claim of the batched wire path is a constant-factor one —
the PR-1 runtime ships every frame in its own datagram, acks every DATA
frame with a standalone ACK datagram, and carries the full R-entry
timestamp on every message, so a steady bidirectional stream costs
~2 datagrams and a full vector per message.  The batched path coalesces
frames into MTU-budgeted BATCH datagrams, holds cumulative ACKs briefly
so they piggyback on reverse traffic, and delta-encodes timestamps
against the last acked full encoding.  This script measures all three
together on real loopback UDP:

* two ``create_node()`` participants at R=100, K=2 exchanging
  bidirectional bursts (the steady-state regime the ISSUE targets);
* the *same* workload run against the legacy configuration
  (``coalesce_mtu=0, ack_delay=0, wire_delta=False`` — byte-for-byte
  the PR-1 wire behaviour) and the batched defaults;
* at 0% and 25% injected datagram loss (loss forces retransmissions
  and the delta path's full-encoding fallback).

Headline metrics are *ratios within one run* — datagrams per delivered
message and wire bytes per delivered message, legacy over batched — so
machine speed cancels.  Results land in ``BENCH_wire.json`` at the repo
root; the committed copy is the baseline gated by
``check_regression.py --wire-fresh``.

Usage::

    PYTHONPATH=src python benchmarks/bench_wire.py            # full
    PYTHONPATH=src python benchmarks/bench_wire.py --quick    # CI smoke
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pathlib
import platform
import sys
import time
from typing import Optional

from repro.api import NodeConfig, create_node
from repro.net import FaultyTransport, UdpTransport
from repro.util.rng import RandomSource

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_wire.json"

HEADLINE = "steady_r100_k2_loss0"

# The legacy wire configuration: one datagram per frame, one standalone
# ACK per DATA frame, full timestamps always — PR-1's observable wire
# behaviour, kept reachable through the same knobs the batched path uses.
LEGACY = dict(coalesce_mtu=0, ack_delay=0.0, wire_delta=False)
BATCHED: dict = {}  # the NodeConfig defaults

# name -> (loss, rounds, burst)
SCENARIOS = {
    "steady_r100_k2_loss0": (0.0, 30, 8),
    "steady_r100_k2_loss25": (0.25, 30, 8),
}
QUICK = {
    "steady_r100_k2_loss0": (0.0, 10, 8),
    "steady_r100_k2_loss25": (0.25, 10, 8),
}


async def _wait_for(predicate, timeout=60.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


async def _boot(name: str, config: NodeConfig, loss: float, seed: int):
    transport = await UdpTransport.create()
    if loss > 0:
        transport = FaultyTransport(
            transport,
            drop_rate=loss,
            rng=RandomSource(seed=seed).spawn(f"wire-{name}"),
        )
    return await create_node(name, config, transport=transport)


async def _run_case(wire_kwargs: dict, loss: float, rounds: int, burst: int) -> dict:
    """One workload run; returns per-message wire metrics."""
    config = NodeConfig(
        r=100,
        k=2,
        ack_timeout=0.05,
        anti_entropy_interval=0.2,
        heartbeat_interval=0.0,
        **wire_kwargs,
    )
    left = await _boot("left", config, loss, seed=11)
    right = await _boot("right", config, loss, seed=12)
    left.add_peer(right.local_address)
    right.add_peer(left.local_address)
    total = rounds * burst * 2
    try:
        start = time.perf_counter()
        for round_index in range(rounds):
            for node, name in ((left, "left"), (right, "right")):
                for i in range(burst):
                    await node.broadcast((name, round_index, i))
            # One ack-delay's worth of gap between bursts: long enough
            # for held ACKs to either piggyback on the reverse burst or
            # flush, short enough that the stream is genuinely steady.
            await asyncio.sleep(0.005)
        converged = await _wait_for(
            lambda: len(left.deliveries) == total and len(right.deliveries) == total
        )
        elapsed = time.perf_counter() - start
        if not converged:
            raise RuntimeError(
                f"no convergence: sent={total}, delivered="
                f"left={len(left.deliveries)} right={len(right.deliveries)}"
            )
        stats = left.transport_stats().merge(right.transport_stats())
        return {
            "messages": total,
            "seconds": round(elapsed, 4),
            "msgs_per_sec": round(total / elapsed, 1),
            "datagrams_per_msg": round(stats.datagrams_sent / total, 3),
            "bytes_per_msg": round(stats.bytes_sent / total, 1),
            "datagrams_sent": stats.datagrams_sent,
            "bytes_sent": stats.bytes_sent,
            "frames_per_datagram": round(
                stats.frames_sent / stats.datagrams_sent, 2
            ) if stats.datagrams_sent else 0.0,
            "batches_sent": stats.batches_sent,
            "acks_sent": stats.acks_sent,
            "acks_piggybacked": stats.acks_piggybacked,
            "delta_sent": stats.delta_sent,
            "full_sent": stats.full_sent,
            "retransmits": stats.retransmits,
        }
    finally:
        await left.close()
        await right.close()


def run_scenario(name: str, loss: float, rounds: int, burst: int) -> dict:
    result = {
        "name": name,
        "params": {"r": 100, "k": 2, "loss": loss, "rounds": rounds, "burst": burst},
    }
    for label, kwargs in (("legacy", LEGACY), ("batched", BATCHED)):
        result[label] = asyncio.run(_run_case(kwargs, loss, rounds, burst))
    legacy, batched = result["legacy"], result["batched"]
    result["datagrams_ratio"] = round(
        legacy["datagrams_per_msg"] / batched["datagrams_per_msg"], 2
    )
    result["bytes_ratio"] = round(
        legacy["bytes_per_msg"] / batched["bytes_per_msg"], 2
    )
    result["throughput_ratio"] = round(
        batched["msgs_per_sec"] / legacy["msgs_per_sec"], 2
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: fewer rounds per scenario",
    )
    parser.add_argument(
        "--output", type=pathlib.Path, default=DEFAULT_OUTPUT,
        help=f"result JSON path (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    table = QUICK if args.quick else SCENARIOS
    scenarios = []
    for name, (loss, rounds, burst) in table.items():
        result = run_scenario(name, loss, rounds, burst)
        scenarios.append(result)
        legacy, batched = result["legacy"], result["batched"]
        print(
            f"{name:24s} msgs={legacy['messages']:4d}  "
            f"datagrams/msg {legacy['datagrams_per_msg']:.2f} -> "
            f"{batched['datagrams_per_msg']:.2f} ({result['datagrams_ratio']:.1f}x)  "
            f"bytes/msg {legacy['bytes_per_msg']:.0f} -> "
            f"{batched['bytes_per_msg']:.0f} ({result['bytes_ratio']:.1f}x)  "
            f"throughput {result['throughput_ratio']:.2f}x"
        )
        print(
            f"{'':24s} batched: frames/datagram={batched['frames_per_datagram']:.2f}  "
            f"acks piggybacked={batched['acks_piggybacked']}/{batched['acks_sent']}  "
            f"delta/full={batched['delta_sent']}/{batched['full_sent']}"
        )

    headline: Optional[dict] = next(
        (s for s in scenarios if s["name"] == HEADLINE), None
    )
    payload = {
        "meta": {
            "quick": args.quick,
            "python": platform.python_version(),
        },
        "headline": {
            "name": HEADLINE,
            "datagrams_ratio": headline["datagrams_ratio"] if headline else None,
            "bytes_ratio": headline["bytes_ratio"] if headline else None,
            "throughput_ratio": headline["throughput_ratio"] if headline else None,
        },
        "scenarios": scenarios,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.output}")
    if headline is not None:
        print(
            f"headline {HEADLINE}: {headline['datagrams_ratio']:.2f}x fewer "
            f"datagrams/msg, {headline['bytes_ratio']:.2f}x fewer bytes/msg"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
