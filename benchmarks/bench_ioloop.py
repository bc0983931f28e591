"""I/O-loop benchmark: syscall-batched datagram RX/TX + zero-copy decode.

The PR-1..7 runtime drives UDP through asyncio's datagram endpoint: one
event-loop wakeup per datagram, one ``bytes`` object per datagram, and a
full copy of every payload on the way to the protocol.  The batched
transport (what ``create_node()`` binds) drains up to ``rx_batch`` datagrams
per wakeup through ``recvfrom_into`` over a preallocated buffer ring,
hands the whole batch to the session in one callback, and gathers sends
into per-tick ``sendto`` bursts; the codec parses straight out of the
ring via ``memoryview`` slices and only materialises payload bytes at
the journal boundary (``retain()``).  This script measures both layers
together on real loopback UDP:

* two ``create_node()`` participants at R=100, K=2 exchanging
  bidirectional floods (the steady-UDP regime the ISSUE targets);
* the *same* workload run over an explicit ``transport=UdpTransport``
  (``legacy``: the per-datagram asyncio endpoint) and over the default
  ``BatchedUdpTransport`` (``batched``);
* with frame coalescing disabled (``flood`` — every frame is its own
  datagram, the worst case for per-datagram wakeups) and with the
  default MTU-budgeted coalescing (``steady``).

Headline metrics: **datagrams per wakeup** on the batched receive path
(the legacy endpoint is definitionally 1.0) and the end-to-end
throughput ratio batched/legacy within one run, so machine speed
cancels.  Results land in ``BENCH_ioloop.json`` at the repo root; the
committed copy is the baseline gated by ``check_regression.py
--ioloop-fresh``.

Usage::

    PYTHONPATH=src python benchmarks/bench_ioloop.py            # full
    PYTHONPATH=src python benchmarks/bench_ioloop.py --quick    # CI smoke
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
from repro.net.udp import UdpTransport

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_ioloop.json"

HEADLINE = "flood_r100_k2"

# name -> (wire_kwargs, rounds, burst)
SCENARIOS = {
    # Coalescing off: every frame is its own datagram, so the socket
    # floods and per-datagram wakeups are the bottleneck being removed.
    "flood_r100_k2": (dict(coalesce_mtu=0), 30, 32),
    # The shipping defaults: MTU-budgeted BATCH frames on top of the
    # batched socket driver.
    "steady_r100_k2": ({}, 30, 32),
}
QUICK = {
    "flood_r100_k2": (dict(coalesce_mtu=0), 10, 32),
    "steady_r100_k2": ({}, 10, 32),
}


async def _wait_for(predicate, timeout=60.0, interval=0.005):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


def _merge_io(nodes) -> Optional[dict]:
    """Sum IoStats across nodes; None when the transport has none."""
    merged: Optional[dict] = None
    for node in nodes:
        stats = getattr(node.transport, "io_stats", None)
        if stats is None:
            return None
        snap = stats.snapshot()
        if merged is None:
            merged = dict(snap)
        else:
            for key, value in snap.items():
                if key.endswith("_max"):
                    merged[key] = max(merged[key], value)
                else:
                    merged[key] += value
    return merged


def _merge_codec(nodes) -> dict:
    """Sum zero-copy codec counters (frame + message level) across nodes."""
    merged: dict = {}
    for node in nodes:
        for counters in (node.session.codec_counters, node.codec_counters):
            for key, value in counters.snapshot().items():
                merged[key] = merged.get(key, 0) + value
    return merged


async def _run_case(label: str, wire_kwargs: dict, rounds: int, burst: int) -> dict:
    config = NodeConfig(
        r=100,
        k=2,
        ack_timeout=0.05,
        anti_entropy_interval=0.2,
        heartbeat_interval=0.0,
        **wire_kwargs,
    )
    async def node(name: str):
        reference = await UdpTransport.create() if label == "legacy" else None
        return await create_node(name, config, transport=reference)

    left = await node("left")
    right = await node("right")
    left.add_peer(right.local_address)
    right.add_peer(left.local_address)
    total = rounds * burst * 2
    try:
        start = time.perf_counter()
        for round_index in range(rounds):
            # Schedule the whole bidirectional burst as concurrent
            # tasks: the sends land on the sockets back-to-back, so the
            # receive side sees a genuine flood rather than a lockstep
            # one-datagram-per-loop-iteration trickle.
            await asyncio.gather(
                *(
                    node.broadcast((name, round_index, i))
                    for node, name in ((left, "left"), (right, "right"))
                    for i in range(burst)
                )
            )
            # Let the per-tick TX flush and the peers' RX drains run so
            # the next flood starts against an empty socket buffer.
            await asyncio.sleep(0.002)
        def delivered(node) -> int:
            # The exact count: `deliveries` is a recent window, shorter
            # than a full-mode run.
            return node.endpoint.stats.sent + node.endpoint.stats.delivered

        converged = await _wait_for(
            lambda: delivered(left) == total and delivered(right) == total
        )
        elapsed = time.perf_counter() - start
        if not converged:
            raise RuntimeError(
                f"no convergence: sent={total}, delivered="
                f"left={delivered(left)} right={delivered(right)}"
            )
        result = {
            "messages": total,
            "seconds": round(elapsed, 4),
            "msgs_per_sec": round(total / elapsed, 1),
        }
        io = _merge_io((left, right))
        if io is not None:
            wakeups = max(1, io["rx_wakeups"])
            result["datagrams_per_wakeup"] = round(io["rx_datagrams"] / wakeups, 2)
            result["rx_batch_max"] = io["rx_batch_max"]
            result["tx_batch_max"] = io["tx_batch_max"]
            result["rx_budget_exhausted"] = io["rx_budget_exhausted"]
            result["tx_flushes"] = io["tx_flushes"]
            result["tx_datagrams"] = io["tx_datagrams"]
        else:
            # The asyncio endpoint wakes the loop once per datagram.
            result["datagrams_per_wakeup"] = 1.0
        codec = _merge_codec((left, right))
        result["payload_views"] = codec.get("data_payload_views", 0)
        result["batch_inner_views"] = codec.get("batch_inner_views", 0)
        result["retain_copies"] = codec.get("retain_copies", 0)
        return result
    finally:
        await left.close()
        await right.close()


def run_scenario(name: str, wire_kwargs: dict, rounds: int, burst: int) -> dict:
    result = {
        "name": name,
        "params": {
            "r": 100, "k": 2, "rounds": rounds, "burst": burst,
            "wire": wire_kwargs,
        },
    }
    for label in ("legacy", "batched"):
        result[label] = asyncio.run(_run_case(label, wire_kwargs, rounds, burst))
    legacy, batched = result["legacy"], result["batched"]
    result["throughput_ratio"] = round(
        batched["msgs_per_sec"] / legacy["msgs_per_sec"], 2
    )
    result["datagrams_per_wakeup"] = batched["datagrams_per_wakeup"]
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
    for name, (wire_kwargs, rounds, burst) in table.items():
        result = run_scenario(name, wire_kwargs, rounds, burst)
        scenarios.append(result)
        legacy, batched = result["legacy"], result["batched"]
        print(
            f"{name:20s} msgs={legacy['messages']:4d}  "
            f"datagrams/wakeup {result['datagrams_per_wakeup']:.2f} "
            f"(peak {batched.get('rx_batch_max', 0)})  "
            f"throughput {legacy['msgs_per_sec']:.0f} -> "
            f"{batched['msgs_per_sec']:.0f} msg/s "
            f"({result['throughput_ratio']:.2f}x)"
        )
        print(
            f"{'':20s} zero-copy: payload views={batched['payload_views']}  "
            f"batch inner views={batched['batch_inner_views']}  "
            f"retain copies={batched['retain_copies']}"
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
            "datagrams_per_wakeup": (
                headline["datagrams_per_wakeup"] if headline else None
            ),
            "throughput_ratio": (
                headline["throughput_ratio"] if headline else None
            ),
        },
        "scenarios": scenarios,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.output}")
    if headline is not None:
        print(
            f"headline {HEADLINE}: "
            f"{headline['datagrams_per_wakeup']:.2f} datagrams/wakeup, "
            f"{headline['throughput_ratio']:.2f}x throughput"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
