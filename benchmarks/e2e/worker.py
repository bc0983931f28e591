"""One workload in one process: build the group, warm it up, run the
timed region, check the output, report.

``run.py`` starts this file in a fresh interpreter per run, so peak RSS
and garbage-collector state never leak from one workload into the next.
Everything runs on one event loop in one thread — the nodes share the
loop, so a second generator thread would only fight them for the GIL.

The harness owns the seed.  The program under test only ever sees the
generated payloads ``[sender_index, i]`` (about 12 B of JSON: the
smallest message, where per-message cost and timestamp overhead
dominate) and, for the lossy workload, a fault injector whose random
stream is spawned from the seed.

An *operation* is one expected remote delivery.  It fails if it has not
happened ``DRAIN_DEADLINE`` seconds after the last broadcast, or if it
happens twice.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

import layers
from spans import Tracer

DRAIN_DEADLINE = 30.0
# A closed loop issues a fixed number of messages, but never for longer
# than this multiple of --seconds: a disturbed host shortens the run
# instead of stretching it past the driver's time limits.
TIME_CAP = 1.25
CALIBRATION_ROUNDS = 15_000


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs.

    ``rate`` is broadcasts per second per sender: the offered rate of an
    open loop, and for a closed loop the nominal rate that turns
    ``--seconds`` into a fixed message count (the same work on every
    tree: a faster tree finishes it sooner, and ``TIME_CAP`` cuts it
    short on a host too slow to finish it in time).
    """

    name: str
    nodes: int
    closed_loop: bool
    rate: float
    warmup: int
    config: Dict[str, Any] = field(default_factory=dict)
    faults: Dict[str, Any] = field(default_factory=dict)

    def messages_per_sender(self, seconds: float) -> int:
        return max(1, round(self.rate * seconds))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("mesh4_saturate", nodes=4, closed_loop=True, rate=128.0, warmup=100),
        Workload("mesh4_paced", nodes=4, closed_loop=False, rate=60.0, warmup=100),
        Workload(
            "mesh4_lossy", nodes=4, closed_loop=True, rate=128.0, warmup=100,
            faults=dict(drop_rate=0.05, reorder_rate=0.10, reorder_delay=(0.002, 0.02)),
        ),
        Workload(
            "overlay16_paced", nodes=16, closed_loop=False, rate=2.0, warmup=10,
            config=dict(dissemination="overlay"),
        ),
    )
}


# ----------------------------------------------------------------------
# measurement helpers
# ----------------------------------------------------------------------


def percentile(ordered: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 when empty)."""
    if not ordered:
        return 0.0
    rank = math.ceil(len(ordered) * fraction - 1e-9)
    return ordered[min(len(ordered), max(1, rank)) - 1]


def calibrate() -> float:
    """Seconds a fixed allocation-free pure-Python loop takes: the best
    of three passes of about 0.07 s (one pass alone wanders by 10 % on
    a calm host).  Run before and after the timed region: if the two
    differ, something else was using the machine."""
    best = math.inf
    inner = range(200)  # cached small ints only: no allocator in the loop
    for _pass in range(3):
        begun = time.perf_counter()
        acc = 0
        for _ in range(CALIBRATION_ROUNDS):
            for j in inner:
                acc = (acc + j) & 127
        best = min(best, time.perf_counter() - begun)
    return best


def stolen_seconds() -> float:
    """CPU time the hypervisor took from this machine so far (the
    ``steal`` column of ``/proc/stat``; 0 where there is none).  On a
    shared host this, not the calibration loop, is what tells a calm
    run from a disturbed one."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            return int(handle.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


class DeliveryLedger:
    """Which operations happened, when, and how often.

    Message ``i`` of sender ``s`` is *due* at ``due[s][i]``; every remote
    delivery of it is recorded against that stamp.  All nodes live in one
    process and share the clock, so no stamp has to travel on the wire.

    Args:
        nodes: group size N; each message is owed to N-1 receivers.
        messages: messages per sender over the whole run (warm-up
            included — indices are global).
    """

    def __init__(self, nodes: int, messages: int) -> None:
        self.nodes = nodes
        self.due = [[0.0] * messages for _ in range(nodes)]
        self._counts = [
            [bytearray(messages) for _ in range(nodes)] for _ in range(nodes)
        ]
        self.latencies: List[float] = []
        self._low = 0
        self._highs = [0] * nodes
        self._remaining = 0
        self.done = asyncio.Event()
        self.finished_at = 0.0
        self.finished_cpu = 0.0

    def expect(self, low: int, high: int) -> None:
        """Await indices ``[low, high)`` of every sender at every other
        node; starts a fresh latency sample."""
        self._low = low
        self._highs = [high] * self.nodes
        self._remaining = (high - low) * self.nodes * (self.nodes - 1)
        self.latencies = []
        self.done.clear()

    def truncate(self, sender: int, high: int, now: float) -> None:
        """``sender`` stopped early: its indices from ``high`` on were
        never issued and are not owed to anyone."""
        self._remaining -= (self._highs[sender] - high) * (self.nodes - 1)
        self._highs[sender] = high
        if self._remaining == 0:
            self.finish(now)

    def finish(self, now: float) -> None:
        """Stamp the end of the awaited range (last delivery, or the
        drain deadline)."""
        self.finished_at = now
        self.finished_cpu = time.process_time()
        self.done.set()

    def record(self, receiver: int, sender: int, index: int, now: float) -> bool:
        """One remote delivery; False when it is a repeat."""
        counts = self._counts[receiver][sender]
        if counts[index]:
            if counts[index] < 255:
                counts[index] += 1
            return False
        counts[index] = 1
        if self._low <= index < self._highs[sender]:
            self.latencies.append(now - self.due[sender][index])
            self._remaining -= 1
            if self._remaining == 0:
                self.finish(now)
        return True

    def account(self) -> Dict[str, int]:
        """Attempted / missing / duplicated operations of the awaited range."""
        attempted = missing = duplicated = 0
        for receiver in range(self.nodes):
            for sender in range(self.nodes):
                if sender == receiver:
                    continue
                window = self._counts[receiver][sender][self._low:self._highs[sender]]
                attempted += len(window)
                missing += window.count(0)
                duplicated += len(window) - window.count(0) - window.count(1)
        return {"attempted": attempted, "missing": missing, "duplicated": duplicated}


async def closed_loop(node, sender: int, low: int, high: int, ledger: DeliveryLedger,
                      deadline: float = math.inf,
                      clock: Callable[[], float] = time.perf_counter) -> None:
    """One client: the next broadcast is issued when the previous
    ``await node.broadcast()`` returns; due = issued.  Past ``deadline``
    the client stops and hands the unissued rest back to the ledger, so
    a slow host shortens the run instead of stretching it."""
    due = ledger.due[sender]
    for index in range(low, high):
        now = clock()
        if now >= deadline:
            ledger.truncate(sender, index, now)
            return
        due[index] = now
        await node.broadcast([sender, index])


async def open_loop(node, sender: int, low: int, high: int, ledger: DeliveryLedger,
                    start: float, interval: float, lags: List[float],
                    clock: Callable[[], float] = time.perf_counter,
                    sleep: Callable[[float], Any] = asyncio.sleep) -> None:
    """One sender on a schedule: message ``k`` is due at ``start + k *
    interval`` whatever happened to its predecessors, and its latency is
    counted from then — a stall is charged to every message it delays.
    ``lags`` collects how late the generator itself ran."""
    due = ledger.due[sender]
    for index in range(low, high):
        due_at = start + (index - low) * interval
        delay = due_at - clock()
        if delay > 0:
            await sleep(delay)
        lags.append(max(0.0, clock() - due_at))
        due[index] = due_at
        await node.broadcast([sender, index])


def delivery_handler(receiver: int, node_id: str, fanout: int,
                     ledger: DeliveryLedger, oracle) -> Callable:
    """The ``on_delivery`` callback of one node: feeds the ledger and the
    ground-truth causality oracle."""
    def on_delivery(record) -> None:
        message = record.message
        now = time.perf_counter()
        if record.local:
            oracle.on_send(node_id, message.message_id, now, fanout=fanout)
            return
        sender, index = message.payload
        if ledger.record(receiver, sender, index, now):
            oracle.classify_delivery(node_id, message.message_id, now)

    return on_delivery


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------


async def build_group(workload: Workload, seed: int, handlers: Sequence[Callable]):
    """``create_node()`` x N on loopback UDP with shipping defaults."""
    from repro.api import NodeConfig, create_node
    from repro.net.faults import FaultyTransport
    from repro.net.udp import BatchedUdpTransport
    from repro.util.rng import RandomSource

    config = NodeConfig(**workload.config)
    nodes = []
    for index, handler in enumerate(handlers):
        transport = None
        if workload.faults:
            # The socket create_node() would have bound itself, wrapped.
            inner = await BatchedUdpTransport.create(
                host=config.host, port=config.port,
                rx_batch=config.rx_batch, tx_batch=config.tx_batch,
            )
            transport = FaultyTransport(
                inner, rng=RandomSource(seed).spawn(f"faults/n{index}"),
                **workload.faults,
            )
        nodes.append(
            await create_node(f"n{index}", config, transport=transport, on_delivery=handler)
        )
    for node in nodes:
        for peer in nodes:
            if peer is not node:
                node.add_peer(peer.local_address)
    return config, nodes


async def drive(workload: Workload, nodes, ledger: DeliveryLedger,
                low: int, high: int, paced: bool,
                time_cap: float = math.inf) -> Dict[str, Any]:
    """Issue messages ``[low, high)`` from every sender (closed-loop
    clients give up ``time_cap`` seconds in) and wait until every
    operation happened or the drain deadline passed."""
    ledger.expect(low, high)
    lags: List[float] = []
    started = time.perf_counter()
    cpu_started = time.process_time()
    if paced:
        interval = 1.0 / workload.rate
        clients = [
            open_loop(node, sender, low, high, ledger,
                      started + sender * interval / len(nodes), interval, lags)
            for sender, node in enumerate(nodes)
        ]
    else:
        clients = [
            closed_loop(node, sender, low, high, ledger, started + time_cap)
            for sender, node in enumerate(nodes)
        ]
    await asyncio.gather(*clients)
    try:
        await asyncio.wait_for(ledger.done.wait(), DRAIN_DEADLINE)
    except asyncio.TimeoutError:
        ledger.finish(time.perf_counter())
    return {
        "wall_s": ledger.finished_at - started,
        "cpu_s": ledger.finished_cpu - cpu_started,
        "lags": lags,
    }


async def run_workload(workload: Workload, seed: int, seconds: float,
                       spawned_at: float, setup_only: bool,
                       tracer: Optional[Tracer]) -> Dict[str, Any]:
    from repro.core.theory import p_error
    from repro.sim.oracle import CausalityOracle

    count = workload.messages_per_sender(seconds)
    ledger = DeliveryLedger(workload.nodes, workload.warmup + count)
    oracle = CausalityOracle(capacity=workload.nodes)
    handlers = []
    for index in range(workload.nodes):
        oracle.register_node(f"n{index}")
        handler = delivery_handler(
            index, f"n{index}", workload.nodes - 1, ledger, oracle
        )
        if tracer is not None:
            handler = tracer.wrap_sync(handler, layers.HARNESS_DELIVERY)
        handlers.append(handler)
    config, nodes = await build_group(workload, seed, handlers)
    try:
        # Warm-up is part of set-up: a short closed-loop burst, fully
        # delivered, so tables, views and link state exist before timing.
        await drive(workload, nodes, ledger, 0, workload.warmup, paced=False)
        warm = ledger.account()
        setup_s = time.perf_counter() - spawned_at
        result: Dict[str, Any] = {
            "workload": workload.name,
            "traced": tracer is not None,
            "setup_s": setup_s,
            "warmup_failed": warm["missing"] + warm["duplicated"],
        }
        if setup_only:
            return result

        await asyncio.sleep(0.05)  # let the warm-up's delayed acks leave
        calibration_before = calibrate()
        stolen_before = stolen_seconds()
        before = layers.snapshot_counters(nodes, oracle)
        if tracer is not None:
            tracer.reset()
        timed = await drive(
            workload, nodes, ledger, workload.warmup, workload.warmup + count,
            paced=not workload.closed_loop, time_cap=TIME_CAP * seconds,
        )
        last_span = len(tracer) if tracer is not None else 0
        stolen = stolen_seconds() - stolen_before
        after = layers.snapshot_counters(nodes, oracle)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        calibration_after = calibrate()

        begun = time.perf_counter()
        for node in nodes:
            node.metrics.snapshot()
        snapshot_ms = (time.perf_counter() - begun) * 1e3 / len(nodes)
    finally:
        await asyncio.gather(*(node.close() for node in nodes))

    account = ledger.account()
    failed = account["missing"] + account["duplicated"]
    operations = account["attempted"] - account["missing"]
    delta = {name: after[name] - before.get(name, 0) for name in after}
    delta["pending.peak"] = after["pending.peak"]
    latencies = sorted(ledger.latencies)
    lags = sorted(timed["lags"])
    p50 = percentile(latencies, 0.50)
    deliveries_per_s = operations / timed["wall_s"]
    cpu_us = timed["cpu_s"] * 1e6 / max(1, operations)

    end_to_end = {
        "setup_s": setup_s,
        "deliveries_per_s": deliveries_per_s,
        "cpu_us_per_delivery": cpu_us,
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": percentile(latencies, 0.90) * 1e3,
        "wire_bytes_per_delivery": delta["wire.bytes_sent"] / max(1, operations),
        "datagrams_per_delivery": delta["wire.datagrams_sent"] / max(1, operations),
        "undelivered_ratio": failed / account["attempted"],
        "peak_rss_mb": peak_rss_mb,
    }
    per_layer = layers.counter_metrics(delta, max(1, operations))
    spread = abs(calibration_after - calibration_before) / calibration_before
    steal_ratio = stolen / timed["wall_s"]
    # The time-based end-to-end metrics are not gated by BENCHMARK.json
    # (this host's speed varies too much between runs); it lists them
    # as per-layer metrics under these names.
    per_layer.update({
        f"harness.{name}": end_to_end[name]
        for name in ("deliveries_per_s", "cpu_us_per_delivery",
                     "latency_p50_ms", "latency_p90_ms")
    })
    per_layer.update({
        "harness.steal_ratio": steal_ratio,
        "obs.snapshot_ms": snapshot_ms,
        "harness.generator_lag_p99_ms": percentile(lags, 0.99) * 1e3,
        "harness.latency_p99_ms": percentile(latencies, 0.99) * 1e3,
        "harness.latency_p999_ms": percentile(latencies, 0.999) * 1e3,
        "harness.latency_samples": len(latencies),
        "harness.calibration_spread": spread,
    })

    # Little's law on what the harness itself measured: messages in
    # flight towards one receiving node.
    concurrency = deliveries_per_s / workload.nodes * p50
    violation_bound = max(10.0 * p_error(config.r, config.k, max(concurrency, 1e-9)), 0.005)
    problems = []
    if account["missing"]:
        problems.append(f"{account['missing']} operations missing at the deadline")
    if account["duplicated"]:
        problems.append(f"{account['duplicated']} operations delivered twice")
    if delta["node.decode_errors"] or delta["session.frame_errors"]:
        problems.append("decode errors on the wire")
    if per_layer["protocol.causal_violation_ratio"] > violation_bound:
        problems.append(
            f"causal violation ratio {per_layer['protocol.causal_violation_ratio']:.4f} "
            f"exceeds {violation_bound:.4f}"
        )

    result.update({
        "messages_per_sender": account["attempted"] // (workload.nodes * (workload.nodes - 1)),
        "attempted": account["attempted"],
        "failed": failed,
        "missing": account["missing"],
        "duplicated": account["duplicated"],
        "valid": not problems,
        "problems": problems,
        "disturbed": spread > 0.05 or steal_ratio > 0.01,
        "calibration_s": [calibration_before, calibration_after],
        "concurrency_estimate": concurrency,
        "violation_bound": violation_bound,
        "wall_s": timed["wall_s"],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "counters": delta,
    })
    if tracer is not None:
        totals = tracer.totals(0, last_span)
        spans = layers.span_metrics(totals, tracer.awaited, max(1, operations))
        lines = layers.budget(totals, max(1, operations))
        spans["harness.unattributed_us"] = cpu_us - sum(lines.values())
        result["per_layer"].update(spans)
        result["budget_us"] = lines
        result["spans"] = layers.span_summary(totals)
        result["span_count"] = last_span
    return result


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.perf_counter() of the parent when it started this process")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="trace the run and write its spans to this file")
    args = parser.parse_args(argv)

    tracer = None
    if args.spans:
        tracer = Tracer()
        layers.install(tracer)
    try:
        result = asyncio.run(run_workload(
            WORKLOADS[args.workload], args.seed, args.seconds,
            args.spawned_at, args.setup_only, tracer,
        ))
    finally:
        if tracer is not None:
            tracer.unpatch_all()
    if tracer is not None and not args.setup_only:
        tracer.write_jsonl(args.spans, 0, result["span_count"])
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
