"""Metered chaos soak: four lossy UDP nodes exporting metrics JSONL.

The observability acceptance scenario, runnable standalone and in CI's
bench-smoke job: four real ``create_node()`` participants under 20%
datagram loss (plus duplication and reordering) broadcast on disjoint
key sets until full convergence, each exporting periodic registry
snapshots to ``results/metered_soak/<name>.metrics.jsonl``.  The script
then merges the per-node exports fleet-wide and **fails (exit 1)** if
the pipeline was dead anywhere:

* ``repro_detector_checks_total`` must be nonzero (the alert pipeline
  ran on every delivery);
* the wire counters must show real traffic and real repair
  (``datagrams_sent``, ``retransmits``);
* the pending-depth gauge must have been exported;
* the delivery-latency histogram must have observed every delivery;
* the failure detector must have run (heartbeats sent or suppressed)
  without quarantining anyone: every node stayed up throughout.

The merged snapshot is written to ``results/metered_soak/merged.json``
and the JSONL files are what CI uploads as the run artifact.  Render
them interactively with ``python -m repro stats results/metered_soak/*.jsonl``.

``--profile`` additionally runs the soak under :mod:`cProfile` (the
sampling profilers aren't installable here) and drops both the raw
``soak.prof`` dump and a cumulative-time text summary into the output
directory, so every CI run ships a hot-path profile in its artifact.
"""

import argparse
import asyncio
import cProfile
import io
import json
import pathlib
import pstats
import shutil
import sys

from repro.api import LivenessPolicy, NodeConfig, RetransmitPolicy, create_node
from repro.analysis.tables import render_table
from repro.net import BatchedUdpTransport, FaultyTransport
from repro.obs import Histogram, last_snapshot, merge_snapshots
from repro.util.rng import RandomSource

from _common import RESULTS_DIR

NAMES = ("a", "b", "c", "d")
FAULTS = dict(drop_rate=0.20, duplicate_rate=0.10, reorder_rate=0.10)


async def wait_for(predicate, timeout=60.0, interval=0.01):
    deadline = asyncio.get_running_loop().time() + timeout
    while asyncio.get_running_loop().time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


async def run_soak(out_dir, rounds):
    config = NodeConfig(
        r=64, k=3, retransmit=RetransmitPolicy(initial_timeout=0.02),
        anti_entropy_interval=0.1,
        liveness=LivenessPolicy(heartbeat_interval=0.05, quarantine_after=1.0),
        metrics_interval=0.2,
    )
    keys = {name: tuple(range(3 * i, 3 * i + 3)) for i, name in enumerate(NAMES)}
    nodes = {}
    for name in NAMES:
        # The batched driver is the shipping default; soak (and profile)
        # the path production nodes actually run.
        udp = await BatchedUdpTransport.create()
        transport = FaultyTransport(
            udp, rng=RandomSource(seed=13).spawn(f"soak-{name}"), **FAULTS
        )
        nodes[name] = await create_node(
            name,
            config.replace(
                keys=keys[name],
                metrics_path=str(out_dir / f"{name}.metrics.jsonl"),
            ),
            transport=transport,
        )
    for name, node in nodes.items():
        for other in NAMES:
            if other != name:
                node.add_peer(nodes[other].local_address)

    sent = 0
    for _ in range(rounds):
        for node in nodes.values():
            await node.broadcast(("payload", sent))
            sent += 1
        await asyncio.sleep(0.05)

    def delivered(node):
        # Own broadcasts included: full convergence is every node
        # having delivered every message sent.
        return node.endpoint.stats.sent + node.endpoint.stats.delivered

    def converged():
        return all(delivered(node) == sent for node in nodes.values())

    ok = await wait_for(converged)
    for node in nodes.values():
        await node.close()
    if not ok:
        counts = {n: delivered(node) for n, node in nodes.items()}
        raise SystemExit(f"soak never converged: sent={sent}, delivered={counts}")
    return sent


def check_merged(out_dir):
    snapshots = []
    for name in NAMES:
        snapshot = last_snapshot(out_dir / f"{name}.metrics.jsonl")
        if snapshot is None:
            raise SystemExit(f"{name} exported no metrics snapshot")
        snapshots.append(snapshot)
    fleet = merge_snapshots(snapshots)
    counters = fleet["counters"]
    waits = Histogram.from_dict(fleet["histograms"]["repro_delivery_wait_seconds"])
    beats = counters["repro_wire_heartbeats_sent_total"]
    suppressed = counters["repro_heartbeats_suppressed_total"]
    quarantines = counters["repro_liveness_quarantines_total"]
    gates = [
        ("detector checks > 0", counters["repro_detector_checks_total"] > 0),
        ("deliveries > 0", counters["repro_endpoint_delivered_total"] > 0),
        ("datagrams sent > 0", counters["repro_wire_datagrams_sent_total"] > 0),
        ("retransmits > 0 (loss was repaired)",
         counters["repro_wire_retransmits_total"] > 0),
        ("pending-depth gauge exported", "repro_pending_depth" in fleet["gauges"]),
        ("delivery-wait histogram populated", waits.count > 0),
        ("liveness ran (heartbeats sent + suppressed > 0, 0 quarantines)",
         beats + suppressed > 0 and quarantines == 0),
    ]
    failed = [label for label, passed in gates if not passed]
    rows = [
        ["deliveries", counters["repro_endpoint_delivered_total"]],
        ["detector checks", counters["repro_detector_checks_total"]],
        ["detector alerts", counters["repro_detector_alerts_total"]],
        ["datagrams sent", counters["repro_wire_datagrams_sent_total"]],
        ["retransmits", counters["repro_wire_retransmits_total"]],
        ["heartbeats sent / suppressed", f"{beats} / {suppressed}"],
        ["quarantines", quarantines],
        ["delivery wait p95 (s)", f"{waits.quantile(0.95):.4f}"],
        ["delivery wait mean (s)", f"{waits.mean:.4f}"],
    ]
    print(render_table(["fleet metric", "value"], rows, title="metered soak"))
    with open(out_dir / "merged.json", "w", encoding="utf-8") as handle:
        json.dump(fleet, handle, indent=2, sort_keys=True)
    if failed:
        for label in failed:
            print(f"GATE FAILED: {label}", file=sys.stderr)
        return 1
    print("all observability gates passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=12,
                        help="broadcast rounds (4 messages per round)")
    parser.add_argument("--quick", action="store_true",
                        help="short CI-sized run (6 rounds)")
    parser.add_argument("--out-dir", default=str(RESULTS_DIR / "metered_soak"))
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile; write soak.prof + "
                             "soak.profile.txt into --out-dir")
    args = parser.parse_args()
    out_dir = pathlib.Path(args.out_dir)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    rounds = 6 if args.quick else args.rounds
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()
        sent = asyncio.run(run_soak(out_dir, rounds))
        profiler.disable()
        profiler.dump_stats(out_dir / "soak.prof")
        text = io.StringIO()
        stats = pstats.Stats(profiler, stream=text)
        stats.strip_dirs().sort_stats("cumulative").print_stats(40)
        (out_dir / "soak.profile.txt").write_text(
            text.getvalue(), encoding="utf-8"
        )
        print(f"profile written to {out_dir}/soak.prof (+ .profile.txt)")
    else:
        sent = asyncio.run(run_soak(out_dir, rounds))
    print(f"converged: {sent} messages, metrics in {out_dir}/")
    return check_merged(out_dir)


if __name__ == "__main__":
    sys.exit(main())
