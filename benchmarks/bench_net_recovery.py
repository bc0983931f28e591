"""Crash-recovery economics of the networked node's journal.

`NodeJournal` trades WAL length against snapshot frequency
(`journal_snapshot_interval`): a small interval folds the WAL into a
snapshot often (cheap recovery, more steady-state fsync/rename work), a
large one lets the WAL grow (cheap steady state, longer replay at
restart).  This benchmark measures the trade end-to-end over real
loopback UDP: a journaled node handles a fixed pre-crash workload, is
crashed and restarted, and we record how many WAL records the restart
had to replay, how long the journal load took, and how long until
anti-entropy converged the node on the traffic it slept through.

Unlike the simulation benchmarks this one measures wall-clock of live
asyncio nodes, so the times are indicative rather than paper figures;
the *shape* asserted is the structural one: residual WAL length grows
with the snapshot interval.  Results are persisted as both the usual
text report and ``results/net_recovery.json`` for tooling.
"""

import asyncio
import json
import tempfile

from repro.api import NodeConfig, RetransmitPolicy, create_node
from repro.analysis.tables import render_table

from _common import RESULTS_DIR, report

SNAPSHOT_INTERVALS = (8, 64, 512)
PRE_CRASH_SENDS = 40      # journaled node's own broadcasts
PRE_CRASH_RECEIVES = 20   # peer broadcasts delivered before the crash
DOWN_WINDOW_SENDS = 10    # peer broadcasts while the node is down


async def _wait_for(predicate, timeout=30.0, interval=0.005):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while loop.time() < deadline:
        if predicate():
            return True
        await asyncio.sleep(interval)
    return False


def _delivered(node):
    """Every record ``node`` delivered, own broadcasts included."""
    return node.endpoint.stats.sent + node.endpoint.stats.delivered


async def _run_one(snapshot_interval, data_dir):
    config = NodeConfig(
        r=64, k=3, retransmit=RetransmitPolicy(initial_timeout=0.02),
        anti_entropy_interval=0.05,
        journal_snapshot_interval=snapshot_interval,
    )
    alice = await create_node("alice", config.replace(data_dir=data_dir))
    bob = await create_node("bob", config)
    alice.add_peer(bob.local_address)
    bob.add_peer(alice.local_address)

    for i in range(PRE_CRASH_SENDS):
        await alice.broadcast(("alice", i))
    for i in range(PRE_CRASH_RECEIVES):
        await bob.broadcast(("bob", i))
    assert await _wait_for(
        lambda: _delivered(alice) == PRE_CRASH_SENDS + PRE_CRASH_RECEIVES
    )
    assert await _wait_for(
        lambda: _delivered(bob) == PRE_CRASH_SENDS + PRE_CRASH_RECEIVES
    )

    port = alice.local_address[1]
    await alice.close()  # crash: the journal is the only persistence

    # Traffic the crashed node sleeps through; anti-entropy must heal it.
    for i in range(DOWN_WINDOW_SENDS):
        await bob.broadcast(("bob", "down", i))

    loop = asyncio.get_running_loop()
    t0 = loop.time()
    alice2 = await create_node(
        "alice", config.replace(data_dir=data_dir, port=port), start=False
    )
    load_ms = (loop.time() - t0) * 1e3
    assert alice2.recovered is not None
    wal_records = alice2.recovered.wal_records

    await alice2.start()
    alice2.add_peer(bob.local_address)
    t1 = loop.time()
    converged = await _wait_for(
        lambda: _delivered(alice2) == DOWN_WINDOW_SENDS
    )
    converge_ms = (loop.time() - t1) * 1e3
    assert converged, "restarted node never caught up"
    assert bob.endpoint.stats.duplicates == 0

    await alice2.close()
    await bob.close()
    return {
        "snapshot_interval": snapshot_interval,
        "wal_records_replayed": wal_records,
        "journal_load_ms": round(load_ms, 3),
        "post_crash_converge_ms": round(converge_ms, 3),
    }


def run_matrix():
    async def scenario():
        results = []
        for interval in SNAPSHOT_INTERVALS:
            with tempfile.TemporaryDirectory() as tmp:
                results.append(await _run_one(interval, tmp + "/alice"))
        return results

    return asyncio.run(scenario())


def test_net_recovery(benchmark):
    results = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    rows = [
        [
            point["snapshot_interval"],
            point["wal_records_replayed"],
            point["journal_load_ms"],
            point["post_crash_converge_ms"],
        ]
        for point in results
    ]
    table = render_table(
        ["snapshot_interval", "wal_replayed", "load_ms", "converge_ms"],
        rows,
        title=(
            f"journaled UDP node, {PRE_CRASH_SENDS} sends + "
            f"{PRE_CRASH_RECEIVES} receives pre-crash, "
            f"{DOWN_WINDOW_SENDS} missed during downtime"
        ),
    )
    report("net_recovery", table)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "net_recovery.json").write_text(
        json.dumps(results, indent=2) + "\n", encoding="utf-8"
    )

    # The structural claim: a larger snapshot interval leaves more WAL to
    # replay at recovery (monotone in interval over a fixed workload).
    replayed = [point["wal_records_replayed"] for point in results]
    assert replayed == sorted(replayed), replayed
    assert replayed[0] < replayed[-1], replayed
